"""repro.shard: hub-partitioned index slices behind one fleet router.

Full replication scales *reads*; this package also scales the *index
itself*: the hub space (the label entries' rank dimension) is
partitioned into K slices, each member materializing only the label
entries whose hub falls in its slice — roughly ``1/K`` of the memory —
while the :class:`FleetRouter` answers queries by probing one member per
slice and folding the per-slice ``(dist, count)`` partials with the
shared associative combiner (:func:`repro.audit.merge_partial_answers`).
A replicated fleet is the K=1 case of the same :class:`Fleet`.

Correctness rests on two facts:

* the primary runs the paper's full IncSPC/DecSPC maintenance (pruning
  needs the *whole* index, so members never repair labels themselves);
  members follow a per-batch **label-delta journal** the primary writes
  next to its WAL (``ServeConfig.label_journal``), and
* the hub slices *partition* the maintained index's hub set, so merging
  per-slice partials is exactly the full index's two-pointer merge: equal
  minimal distances add their counts, and nothing is ever double-counted.

A slice with no live member makes its hub range unreachable, so the
router **refuses** (:class:`~repro.exceptions.ShardError`) rather than
serving a silently wrong merged answer; :func:`ShardedCluster` wires
primary + members + router together with kill/restart fault operations.
"""

from repro.shard.journal import OP_LABEL, OP_NOP, OP_RESET, decode_label_op
from repro.shard.loadgen import run_shard_loadgen
from repro.shard.partitioner import (
    HashPartitioner,
    HubPartitioner,
    RangePartitioner,
    balanced_boundaries,
    hub_weights_from_payload,
    make_partitioner,
)
from repro.shard.planner import gather_chunks, split_batch
from repro.shard.router import FleetRouter
from repro.shard.shard import Shard, ShardStore, partial_answer
from repro.shard.fleet import Fleet, ShardConfig, ShardedCluster, shard_cluster

__all__ = [
    "Fleet",
    "FleetRouter",
    "HashPartitioner",
    "HubPartitioner",
    "RangePartitioner",
    "Shard",
    "ShardConfig",
    "ShardStore",
    "ShardedCluster",
    "balanced_boundaries",
    "decode_label_op",
    "gather_chunks",
    "hub_weights_from_payload",
    "make_partitioner",
    "partial_answer",
    "run_shard_loadgen",
    "shard_cluster",
    "split_batch",
    "OP_LABEL",
    "OP_NOP",
    "OP_RESET",
]

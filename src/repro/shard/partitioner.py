"""Hub partitioners: who owns which hub rank.

A partitioner is a *total* function from hub ranks (non-negative ints) to
shard ids — total because new vertices keep appending fresh ranks at the
tail of the vertex order, and a rank no shard owns would silently drop
label entries.  Three strategies:

* :class:`RangePartitioner` — contiguous rank ranges, the last one
  open-ended.  Ranges keep each shard's slice cache-friendly and make the
  assignment trivially auditable.
* :class:`HashPartitioner` — deterministic multiplicative hashing.  No
  locality, but new tail ranks spread evenly without re-balancing.
* *balanced* ranges (:func:`balanced_boundaries`) — contiguous ranges cut
  so each shard holds roughly the same number of label *entries*.  This
  matters: 2-hop labelings are extremely top-heavy (the highest-ranked
  hubs appear in nearly every vertex's label set), so equal-*width* rank
  ranges would give shard 0 most of the index and defeat the 1/K memory
  goal.
"""

import abc
from bisect import bisect_right

from repro.exceptions import ShardError


class HubPartitioner(abc.ABC):
    """Assigns every hub rank to exactly one of ``num_shards`` shards."""

    @property
    @abc.abstractmethod
    def num_shards(self):
        """How many shards this partitioner spreads the hub space over."""

    @abc.abstractmethod
    def shard_of(self, hub_rank):
        """The shard id owning ``hub_rank`` (total over rank >= 0)."""

    def keep(self, shard_id):
        """A predicate ``keep(hub_rank) -> bool`` for one shard's slice."""
        if not 0 <= shard_id < self.num_shards:
            raise ShardError(
                f"shard id {shard_id!r} out of range for "
                f"{self.num_shards} shards"
            )
        return lambda hub_rank: self.shard_of(hub_rank) == shard_id

    @abc.abstractmethod
    def describe(self):
        """JSON-safe description (bench results, stats)."""


class RangePartitioner(HubPartitioner):
    """Contiguous hub-rank ranges split at ``boundaries``.

    ``boundaries`` is a strictly increasing list of K-1 cut points: shard
    ``i`` owns ranks in ``[boundaries[i-1], boundaries[i])`` (with an
    implicit 0 on the left and +inf on the right).  The last range is
    open-ended on purpose — ranks appended for new vertices land in the
    tail shard instead of falling off the partition.
    """

    def __init__(self, boundaries):
        boundaries = list(boundaries)
        if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
            raise ShardError(
                f"range boundaries must be strictly increasing, "
                f"got {boundaries!r}"
            )
        if boundaries and boundaries[0] <= 0:
            raise ShardError(
                f"the first boundary must be > 0 (shard 0 owns the top "
                f"ranks), got {boundaries!r}"
            )
        self._boundaries = boundaries

    @classmethod
    def equal_width(cls, num_ranks, num_shards):
        """K equal-width rank ranges over ``num_ranks`` rank slots."""
        if num_shards < 1:
            raise ShardError(f"need >= 1 shard, got {num_shards!r}")
        width = max(1, num_ranks // num_shards)
        return cls([width * i for i in range(1, num_shards)])

    @property
    def num_shards(self):
        return len(self._boundaries) + 1

    @property
    def boundaries(self):
        return list(self._boundaries)

    def shard_of(self, hub_rank):
        return bisect_right(self._boundaries, hub_rank)

    def keep(self, shard_id):
        # Range slices get a closed-form predicate (no bisect per entry).
        if not 0 <= shard_id < self.num_shards:
            raise ShardError(
                f"shard id {shard_id!r} out of range for "
                f"{self.num_shards} shards"
            )
        bounds = self._boundaries
        lo = bounds[shard_id - 1] if shard_id > 0 else 0
        hi = bounds[shard_id] if shard_id < len(bounds) else None
        if hi is None:
            return lambda hub_rank: hub_rank >= lo
        return lambda hub_rank: lo <= hub_rank < hi

    def describe(self):
        return {"kind": "range", "boundaries": list(self._boundaries)}

    def __repr__(self):
        return f"RangePartitioner(boundaries={self._boundaries!r})"


class HashPartitioner(HubPartitioner):
    """Deterministic multiplicative-hash assignment of ranks to shards.

    Knuth's 32-bit multiplicative mix keeps adjacent ranks apart, so the
    top-heavy head of the rank space spreads across all shards without
    knowing the holder distribution up front.
    """

    _MIX = 2654435761  # 2^32 / phi, Knuth's multiplicative constant

    def __init__(self, num_shards, seed=0):
        if num_shards < 1:
            raise ShardError(f"need >= 1 shard, got {num_shards!r}")
        self._num_shards = num_shards
        self._seed = seed

    @property
    def num_shards(self):
        return self._num_shards

    def shard_of(self, hub_rank):
        mixed = ((hub_rank + self._seed) * self._MIX) & 0xFFFFFFFF
        return (mixed >> 16) % self._num_shards

    def describe(self):
        return {"kind": "hash", "shards": self._num_shards, "seed": self._seed}

    def __repr__(self):
        return (
            f"HashPartitioner(num_shards={self._num_shards}, "
            f"seed={self._seed})"
        )


def hub_weights_from_payload(payload):
    """Per-hub-rank label-entry counts from a checkpoint payload.

    Walks every vertex's label payload via the backend's
    ``iter_label_payloads`` (both families on directed graphs, since both
    cost memory), so it works for all registered backends — including the
    SD family, whose index keeps no reverse hub map to read holder counts
    from directly.  Returns ``{hub_rank: entries}``.
    """
    from repro.engine import get_backend

    backend_cls = get_backend(payload["backend"])
    weights = {}
    for _v, lp in backend_cls.iter_label_payloads(payload["index"]):
        families = lp.values() if isinstance(lp, dict) else (lp,)
        for entries in families:
            for entry in entries:
                h = entry[0]
                weights[h] = weights.get(h, 0) + 1
    return weights


def balanced_boundaries(weights, num_shards):
    """Greedy holder-balanced range cuts: K-1 boundaries over the ranks.

    Walks the ranks in order accumulating ``weights`` (label entries per
    rank) and cuts whenever the running total crosses the next ``1/K``
    quantile of the grand total — contiguous ranges, near-equal entry
    mass.  Degenerate inputs (fewer distinct ranks than shards) still
    return strictly increasing boundaries; the starved tail shards simply
    own empty ranges until new ranks grow into them.
    """
    if num_shards < 1:
        raise ShardError(f"need >= 1 shard, got {num_shards!r}")
    if num_shards == 1:
        return []
    total = sum(weights.values())
    if not total:
        return list(range(1, num_shards))
    cuts = []
    acc = 0
    for rank in sorted(weights):
        acc += weights[rank]
        if acc >= total * (len(cuts) + 1) / num_shards:
            cuts.append(rank + 1)
            if len(cuts) == num_shards - 1:
                break
    # Pad degenerate cases so the partitioner still has K ranges.
    while len(cuts) < num_shards - 1:
        cuts.append((cuts[-1] if cuts else 0) + 1)
    return cuts


def make_partitioner(kind, num_shards, payload=None, seed=0):
    """Build a partitioner by strategy name (``ClusterConfig.partitioner``).

    ``"hash"`` needs no index knowledge; ``"range"`` (equal-width) and
    ``"balanced"`` read the checkpoint ``payload`` the shards will
    bootstrap from.
    """
    if kind == "hash":
        return HashPartitioner(num_shards, seed=seed)
    if kind not in ("range", "balanced"):
        raise ShardError(
            f"unknown partitioner strategy {kind!r}; "
            f"choose from 'range', 'hash', 'balanced'"
        )
    if payload is None:
        raise ShardError(
            f"partitioner strategy {kind!r} needs a checkpoint payload"
        )
    if kind == "range":
        return RangePartitioner.equal_width(
            len(payload["index"]["order"]), num_shards
        )
    return RangePartitioner(
        balanced_boundaries(hub_weights_from_payload(payload), num_shards)
    )

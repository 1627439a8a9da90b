"""Seeded inputs for every workload, generated before any clock starts.

The same ``(seed, seconds)`` always yields the same graphs and operation
schedules; :func:`fingerprint` hashes them so paired runs can show that
they measured identical inputs.

``--seed`` draws every operation schedule (update streams, read pairs,
write batches).  The graphs come from the fixed ``GRAPH_SEED``: across
generator seeds the 1000-vertex index varies from 29.6k to 35.4k label
entries, which moved every timing of a run by up to a quarter and swamped
the schedule's own spread.
"""

import hashlib
import random
from dataclasses import dataclass

from repro.graph.generators import powerlaw_cluster, random_weighted
from repro.replay.traffic import ZipfPicker
from repro.workloads.queries import random_pairs
from repro.workloads.updates import (
    DeleteEdge,
    InsertEdge,
    SetWeight,
    hybrid_stream,
)

GRAPH_SEED = 0

# update-stream: a social-like graph, the paper's Fig. 10 hybrid stream.
# Stream lengths are fixed by --seconds, not by the clock, so one seed
# always applies the same updates; on a 2-core x86 VM the stream takes
# about 0.6 of the window, after a read phase of a quarter of it.
STREAM_VERTICES = 1000
ATTACH = 3
INSERTS_PER_DELETE = 5
STREAM_DELETES_PER_SECOND = 4
#: Uniform read pairs cycled by update-stream's read phase.
READBACK_PAIRS = 20000

# serve-sync, mixed-serve and the traced run's shard fleet: the graph the
# serving stack holds.  It is the update-stream size, not the 2000
# vertices first planned: at 2000 the write-side figures spread by a
# fifth or more between seeds.
FLEET_VERTICES = 1000
SHARDS = 3
ZIPF_ALPHA = 1.1
FLEET_READ_PAIRS = 100000

# serve-sync: the same hybrid stream in one-update batches, each awaited
# until published.  A publish copies the whole index (about 8 ms), so
# fewer deletes per second of window than update-stream keep the stream
# within the window.
SERVE_DELETES_PER_SECOND = 3

# mixed-serve (traced run only): fixed-rate reads beside one-update
# batches of the same hybrid stream.  Eight batches a second keep the
# writer about a quarter busy.
MIXED_READ_RATE = 400.0
MIXED_BATCH_RATE = 8.0

# weighted backend (traced run only).
WEIGHTED_VERTICES = 600
WEIGHTED_EDGES = 1800
WEIGHTED_MIXERS = 50


@dataclass
class Inputs:
    """Everything one workload run is given."""

    workload: str
    graph: object
    pairs: list          # (s, t) read pairs
    stream: list         # update objects, in order
    seed: int = 0
    #: mixed-serve only: (due_s, "read"|"write", index) in due order; a
    #: write submits the one-update batch ``[stream[index]]``.
    schedule: list = None


def zipf_pairs(graph, k, seed):
    """``k`` pairs with Zipf(1.1) sources and uniform targets."""
    vertices = sorted(graph.vertices())
    picker = ZipfPicker(vertices, seed=seed, alpha=ZIPF_ALPHA)
    rng = random.Random(seed + 1)
    return [(picker.pick(), rng.choice(vertices)) for _ in range(k)]


def _weighted_hybrid(graph, mixers, seed):
    """A hybrid stream whose deletes and SetWeights alternate.

    ``hybrid_stream`` places every delete before every SetWeight, so a
    prefix of it would never reach a SetWeight.
    """
    stream = hybrid_stream(
        graph, insertions=2 * mixers,
        deletions=mixers, set_weights=mixers, seed=seed,
    )
    dels = [u for u in stream if isinstance(u, DeleteEdge)]
    sets = [u for u in stream if isinstance(u, SetWeight)]
    alternating = [u for pair in zip(dels, sets) for u in pair]
    it = iter(alternating)
    return [u if isinstance(u, InsertEdge) else next(it) for u in stream]


def make_inputs(workload, seed, seconds):
    """Generate the named workload's inputs from ``seed``."""
    if workload == "update-stream":
        graph = powerlaw_cluster(STREAM_VERTICES, attach=ATTACH, seed=GRAPH_SEED)
        deletes = max(1, round(STREAM_DELETES_PER_SECOND * seconds))
        stream = hybrid_stream(
            graph, insertions=INSERTS_PER_DELETE * deletes,
            deletions=deletes, seed=seed + 1,
        )
        pairs = random_pairs(graph, READBACK_PAIRS, seed=seed + 2)
        return Inputs(workload, graph, pairs, stream, seed)
    if workload == "serve-sync":
        graph = powerlaw_cluster(FLEET_VERTICES, attach=ATTACH, seed=GRAPH_SEED)
        deletes = max(1, round(SERVE_DELETES_PER_SECOND * seconds))
        stream = hybrid_stream(
            graph, insertions=INSERTS_PER_DELETE * deletes,
            deletions=deletes, seed=seed + 1,
        )
        pairs = zipf_pairs(graph, READBACK_PAIRS, seed + 2)
        return Inputs(workload, graph, pairs, stream, seed)
    if workload == "weighted":
        graph = random_weighted(WEIGHTED_VERTICES, WEIGHTED_EDGES,
                                seed=GRAPH_SEED)
        stream = _weighted_hybrid(graph, WEIGHTED_MIXERS, seed + 1)
        pairs = random_pairs(graph, READBACK_PAIRS, seed=seed + 2)
        return Inputs(workload, graph, pairs, stream, seed)
    if workload == "fleet":
        graph = powerlaw_cluster(FLEET_VERTICES, attach=ATTACH, seed=GRAPH_SEED)
        pairs = zipf_pairs(graph, FLEET_READ_PAIRS, seed + 2)
        return Inputs(workload, graph, pairs, [], seed)
    if workload == "mixed-serve":
        graph = powerlaw_cluster(FLEET_VERTICES, attach=ATTACH, seed=GRAPH_SEED)
        n_reads = int(MIXED_READ_RATE * seconds)
        n_batches = int(MIXED_BATCH_RATE * seconds)
        deletes = n_batches // (INSERTS_PER_DELETE + 1) + 1
        stream = hybrid_stream(
            graph, insertions=INSERTS_PER_DELETE * deletes,
            deletions=deletes, seed=seed + 1,
        )[:n_batches]
        # Reads continue past the window, at the same rate, until every
        # batch is visible; the extra pairs serve that drain.
        pairs = zipf_pairs(graph, 2 * n_reads, seed + 2)
        schedule = sorted(
            [(i / MIXED_READ_RATE, "read", i) for i in range(n_reads)]
            + [(j / MIXED_BATCH_RATE, "write", j) for j in range(n_batches)],
            key=lambda ev: (ev[0], ev[1] == "read"),
        )
        return Inputs(workload, graph, pairs, stream, seed, schedule)
    raise ValueError(f"unknown workload {workload!r}")


def _edge_text(graph):
    if hasattr(graph, "set_weight"):
        return repr(sorted(graph.edges()))
    return repr(sorted(tuple(sorted(e)) for e in graph.edges()))


def fingerprint(inputs):
    """sha256 of the generated graph and of the operation schedule."""
    graph = hashlib.sha256(_edge_text(inputs.graph).encode()).hexdigest()
    ops = hashlib.sha256()
    ops.update(repr(inputs.pairs).encode())
    ops.update(repr(inputs.stream).encode())
    ops.update(repr(inputs.schedule).encode())
    return {"graph_sha256": graph, "schedule_sha256": ops.hexdigest()}

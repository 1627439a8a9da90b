"""The workloads, each timed from outside through public calls.

Every runner sets the stack up ``setups`` times (the median is
``setup_s``), runs its traffic, then checks a seeded sample of returned
answers and a set of final-state pairs against the traversal oracle.
With a :class:`~perfbench.spans.Tracer` it also records one span per
public call; without one it records nothing but its own timings.
"""

import collections
import gc
import random
from array import array
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import repro
from repro.exceptions import ReproError
from repro.serve import SPCService
from repro.shard import ShardedCluster
from repro.traversal import bfs_counting_pair
from repro.traversal.dijkstra import dijkstra_counting_pair
from repro.workloads.updates import DeleteEdge, InsertEdge, SetWeight

from perfbench.inputs import SHARDS

clock = time.perf_counter

#: Returned answers checked against the oracle, per run.
SAMPLED_CHECKS = 200
#: Pairs queried and checked once the traffic has stopped.
FINAL_CHECKS = 100
#: mixed-serve: how long reads may continue after the window while
#: waiting for the last batches to become visible.
DRAIN_LIMIT_S = 30.0
#: Set-ups per run; their median is ``setup_s``.
SETUPS = 5
#: Share of the window update-stream spends on its fixed-length stream
#: (its reads get the rest).
STREAM_SHARE = 0.75
#: update-stream alternates this many read blocks with as many chunks of
#: the stream, so that reads and updates both span the whole window: the
#: host's speed drifts by a quarter over seconds.
READ_BLOCKS = 50
#: Closed loops keep the latency of every this-many-th read: keeping all
#: of a million reads would tie peak_rss_mb to read throughput.
LAT_EVERY = 16
#: mixed-serve: the generator sleeps until this long before an
#: operation's due time and spins for the rest, so that how late the OS
#: wakes it does not count as read latency.
SPIN_S = 0.0005


@dataclass
class Run:
    """Raw samples of one workload run (all times in seconds)."""

    setup_s: list = field(default_factory=list)
    #: a compact float array (see :data:`LAT_EVERY`)
    read_lat: array = field(default_factory=lambda: array("d"))
    reads: int = 0
    read_wall: float = 0.0
    visible: list = field(default_factory=list)
    updates_applied: int = 0
    write_wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    mismatches: int = 0
    #: per-layer figures this run observed (stats() samples, lateness, ...)
    extra: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------

def apply_to_graph(graph, update):
    """Apply one workload update to a plain graph (the oracle's copy)."""
    if isinstance(update, InsertEdge):
        if update.weight is None:
            graph.add_edge(update.u, update.v)
        else:
            graph.add_edge(update.u, update.v, update.weight)
    elif isinstance(update, DeleteEdge):
        graph.remove_edge(update.u, update.v)
    elif isinstance(update, SetWeight):
        graph.set_weight(update.u, update.v, update.weight)
    else:
        raise TypeError(f"unsupported update {update!r}")


def oracle(graph, s, t):
    """(sd, spc) by traversal: BFS, or Dijkstra on weighted graphs."""
    if hasattr(graph, "set_weight"):
        return dijkstra_counting_pair(graph, s, t)
    return bfs_counting_pair(graph, s, t)


def check(run, graph, answered):
    """Compare ``((s, t), answer)`` items with the oracle on ``graph``."""
    for (s, t), answer in answered:
        run.checked += 1
        if tuple(answer) != tuple(oracle(graph, s, t)):
            run.mismatches += 1


def _sample_positions(seed, n, k=SAMPLED_CHECKS):
    return set(random.Random(seed).sample(range(n), min(k, n)))


def _final_pairs(inp):
    rng = random.Random(inp.seed + 99)
    return [rng.choice(inp.pairs) for _ in range(FINAL_CHECKS)]


# ----------------------------------------------------------------------
# Shared phases
# ----------------------------------------------------------------------

def set_up(run, inp, setups, start, tmp_root=None, tracer=None, span=None):
    """Start a stack ``setups`` times, each timed from the index build up
    to its first answered read, and keep the last one.

    ``start(graph, state_dir)`` builds the stack; with ``tmp_root`` each
    start gets a fresh state directory there, and the stacks not kept are
    closed and their directories removed.  Returns (stack, state_dir).
    """
    stack = state_dir = None
    for _ in range(setups):
        if stack is not None:
            tear_down(stack, state_dir)
        state_dir = tempfile.mkdtemp(dir=tmp_root) if tmp_root else None
        graph = inp.graph.copy()
        # The stacks torn down before are garbage; collect it untimed.
        gc.collect()
        t0 = clock()
        stack = start(graph, state_dir)
        stack.query(*inp.pairs[0])
        t1 = clock()
        run.setup_s.append(t1 - t0)
    if tracer is not None:
        tracer.record(span, t0, t1)
    return stack, state_dir


def tear_down(stack, state_dir):
    """Stop a stack started with a state directory and remove it."""
    if state_dir is not None:
        stack.close()
        shutil.rmtree(state_dir)


def closed_loop(run, query, inp, seconds, tracer=None, span=None, first=0):
    """One client cycling the read pairs through ``query`` for
    ``seconds``, from read number ``first`` on; refusals count as failed.
    Returns the sampled answers of the first pass through the pairs and
    the next read's number."""
    pairs = inp.pairs
    n = len(pairs)
    sample = _sample_positions(inp.seed, n)
    kept = []
    lat = run.read_lat
    i = first
    start = clock()
    deadline = start + seconds
    while True:
        s, t = pairs[i % n]
        t0 = clock()
        try:
            answer = query(s, t)
        except ReproError:
            answer = None
            run.failed += 1
        t1 = clock()
        if i % LAT_EVERY == 0:
            lat.append(t1 - t0)
        if tracer is not None:
            tracer.record(span, t0, t1, rid=i)
        if i < n and i in sample and answer is not None:
            kept.append(((s, t), answer))
        i += 1
        if t1 >= deadline:
            break
    run.read_wall += t1 - start
    run.reads += i - first
    run.attempted += i - first
    return kept, i


# ----------------------------------------------------------------------
# update-stream and serve-sync: closed-loop reads and a fixed stream
# ----------------------------------------------------------------------

def _open_engine(graph, _state_dir):
    return repro.open(graph, cache_size=0)


def start_service(graph, state_dir):
    """Build the index and start a WAL-backed service (fsync off)."""
    engine = repro.open(graph, cache_size=0)
    return SPCService(engine, durability_dir=state_dir, wal_fsync=False)


def _engine_step(engine):
    """update-stream's write: ``SPCEngine.apply``.  The update is visible
    to the next query as soon as it returns."""
    return lambda update: engine.apply(update).kind


def _service_step(svc):
    """serve-sync's write: a one-update ``submit_many`` and the ``flush``
    that returns once the writer has applied, logged and published it."""
    def step(update):
        errors = len(svc.errors)
        svc.submit_many([update])
        svc.flush()
        if len(svc.errors) > errors:
            return None
        return "delete" if isinstance(update, DeleteEdge) else "insert"
    return step


#: stack name -> (start(graph, state_dir), write step, needs a state
#: directory); the read is the stack's own ``query``.
STACKS = {
    "engine": (_open_engine, _engine_step, False),
    "service": (start_service, _service_step, True),
}


def run_stream(inp, seconds, stack="engine", tmp_root=None, setups=SETUPS,
               tracer=None):
    """Closed-loop ``query`` for a quarter of ``seconds`` and the whole
    hybrid stream, one update per write, in :data:`READ_BLOCKS`
    alternating blocks, then a check of the final state.  Reads are
    checked against the state they saw.

    ``stack`` is ``"engine"`` (update-stream: ``SPCEngine``, cache off)
    or ``"service"`` (serve-sync: ``SPCService`` with a WAL in a
    directory under ``tmp_root``).  An update's visibility latency is the
    time its write step takes.
    """
    start, make_step, durable = STACKS[stack]
    run = Run()
    target, state_dir = set_up(run, inp, setups, start,
                               tmp_root if durable else None, tracer,
                               f"{stack}.open")
    try:
        step = make_step(target)
        final = _blocks(run, inp, seconds, target.query, step, stack,
                        tracer)
        check(run, final,
              [((s, t), target.query(s, t)) for s, t in _final_pairs(inp)])
    finally:
        tear_down(target, state_dir)
    return run


def _blocks(run, inp, seconds, query, step, stack, tracer):
    """The alternating read blocks and stream chunks; returns the oracle's
    graph after the stream."""
    oracle_graph = inp.graph.copy()
    kinds = collections.Counter()
    stream = inp.stream
    block_s = (1 - STREAM_SHARE) * seconds / READ_BLOCKS
    chunk = -(-len(stream) // READ_BLOCKS)
    read_no = 0
    for first in range(0, READ_BLOCKS * chunk, chunk):
        kept, read_no = closed_loop(run, query, inp, block_s, tracer,
                                    f"{stack}.query", read_no)
        check(run, oracle_graph, kept)
        start = clock()
        for i in range(first, min(first + chunk, len(stream))):
            update = stream[i]
            run.attempted += 1
            t0 = clock()
            try:
                kind = step(update)
            except ReproError:
                kind = None
            t1 = clock()
            if kind is None:
                run.failed += 1
                continue
            run.visible.append(t1 - t0)
            kinds[kind] += 1
            apply_to_graph(oracle_graph, update)
            if tracer is not None:
                tracer.record(f"{stack}.apply.{kind}", t0, t1, rid=i)
        run.write_wall += clock() - start
    run.updates_applied = sum(kinds.values())
    run.extra["by_kind"] = dict(kinds)
    return oracle_graph


# ----------------------------------------------------------------------
# Shard fleet reads (traced run only)
# ----------------------------------------------------------------------

def start_fleet(graph, state_dir, shards=SHARDS):
    """Build the index and start a sharded fleet over it."""
    engine = repro.open(graph, cache_size=0)
    return ShardedCluster(engine, state_dir, shards=shards,
                          partitioner="balanced")


def run_fleet_reads(inp, seconds, tmp_root, tracer):
    """Point reads, one closed-loop client, against K=3 hub shards."""
    run = Run()
    fleet, state_dir = set_up(run, inp, 1, start_fleet, tmp_root,
                              tracer, "shard.bootstrap")
    try:
        kept, _ = closed_loop(run, fleet.query, inp, seconds,
                              tracer, "shard.query")
        check(run, inp.graph, kept)
        run.extra["refusals"] = fleet.router.stats()["refusals"]
    finally:
        tear_down(fleet, state_dir)
    return run


# ----------------------------------------------------------------------
# mixed-serve: open-loop reads and write batches against SPCService
# ----------------------------------------------------------------------

def run_mixed_serve(inp, seconds, tmp_root, setups=SETUPS, tracer=None):
    """One generator thread issues the schedule open loop: fixed-rate
    pinned-snapshot reads and one-update ``submit_many`` batches.

    Read latency counts from each read's due time.  A batch is visible
    once a read pins a snapshot whose epoch covers it (each applied
    update advances the engine epoch by one).
    """
    run = Run()
    svc, state_dir = set_up(run, inp, setups, start_service, tmp_root)
    try:
        open_loop(run, svc, inp, seconds, tracer)
    finally:
        tear_down(svc, state_dir)
    return run


def wait_until(due):
    """Sleep until :data:`SPIN_S` before ``due``, then spin to it."""
    wait = due - clock() - SPIN_S
    if wait > 0:
        time.sleep(wait)
    while clock() < due:
        pass


def open_loop(run, svc, inp, seconds, tracer=None, wait=wait_until,
              now=clock):
    """Drive ``inp.schedule`` against ``svc``; fills ``run``.

    ``wait`` and ``now`` are injectable so the due-time accounting can be
    tested on a virtual clock.
    """
    first = svc.snapshot()
    base_epoch, base_seq = first.epoch, first.seq
    published_before = svc.stats()["snapshots_published"]
    read_rate = sum(1 for ev in inp.schedule if ev[1] == "read") / seconds
    sample = _sample_positions(inp.seed, len(inp.pairs))
    pending = collections.deque()  # (due, epoch that makes the batch visible)
    pinned = set()
    kept = []
    late, lag, depth = [], [], []
    submitted = 0
    last_visible = None

    def read(i, due, timed):
        nonlocal last_visible
        s, t = inp.pairs[i]
        t_pin = now()
        snap = svc.snapshot()
        t_got = now()
        answer = snap.query(s, t)
        t1 = now()
        if timed:
            run.read_lat.append(t1 - due)
            run.reads += 1
        if tracer is not None:
            parent = tracer.record("mixed.read", due, t1, rid=i)
            tracer.record("serve.snapshot", t_pin, t_got, parent, i)
            tracer.record("serve.snapshot_query", t_got, t1, parent, i)
        pinned.add(snap.seq)
        while pending and pending[0][1] <= snap.epoch:
            run.visible.append(t_pin - pending.popleft()[0])
            last_visible = t_pin
        if i in sample:
            kept.append((snap.epoch - base_epoch, (s, t), answer))
        if i % 8 == 0:
            stats = svc.stats()
            lag.append(stats["lag_batches"])
            depth.append(stats["queue_depth"])
        return t1

    t_base = now()
    t_end = t_base
    reads = 0
    for due_rel, kind, idx in inp.schedule:
        due = t_base + due_rel
        wait(due)
        issued = now()
        late.append(issued - due)
        run.attempted += 1
        if kind == "read":
            t_end = read(idx, due, True)
            reads += 1
            continue
        try:
            svc.submit_many([inp.stream[idx]])
        except ReproError:
            run.failed += 1
            continue
        if tracer is not None:
            tracer.record("serve.submit_many", issued, now(), rid=idx)
        submitted += 1
        pending.append((due, base_epoch + submitted))
    run.read_wall = t_end - t_base

    # Drain: keep reading at the same rate until every batch is visible.
    i = reads
    while pending and i < len(inp.pairs) and now() < t_end + DRAIN_LIMIT_S:
        due = t_base + i / read_rate
        wait(due)
        read(i, due, False)
        i += 1
    run.attempted += i - reads
    run.failed += len(pending)  # batches never seen by a read
    run.updates_applied = submitted - len(pending)
    run.write_wall = (last_visible or t_end) - t_base

    svc.flush()
    stats = svc.stats()
    run.failed += len(svc.errors)
    published = stats["snapshots_published"] - published_before
    run.extra.update({
        "late": late,
        "lag_batches": lag,
        "queue_depth": depth,
        "snapshots_published": published,
        "snapshots_read": len(pinned - {base_seq}),
    })

    # Sampled reads: replay the stream into the oracle graph, epoch order.
    oracle_graph = inp.graph.copy()
    applied = 0
    for epoch, pair, answer in sorted(kept, key=lambda item: item[0]):
        while applied < epoch:
            apply_to_graph(oracle_graph, inp.stream[applied])
            applied += 1
        check(run, oracle_graph, [(pair, answer)])
    while applied < submitted:
        apply_to_graph(oracle_graph, inp.stream[applied])
        applied += 1
    final = [((s, t), svc.query(s, t)) for s, t in _final_pairs(inp)]
    run.attempted += len(final)
    check(run, oracle_graph, final)

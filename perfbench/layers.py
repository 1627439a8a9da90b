"""The traced run: every workload with spans, plus fixed-size layer probes.

The traced run does not depend on ``--workload``: it covers every layer,
so it emits every per-layer metric:

* update-stream, mixed-serve and closed-loop reads against a K=3 shard
  fleet each run for a quarter of ``--seconds``, one set-up, with a span
  around every public call they make.  mixed-serve is the serving stack
  under concurrent load: open-loop reads timed from their due times
  beside one-update batches, from one generator thread.  Its read tail
  follows how the host schedules the reader and the service's writer
  thread as much as the program, so it is a per-layer figure here and
  not a timed workload;
* the weighted probe builds through ``repro.open`` on a WeightedGraph and
  applies a fixed prefix of a SetWeight-mixing hybrid stream;
* the read layer-tax probe sends the same seeded pairs through index ->
  engine -> snapshot -> service -> cluster -> shard K=1 -> shard K=3;
* the write-path probe replays mixed-serve's batches synchronously through
  ``SPCEngine.apply_batch``, ``WriteAheadLog.append`` and
  ``backend.snapshot_index()`` at the same index size;
* the core and weighted probes apply a fixed stream prefix, so the counts
  they read off the returned ``UpdateStats`` repeat exactly for a seed.

The weighted backend has no timed workload of its own: its per-update
cost varies too much between seeds to hold an end-to-end bound.
"""

import os
import shutil
import tempfile
import time

import repro
from repro.cluster import SPCCluster
from repro.core import build_spc_index, dec_spc, inc_spc
from repro.serve import SPCService, WriteAheadLog
from repro.workloads.updates import InsertEdge

from perfbench import workloads
from perfbench.inputs import make_inputs
from perfbench.spans import Tracer
from perfbench.stats import percentile

clock = time.perf_counter

#: Stream prefix applied by the core probe (about 20 deletes).
CORE_PREFIX = 120
#: Stream prefix applied by the weighted probe.
WEIGHTED_PREFIX = 30
#: Seeded pairs sent through every read layer.
TAX_PAIRS = 2000
#: mixed-serve batches replayed by the write-path probe.
WRITE_PREFIX = 24
#: Alternating untraced/traced blocks of the overhead probe.
OVERHEAD_BLOCKS = 8
OVERHEAD_BLOCK_READS = 1000
BUILD_REPEATS = 3

#: Read layers in stack order: (row label, span name, metric name).
READ_LAYERS = (
    ("index", "tax.index", "core.query_us_p50"),
    ("engine", "tax.engine", "engine.query_us_p50"),
    ("snapshot", "tax.snapshot", "serve.snapshot_query_us_p50"),
    ("service", "tax.service", "serve.query_us_p50"),
    ("cluster", "tax.cluster", "cluster.query_us_p50"),
    ("shard K=1", "tax.shard_k1", "shard.k1_query_us_p50"),
    ("shard K=3", "tax.shard_k3", "shard.query_us_p50"),
)

# Counts read off UpdateStats.
COUNT_METRICS = (
    "core.index_entries",
    "core.bfs_visits_per_insert",
    "core.bfs_visits_per_delete",
    "core.affected_hubs_per_delete",
    "core.sr_per_delete",
    "core.r_per_delete",
    "core.label_ops_per_insert",
    "core.label_ops_per_delete",
    "serve.wal_bytes_per_update",
    "weighted.visits_per_delete",
    "weighted.label_ops_per_update",
)


def _per(stats, kind, attr):
    chosen = [s for s in stats if s.kind == kind]
    return sum(attr(s) for s in chosen) / len(chosen)


def core_probe(inp, tracer):
    """Build the index directly, then run IncSPC / DecSPC on a copy."""
    for _ in range(BUILD_REPEATS):
        t0 = clock()
        index = build_spc_index(inp.graph)
        tracer.record("core.build", t0, clock())
    entries = index.num_entries
    graph = inp.graph.copy()
    stats = []
    for i, update in enumerate(inp.stream[:CORE_PREFIX]):
        call = inc_spc if isinstance(update, InsertEdge) else dec_spc
        t0 = clock()
        stats.append(call(graph, index, update.u, update.v))
        tracer.record(f"core.{call.__name__}", t0, clock(), rid=i)
    visits = sum(s.bfs_visits for s in stats)
    return {
        "core.build_s": (tracer.p50("core.build"), "s"),
        "core.index_entries": (entries, "count"),
        "core.inc_spc_ms_p50": (tracer.p50("core.inc_spc") * 1e3, "ms"),
        "core.dec_spc_ms_p50": (tracer.p50("core.dec_spc") * 1e3, "ms"),
        "core.bfs_visits_per_insert":
            (_per(stats, "insert", lambda s: s.bfs_visits), "count"),
        "core.bfs_visits_per_delete":
            (_per(stats, "delete", lambda s: s.bfs_visits), "count"),
        "core.affected_hubs_per_delete":
            (_per(stats, "delete", lambda s: s.affected_hubs), "count"),
        "core.sr_per_delete":
            (_per(stats, "delete", lambda s: s.sr_a + s.sr_b), "count"),
        "core.r_per_delete":
            (_per(stats, "delete", lambda s: s.r_a + s.r_b), "count"),
        "core.label_ops_per_insert":
            (_per(stats, "insert", lambda s: s.total_label_ops), "count"),
        "core.label_ops_per_delete":
            (_per(stats, "delete", lambda s: s.total_label_ops), "count"),
        "core.useful_visit_frac":
            (sum(s.total_label_ops for s in stats) / visits, "ratio"),
    }


def weighted_probe(inp, tracer):
    """Build through ``repro.open`` on the WeightedGraph, then apply a
    fixed stream prefix through the weighted engine."""
    for _ in range(BUILD_REPEATS):
        t0 = clock()
        engine = repro.open(inp.graph.copy(), cache_size=0)
        tracer.record("weighted.open", t0, clock())
    stats = []
    for i, update in enumerate(inp.stream[:WEIGHTED_PREFIX]):
        t0 = clock()
        stats.append(engine.apply(update))
        tracer.record("weighted.apply", t0, clock(), rid=i)
    return {
        "weighted.build_s": (tracer.p50("weighted.open"), "s"),
        "weighted.visits_per_delete":
            (_per(stats, "delete", lambda s: s.bfs_visits), "count"),
        "weighted.label_ops_per_update":
            (sum(s.total_label_ops for s in stats) / len(stats), "count"),
    }


def _timed_reads(queries, pairs, tracer):
    """Each pair through every layer in turn, so drift in machine speed
    reaches all layers alike; returns one answer list per layer.

    Every layer holds its own copy of the labels, so each pair first goes
    through all layers untimed: otherwise the first layer to touch a
    pair's labels would pay for the cache misses of the layers after it.
    """
    answers = [[] for _ in queries]
    for i, (s, t) in enumerate(pairs):
        for query in queries:
            query(s, t)
        parent = tracer.reserve("tax.pair", clock(), rid=i)
        for (_, span, _), query, out in zip(READ_LAYERS, queries, answers):
            t0 = clock()
            out.append(query(s, t))
            tracer.record(span, t0, clock(), parent, i)
        tracer.close(parent, clock())
    return answers


def read_tax_probe(inp, tracer, tmp_root, run):
    """Same pairs through every read layer; all layers must agree."""
    pairs = inp.pairs[:TAX_PAIRS]
    engine = repro.open(inp.graph.copy(), cache_size=0)
    service = SPCService(engine)
    dirs = [tempfile.mkdtemp(dir=tmp_root) for _ in range(3)]
    stacks = []
    try:
        t0 = clock()
        cluster = SPCCluster(repro.open(inp.graph.copy(), cache_size=0),
                             dirs[0], replicas=1)
        tracer.record("cluster.bootstrap", t0, clock())
        stacks.append(cluster)
        k1 = workloads.start_fleet(inp.graph.copy(), dirs[1], shards=1)
        stacks.append(k1)
        k3 = workloads.start_fleet(inp.graph.copy(), dirs[2])
        stacks.append(k3)
        queries = (engine.index.query, engine.query, service.snapshot().query,
                   service.query, cluster.query, k1.query, k3.query)
        answers = _timed_reads(queries, pairs, tracer)
        overhead = overhead_probe(k3, pairs)
    finally:
        for stack in [service] + stacks:
            stack.close()
        for d in dirs:
            shutil.rmtree(d)
    run.attempted += len(pairs) * len(READ_LAYERS)
    run.mismatches += sum(
        a != b for layer in answers[1:] for a, b in zip(answers[0], layer))
    workloads.check(run, inp.graph, list(zip(pairs, answers[-1]))[:100])
    metrics = {metric: (tracer.p50(span) * 1e6, "us")
               for _, span, metric in READ_LAYERS}
    metrics["cluster.bootstrap_s"] = (tracer.p50("cluster.bootstrap"), "s")
    metrics["loadgen.trace_overhead_pct"] = (overhead, "%")
    return metrics


def overhead_probe(stack, pairs):
    """Per-read cost with span recording against without, in alternating
    blocks of the same pairs; returns the extra cost in percent."""
    scratch = Tracer()
    plain = traced = 0.0
    block = pairs[:OVERHEAD_BLOCK_READS]
    for b in range(OVERHEAD_BLOCKS):
        lat = []
        t_start = clock()
        if b % 2:
            for i, (s, t) in enumerate(block):
                t0 = clock()
                stack.query(s, t)
                t1 = clock()
                lat.append(t1 - t0)
                scratch.record("overhead.query", t0, t1, rid=i)
            traced += clock() - t_start
        else:
            for s, t in block:
                t0 = clock()
                stack.query(s, t)
                lat.append(clock() - t0)
            plain += clock() - t_start
    return (traced / plain - 1.0) * 100.0


def write_path_probe(inp, tracer, tmp_root):
    """mixed-serve's one-update batches through the writer's three steps,
    synchronously: apply, WAL append, publish copy."""
    engine = repro.open(inp.graph.copy(), cache_size=0)
    state_dir = tempfile.mkdtemp(dir=tmp_root)
    wal = WriteAheadLog(os.path.join(state_dir, "wal.jsonl"),
                        backend=engine.backend_name)
    updates = inp.stream[:WRITE_PREFIX]
    try:
        for seq, update in enumerate(updates, start=1):
            t0 = clock()
            engine.apply_batch([update])
            t1 = clock()
            wal.append(seq, [update])
            t2 = clock()
            engine.backend.snapshot_index()
            t3 = clock()
            parent = tracer.record("write.batch", t0, t3, rid=seq)
            tracer.record("engine.apply_batch", t0, t1, parent, seq)
            tracer.record("serve.wal_append", t1, t2, parent, seq)
            tracer.record("serve.publish", t2, t3, parent, seq)
        wal_bytes = wal.size
    finally:
        wal.close()
        shutil.rmtree(state_dir)
    return {
        "serve.apply_ms_p50": (tracer.p50("engine.apply_batch") * 1e3, "ms"),
        "serve.wal_append_ms_p50": (tracer.p50("serve.wal_append") * 1e3, "ms"),
        "serve.publish_ms_p50": (tracer.p50("serve.publish") * 1e3, "ms"),
        "serve.wal_bytes_per_update": (wal_bytes / len(updates), "count"),
    }, engine.index.num_entries


def traced_run(seed, seconds, tmp_root, out_dir):
    """Returns (correct, attempted, failed, per-layer metrics)."""
    tracer = Tracer()
    phase = seconds / 4.0
    inputs = {name: make_inputs(name, seed, phase)
              for name in ("update-stream", "weighted", "fleet",
                           "mixed-serve")}
    runs = [
        workloads.run_stream(inputs["update-stream"], phase, "engine",
                             setups=1, tracer=tracer),
        workloads.run_fleet_reads(inputs["fleet"], phase, tmp_root, tracer),
        workloads.run_mixed_serve(inputs["mixed-serve"], phase, tmp_root, 1,
                                  tracer),
    ]
    probe = workloads.Run()
    metrics = core_probe(inputs["update-stream"], tracer)
    metrics.update(weighted_probe(inputs["weighted"], tracer))
    metrics.update(read_tax_probe(inputs["fleet"], tracer, tmp_root, probe))
    write_metrics, write_entries = write_path_probe(
        inputs["mixed-serve"], tracer, tmp_root)
    metrics.update(write_metrics)

    fleet, mixed = runs[1], runs[2]
    metrics.update({
        "engine.insert_ms_p50": (tracer.p50("engine.apply.insert") * 1e3, "ms"),
        "engine.delete_ms_p50": (tracer.p50("engine.apply.delete") * 1e3, "ms"),
        "shard.bootstrap_s": (tracer.p50("shard.bootstrap"), "s"),
        "shard.refusals": (fleet.extra["refusals"], "count"),
        "serve.submit_us_p50": (tracer.p50("serve.submit_many") * 1e6, "us"),
        "serve.snapshots_published":
            (mixed.extra["snapshots_published"], "count"),
        "serve.snapshots_read_frac": (
            mixed.extra["snapshots_read"]
            / max(1, mixed.extra["snapshots_published"]), "ratio"),
        "serve.lag_batches_p90":
            (percentile(mixed.extra["lag_batches"], 90), "count"),
        "serve.queue_depth_max": (max(mixed.extra["queue_depth"]), "count"),
        "serve.mixed_read_p99_us":
            (percentile(mixed.read_lat, 99) * 1e6, "us"),
        "serve.mixed_visible_p50_ms":
            (percentile(mixed.visible, 50) * 1e3, "ms"),
        "loadgen.late_p99_ms":
            (percentile(mixed.extra["late"], 99) * 1e3, "ms"),
    })

    print_tables(seed, tracer, metrics, write_entries)
    # Replaced by the next traced run.
    tracer.write(os.path.join(out_dir, "spans.jsonl.gz"),
                 {"seed": seed, "seconds": seconds})
    runs.append(probe)
    correct = all(r.mismatches == 0 for r in runs) and all(
        r.checked > 0 for r in runs)
    return (correct, sum(r.attempted for r in runs),
            sum(r.failed for r in runs), dict(sorted(metrics.items())))


def print_tables(seed, tracer, metrics, write_entries):
    """Read layer-tax table, write-path table, span self times, metrics."""
    print(f"traced run  seed {seed}")
    print("read path: same seeded pairs through each layer (p50 us)")
    previous = None
    for label, _, metric in READ_LAYERS:
        value = metrics[metric][0]
        adds = "" if previous is None else f"{value - previous:+10.2f}"
        print(f"  {label:<10} {value:10.2f} {adds}")
        previous = value
    print(f"write path: one-update batches at {write_entries} label entries"
          " (p50 ms)")
    for key in ("serve.apply_ms_p50", "serve.wal_append_ms_p50",
                "serve.publish_ms_p50"):
        print(f"  {key:<26} {metrics[key][0]:10.3f}")
    print("spans: name, count, total ms, self ms")
    for name, (count, total, own) in sorted(tracer.self_times().items()):
        print(f"  {name:<24} {count:8d} {total * 1e3:12.2f} {own * 1e3:12.2f}")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"  {key:<32} {value:14.4f} {unit}")


"""Shard load harness: a hub-partitioned fleet under live shadow audit.

Drives concurrent scatter-gather reads and a cyclic update stream against
a :class:`~repro.shard.ShardedCluster`, with the audit stack attached end
to end: an :class:`~repro.audit.AuditSampler` tapped into the shard
router — so what gets differentially verified is the *merged cross-shard
answer*, tagged with its consistent-cut seq — and a
:class:`~repro.audit.ShadowAuditor` replaying the primary's WAL.

The strict contract is the package's two safety claims, checked exactly:

* **zero divergences** — merging per-shard partials at a consistent cut
  must reproduce the full index's answers, under whatever churn ran;
* **refusal, never wrong** — with ``kill`` the run hard-stops one shard
  mid-stream: readers must observe :class:`~repro.exceptions.ShardError`
  refusals (counted, not failed) while the slice is missing, the fleet
  must serve again after ``restart``, and the divergence count must
  still be zero.

The report also carries the **memory criterion**: each shard's peak
materialized slice must stay within ``(1 + epsilon) / K`` of the
unsharded primary's label entries (strict mode fails the run otherwise).
Wired into the benchmark CLI as ``repro-bench shard``.
"""

import random
import shutil
import tempfile
import threading
import time

from repro.audit.comparator import DivergenceReport
from repro.audit.sampler import AuditSampler
from repro.audit.shadow import ShadowAuditor
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import AuditDivergenceError, ShardError, ServeError
from repro.serve.loadgen import _percentile, make_workload
from repro.serve.service import ServeConfig
from repro.shard.fleet import ShardConfig, ShardedCluster


def _primary_entries(engine):
    """Total label entries in the unsharded primary index (the 1/K
    criterion's denominator).  Call only while the writer is quiesced."""
    backend = engine.backend
    total = 0
    for v in engine.graph.vertices():
        lp = backend.label_payload(v)
        if lp is None:
            continue
        if isinstance(lp, dict):
            total += sum(len(entries) for entries in lp.values())
        else:
            total += len(lp)
    return total


def _reader_loop(cluster, pairs, deadline, seed, record):
    """Scatter-gather point + batch reads until the deadline.

    A :class:`ShardError` is the *designed* degraded mode (a shard is
    down, or no consistent cut was reachable in time) — counted as a
    refusal and retried, never a reader failure.
    """
    rng = random.Random(seed)
    latencies = []
    problems = []
    reads = 0
    refusals = 0
    post_restart_reads = 0
    try:
        while time.time() < deadline:
            s, t = pairs[rng.randrange(len(pairs))]
            start = time.perf_counter()
            try:
                cluster.query_tagged(s, t)
            except ShardError:
                refusals += 1
                time.sleep(0.002)  # don't hot-spin against a down fleet
                continue
            latencies.append(time.perf_counter() - start)
            reads += 1
            if record.get("restarted_at") is not None:
                post_restart_reads += 1
            if reads % 64 == 0:
                batch = [pairs[rng.randrange(len(pairs))] for _ in range(8)]
                try:
                    cluster.query_many(batch)
                    reads += len(batch)
                except ShardError:
                    refusals += 1
    except Exception as exc:  # noqa: BLE001 — a dead reader fails the run
        problems.append(f"reader thread crashed: {exc!r}")
    record["reads"] = reads
    record["refusals"] = refusals
    record["post_restart_reads"] = post_restart_reads
    record["latencies"] = latencies
    record["problems"] = problems


def _submitter_loop(cluster, cycle, deadline, batch_size, pause, record):
    submitted = 0
    i = 0
    record["problems"] = problems = []
    try:
        while cycle and time.time() < deadline:
            chunk = cycle[i:i + batch_size]
            if not chunk:
                i = 0
                continue
            cluster.submit_many(chunk)
            submitted += len(chunk)
            i = (i + len(chunk)) % len(cycle)
            if pause:
                time.sleep(pause)
    except Exception as exc:  # noqa: BLE001 — surfaced as a run failure
        problems.append(f"submitter thread crashed: {exc!r}")
    record["submitted"] = submitted


def _fault_controller(cluster, deadline, duration, restart, shared, record):
    """Kill shard-0 at 0.35·T; optionally restart it at 0.65·T.

    Absolute scheduling against the run's start (killing a shard joins
    its applier thread, so relative sleeps would drift the restart past
    the deadline on short runs).
    """
    problems = []
    events = {}
    start = deadline - duration
    try:
        time.sleep(max(0.0, start + duration * 0.35 - time.time()))
        if time.time() < deadline:
            cluster.kill("shard-0")
            events["killed"] = "shard-0"
            events["killed_at_seq"] = cluster.primary.applied_seq
        if restart:
            time.sleep(max(0.0, start + duration * 0.65 - time.time()))
            if "killed" in events and time.time() < deadline:
                cluster.restart("shard-0")
                events["restarted"] = "shard-0"
                events["restarted_at_seq"] = cluster.primary.applied_seq
                for rec in shared:
                    rec["restarted_at"] = time.time()
            elif "killed" in events:
                problems.append(
                    f"restart missed its injection window (raise duration "
                    f"above {duration} s)"
                )
    except Exception as exc:  # noqa: BLE001 — a failed injection is a failure
        problems.append(f"fault controller crashed: {exc!r}")
    record["events"] = events
    record["problems"] = problems


def run_shard_loadgen(backend="core", shards=4, partitioner="balanced",
                      readers=3, duration=1.2, n=240, m=720, churn=30,
                      batch_size=6, pause=0.001, seed=0,
                      sample_rate=0.2, reservoir=512, history=1024,
                      kill=False, restart=True, epsilon=0.35,
                      drain_timeout=30.0, state_dir=None, telemetry=None,
                      strict=True):
    """Run one audited shard-fleet load; returns a report dict.

    ``kill`` hard-stops shard-0 mid-run (and ``restart`` recovers it);
    ``epsilon`` is the slack of the per-shard ``(1+ε)/K`` memory bound.
    See the module docstring for the strict-mode contract.  With
    ``telemetry`` set to a directory, the fleet + audit stack are
    instrumented end to end and the registry is written there as a
    ``shard-<backend>[-kill].prom``/``.json`` pair.
    """
    graph, cycle, pairs = make_workload(backend, n, m, seed=seed, churn=churn)
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    own_dir = state_dir is None
    state_dir = state_dir or tempfile.mkdtemp(prefix="repro-shard-")
    serve_config = ServeConfig(queue_capacity=4096)
    shard_config = ShardConfig(shards=shards, partitioner=partitioner)
    cluster = None
    auditor = None
    try:
        cluster = ShardedCluster(
            engine, state_dir, config=shard_config,
            serve_config=serve_config, overwrite=True,
        )
        entries_at_start = _primary_entries(engine)
        sampler = AuditSampler(
            rate=sample_rate, capacity=reservoir, seed=seed + 5
        )
        cluster.set_answer_tap(sampler)
        auditor = ShadowAuditor(
            sampler, state_dir,
            report=DivergenceReport(),
            history=history,
        )
        registry = tracer = None
        if telemetry is not None:
            from repro.obs import MetricsRegistry, Tracer

            registry = MetricsRegistry()
            tracer = Tracer()
            cluster.set_metrics(registry, tracer=tracer)
            engine.set_metrics(registry)
            sampler.set_metrics(registry)
            auditor.set_metrics(registry)
    except BaseException:
        if auditor is not None:
            try:
                auditor.close()
            except ServeError:
                pass
        if cluster is not None:
            try:
                cluster.close()
            except ShardError:
                pass
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)
        raise

    run_started = time.time()
    deadline = run_started + duration
    reader_records = [{"restarted_at": None} for _ in range(readers)]
    threads = [
        threading.Thread(
            target=_reader_loop,
            args=(cluster, pairs, deadline, seed + 30 + i, reader_records[i]),
            name=f"shard-reader-{i}",
        )
        for i in range(readers)
    ]
    submit_record = {}
    threads.append(threading.Thread(
        target=_submitter_loop,
        args=(cluster, cycle, deadline, batch_size, pause, submit_record),
        name="shard-submitter",
    ))
    fault_record = {"events": {}, "problems": []}
    if kill:
        threads.append(threading.Thread(
            target=_fault_controller,
            args=(cluster, deadline, duration, restart, reader_records,
                  fault_record),
            name="shard-fault-controller",
        ))

    problems = []
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        run_ended = time.time()
        recovered = True
        if kill and restart and "restarted" in fault_record["events"]:
            # Prove recovery explicitly: a synced fleet must answer again.
            try:
                cluster.sync(timeout=30.0)
                cluster.query(*pairs[0])
            except ShardError as exc:
                recovered = False
                problems.append(f"post-restart read failed: {exc}")
        else:
            cluster.primary.flush(timeout=30.0)
        if not auditor.drain(timeout=drain_timeout):
            problems.append(
                f"auditor failed to drain within {drain_timeout} s "
                f"(pending {auditor.stats()['pending']})"
            )
        elapsed = run_ended - run_started
        entries_at_end = _primary_entries(engine)
        sampler_stats = sampler.stats()
        auditor_stats = auditor.stats()
        router_stats = cluster.router.stats()
        partitioner_desc = cluster.partitioner.describe()
        if registry is not None:
            from repro.obs.export import write_files

            stem = f"shard-{backend}" + ("-kill" if kill else "")
            telemetry_paths = write_files(
                registry, telemetry, tracer=tracer, stem=stem,
            )
        try:
            auditor.close()
        except ServeError as exc:
            problems.append(f"auditor died: {exc}")
    except BaseException:
        try:
            auditor.close()
        except ServeError:
            pass
        try:
            cluster.close()
        except ShardError:
            pass
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)
        raise
    try:
        cluster.close()
    except ShardError as exc:
        problems.append(f"shutdown failure: {exc}")
    if own_dir:
        shutil.rmtree(state_dir, ignore_errors=True)

    for rec in reader_records:
        problems.extend(rec.get("problems", []))
    problems.extend(submit_record.get("problems", []))
    problems.extend(fault_record.get("problems", []))

    # -- memory criterion ------------------------------------------------
    # The primary's entry count moves with the churn; take the larger of
    # the start/end observations as the unsharded baseline.  Shard peaks
    # are tracked continuously by their stores.
    primary_entries = max(entries_at_start, entries_at_end)
    shard_peaks = {
        s["name"]: s["peak_entries"] for s in router_stats["members"]
    }
    bound = (1.0 + epsilon) / shards
    ratios = {
        name: (peak / primary_entries if primary_entries else 0.0)
        for name, peak in shard_peaks.items()
    }
    memory = {
        "primary_entries": primary_entries,
        "shard_peak_entries": shard_peaks,
        "peak_ratio": {k: round(v, 4) for k, v in ratios.items()},
        "bound": round(bound, 4),
        "epsilon": epsilon,
        "within_bound": all(r <= bound for r in ratios.values()),
    }

    refusals = sum(rec.get("refusals", 0) for rec in reader_records)
    report = auditor.report
    if strict:
        if auditor_stats["audited"] == 0:
            problems.append(
                "auditor audited zero merged answers — the run proves "
                "nothing (raise duration, sample_rate or reservoir)"
            )
        if report.total:
            problems.append(
                f"cross-shard merge diverged {report.total} time(s): "
                f"{report.divergences[0].describe()}"
            )
        if kill and "killed" in fault_record["events"] and not refusals:
            problems.append(
                "shard-0 was killed but no reader observed a refusal — "
                "the router kept serving without a hub slice"
            )
        if kill and restart and "restarted" in fault_record["events"] \
                and not recovered:
            problems.append("fleet did not serve again after the restart")
        if not memory["within_bound"]:
            problems.append(
                f"memory criterion violated: peak shard ratios "
                f"{memory['peak_ratio']} exceed (1+{epsilon})/{shards} "
                f"= {bound:.3f}"
            )

    latencies = sorted(
        lat for rec in reader_records for lat in rec.get("latencies", [])
    )
    reads = sum(rec.get("reads", 0) for rec in reader_records)
    result = {
        "backend": backend,
        "shards": shards,
        "partitioner": partitioner_desc,
        "readers": readers,
        "duration_s": round(elapsed, 3),
        "graph": {"n": n, "m": m},
        "reads": reads,
        "read_qps": round(reads / elapsed) if elapsed else 0,
        "read_latency_ms": {
            "p50": round(_percentile(latencies, 50) * 1e3, 4),
            "p99": round(_percentile(latencies, 99) * 1e3, 4),
        },
        "updates_submitted": submit_record.get("submitted", 0),
        "refusals": refusals,
        "sample_rate": sample_rate,
        "sampler": sampler_stats,
        "auditor": auditor_stats,
        "router": {
            "routed": router_stats["routed"],
            "refusals": router_stats["refusals"],
            "waits": router_stats["waits"],
        },
        "shards": router_stats["members"],
        "memory": memory,
        "telemetry": list(telemetry_paths) if registry is not None else None,
        "fault_injection": dict(
            fault_record["events"],
            post_restart_reads=sum(
                rec.get("post_restart_reads", 0) for rec in reader_records
            ),
        ),
        "shard_problems": problems,
    }
    if strict and problems:
        preview = "; ".join(str(p) for p in problems[:5])
        first = report.divergences[0] if report.divergences else None
        raise AuditDivergenceError(
            f"shard loadgen observed {len(problems)} problem(s) "
            f"({backend} backend, {shards} shards): {preview}",
            seq=first.seq if first else None,
            divergences=report.divergences,
        )
    return result

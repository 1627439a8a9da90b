"""Fault-injection load harness for the replicated serving layer.

Drives mixed traffic against an :class:`~repro.cluster.SPCCluster` — N
reader threads issuing routed point and batch queries, one submitter
feeding the primary a cyclic update stream — while a fault controller
kills one replica mid-stream and later crash-recovers it from the current
checkpoint + label-journal tail.  Like :mod:`repro.serve.loadgen`, the harness
checks *consistency*, never timing (CI's cluster-smoke job trips only on
violations):

* **staleness violations** — under ``bounded_staleness``, an answer
  tagged with a seq below ``primary_seq − Δ`` (primary seq sampled
  *before* routing, so the bound is conservative);
* **per-target snapshot regression** — one target handing a reader a
  lower seq than it already served that reader (publication per replica
  must be monotone; hopping between replicas may lower the seq, which is
  exactly what the staleness bound prices in);
* **malformed answers** — finite distance with no paths, or an infinite
  distance with a path count;
* **divergence** — a killed-and-restarted replica failing to converge
  back to the primary's seq, or any replica ending unhealthy;
* **the replay oracle** — after the run, every recorded
  ``(seq, pair, answer)`` from *any* target is checked against a
  progressive WAL replay at exactly that seq: the initial checkpoint
  payload is captured up front, then records are replayed batch by batch
  and each served answer must equal the reference index's.  An answer
  matching no replayable prefix of the log is a torn or diverged read,
  caught after the fact no matter which replica served it.

Wired into the benchmark CLI as ``repro-bench cluster`` (results land in
``bench_results/cluster.json``); importable via :func:`run_cluster_loadgen`.
"""

import os
import random
import shutil
import tempfile
import threading
import time

from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ClusterError
from repro.shard.fleet import ClusterConfig, SPCCluster
from repro.serve.loadgen import (
    _check_answer,
    _next_pair,
    _percentile,
    make_pair_picker,
    make_workload,
)
from repro.serve.persist import engine_from_payload, load_checkpoint
from repro.serve.service import SNAPSHOT_FILENAME, WAL_FILENAME, ServeConfig
from repro.serve.wal import read_wal


def _audit_read(target, seq, floor, answered, bounded, delta,
                last_seq_by_target, served, problems):
    """Apply the full consistency audit to one routed read — point and
    batch reads share it, so the two router paths cannot silently get
    different coverage.

    ``answered`` is ``[((s, t), (d, c)), ...]``; every answer is recorded
    for the replay oracle, checked for malformed shapes (the same
    ``_check_answer`` the serve loadgen applies), and the target's seq is
    checked for staleness (``floor`` was sampled *before* routing, so the
    bound is conservative) and per-target monotonicity.
    """
    if bounded and seq < floor - delta:
        problems.append(
            f"staleness violation: {target} served seq {seq} with "
            f"primary at >= {floor}, delta {delta}"
        )
    last = last_seq_by_target.get(target)
    if last is not None and seq < last:
        problems.append(
            f"snapshot regressed on {target}: seq {seq} after {last}"
        )
    last_seq_by_target[target] = seq
    for (s, t), answer in answered:
        served.append((seq, s, t, answer))
        _check_answer(seq, s, t, answer, problems)


def _reader_loop(cluster, pairs, deadline, seed, delta, bounded, record,
                 picker=None):
    """Issue routed reads until the deadline, recording every answer with
    its claimed seq so the replay oracle can audit all of them."""
    rng = random.Random(seed)
    latencies = []
    served = []          # (seq, s, t, answer) — every answer served
    problems = []
    last_seq_by_target = {}
    reads = 0
    try:
        while time.time() < deadline:
            s, t = _next_pair(pairs, rng, picker)
            floor = cluster.primary.applied_seq
            start = time.perf_counter()
            answer, seq, target = cluster.query_tagged(s, t)
            latencies.append(time.perf_counter() - start)
            reads += 1
            _audit_read(target, seq, floor, [((s, t), answer)], bounded,
                        delta, last_seq_by_target, served, problems)
            if reads % 64 == 0:
                batch = [_next_pair(pairs, rng, picker) for _ in range(8)]
                floor = cluster.primary.applied_seq
                answers, bseq, btarget = cluster.router.query_many_tagged(
                    batch
                )
                reads += len(batch)
                _audit_read(btarget, bseq, floor, list(zip(batch, answers)),
                            bounded, delta, last_seq_by_target, served,
                            problems)
    except Exception as exc:  # noqa: BLE001 — a dead reader fails the run
        problems.append(f"reader thread crashed: {exc!r}")
    record["reads"] = reads
    record["latencies"] = latencies
    record["served"] = served
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


def _fault_controller(cluster, deadline, duration, record):
    """Kill replica-0 a third of the way in, crash-recover it at two
    thirds, and measure how long the restart takes to converge."""
    problems = []
    events = {}
    try:
        time.sleep(max(0.0, duration * 0.3))
        if time.time() >= deadline:
            record.update(events=events, problems=problems)
            return
        cluster.kill("replica-0")
        events["killed_at_seq"] = cluster.primary.applied_seq
        time.sleep(max(0.0, duration * 0.3))
        # A mid-run durable checkpoint (no truncation: the replay oracle
        # needs the full log) makes the restart a true checkpoint + tail
        # recovery rather than a replay-everything one.
        cluster.checkpoint()
        target_seq = cluster.primary.applied_seq
        events["restarted_at_seq"] = target_seq
        start = time.perf_counter()
        replica = cluster.restart("replica-0")
        if replica.catch_up(target_seq, timeout=30.0):
            events["catch_up_ms"] = round(
                (time.perf_counter() - start) * 1e3, 3
            )
            events["converged"] = True
        else:
            events["converged"] = False
            problems.append(
                f"restarted replica stuck at seq {replica.applied_seq}, "
                f"needed {target_seq}"
            )
    except Exception as exc:  # noqa: BLE001 — a failed injection is a failure
        problems.append(f"fault controller crashed: {exc!r}")
    record["events"] = events
    record["problems"] = problems


def _verify_against_replay(state_dir, initial_payload, served, problems,
                           backend):
    """The replay oracle: every served (seq, pair, answer) must equal the
    reference engine's answer after replaying exactly ``seq`` batches.

    Mismatches are classified and filed through the shared audit
    comparator (:func:`repro.audit.classify_divergence`) — the same
    vocabulary the live :class:`~repro.audit.ShadowAuditor` uses — and
    returned as a :class:`~repro.audit.DivergenceReport` so the caller
    can raise :class:`~repro.exceptions.AuditDivergenceError` with the
    offending WAL seq attached.
    """
    from repro.audit.comparator import (
        Divergence,
        DivergenceReport,
        classify_divergence,
    )

    report = DivergenceReport()

    def audit(seq, queries, reference):
        for s, t, answer in queries:
            expected = reference.index.query(s, t)
            severity = classify_divergence(expected, answer)
            if severity is not None:
                divergence = Divergence(
                    query=(s, t), seq=seq, expected=expected, got=answer,
                    backend=backend, epoch=-1, severity=severity,
                )
                report.record(divergence)
                problems.append(
                    f"replay oracle: {divergence.describe()}"
                )

    by_seq = {}
    for seq, s, t, answer in served:
        by_seq.setdefault(seq, []).append((s, t, answer))
    reference = engine_from_payload(initial_payload)
    base_seq = initial_payload.get("applied_seq", 0)
    replayed = {base_seq}
    audit(base_seq, by_seq.get(base_seq, []), reference)
    wal_path = os.path.join(state_dir, WAL_FILENAME)
    for seq, updates in read_wal(wal_path):
        reference.apply_stream(updates)
        replayed.add(seq)
        audit(seq, by_seq.get(seq, []), reference)
    unreplayable = sorted(set(by_seq) - replayed)
    if unreplayable:
        problems.append(
            f"answers claimed seqs with no WAL prefix: {unreplayable[:5]}"
        )
    return report


def run_cluster_loadgen(backend="core", replicas=2, readers=4, duration=1.2,
                        n=240, m=720, churn=30, batch_size=6, pause=0.001,
                        seed=0, policy="bounded_staleness",
                        staleness_delta=16, publish_every=8,
                        max_staleness=0.01, inject_fault=True,
                        source_picker=None, picker_kwargs=None,
                        state_dir=None, telemetry=None, strict=True):
    """Run one replicated, fault-injected load; returns a report dict.

    With ``strict`` (the default) any observed inconsistency — staleness
    violation, per-target regression, divergence, a replay-oracle
    mismatch, or a crashed thread — raises
    :class:`~repro.exceptions.ClusterError` listing every problem.
    Timing numbers are recorded, never judged.  With ``telemetry`` set
    to a directory, the fleet is instrumented end to end
    (:meth:`~repro.cluster.SPCCluster.set_metrics`) and its registry is
    written there as a ``cluster-<backend>.prom``/``.json`` pair.
    """
    graph, cycle, pairs = make_workload(backend, n, m, seed=seed, churn=churn)
    vertices = sorted(graph.vertices())
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    own_dir = state_dir is None
    state_dir = state_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    serve_config = ServeConfig(
        publish_every=publish_every,
        max_staleness=max_staleness,
        queue_capacity=4096,
        durability_dir=state_dir,
    )
    cluster_config = ClusterConfig(
        replicas=replicas,
        policy=policy,
        staleness_delta=staleness_delta,
    )
    cluster = None
    try:
        cluster = SPCCluster(
            engine, state_dir, config=cluster_config,
            serve_config=serve_config, overwrite=True,
        )
        # Snapshot the initial state *now*: mid-run checkpoints overwrite
        # snapshot.json, and the replay oracle must start from seq 0.
        initial_payload = load_checkpoint(
            os.path.join(state_dir, SNAPSHOT_FILENAME)
        )
        registry = tracer = None
        if telemetry is not None:
            from repro.obs import MetricsRegistry, Tracer

            registry = MetricsRegistry()
            tracer = Tracer()
            cluster.set_metrics(registry, tracer=tracer)
            engine.set_metrics(registry)
    except BaseException:
        # A half-booted fleet must not leak its writer/applier threads,
        # and a dir this function created must not leak onto disk.
        if cluster is not None:
            try:
                cluster.close()
            except ClusterError:
                pass
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)
        raise

    deadline = time.time() + duration
    bounded = policy == "bounded_staleness"
    reader_records = [{} for _ in range(readers)]
    threads = [
        threading.Thread(
            target=_reader_loop,
            args=(cluster, pairs, deadline, seed + 20 + i, staleness_delta,
                  bounded, reader_records[i],
                  make_pair_picker(source_picker, vertices, seed + 20 + i,
                                   picker_kwargs)),
            name=f"cluster-reader-{i}",
        )
        for i in range(readers)
    ]
    submit_record = {}
    threads.append(threading.Thread(
        target=_submitter_loop,
        args=(cluster, cycle, deadline, batch_size, pause, submit_record),
        name="cluster-submitter",
    ))
    fault_record = {"events": {}, "problems": []}
    if inject_fault:
        threads.append(threading.Thread(
            target=_fault_controller,
            args=(cluster, deadline, duration, fault_record),
            name="cluster-fault-controller",
        ))

    start = time.time()
    problems = []
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final_seq = cluster.sync(timeout=30.0)
        elapsed = time.time() - start
        stats = cluster.stats()
        cluster.check_invariants()
        if registry is not None:
            from repro.obs.export import write_files

            telemetry_paths = write_files(
                registry, telemetry, tracer=tracer,
                stem=f"cluster-{backend}",
            )
    except BaseException:
        try:
            cluster.close()
        except ClusterError:
            pass
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)
        raise
    for name, replica in cluster.members.items():
        if not replica.healthy:
            problems.append(
                f"replica {name} ended unhealthy: {replica.fatal!r}"
            )
        elif replica.applied_seq != final_seq:
            problems.append(
                f"replica {name} diverged: seq {replica.applied_seq} != "
                f"primary {final_seq}"
            )
    try:
        cluster.close()
    except ClusterError as exc:
        problems.append(f"shutdown failure: {exc}")

    for rec in reader_records:
        problems.extend(rec.get("problems", []))
    problems.extend(submit_record.get("problems", []))
    problems.extend(fault_record.get("problems", []))
    served = [
        item for rec in reader_records for item in rec.get("served", [])
    ]
    try:
        replay_report = _verify_against_replay(
            state_dir, initial_payload, served, problems, backend
        )
    finally:
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)

    latencies = sorted(
        lat for rec in reader_records for lat in rec.get("latencies", [])
    )
    reads = sum(rec.get("reads", 0) for rec in reader_records)
    primary_stats = stats["primary"]
    if primary_stats["errors"]:
        problems.append(
            f"primary rejected {primary_stats['errors']} update(s); the "
            f"cyclic stream is valid by construction"
        )
    report = {
        "backend": backend,
        "replicas": replicas,
        "readers": readers,
        "policy": policy,
        "staleness_delta": staleness_delta,
        "duration_s": round(elapsed, 3),
        "graph": {"n": n, "m": m},
        "reads": reads,
        "read_qps": round(reads / elapsed) if elapsed else 0,
        "read_latency_ms": {
            "p50": round(_percentile(latencies, 50) * 1e3, 4),
            "p99": round(_percentile(latencies, 99) * 1e3, 4),
        },
        "answers_audited": len(served),
        "updates_submitted": submit_record.get("submitted", 0),
        "updates_applied": primary_stats["applied_updates"],
        "applied_batches": primary_stats["applied_batches"],
        "telemetry": list(telemetry_paths) if registry is not None else None,
        "routed": stats["router"]["leases"],
        "primary_reads": stats["router"]["primary_reads"],
        "router_fallbacks": stats["router"]["fallbacks"],
        "router_waits": stats["router"]["waits"],
        "replica_stats": stats["router"]["members"],
        "fault_injection": fault_record["events"],
        "consistency_problems": problems,
    }
    if strict and problems:
        preview = "; ".join(str(p) for p in problems[:5])
        message = (
            f"cluster loadgen observed {len(problems)} inconsistencies "
            f"({backend} backend): {preview}"
        )
        if replay_report.total:
            # Replay-oracle divergences carry their offending WAL seq;
            # surface them through the audit stack's typed error.
            from repro.exceptions import AuditDivergenceError

            first = replay_report.divergences[0]
            raise AuditDivergenceError(
                message, seq=first.seq,
                divergences=replay_report.divergences,
            )
        raise ClusterError(message)
    return report

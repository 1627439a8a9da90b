"""The replay engine: pace a precomputed plan against a live fleet.

:func:`run_replay_scenario` interprets one declarative
:class:`~repro.replay.scenario.ReplayScenario`: it loads the scenario's
temporal corpus, builds a deterministic :class:`~repro.replay.plan
.ReplayPlan` (bootstrap cut + batched write tail + full read schedule —
all randomness spent before the clock starts), stands up the scenario's
topology (a plain :class:`~repro.serve.SPCService`, or a fleet built by
:func:`~repro.cluster.SPCCluster` / :func:`~repro.shard.ShardedCluster`)
with the audit stack tapped on the read path, and replays:

* a **writer** submits the tail batches at their virtual deadlines
  (virtual time → wall time via the plan's ``time_scale``), running
  open-loop: a batch whose deadline has passed is submitted immediately
  and its lag *accounted* (``late_batches`` / ``max_lag``), never
  dropped — backpressure shows up in the report, not in the replayed
  sequence;
* **readers** walk round-robin slices of the read schedule the same
  way: every planned query is issued exactly once (a refusal — the
  fleet's designed degraded mode — is counted and *not* retried, so the
  issued sequence stays deterministic);
* a **fault controller** fires the scenario's :class:`~repro.replay
  .scenario.FaultSpec` schedule at its run fractions (absolute
  scheduling, like the shard harness).

The strict contract follows the house rule — consistency is judged,
timing never: zero shadow-audit divergences, a non-trivial audit count,
refusals only where a fault schedule explains them, and recovery after
a restart.  Wired into the benchmark CLI as ``repro-bench replay``.
"""

import shutil
import tempfile
import threading
import time

from repro.audit.comparator import DivergenceReport
from repro.audit.sampler import AuditSampler
from repro.audit.shadow import ShadowAuditor
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import AuditDivergenceError, ClusterError, ServeError
from repro.replay.plan import ReplayPlan
from repro.replay.scenario import ReplayScenario, get_scenario
from repro.serve.loadgen import _check_answer, _percentile
from repro.serve.service import ServeConfig, SPCService
from repro.shard.fleet import SPCCluster, ShardedCluster


#: scenario fault action -> the fleet operation it applies to a slice's
#: first member.
_FAULT_OPS = {"kill_shard": "kill", "restart_shard": "restart"}


def _open(scenario, engine, state_dir):
    """Stand up the scenario's topology: a service or a fleet."""
    serve_config = ServeConfig(queue_capacity=4096)
    if scenario.fleet == "service":
        return SPCService(
            engine, config=serve_config.replace(durability_dir=state_dir),
            overwrite=True,
        )
    if scenario.fleet == "cluster":
        constructor, size = SPCCluster, {"replicas": scenario.replicas}
    else:
        constructor, size = ShardedCluster, {"shards": scenario.shards}
    return constructor(engine, state_dir, serve_config=serve_config,
                       overwrite=True, **size)


def _quiesce(serving, timeout=30.0):
    """Apply everything submitted (and converge a fleet's members)."""
    if isinstance(serving, SPCService):
        serving.flush(timeout=timeout)
    else:
        serving.sync(timeout=timeout)


def _close(serving):
    try:
        serving.close()
    except (ServeError, ClusterError):
        pass


def _writer_loop(fleet, plan, start, record, pacing_hist=None):
    """Submit every batch at its virtual deadline; account lateness.

    ``pacing_hist`` is the telemetry seam: a :class:`~repro.obs
    .Histogram` that receives every batch's pacing lag (0 for a batch
    submitted on time — the histogram's zero bucket keeps the count per
    batch, so lag coverage is visible, not just lag magnitude).
    """
    problems = []
    submitted = 0
    late = 0
    max_lag = 0.0
    try:
        for virtual_ts, updates in plan.batches:
            due = start + plan.wall_offset(virtual_ts)
            now = time.time()
            lag = 0.0
            if now < due:
                time.sleep(due - now)
            else:
                lag = now - due
                if lag > 0.001:
                    late += 1
                    max_lag = max(max_lag, lag)
            if pacing_hist is not None:
                pacing_hist.observe(lag)
            fleet.submit_many(updates)
            submitted += len(updates)
    except Exception as exc:  # noqa: BLE001 — a dead writer fails the run
        problems.append(f"writer thread crashed: {exc!r}")
    record["submitted"] = submitted
    record["late_batches"] = late
    record["max_lag_s"] = round(max_lag, 4)
    record["problems"] = problems


def _reader_loop(fleet, schedule, plan, start, record):
    """Issue one slice of the read schedule, exactly once per query.

    Refusals (:class:`ClusterError` — :class:`ShardError` included) are
    the fleet's designed degraded mode: counted, never retried, so the
    issued sequence is the planned sequence regardless of faults.
    """
    latencies = []
    problems = []
    answered = 0
    refusals = 0
    try:
        for virtual_ts, s, t in schedule:
            due = start + plan.wall_offset(virtual_ts)
            now = time.time()
            if now < due:
                time.sleep(due - now)
            began = time.perf_counter()
            try:
                answer = fleet.query(s, t)
            except ClusterError:
                refusals += 1
                continue
            latencies.append(time.perf_counter() - began)
            answered += 1
            _check_answer(answered, s, t, answer, problems)
    except Exception as exc:  # noqa: BLE001 — a dead reader fails the run
        problems.append(f"reader thread crashed: {exc!r}")
    record["issued"] = len(schedule)
    record["answered"] = answered
    record["refusals"] = refusals
    record["latencies"] = latencies
    record["problems"] = problems


def _fault_controller(fleet, faults, start, duration, record):
    """Fire each fault at ``start + at·duration`` (absolute schedule)."""
    problems = []
    events = []
    try:
        for fault in sorted(faults, key=lambda f: f.at):
            time.sleep(max(0.0, start + duration * fault.at - time.time()))
            op = _FAULT_OPS.get(fault.action)
            if op is None:
                raise ServeError(f"fleet cannot apply fault {fault.action!r}")
            getattr(fleet, op)(fleet.config.member_name(fault.target, 0))
            events.append({
                "action": fault.action,
                "target": fault.target,
                "at": fault.at,
                "applied_seq": fleet.primary.applied_seq,
            })
    except Exception as exc:  # noqa: BLE001 — a failed injection fails the run
        problems.append(f"fault controller crashed: {exc!r}")
    record["events"] = events
    record["problems"] = problems


def run_replay_scenario(scenario, seed=0, duration=None, corpus_kwargs=None,
                        state_dir=None, telemetry=None, strict=True,
                        drain_timeout=30.0):
    """Replay one scenario end to end; returns a report dict.

    ``scenario`` is a name from the library or a
    :class:`~repro.replay.scenario.ReplayScenario`; ``duration``
    overrides the wall seconds the virtual tail is scaled into;
    ``corpus_kwargs`` override the corpus generator (e.g. a smaller
    ``events`` for smoke runs).  Strict mode raises
    :class:`~repro.exceptions.AuditDivergenceError` on any contract
    violation (see the module docstring); the report's ``deterministic``
    block is identical across same-seed runs by construction.  With
    ``telemetry`` set to a directory, the scenario's fleet + audit stack
    are instrumented end to end (including the writer's pacing-lag
    histogram ``repro_replay_pacing_lag_seconds``) and the registry is
    written there as a ``replay-<scenario>.prom``/``.json`` pair.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    elif not isinstance(scenario, ReplayScenario):
        raise ServeError(
            f"expected a scenario name or ReplayScenario, got {scenario!r}"
        )
    if duration is not None:
        scenario = scenario.replace(duration=duration)

    # Lazy import: repro.datasets pulls in this package for the temporal
    # corpora, so the top-level import would be circular.
    from repro.datasets.registry import load_temporal_dataset

    log = load_temporal_dataset(scenario.corpus, **(corpus_kwargs or {}))
    plan = ReplayPlan(scenario, log, seed=seed)

    engine = SPCEngine(
        plan.bootstrap.copy(), config=EngineConfig(backend=scenario.backend)
    )
    own_dir = state_dir is None
    state_dir = state_dir or tempfile.mkdtemp(prefix="repro-replay-")
    fleet = None
    auditor = None
    try:
        fleet = _open(scenario, engine, state_dir)
        sampler = AuditSampler(
            rate=scenario.sample_rate, capacity=scenario.reservoir,
            seed=seed + 5,
        )
        fleet.set_answer_tap(sampler)
        auditor = ShadowAuditor(
            sampler, state_dir, report=DivergenceReport(), history=1024
        )
        registry = tracer = pacing_hist = None
        if telemetry is not None:
            from repro.obs import MetricsRegistry, Tracer

            registry = MetricsRegistry()
            tracer = Tracer()
            fleet.set_metrics(registry, tracer=tracer)
            sampler.set_metrics(registry)
            auditor.set_metrics(registry)
            pacing_hist = registry.histogram(
                "repro_replay_pacing_lag_seconds"
            )
    except BaseException:
        if auditor is not None:
            try:
                auditor.close()
            except ServeError:
                pass
        if fleet is not None:
            _close(fleet)
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)
        raise

    start = time.time()
    writer_record = {}
    reader_records = [{} for _ in range(scenario.readers)]
    fault_record = {"events": [], "problems": []}
    threads = [threading.Thread(
        target=_writer_loop,
        args=(fleet, plan, start, writer_record, pacing_hist),
        name="replay-writer",
    )]
    for i, schedule in enumerate(plan.reader_slices(scenario.readers)):
        threads.append(threading.Thread(
            target=_reader_loop,
            args=(fleet, schedule, plan, start, reader_records[i]),
            name=f"replay-reader-{i}",
        ))
    if scenario.faults:
        threads.append(threading.Thread(
            target=_fault_controller,
            args=(fleet, scenario.faults, start, scenario.duration,
                  fault_record),
            name="replay-fault-controller",
        ))

    problems = []
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.time() - start
        recovered = None
        restarted = any(
            e["action"].startswith("restart") for e in fault_record["events"]
        )
        if restarted:
            # Prove recovery explicitly: a synced fleet must answer again.
            recovered = True
            try:
                _quiesce(fleet)
                _, s, t = plan.queries[0]
                fleet.query(s, t)
            except ClusterError as exc:
                recovered = False
                problems.append(f"post-restart read failed: {exc}")
        else:
            _quiesce(fleet)
        if not auditor.drain(timeout=drain_timeout):
            problems.append(
                f"auditor failed to drain within {drain_timeout} s "
                f"(pending {auditor.stats()['pending']})"
            )
        sampler_stats = sampler.stats()
        auditor_stats = auditor.stats()
        report = auditor.report
        if registry is not None:
            from repro.obs.export import write_files

            telemetry_paths = write_files(
                registry, telemetry, tracer=tracer,
                stem=f"replay-{scenario.name}",
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
        _close(fleet)
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)
        raise
    _close(fleet)
    if own_dir:
        shutil.rmtree(state_dir, ignore_errors=True)

    problems.extend(writer_record.get("problems", []))
    for rec in reader_records:
        problems.extend(rec.get("problems", []))
    problems.extend(fault_record.get("problems", []))

    refusals = sum(rec.get("refusals", 0) for rec in reader_records)
    answered = sum(rec.get("answered", 0) for rec in reader_records)
    issued = sum(rec.get("issued", 0) for rec in reader_records)
    killed = any(
        e["action"].startswith("kill") for e in fault_record["events"]
    )
    if strict:
        if writer_record.get("submitted", 0) != plan.events_to_replay:
            problems.append(
                f"writer submitted {writer_record.get('submitted', 0)} of "
                f"{plan.events_to_replay} planned events"
            )
        if issued != len(plan.queries):
            problems.append(
                f"readers issued {issued} of {len(plan.queries)} planned "
                f"queries"
            )
        if report.total:
            problems.append(
                f"shadow audit diverged {report.total} time(s): "
                f"{report.divergences[0].describe()}"
            )
        if auditor_stats["audited"] == 0:
            problems.append(
                "auditor audited zero answers — the run proves nothing "
                "(raise duration, query_rate or sample_rate)"
            )
        if killed and not refusals:
            problems.append(
                "a shard was killed but no reader observed a refusal — "
                "the fleet kept serving without a hub slice"
            )
        if refusals and not scenario.faults:
            problems.append(
                f"{refusals} refusal(s) with no fault schedule to "
                f"explain them"
            )

    latencies = sorted(
        lat for rec in reader_records for lat in rec.get("latencies", [])
    )
    result = {
        "scenario": scenario.describe(),
        # Same seed ⇒ this block is identical across runs, by construction.
        "deterministic": dict(plan.describe(), seed=seed),
        "duration_s": round(elapsed, 3),
        "events_submitted": writer_record.get("submitted", 0),
        "late_batches": writer_record.get("late_batches", 0),
        "max_write_lag_s": writer_record.get("max_lag_s", 0.0),
        "queries_issued": issued,
        "queries_answered": answered,
        "refusals": refusals,
        "read_qps": round(answered / elapsed) if elapsed else 0,
        "read_latency_ms": {
            "p50": round(_percentile(latencies, 50) * 1e3, 4),
            "p99": round(_percentile(latencies, 99) * 1e3, 4),
        },
        "sampler": sampler_stats,
        "auditor": auditor_stats,
        "divergences": report.total,
        "fault_injection": fault_record["events"],
        "recovered": recovered,
        "telemetry": list(telemetry_paths) if registry is not None else None,
        "replay_problems": problems,
    }
    if strict and problems:
        preview = "; ".join(str(p) for p in problems[:5])
        first = report.divergences[0] if report.divergences else None
        raise AuditDivergenceError(
            f"replay scenario {scenario.name!r} observed {len(problems)} "
            f"problem(s): {preview}",
            seq=first.seq if first else None,
            divergences=report.divergences,
        )
    return result

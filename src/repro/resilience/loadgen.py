"""Chaos harness: a serving fleet under disk faults, judged strictly.

Drives concurrent routed reads and a cyclic update stream against a
fleet built by :func:`~repro.cluster.SPCCluster` or
:func:`~repro.shard.ShardedCluster`, wrapped in a
:class:`~repro.resilience.Supervisor`, then walks a sequential fault
schedule through the whole failure model (DESIGN.md §14):

1. **kill** — hard-stop one follower mid-stream;
2. **flip** — flip a bit inside an interior label-journal record, then
   kill a member so its replacement must re-read the poisoned region;
3. **ckpt** — flip a bit inside the checkpoint document, then kill a
   member so its restart must bootstrap from it;
4. **torn** — append an unterminated fragment to the live log; the
   running writer's next ``O_APPEND`` record welds onto it, poisoning
   the stream for *every* tailing member at once;
5. **enospc** — arm an injected ``OSError(ENOSPC)`` at the checkpoint
   seam and demand a typed, fail-stop refusal (then a clean retry);
6. **crashloop** (fleets whose slices have at least 2 members) — kill
   the same member every time the supervisor brings it back, until the
   crash-loop budget marks it ``failed`` (a slice's last member failing
   permanently would take the whole merged read path with it, so
   single-member slices skip this phase by design).

The judgment is strict and explicit, not statistical:

* **every injected corruption must be detected as a typed error** —
  the harness itself re-scans the damaged file and demands
  :class:`~repro.exceptions.WalCorruptionError` (or the checkpoint's
  typed refusal) *before* relying on the fleet to trip over it;
* **the fleet must self-heal with no manual restart ops** — every
  phase's recovery is the supervisor's work alone, and its wall-clock
  MTTR is recorded per phase;
* **zero shadow-audit divergences** — an :class:`~repro.audit.AuditSampler`
  taps the router's merged answers throughout, and the
  :class:`~repro.audit.ShadowAuditor` replay must agree with every one,
  faults and repairs included.

Wired into the benchmark CLI as ``repro-bench chaos``.
"""

import os
import random
import shutil
import tempfile
import threading
import time

from repro.audit.comparator import DivergenceReport
from repro.audit.sampler import AuditSampler
from repro.audit.shadow import ShadowAuditor
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import (
    AuditDivergenceError,
    ClusterError,
    ReproError,
    ServeError,
    ShardError,
    WalCorruptionError,
)
from repro.resilience.chaos import (
    DiskFullFault,
    corrupt_checkpoint,
    flip_bit_in_record,
    torn_write,
)
from repro.resilience.supervisor import Supervisor
from repro.serve.loadgen import _percentile, make_workload
from repro.serve.persist import load_checkpoint
from repro.serve.service import JOURNAL_FILENAME, SNAPSHOT_FILENAME, ServeConfig
from repro.serve.wal import WalTailer
from repro.shard.fleet import SPCCluster, ShardedCluster

#: refusal types the read path may raise by design (counted, not failed).
_REFUSALS = (ClusterError, ShardError)


def _scan_stream(path):
    """Integrity-scan a WAL/journal file; returns the typed corruption
    (or ``None`` when the file is clean).

    Uses a throwaway :class:`WalTailer` with an impossibly high
    ``after_seq`` so every record is CRC-checked and parse-checked but
    none is decoded — a pure detection pass, codec-agnostic (it works on
    the label journal as well as the WAL).
    """
    tailer = WalTailer(path, after_seq=1 << 62, expect_backend=None)
    tailer.poll()
    return tailer.last_corruption


def _await(predicate, timeout, interval=0.01):
    """Poll ``predicate`` until true or ``timeout``; returns its last value."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def _reader_loop(fleet_obj, pairs, stop, deadline, seed, record):
    """Routed point + batch reads until the run ends.

    Refusals (:class:`ClusterError` / :class:`ShardError`) are the
    *designed* response to a degraded fleet — counted and retried, never
    a reader failure.  Anything else crashing the reader fails the run.
    """
    rng = random.Random(seed)
    latencies = []
    problems = []
    reads = 0
    refusals = 0
    degraded_reads = 0
    try:
        while not stop.is_set() and time.time() < deadline:
            s, t = pairs[rng.randrange(len(pairs))]
            start = time.perf_counter()
            try:
                _answer, _seq, target = fleet_obj.query_tagged(s, t)
            except _REFUSALS:
                refusals += 1
                time.sleep(0.002)  # don't hot-spin against a down fleet
                continue
            latencies.append(time.perf_counter() - start)
            reads += 1
            if target.endswith("+degraded"):
                degraded_reads += 1
            if reads % 64 == 0:
                batch = [pairs[rng.randrange(len(pairs))] for _ in range(8)]
                try:
                    fleet_obj.query_many(batch)
                    reads += len(batch)
                except _REFUSALS:
                    refusals += 1
    except Exception as exc:  # noqa: BLE001 — a dead reader fails the run
        problems.append(f"reader thread crashed: {exc!r}")
    record["reads"] = reads
    record["refusals"] = refusals
    record["degraded_reads"] = degraded_reads
    record["latencies"] = latencies
    record["problems"] = problems


def _submitter_loop(fleet_obj, cycle, stop, deadline, batch_size, pause,
                    record):
    """Cyclic update stream — also the torn-write phase's glue trigger:
    the weld only becomes a complete (and corrupt) line once the writer
    appends the *next* record after the fragment."""
    submitted = 0
    i = 0
    record["problems"] = problems = []
    try:
        while cycle and not stop.is_set() and time.time() < deadline:
            chunk = cycle[i:i + batch_size]
            if not chunk:
                i = 0
                continue
            fleet_obj.submit_many(chunk)
            submitted += len(chunk)
            i = (i + len(chunk)) % len(cycle)
            if pause:
                time.sleep(pause)
    except Exception as exc:  # noqa: BLE001 — surfaced as a run failure
        problems.append(f"submitter thread crashed: {exc!r}")
    record["submitted"] = submitted


def _caught_up(fleet_obj, target_seq, exclude=()):
    """Every member outside ``exclude`` is healthy and at ``target_seq``."""
    return all(
        m.healthy and m.applied_seq >= target_seq
        for name, m in fleet_obj.members.items()
        if name not in exclude
    )


def _serves(fleet_obj, pair):
    try:
        fleet_obj.query_tagged(*pair)
        return True
    except _REFUSALS:
        return False


def run_chaos_loadgen(backend="core", fleet="cluster", replicas=2, shards=4,
                      readers=2, duration=60.0, n=180, m=540, churn=30,
                      batch_size=4, pause=0.002, seed=0,
                      sample_rate=0.25, reservoir=512, history=2048,
                      stall_budget=2, supervisor_poll=0.02,
                      restart_budget=8, budget_window=6.0,
                      heal_timeout=12.0, mttr_bound=None,
                      degraded="refuse", degraded_max_lag=64,
                      ring_size=64, wait_timeout=0.5, drain_timeout=30.0,
                      state_dir=None, strict=True):
    """Run the disk-fault chaos schedule against one fleet; returns a
    report dict.

    ``duration`` is a hard cap, not a target — the schedule is
    event-driven (each phase waits for the previous heal), so the run
    ends when the last phase settles.  ``heal_timeout`` bounds each
    phase's recovery wait; ``mttr_bound``, when set, additionally fails
    (strict mode) any phase whose measured MTTR exceeds it.  ``degraded``
    forwards to the router (``"stale"`` lets reads degrade to tagged
    bounded-staleness answers instead of refusing — still audited).
    ``ring_size`` deepens each member's published-view ring: a degraded
    cut can only reach back as far as every slice's rings still hold a
    view, so a degraded-mode run wants ``ring_size`` and
    ``degraded_max_lag`` sized to cover a restart window's worth of
    batches.  See the module docstring for the full contract.
    """
    if fleet not in ("cluster", "shard"):
        raise ReproError(
            f"fleet must be 'cluster' or 'shard', got {fleet!r}"
        )
    graph, cycle, pairs = make_workload(backend, n, m, seed=seed, churn=churn)
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    own_dir = state_dir is None
    state_dir = state_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    serve_config = ServeConfig(queue_capacity=4096)
    fleet_obj = None
    auditor = None
    supervisor = None
    if fleet == "cluster":
        constructor, size = SPCCluster, {"replicas": replicas}
    else:
        constructor, size = ShardedCluster, {"shards": shards}
    try:
        fleet_obj = constructor(
            engine, state_dir, serve_config=serve_config, overwrite=True,
            wait_timeout=wait_timeout, degraded=degraded,
            degraded_max_lag=degraded_max_lag, ring_size=ring_size,
            stall_budget=stall_budget, **size,
        )
        sampler = AuditSampler(
            rate=sample_rate, capacity=reservoir, seed=seed + 5
        )
        fleet_obj.router.set_answer_tap(sampler)
        # The auditor outlives the poisoned-stream window on a raised
        # stall budget: it keeps re-bootstrapping until the supervisor's
        # repair rewrites the stream, then catches up and verifies the
        # backlog.
        auditor = ShadowAuditor(
            sampler, state_dir,
            report=DivergenceReport(),
            history=history,
            stall_budget=1 << 20,
        )
        supervisor = Supervisor(
            fleet_obj,
            poll_interval=supervisor_poll,
            backoff_initial=0.02,
            backoff_max=0.25,
            restart_budget=restart_budget,
            budget_window=budget_window,
            seed=seed + 11,
        )
    except BaseException:
        for closer in (supervisor, auditor, fleet_obj):
            if closer is not None:
                try:
                    closer.close()
                except (ReproError, OSError):
                    pass
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)
        raise

    stream_path = os.path.join(state_dir, JOURNAL_FILENAME)
    snapshot_path = os.path.join(state_dir, SNAPSHOT_FILENAME)
    run_started = time.time()
    hard_deadline = run_started + duration
    stop = threading.Event()
    reader_records = [{} for _ in range(readers)]
    submit_record = {}
    threads = [
        threading.Thread(
            target=_reader_loop,
            args=(fleet_obj, pairs, stop, hard_deadline, seed + 30 + i,
                  reader_records[i]),
            name=f"chaos-reader-{i}",
        )
        for i in range(readers)
    ]
    threads.append(threading.Thread(
        target=_submitter_loop,
        args=(fleet_obj, cycle, stop, hard_deadline, batch_size, pause,
              submit_record),
        name="chaos-submitter",
    ))

    phases = []
    problems = []
    failed_members = set()
    probe = pairs[0]

    def run_phase(name, inject, healed, detect_note):
        """One schedule step: inject, verify detection, time the heal."""
        before = supervisor.stats()
        injected_at = time.monotonic()
        try:
            injection = inject()
            detected, detection = detect_note(injection)
        except Exception as exc:  # noqa: BLE001 — a failed injection fails the run
            phases.append({
                "phase": name, "injected": None, "detected": False,
                "detection": f"injection crashed: {exc!r}",
                "healed": False, "mttr_s": None,
                "restarts": 0, "repairs": 0,
            })
            problems.append(f"phase {name!r}: injection crashed: {exc!r}")
            return
        ok = _await(healed, heal_timeout)
        mttr = time.monotonic() - injected_at if ok else None
        after = supervisor.stats()
        phases.append({
            "phase": name,
            "injected": injection,
            "detected": detected,
            "detection": detection,
            "healed": ok,
            "mttr_s": round(mttr, 4) if mttr is not None else None,
            "restarts": after["restarts"] - before["restarts"],
            "repairs": after["repairs"] - before["repairs"],
        })
        if not detected:
            problems.append(
                f"phase {name!r}: injected fault was NOT detected as a "
                f"typed error ({detection})"
            )
        if not ok:
            problems.append(
                f"phase {name!r}: fleet did not self-heal within "
                f"{heal_timeout} s"
            )
        elif mttr_bound is not None and mttr > mttr_bound:
            problems.append(
                f"phase {name!r}: MTTR {mttr:.3f} s exceeds the bound "
                f"{mttr_bound} s"
            )
        time.sleep(0.05)  # settle before the next injection

    def catch_up_pred():
        target = fleet_obj.primary.applied_seq
        return lambda: (
            _caught_up(fleet_obj, target, exclude=failed_members)
            and _serves(fleet_obj, probe)
        )

    try:
        for t in threads:
            t.start()
        victims = sorted(fleet_obj.members)

        # Warm up: the stream needs interior records to corrupt.
        fleet_obj.sync(timeout=30.0)
        _await(lambda: os.path.getsize(stream_path) > 0, 5.0)

        # -- phase 1: crash ------------------------------------------------
        def inject_kill():
            fleet_obj.kill(victims[0])
            return {"member": victims[0]}

        run_phase(
            "kill", inject_kill, catch_up_pred(),
            lambda _inj: (True, "hard stop; supervisor event log is the "
                                "detection record"),
        )

        # -- phase 2: acknowledged-then-corrupted record -------------------
        def inject_flip():
            info = flip_bit_in_record(stream_path, seed=seed + 17)
            # Scan *before* killing anyone: once the supervisor's repair
            # rewrites the stream, the evidence is gone.
            info["corruption"] = _scan_stream(stream_path)
            # The live members are already past the poisoned offset; kill
            # one so its replacement must re-read the damaged region.
            info["member"] = victims[1 % len(victims)]
            fleet_obj.kill(info["member"])
            return info

        def detect_flip(inj):
            corruption = inj.pop("corruption")
            if isinstance(corruption, WalCorruptionError):
                return True, f"typed on scan: {str(corruption)[:120]}"
            return False, f"scan returned {corruption!r}"

        run_phase("flip", inject_flip, catch_up_pred(), detect_flip)

        # -- phase 3: corrupted checkpoint ---------------------------------
        def inject_ckpt():
            info = corrupt_checkpoint(snapshot_path, seed=seed + 23)
            try:
                load_checkpoint(snapshot_path)
                info["refusal"] = None
            except (WalCorruptionError, ServeError) as exc:
                info["refusal"] = exc
            info["member"] = victims[0]
            fleet_obj.kill(victims[0])
            return info

        def detect_ckpt(inj):
            refusal = inj.pop("refusal")
            if isinstance(refusal, WalCorruptionError):
                return True, f"typed checksum refusal: {str(refusal)[:120]}"
            if isinstance(refusal, ServeError):
                return True, f"typed parse refusal: {str(refusal)[:120]}"
            return False, "corrupted checkpoint still loads cleanly"

        run_phase("ckpt", inject_ckpt, catch_up_pred(), detect_ckpt)

        # -- phase 4: torn write glued by a live writer --------------------
        def inject_torn():
            return torn_write(stream_path)

        def detect_torn(_inj):
            # The fragment alone is a benign torn tail; the submitter's
            # next append welds it into a complete, corrupt line.  The
            # supervisor's repair (gated on typed-corruption
            # classification) may rewrite the stream before our scan
            # lands, so a repair counts as detection proof too.
            repairs_before = supervisor.stats()["repairs"]
            holder = {}

            def welded():
                holder["c"] = _scan_stream(stream_path)
                if holder["c"] is not None:
                    return True
                return supervisor.stats()["repairs"] > repairs_before

            if not _await(welded, heal_timeout):
                return False, "weld never detected"
            if isinstance(holder["c"], WalCorruptionError):
                return True, f"typed on weld: {str(holder['c'])[:120]}"
            if holder["c"] is None:
                return True, ("supervisor classified the weld as typed "
                              "corruption and repaired the stream")
            return False, f"untyped corruption on weld: {holder['c']!r}"

        run_phase("torn", inject_torn, catch_up_pred(), detect_torn)

        # -- phase 5: disk full at the checkpoint seam ---------------------
        fault = DiskFullFault(ops=("checkpoint",))

        def inject_enospc():
            fleet_obj.primary.set_disk_fault(fault)
            fault.arm()
            try:
                fleet_obj.checkpoint(timeout=30.0)
            except ServeError as exc:
                return {"raised": fault.raised, "error": str(exc)[:160]}
            finally:
                fault.disarm()
            return {"raised": fault.raised, "error": None}

        def detect_enospc(inj):
            if inj["error"] is None or inj["raised"] < 1:
                return False, "checkpoint succeeded despite the armed fault"
            if "No space left" in inj["error"] or "ENOSPC" in inj["error"] \
                    or "disk-full" in inj["error"]:
                return True, f"typed fail-stop: {inj['error'][:120]}"
            return False, f"wrong error shape: {inj['error'][:120]}"

        def enospc_healed():
            # The disk "has space again": a clean retry must land, and
            # the writer must have survived the fail-stop.
            try:
                fleet_obj.checkpoint(timeout=30.0)
            except ServeError:
                return False
            fleet_obj.primary.set_disk_fault(None)
            return _serves(fleet_obj, probe)

        run_phase("enospc", inject_enospc, enospc_healed, detect_enospc)

        # -- phase 6: crash loop → budget → failed (replicated slices) ----
        if fleet_obj.config.replicas >= 2:
            victim_name = victims[-1]

            def inject_crashloop():
                # Phase staging, not a repair: compact the stream so a
                # restart bootstraps in milliseconds — the budget counts
                # restarts per *window*, so the crash loop must spin
                # faster than ever-longer WAL replays would allow.
                fleet_obj.checkpoint(truncate_wal=True, timeout=30.0)
                return {"member": victim_name, "budget": restart_budget}

            kills = {"n": 0}

            def crashloop_contained():
                state = supervisor.monitor.state(victim_name)
                if state == "failed":
                    failed_members.add(victim_name)
                    return (
                        all(m.healthy for name, m in fleet_obj.members.items()
                            if name not in failed_members)
                        and _serves(fleet_obj, probe)
                    )
                if fleet_obj.members[victim_name].healthy:
                    fleet_obj.kill(victim_name)
                    kills["n"] += 1
                return False

            run_phase(
                "crashloop", inject_crashloop, crashloop_contained,
                lambda _inj: (True, "budget enforcement is the detection"),
            )
            if phases[-1]["healed"]:
                phases[-1]["injected"]["kills"] = kills["n"]
                crash_incidents = [
                    i for i in supervisor.incidents
                    if i.member == victim_name and i.failed
                ]
                if not crash_incidents:
                    problems.append(
                        "crashloop: no failed incident was recorded for "
                        "the budget-exhausted member"
                    )

        stop.set()
        for t in threads:
            t.join()
        run_ended = time.time()

        # Final settlement: whatever the last phase left lagging must
        # converge, and the auditor must verify its whole backlog.
        fleet_obj.primary.flush(timeout=30.0)
        settle_target = fleet_obj.primary.applied_seq
        if not _await(
            lambda: _caught_up(fleet_obj, settle_target,
                               exclude=failed_members),
            heal_timeout,
        ):
            problems.append(
                "fleet did not converge to the primary's seq after the "
                "last phase"
            )
        if not auditor.drain(timeout=drain_timeout):
            problems.append(
                f"auditor failed to drain within {drain_timeout} s "
                f"(pending {auditor.stats()['pending']})"
            )
        elapsed = run_ended - run_started
        sampler_stats = sampler.stats()
        auditor_stats = auditor.stats()
        router_stats = fleet_obj.router.stats()
        supervisor_stats = supervisor.stats()
        incidents = [i.as_dict() for i in supervisor.incidents]
        events = [e.as_dict() for e in supervisor.events]
        try:
            auditor.close()
        except ServeError as exc:
            problems.append(f"auditor died: {exc}")
        supervisor.close()
    except BaseException:
        stop.set()
        for closer in (supervisor, auditor):
            try:
                closer.close()
            except (ReproError, OSError):
                pass
        try:
            fleet_obj.close()
        except (ReproError, OSError):
            pass
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)
        raise
    try:
        fleet_obj.close()
    except _REFUSALS as exc:
        # The crash-loop victim died by design; its shutdown complaint is
        # expected.  Anything else is a real shutdown failure.
        if not failed_members:
            problems.append(f"shutdown failure: {exc}")
    if own_dir:
        shutil.rmtree(state_dir, ignore_errors=True)

    for rec in reader_records:
        problems.extend(rec.get("problems", []))
    problems.extend(submit_record.get("problems", []))

    report = auditor.report
    healed_mttrs = [p["mttr_s"] for p in phases if p["mttr_s"] is not None]
    if strict:
        if auditor_stats["audited"] == 0:
            problems.append(
                "auditor audited zero routed answers — the run proves "
                "nothing (raise duration, sample_rate or reservoir)"
            )
        if report.total:
            problems.append(
                f"shadow audit diverged {report.total} time(s) under "
                f"chaos: {report.divergences[0].describe()}"
            )

    latencies = sorted(
        lat for rec in reader_records for lat in rec.get("latencies", [])
    )
    reads = sum(rec.get("reads", 0) for rec in reader_records)
    refusals = sum(rec.get("refusals", 0) for rec in reader_records)
    result = {
        "backend": backend,
        "fleet": fleet,
        "members": len(fleet_obj.members),
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
        "degraded_reads": sum(
            rec.get("degraded_reads", 0) for rec in reader_records
        ),
        "degraded_mode": degraded,
        "phases": phases,
        "phases_detected": sum(1 for p in phases if p["detected"]),
        "phases_healed": sum(1 for p in phases if p["healed"]),
        "mttr_s": {
            "per_phase": {p["phase"]: p["mttr_s"] for p in phases},
            "max": max(healed_mttrs) if healed_mttrs else None,
        },
        "failed_members": sorted(failed_members),
        "supervisor": supervisor_stats,
        "incidents": incidents,
        "health_events": len(events),
        "sampler": sampler_stats,
        "auditor": auditor_stats,
        "router": {
            k: router_stats.get(k)
            for k in ("routed", "refusals", "fast_refusals", "waits",
                      "breaker_skips", "degraded_serves")
        },
        "chaos_problems": problems,
    }
    if strict and problems:
        preview = "; ".join(str(p) for p in problems[:5])
        first = report.divergences[0] if report.divergences else None
        raise AuditDivergenceError(
            f"chaos loadgen observed {len(problems)} problem(s) "
            f"({backend} backend, {fleet} fleet): {preview}",
            seq=first.seq if first else None,
            divergences=report.divergences,
        )
    return result

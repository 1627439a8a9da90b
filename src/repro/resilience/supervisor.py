"""Supervisor: the watchdog that turns detection into recovery.

The serving fleets already *detect* every failure the ROADMAP's failure
model names — a dead applier surfaces as ``healthy == False`` with a
``fatal`` error, tail lag is ``primary.applied_seq - member.applied_seq``,
and checksum-failed stream records show up in ``stream_corruptions`` —
but until this module recovery was a manual ``restart`` call.  The :class:`Supervisor` closes that loop:

* every ``poll_interval`` it folds each member's health, lag and
  corruption count into a shared :class:`~repro.resilience.HealthMonitor`
  (up → lagging → down transitions, with a structured event log);
* a ``down`` member is restarted automatically, with exponential backoff
  plus seeded jitter between attempts so a crash-looping member does not
  hammer the checkpoint path;
* when the death is *corruption-classified* — the fatal error is a
  :class:`~repro.exceptions.WalCorruptionError`, mentions a corrupt
  stream, or the member counted stream corruptions — the supervisor
  first **repairs** the stream (``fleet.checkpoint(truncate_wal=True)``:
  a fresh checkpoint from the in-memory engine, the damaged log region
  truncated away) so the replacement bootstraps from clean bytes;
* after ``restart_budget`` restarts inside ``budget_window`` seconds the
  member is marked ``failed`` (terminal) instead of looping forever —
  a crash loop is an incident for an operator, not a retry target.

Each detected outage becomes an :class:`Incident` with its detection
time, restart count, whether a repair ran, and — once the replacement
reports healthy — the measured MTTR.  The chaos harness
(:mod:`repro.resilience.loadgen`) judges recovery on exactly these
records.

The supervisor watches *followers* only.  The primary is the
single-writer authority the fleet is defined against; restarting it
is a different operation (restore-from-checkpoint) with different
guarantees, and pretending a watchdog can do it safely would be worse
than refusing.
"""

import dataclasses
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ReproError, WalCorruptionError
from repro.resilience.health import HealthMonitor


@dataclass(frozen=True)
class SupervisorConfig:
    """All tunables of a :class:`Supervisor`.

    Parameters
    ----------
    poll_interval:
        Seconds between watchdog ticks.
    lag_threshold:
        Tail lag (in batches) at which a healthy member is classified
        ``lagging`` (only used when the supervisor builds its own
        :class:`HealthMonitor`).
    backoff_initial / backoff_max / backoff_factor:
        Exponential backoff between restart attempts of one member:
        the first retry waits ``backoff_initial`` seconds, each further
        retry multiplies by ``backoff_factor``, capped at
        ``backoff_max``.  A member that recovers resets its backoff.
    jitter:
        Fractional jitter on every backoff delay (``0.2`` = up to +20 %),
        drawn from a seeded RNG so runs are reproducible.
    restart_budget / budget_window:
        Crash-loop guard: more than ``restart_budget`` restart attempts
        within ``budget_window`` seconds marks the member ``failed``.
    repair_corruption:
        Whether a corruption-classified death triggers a stream repair
        (primary checkpoint + log truncation) before the restart.
    seed:
        Seed of the jitter RNG.
    """

    poll_interval: float = 0.05
    lag_threshold: int = 64
    backoff_initial: float = 0.05
    backoff_max: float = 1.0
    backoff_factor: float = 2.0
    jitter: float = 0.2
    restart_budget: int = 5
    budget_window: float = 10.0
    repair_corruption: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.poll_interval <= 0:
            raise ReproError(
                f"poll_interval must be > 0, got {self.poll_interval!r}"
            )
        if self.backoff_initial < 0 or self.backoff_max < self.backoff_initial:
            raise ReproError(
                f"need 0 <= backoff_initial <= backoff_max, got "
                f"{self.backoff_initial!r} / {self.backoff_max!r}"
            )
        if self.backoff_factor < 1.0:
            raise ReproError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.jitter < 0:
            raise ReproError(f"jitter must be >= 0, got {self.jitter!r}")
        if self.restart_budget < 1:
            raise ReproError(
                f"restart_budget must be >= 1, got {self.restart_budget!r}"
            )
        if self.budget_window <= 0:
            raise ReproError(
                f"budget_window must be > 0, got {self.budget_window!r}"
            )

    def replace(self, **changes):
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


@dataclass
class Incident:
    """One detected member outage and what the supervisor did about it.

    ``mttr_s`` is ``recovered_at - detected_at`` once the replacement
    member reports healthy; both stay ``None`` for a member that
    exhausted its crash-loop budget (``failed == True``) — an unrecovered
    incident must not average into anyone's MTTR.
    """

    member: str
    detected_at: float
    cause: str = ""
    restarts: int = 0
    repaired: bool = False
    failed: bool = False
    recovered_at: float = None
    mttr_s: float = None

    def as_dict(self):
        """JSON-safe form for bench results."""
        return dataclasses.asdict(self)


@dataclass
class _Control:
    """Per-member supervisor bookkeeping (watchdog thread only)."""

    backoff: float = 0.0
    next_attempt_at: float = 0.0
    attempts: deque = field(default_factory=deque)
    incident: Incident = None


class Supervisor:
    """Self-healing watchdog over a :class:`~repro.shard.fleet.Fleet`
    (built by :func:`~repro.cluster.SPCCluster` or
    :func:`~repro.shard.ShardedCluster` alike).

    It drives the fleet's ``primary``, ``members``, ``restart(name)``,
    ``checkpoint(truncate_wal=...)`` and ``router.notify_event``.  Pass a
    shared :class:`HealthMonitor` to fold several fleets into one event
    log, or let the supervisor build its own.

    Example
    -------
    >>> from repro.resilience import Supervisor
    >>> with Supervisor(cluster) as sup:                # doctest: +SKIP
    ...     cluster.kill("replica-0")          # dies...
    ...     sup.incidents                      # ...heals: [Incident(...)]
    """

    def __init__(self, fleet, config=None, monitor=None, **overrides):
        if config is None:
            config = SupervisorConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        # Deferred: the fleet's router imports repro.resilience.
        from repro.shard.fleet import Fleet

        if not isinstance(fleet, Fleet):
            raise ReproError(
                f"cannot supervise {type(fleet).__name__}: it is not a "
                f"serving fleet"
            )
        self.config = config
        self._fleet = fleet
        if monitor is None:
            monitor = HealthMonitor(lag_threshold=config.lag_threshold)
        self.monitor = monitor
        self._clock = monitor._clock
        self._rng = random.Random(config.seed)
        self._ctl = {}
        self._incidents = []
        self._lock = threading.Lock()
        self._ticks = 0
        self._restarts = 0
        self._repairs = 0
        self._repair_failures = 0
        # Health transitions double as router wakeups: the moment a
        # member is swapped back in, blocked acquires re-examine the
        # fleet instead of sleeping out their wait slice.
        monitor.add_listener(fleet.router.notify_event)
        for name, member in fleet.members.items():
            monitor.register(name, "up" if member.healthy else "down")
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._watch_loop, name="repro-supervisor", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Watchdog loop
    # ------------------------------------------------------------------

    def _watch_loop(self):
        while not self._stop.is_set():
            try:
                self._tick()
            except Exception:  # noqa: BLE001 — the watchdog must survive
                # A tick that dies (fleet mid-teardown, say) must not kill
                # supervision; the next tick re-reads the world.
                pass
            self._stop.wait(self.config.poll_interval)

    def _tick(self):
        self._ticks += 1
        now = self._clock()
        primary_seq = self._fleet.primary.applied_seq
        for name, member in list(self._fleet.members.items()):
            self.monitor.register(name)
            ctl = self._ctl.get(name)
            if ctl is None:
                ctl = self._ctl[name] = _Control(
                    backoff=self.config.backoff_initial
                )
            state = self.monitor.state(name)
            if state == "failed":
                continue
            healthy = member.healthy
            lag = max(0, primary_seq - member.applied_seq)
            corruptions = member.stream_corruptions
            if healthy:
                if state == "restarting":
                    self.monitor.set_state(name, "up", detail="restarted")
                    self._close_incident(ctl, now)
                self.monitor.observe(
                    name, True, lag=lag, corruptions=corruptions
                )
                if ctl.incident is None:
                    ctl.backoff = self.config.backoff_initial
                continue
            # The member is dead.
            cause = member.fatal
            detail = repr(cause) if cause is not None else "killed"
            if state == "restarting":
                # Our replacement died too — back to down, the backoff
                # already scheduled decides when we try again.
                self.monitor.set_state(
                    name, "down", detail=f"restarted member died: {detail}"
                )
            else:
                self.monitor.observe(
                    name, False, lag=lag, corruptions=corruptions,
                    detail=detail,
                )
            if ctl.incident is None:
                ctl.incident = Incident(
                    member=name, detected_at=now, cause=detail
                )
                ctl.next_attempt_at = now  # first restart: immediately
            if now < ctl.next_attempt_at:
                continue
            self._maybe_restart(member, name, ctl, now)

    def _maybe_restart(self, member, name, ctl, now):
        window_start = now - self.config.budget_window
        while ctl.attempts and ctl.attempts[0] < window_start:
            ctl.attempts.popleft()
        if len(ctl.attempts) >= self.config.restart_budget:
            self.monitor.set_state(
                name, "failed",
                detail=(
                    f"crash-loop budget exhausted: {len(ctl.attempts)} "
                    f"restarts in the last {self.config.budget_window} s"
                ),
            )
            incident = ctl.incident
            incident.failed = True
            with self._lock:
                self._incidents.append(incident)
            ctl.incident = None
            return
        ctl.attempts.append(now)
        attempt = len(ctl.attempts)
        self.monitor.set_state(
            name, "restarting", detail=f"attempt {attempt}"
        )
        corrupt = (
            self._is_corruption(member.fatal)
            or member.stream_corruptions > 0
        )
        if corrupt and self.config.repair_corruption:
            self._repair(ctl)
        try:
            self._fleet.restart(name)
        except Exception as exc:  # noqa: BLE001 — classified below
            # A restart that dies bootstrapping from a corrupt checkpoint
            # is itself a corruption signal: repair, then retry on the
            # scheduled backoff.
            if self._is_corruption(exc) and self.config.repair_corruption:
                self._repair(ctl)
            self.monitor.set_state(
                name, "down", detail=f"restart failed: {exc!r}"
            )
        with self._lock:
            self._restarts += 1
        ctl.incident.restarts += 1
        delay = ctl.backoff * (1.0 + self.config.jitter * self._rng.random())
        ctl.next_attempt_at = now + delay
        ctl.backoff = min(
            ctl.backoff * self.config.backoff_factor, self.config.backoff_max
        )

    def _repair(self, ctl):
        """Fresh primary checkpoint + truncated log: the corrupt region
        is cut out of the stream so the next bootstrap reads clean bytes.
        """
        try:
            self._fleet.checkpoint(truncate_wal=True)
        except Exception:  # noqa: BLE001 — e.g. an armed ENOSPC fault
            with self._lock:
                self._repair_failures += 1
        else:
            with self._lock:
                self._repairs += 1
            if ctl.incident is not None:
                ctl.incident.repaired = True

    def _close_incident(self, ctl, now):
        incident = ctl.incident
        if incident is None:
            return
        incident.recovered_at = now
        incident.mttr_s = now - incident.detected_at
        with self._lock:
            self._incidents.append(incident)
        ctl.incident = None
        ctl.backoff = self.config.backoff_initial

    @staticmethod
    def _is_corruption(exc):
        """Is this death corruption-classified (vs a plain crash)?

        Typed :class:`WalCorruptionError` is the designed signal; the
        string fallback catches causes that arrive re-wrapped (a replica
        fatal quoting the corrupt record, a checkpoint whose JSON no
        longer parses).
        """
        if exc is None:
            return False
        if isinstance(exc, WalCorruptionError):
            return True
        cause = getattr(exc, "__cause__", None)
        if isinstance(cause, WalCorruptionError):
            return True
        return isinstance(exc, ReproError) and "corrupt" in str(exc).lower()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def incidents(self):
        """Closed :class:`Incident` records, in detection order.

        An outage still being healed is not listed yet — its record is
        appended when the member recovers or is marked ``failed``.
        """
        with self._lock:
            return list(self._incidents)

    @property
    def events(self):
        """The shared monitor's full transition log."""
        return self.monitor.events

    def stats(self):
        """JSON-safe counters + the monitor's per-member summary."""
        with self._lock:
            incidents = list(self._incidents)
            restarts = self._restarts
            repairs = self._repairs
            repair_failures = self._repair_failures
        recovered = [i.mttr_s for i in incidents if i.mttr_s is not None]
        return {
            "ticks": self._ticks,
            "restarts": restarts,
            "repairs": repairs,
            "repair_failures": repair_failures,
            "incidents": len(incidents),
            "failed_members": sum(1 for i in incidents if i.failed),
            "mttr_max_s": max(recovered) if recovered else None,
            "monitor": self.monitor.stats(),
        }

    def set_metrics(self, registry):
        """Promote the supervisor's counters into a shared registry as
        callback gauges (``repro_resilience_*`` — restarts, repairs,
        incidents, failed members, per-member monitor states).

        ``mttr_max_s`` is registered explicitly: it reads ``None`` until
        the first incident recovers, so leaf discovery on a fresh
        supervisor would otherwise miss it (the gauge is simply dropped
        from exposition while it has nothing to report).
        """
        if registry is None:
            return
        from repro.obs.bind import bind_supervisor

        bind_supervisor(registry, self)
        registry.gauge(
            "repro_resilience_mttr_max_s",
            fn=lambda: self.stats()["mttr_max_s"],
        )

    def close(self, timeout=10.0):
        """Stop the watchdog thread.  Idempotent."""
        self._stop.set()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise ReproError(
                "supervisor watchdog thread failed to stop within "
                f"{timeout} s"
            )

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return (
            f"Supervisor(members={sorted(self.monitor.states())}, "
            f"restarts={self._restarts})"
        )

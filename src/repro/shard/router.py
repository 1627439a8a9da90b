"""FleetRouter: one read path over K hub slices x R members per slice.

Every member is a :class:`~repro.shard.Shard` materializing one hub slice
of the primary's index from its label journal; a replicated fleet is the
K=1 case (one full slice, R members).  A read acquires a :class:`Cut`:
the router picks **one member per slice** under the routing policy, then
pins each pick's published view at **one** journal seq — mixing seqs
would merge partials that never coexisted.  The per-slice partial
answers fold with :func:`repro.audit.merge_partial_answers`; hub slices
partition the index's hub set, so the fold *is* the full two-pointer
merge, counts and all (with one slice it is the identity).

Policies (``policy=`` name) choose among a slice's eligible members:

* ``round_robin`` — rotate across them;
* ``least_loaded`` — fewest in-flight cuts (ties rotate);
* ``bounded_staleness`` — only members whose freshest view is within
  ``staleness_delta`` of the primary's applied seq at selection time.

Every policy also honours a per-read ``min_seq`` floor — the hook
:class:`~repro.cluster.ClusterSession` read-your-writes stands on.

Failure semantics:

* a member that is down or whose circuit breaker is open is skipped;
  its siblings in the slice serve instead;
* a slice with **no** live member refuses the read at once
  (:class:`~repro.exceptions.ShardError`) — a merged answer missing one
  hub range would be wrong, not stale;
* the primary's own published snapshot is the last-resort member of a
  *single full slice* only (it holds every hub; it cannot stand in for
  one slice of a sharded fleet);
* when no consistent cut at the floor appears within ``wait_timeout``
  the read refuses; with ``degraded="stale"`` a floorless read is served
  instead from the newest seq every slice can still answer from some
  member's ring, dead or alive, within ``degraded_max_lag`` of the
  primary — tagged ``"+degraded"`` end to end, bounded-stale but never
  wrong.

Waiters block on a condition notified by every publish and health
transition (:meth:`FleetRouter.notify_event`), with a 50 ms poll cap.
"""

import itertools
import threading
import time
from functools import reduce

from repro.audit.comparator import merge_partial_answers
from repro.exceptions import ClusterError, ShardError
from repro.resilience.breaker import CircuitBreaker
from repro.shard.planner import gather_chunks, split_batch

#: routing policy vocabulary; selection itself is shared.
POLICIES = ("round_robin", "least_loaded", "bounded_staleness")

#: degraded-mode vocabulary: refuse (default) or serve bounded-stale.
DEGRADED_MODES = ("refuse", "stale")

#: tap / ``query_tagged`` target of a cut that merges several slices.
MERGED_TARGET = "shard-router"

#: cap on each blocking wait slice — the safety net under lost wakeups.
_WAIT_SLICE = 0.05


class _Primary:
    """The primary service's published snapshot, seen as a member of the
    full slice: one view, at the snapshot's own seq."""

    name = "primary"
    healthy = True

    def __init__(self, service):
        self.service = service

    @property
    def applied_seq(self):
        return self.service.applied_seq

    @property
    def latest_seq(self):
        snap = self.service.snapshot()
        return snap.seq if snap is not None else -1

    min_seq = latest_seq

    def view_at(self, seq):
        snap = self.service.snapshot()
        return snap if snap is not None and snap.seq == seq else None

    def partial(self, s, t, view):
        return view.query(s, t)


class _Slot:
    """Router-side bookkeeping for one member name."""

    __slots__ = ("inflight", "leases", "breaker")

    def __init__(self, breaker):
        self.inflight = 0
        self.leases = 0
        self.breaker = breaker


class Cut:
    """One consistent read point: a seq plus one pinned view per slice.

    Views are immutable, so a cut may serve a whole batch; use it as a
    context manager (or call :meth:`release`) to return the in-flight
    slots ``least_loaded`` counts.  ``name`` is the serving target as
    taps and ``query_tagged`` report it.  ``wait_s`` / ``pin_s`` carry
    the acquire's stage timings when the router is instrumented.
    """

    __slots__ = ("seq", "members", "views", "degraded", "wait_s", "pin_s",
                 "_router", "_released")

    def __init__(self, router, seq, picks, degraded=False):
        self.seq = seq
        self.members = [m for m, _v in picks]
        self.views = [v for _m, v in picks]
        self.degraded = degraded
        self.wait_s = 0.0
        self.pin_s = 0.0
        self._router = router
        self._released = False

    @property
    def name(self):
        base = (self.members[0].name if len(self.members) == 1
                else MERGED_TARGET)
        return base + "+degraded" if self.degraded else base

    def partials(self, s, t):
        """Every slice's partial answer for (s, t) at this cut."""
        return [m.partial(s, t, v) for m, v in zip(self.members, self.views)]

    def answer(self, s, t):
        """The merged (dist, count) for (s, t) at this cut."""
        return reduce(merge_partial_answers, self.partials(s, t))

    def release(self):
        """Return the in-flight slots (idempotent)."""
        if not self._released:
            self._released = True
            self._router._release(self.members)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False


class _RouterObs:
    """Pre-created instruments for one router (see ``set_metrics``).

    The six read stages — ``queue_wait``, ``snapshot_pin``, ``scatter``,
    ``shard_probe``, ``merge``, ``tap`` — each get a histogram under
    ``repro_shard_stage_seconds{stage=...}``, plus an explicit
    ``unattributed`` stage holding whatever end-to-end time no stage
    claimed, so the stage sums reconcile exactly with
    ``repro_shard_read_latency_seconds``.
    """

    __slots__ = ("tracer", "reads", "fanout", "latency", "refusals",
                 "stages", "transitions")

    def __init__(self, registry, tracer):
        self.tracer = tracer
        self.reads = registry.counter("repro_shard_reads")
        self.fanout = registry.counter("repro_shard_fanout")
        # "repro_shard_refusals" is the promoted stats() gauge (which
        # also counts refusals converted to degraded serves); this
        # counter counts only reads actually refused with an error.
        self.refusals = registry.counter("repro_shard_read_refusals")
        self.latency = registry.histogram("repro_shard_read_latency_seconds")
        self.stages = {
            stage: registry.histogram("repro_shard_stage_seconds", stage=stage)
            for stage in ("queue_wait", "snapshot_pin", "scatter",
                          "shard_probe", "merge", "tap", "unattributed")
        }
        self.transitions = {
            state: registry.counter(
                "repro_shard_breaker_transitions", to=state
            )
            for state in ("closed", "open", "half_open")
        }

    def on_breaker_transition(self, _old, new):
        counter = self.transitions.get(new)
        if counter is not None:
            counter.inc()

    def observe(self, cut, total_s, stages, trace):
        """Record one read: end-to-end time, every stage, the remainder."""
        stages = {"queue_wait": cut.wait_s, "snapshot_pin": cut.pin_s,
                  **stages}
        stages["unattributed"] = total_s - sum(stages.values())
        self.reads.inc()
        self.fanout.inc(len(cut.members))
        self.latency.observe(total_s)
        for stage, seconds in stages.items():
            self.stages[stage].observe(seconds)
        if trace is not None:
            for stage, seconds in stages.items():
                meta = {"seq": cut.seq} if stage == "queue_wait" else None
                trace.add(stage, seconds, meta=meta)
            trace.finish(total_s)


class FleetRouter:
    """Route reads over hub slices of fleet members, with one policy.

    Parameters
    ----------
    primary:
        The primary :class:`~repro.serve.SPCService` — the staleness
        reference, and the last-resort member of a single full slice.
    slices:
        One list of members per hub slice, in slice order.
    policy / staleness_delta:
        Member selection (see the module docstring).
    wait_timeout:
        How long a read may wait for a consistent cut before refusing.
    parallel_threshold:
        ``query_many`` batches at least this long are split across the
        live members, each sub-batch under its own cut.
    degraded / degraded_max_lag:
        ``"refuse"`` (default) or ``"stale"``, and how many seqs behind
        the primary a degraded cut may be.
    breaker_threshold / breaker_cooldown:
        Per-member :class:`~repro.resilience.CircuitBreaker` tuning.
    """

    def __init__(self, primary, slices, policy="round_robin",
                 staleness_delta=8, wait_timeout=5.0, parallel_threshold=64,
                 degraded="refuse", degraded_max_lag=64,
                 breaker_threshold=3, breaker_cooldown=0.25):
        if policy not in POLICIES:
            raise ClusterError(
                f"unknown routing policy {policy!r}; choose from {POLICIES}"
            )
        if staleness_delta < 0:
            raise ClusterError(
                f"staleness_delta must be >= 0, got {staleness_delta!r}"
            )
        if parallel_threshold < 2:
            raise ClusterError(
                f"parallel_threshold must be >= 2, got {parallel_threshold!r}"
            )
        if degraded not in DEGRADED_MODES:
            raise ClusterError(
                f"unknown degraded mode {degraded!r}; "
                f"choose from {DEGRADED_MODES}"
            )
        if degraded_max_lag < 0:
            raise ClusterError(
                f"degraded_max_lag must be >= 0, got {degraded_max_lag!r}"
            )
        self.policy = policy
        self.staleness_delta = staleness_delta
        self.wait_timeout = wait_timeout
        self.parallel_threshold = parallel_threshold
        self.degraded = degraded
        self.degraded_max_lag = degraded_max_lag
        self._primary = _Primary(primary)
        self._slices = [list(members) for members in slices]
        self._slots = {
            m.name: _Slot(CircuitBreaker(failure_threshold=breaker_threshold,
                                         cooldown=breaker_cooldown))
            for members in self._slices for m in members
        }
        self._slots["primary"] = _Slot(None)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._rr = itertools.count()
        self._routed = 0
        self._refusals = 0
        self._fast_refusals = 0
        self._fallbacks = 0
        self._waits = 0
        self._breaker_skips = 0
        self._degraded_serves = 0
        self._answer_tap = None
        self._obs = None

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------

    def set_member(self, name, member):
        """Swap the member registered under ``name`` (a restarted one).

        Its circuit breaker is reset — the new member deserves a clean
        slate — and waiters are woken to examine it at once.
        """
        with self._lock:
            for members in self._slices:
                for i, existing in enumerate(members):
                    if existing.name == name:
                        members[i] = member
                        self._slots[name].breaker.reset()
                        break
                else:
                    continue
                break
            else:
                raise ShardError(f"router knows no member named {name!r}")
        self.notify_event()

    def notify_event(self, *_args, **_kwargs):
        """Wake blocked waiters (publish / health-change seam).

        Wired to every member's and the primary's publish listener and
        usable as a :class:`~repro.resilience.HealthMonitor` listener
        (extra arguments are accepted and ignored).
        """
        with self._wakeup:
            self._wakeup.notify_all()

    def set_answer_tap(self, tap):
        """Install (or clear, with ``None``) the answer-tap hook.

        Same contract as :meth:`repro.serve.SPCService.set_answer_tap`:
        ``tap(answered, seq, target, epoch)`` fires after every routed
        read with the cut's seq and :attr:`Cut.name` — the serving
        member's name on a single slice, ``"shard-router"`` for a merge,
        suffixed ``"+degraded"`` for a bounded-stale cut — so an
        :class:`~repro.audit.AuditSampler` + shadow auditor verifies
        every answer against WAL replay at exactly that seq.  Views carry
        no engine epoch; it is reported as 0.
        """
        self._answer_tap = tap

    def set_metrics(self, registry, tracer=None):
        """Install (or clear, with ``None``) the telemetry seam.

        Promotes ``stats()`` into ``registry`` as ``repro_shard_*``
        callback gauges, arms the six-stage read breakdown, counts
        breaker transitions and refusals, and — with a
        :class:`~repro.obs.Tracer` — retains span trees for sampled reads.
        """
        obs = None
        if registry is not None:
            from repro.obs.bind import bind_router

            bind_router(registry, self)
            obs = _RouterObs(registry, tracer)
        listener = obs.on_breaker_transition if obs is not None else None
        for slot in self._slots.values():
            if slot.breaker is not None:
                slot.breaker.set_listener(listener)
        self._obs = obs

    # ------------------------------------------------------------------
    # Cuts
    # ------------------------------------------------------------------

    def acquire(self, min_seq=0):
        """Pin a :class:`Cut` at ``seq >= min_seq`` under the policy.

        Waits up to ``wait_timeout`` for a consistent cut; refuses at
        once when a slice has no live member.  Refusal raises
        :class:`~repro.exceptions.ShardError` — or, under
        ``degraded="stale"`` and for floorless reads only (read-your-
        writes never degrades), returns a degraded cut when one exists.
        """
        obs = self._obs
        t0 = time.perf_counter() if obs is not None else 0.0
        deadline = time.monotonic() + self.wait_timeout
        while True:
            cut, refusal = self._try_cut(min_seq, t0)
            if cut is not None:
                return cut
            remaining = deadline - time.monotonic()
            if refusal is not None or remaining <= 0:
                break
            with self._wakeup:
                self._waits += 1
                self._wakeup.wait(min(_WAIT_SLICE, remaining))
        if refusal is None:
            refusal = ShardError(
                f"no consistent cut at seq >= {min_seq} within "
                f"{self.wait_timeout} s (policy {self.policy!r}, delta "
                f"{self.staleness_delta}, primary at seq "
                f"{self._primary.applied_seq}); the fleet is lagging or "
                f"down, refusing"
            )
        with self._lock:
            self._refusals += 1
        if self.degraded == "stale" and min_seq == 0:
            cut = self._degraded_cut()
            if cut is not None:
                with self._lock:
                    self._degraded_serves += 1
                if obs is not None:
                    cut.wait_s = time.perf_counter() - t0
                return cut
        if obs is not None:
            obs.refusals.inc()
        raise refusal

    def _try_cut(self, min_seq, t0):
        """One selection pass: ``(cut, None)``, ``(None, refusal)`` when
        a slice has no live member, or ``(None, None)`` to wait.  ``t0``
        is the acquire's start, for the instrumented stage timings."""
        floor = min_seq
        if self.policy == "bounded_staleness":
            floor = max(floor, self._primary.applied_seq - self.staleness_delta)
        # set_member swaps list items in place, so the slices can be read
        # without the lock; next() on a count is atomic.
        slices = self._slices
        rr = next(self._rr)
        picks = []  # (member, the freshest seq it had at selection)
        for members in slices:
            fresh, down, blocked = [], [], []
            for member in members:
                breaker = self._slots[member.name].breaker
                if not breaker.allow():
                    blocked.append(member.name)
                    continue
                if not member.healthy:
                    # A dead member is a failure its breaker counts; once
                    # open, the member is skipped without being probed.
                    breaker.record_failure()
                    down.append(member.name)
                    continue
                breaker.record_success()
                # Staleness misses are not failures: a lagging member is
                # healthy, merely behind.
                latest = member.latest_seq
                if latest >= floor:
                    fresh.append((member, latest))
            if blocked:
                with self._lock:
                    self._breaker_skips += len(blocked)
            if not fresh and len(slices) == 1:
                latest = self._primary.latest_seq
                if latest >= floor:
                    fresh = [(self._primary, latest)]
            if not fresh:
                if len(slices) == 1 or len(down) + len(blocked) < len(members):
                    return None, None
                return None, self._slice_refusal(down, blocked)
            if self.policy == "least_loaded":
                with self._lock:
                    lightest = min(self._slots[m.name].inflight
                                   for m, _seq in fresh)
                    fresh = [(m, seq) for m, seq in fresh
                             if self._slots[m.name].inflight == lightest]
            picks.append(fresh[rr % len(fresh)])
        t_pin = time.perf_counter() if self._obs is not None else 0.0
        seq = min(latest for _m, latest in picks)
        members = [m for m, _latest in picks]
        views = [m.view_at(seq) for m in members]
        if any(v is None for v in views):
            return None, None
        cut = Cut(self, seq, list(zip(members, views)))
        if self._obs is not None:
            cut.wait_s = t_pin - t0
            cut.pin_s = time.perf_counter() - t_pin
        self._lease(members)
        if members[0] is self._primary:
            with self._lock:
                self._fallbacks += 1
        return cut, None

    def _slice_refusal(self, down, blocked):
        if blocked:
            with self._lock:
                self._fast_refusals += 1
            return ShardError(
                f"circuit open for member(s) {blocked}: recent reads kept "
                f"failing there; refusing fast while the fleet heals"
            )
        return ShardError(
            f"member(s) {down} are down and their hub slice has no live "
            f"member; refusing (a missing slice cannot be merged around)"
        )

    def _degraded_cut(self):
        """The newest seq every slice can still serve from *some* member's
        ring — health and breakers ignored — within ``degraded_max_lag``
        of the primary; ``None`` when no such seq exists."""
        slices = [list(members) for members in self._slices]
        if len(slices) == 1:
            slices[0].append(self._primary)
        hi = min(max(m.latest_seq for m in members) for members in slices)
        lo = max(min(m.min_seq for m in members) for members in slices)
        lo = max(lo, self._primary.applied_seq - self.degraded_max_lag, 0)
        for seq in range(hi, lo - 1, -1):
            picks = []
            for members in slices:
                for member in members:
                    view = member.view_at(seq)
                    if view is not None:
                        picks.append((member, view))
                        break
                else:
                    break
            if len(picks) == len(slices):
                self._lease([m for m, _v in picks])
                return Cut(self, seq, picks, degraded=True)
        return None

    def _lease(self, members):
        with self._lock:
            for member in members:
                slot = self._slots[member.name]
                slot.inflight += 1
                slot.leases += 1

    def _release(self, members):
        with self._lock:
            for member in members:
                self._slots[member.name].inflight -= 1

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _tapped(self, cut, answered):
        with self._lock:
            self._routed += len(answered)
        tap = self._answer_tap
        if tap is not None:
            tap(answered, cut.seq, cut.name, 0)

    def query(self, s, t, min_seq=0):
        """The merged (dist, count) for one pair at one consistent cut."""
        return self._point(s, t, min_seq)[0]

    def query_tagged(self, s, t, min_seq=0):
        """One pair plus its provenance: ``(answer, seq, target)``.

        ``target`` is what the answer tap sees (:attr:`Cut.name`), so
        callers observe degraded serves without registering a tap.
        """
        answer, cut = self._point(s, t, min_seq)
        return answer, cut.seq, cut.name

    def _point(self, s, t, min_seq):
        obs = self._obs
        if obs is None:
            with self.acquire(min_seq) as cut:
                answer = cut.answer(s, t)
                self._tapped(cut, [((s, t), answer)])
                return answer, cut
        trace = obs.tracer.maybe_begin("shard_query") if obs.tracer else None
        t0 = time.perf_counter()
        with self.acquire(min_seq) as cut:
            # Scatter = the fan-out loop's own overhead; each probe is
            # timed individually so scatter never absorbs probe time.
            t_sc = time.perf_counter()
            partials = []
            probe_s = 0.0
            for member, view in zip(cut.members, cut.views):
                p0 = time.perf_counter()
                partials.append(member.partial(s, t, view))
                p1 = time.perf_counter()
                probe_s += p1 - p0
                if trace is not None:
                    trace.add("shard_probe", p1 - p0,
                              meta={"member": member.name})
            t_gathered = time.perf_counter()
            answer = reduce(merge_partial_answers, partials)
            t_merged = time.perf_counter()
            self._tapped(cut, [((s, t), answer)])
            t_end = time.perf_counter()
            obs.observe(cut, t_end - t0, {
                "scatter": (t_gathered - t_sc) - probe_s,
                "shard_probe": probe_s,
                "merge": t_merged - t_gathered,
                "tap": t_end - t_merged,
            }, trace)
            return answer, cut

    def query_many(self, pairs, min_seq=0):
        """Answer a batch of pairs, in submission order.

        Batches shorter than ``parallel_threshold`` — or when no slice
        has two live members — run under one cut.  Larger ones split
        into contiguous sub-batches (:func:`repro.shard.planner
        .split_batch`), each under its *own* cut on whichever members the
        policy picks; each sub-batch taps with its own seq, which is why
        :meth:`query_many_tagged` (one claimed seq) never splits.  An
        empty batch returns ``[]`` without acquiring anything.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        if len(pairs) >= self.parallel_threshold:
            with self._lock:
                ways = min(sum(1 for m in members if m.healthy)
                           for members in self._slices)
            chunks = split_batch(
                pairs, ways, min_chunk=self.parallel_threshold // 2
            )
            if len(chunks) >= 2:
                return gather_chunks(
                    chunks,
                    lambda _offset, chunk: self._batch(chunk, min_seq)[0],
                    parallel=True,
                )
        return self._batch(pairs, min_seq)[0]

    def query_many_tagged(self, pairs, min_seq=0):
        """Batch variant of :meth:`query_tagged`: ``(answers, seq, target)``
        from a single cut — the seq is a claim about every answer."""
        answers, cut = self._batch(list(pairs), min_seq)
        return answers, cut.seq, cut.name

    def _batch(self, pairs, min_seq):
        obs = self._obs
        t0 = time.perf_counter() if obs is not None else 0.0
        with self.acquire(min_seq) as cut:
            t_sc = time.perf_counter() if obs is not None else 0.0
            answers = [cut.answer(s, t) for s, t in pairs]
            t_gathered = time.perf_counter() if obs is not None else 0.0
            self._tapped(cut, list(zip(pairs, answers)))
            if obs is not None:
                # Probe and merge interleave per pair here, so the whole
                # loop is attributed to the scatter stage.
                tracer = obs.tracer
                trace = (tracer.maybe_begin("shard_query_many",
                                            meta={"pairs": len(pairs)})
                         if tracer else None)
                t_end = time.perf_counter()
                obs.observe(cut, t_end - t0, {
                    "scatter": t_gathered - t_sc,
                    "tap": t_end - t_gathered,
                }, trace)
            return answers, cut

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self):
        """Routing counters, per-member breakers and member stats.

        ``routed`` counts answered pairs; ``leases`` counts the cuts each
        member served and ``primary_reads`` those the primary stood in
        for.
        """
        with self._lock:
            members = [m for ms in self._slices for m in ms]
            counters = {
                "policy": self.policy,
                "staleness_delta": self.staleness_delta,
                "degraded_mode": self.degraded,
                "routed": self._routed,
                "leases": {m.name: self._slots[m.name].leases
                           for m in members},
                "primary_reads": self._slots["primary"].leases,
                "refusals": self._refusals,
                "fast_refusals": self._fast_refusals,
                "fallbacks": self._fallbacks,
                "waits": self._waits,
                "breaker_skips": self._breaker_skips,
                "degraded_serves": self._degraded_serves,
            }
        counters["breakers"] = {
            m.name: self._slots[m.name].breaker.stats() for m in members
        }
        counters["members"] = [m.stats() for m in members]
        return counters

    def __repr__(self):
        return (
            f"FleetRouter(slices={[[m.name for m in ms] for ms in self._slices]}, "
            f"policy={self.policy!r}, degraded={self.degraded!r})"
        )

"""Fleet: one primary, K hub slices x R journal-tailing members, one router.

The single serving fleet behind both public shapes.  One writer
(:class:`~repro.serve.SPCService`, durable, with ``label_journal`` forced
on) runs the paper's IncSPC/DecSPC maintenance exactly once and journals
every batch's post-batch label deltas.  Every member is a
:class:`~repro.shard.Shard` that bootstraps its hub slice from the
primary's checkpoint and then only *decodes* journal records — no member
ever re-runs maintenance.  A :class:`~repro.shard.router.FleetRouter`
picks one member per slice for each read and merges the partials.

Two constructors configure it with different defaults:

* :func:`SPCCluster` — a replicated fleet: one full slice of
  ``replicas`` members;
* :func:`ShardedCluster` — a hub-partitioned fleet: ``shards`` slices of
  one member each.

Both build the same :class:`Fleet` from one :class:`ClusterConfig`, which
may set both ``shards`` and ``replicas``.  Members are named by the
fleet's shape: ``replica-<r>`` on a single slice, ``shard-<k>`` when each
slice has one member, ``shard-<k>-replica-<r>`` otherwise.  Fault injection is first class: :meth:`Fleet.kill`
hard-stops a member and :meth:`Fleet.restart` brings a fresh one up under
the same name from the *current* checkpoint + journal tail.
"""

import dataclasses
import os
from dataclasses import dataclass

from repro.cluster.session import ClusterSession
from repro.engine import SPCEngine
from repro.exceptions import ClusterError, ShardError
from repro.serve.persist import filter_label_payload, load_checkpoint
from repro.serve.service import SNAPSHOT_FILENAME, ServeConfig, SPCService
from repro.shard.partitioner import RangePartitioner, make_partitioner
from repro.shard.router import FleetRouter
from repro.shard.shard import Shard


@dataclass(frozen=True)
class ClusterConfig:
    """All tunables of a :class:`Fleet` (replicated-fleet defaults;
    :func:`ShardConfig` gives the hub-partitioned ones).

    Parameters
    ----------
    shards:
        How many hub slices (an explicit partitioner instance passed to
        the fleet overrides it with its own slot count).
    replicas:
        Members per slice.
    policy / staleness_delta:
        Routing policy name (see :mod:`repro.shard.router`) and the Δ of
        ``bounded_staleness``: never serve a cut whose seq lags the
        primary's applied seq by more than this many batches.
    partitioner / seed:
        Hub partitioning strategy when ``shards > 1``: ``"balanced"``
        (holder-weighted contiguous ranges — equal-width ranges collapse
        under the top-heavy hub distribution), ``"range"`` or ``"hash"``
        (mixed with ``seed``).
    poll_interval:
        Seconds a member sleeps between empty journal polls.
    ring_size:
        Per-member depth of the published-view ring (bounds how far the
        router can look back for a consistent cut).
    wait_timeout:
        How long a read may wait for a consistent cut before refusing.
    parallel_threshold:
        ``query_many`` batches at least this long are split across the
        live members, each sub-batch under its own cut.
    degraded / degraded_max_lag:
        Router behavior at the read deadline: ``"refuse"`` (default) or
        ``"stale"`` (serve the newest cut every slice still holds, tagged
        degraded, when within ``degraded_max_lag`` of the primary).
    breaker_threshold / breaker_cooldown:
        Per-member circuit breaker: consecutive failures that trip it
        open, and seconds before a half-open recovery probe.
    stall_budget:
        Re-bootstraps without progress a member tolerates before dying
        (``None`` = the member's own default).
    """

    shards: int = 1
    replicas: int = 2
    policy: str = "round_robin"
    staleness_delta: int = 8
    partitioner: str = "balanced"
    seed: int = 0
    poll_interval: float = 0.002
    ring_size: int = 64
    wait_timeout: float = 5.0
    parallel_threshold: int = 64
    degraded: str = "refuse"
    degraded_max_lag: int = 64
    breaker_threshold: int = 3
    breaker_cooldown: float = 0.25
    stall_budget: int = None

    def __post_init__(self):
        if self.shards < 1:
            raise ShardError(
                f"a fleet needs at least one shard, got {self.shards!r}"
            )
        if self.replicas < 1:
            raise ClusterError(
                f"a cluster needs at least one replica, got {self.replicas!r}"
            )
        if self.ring_size < 2:
            raise ShardError(
                f"ring_size must be >= 2 to leave any cut overlap, "
                f"got {self.ring_size!r}"
            )

    def replace(self, **changes):
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def member_name(self, shard, replica):
        """The name of member ``replica`` of slice ``shard``."""
        if self.shards == 1:
            return f"replica-{replica}"
        if self.replicas == 1:
            return f"shard-{shard}"
        return f"shard-{shard}-replica-{replica}"


def ShardConfig(**fields):
    """A :class:`ClusterConfig` with hub-partitioned-fleet defaults
    (``shards=4``, ``replicas=1``); ``fields`` override any of them."""
    return ClusterConfig(**{"shards": 4, "replicas": 1, **fields})


class Fleet:
    """A serving fleet over one engine's label journal.

    Build one with :func:`SPCCluster` or :func:`ShardedCluster`.

    Example
    -------
    >>> import repro, tempfile
    >>> from repro.cluster import SPCCluster
    >>> from repro.workloads import InsertEdge
    >>> engine = repro.open(repro.Graph.from_edges([(0, 1), (1, 2)]))
    >>> with SPCCluster(engine, tempfile.mkdtemp()) as c:
    ...     session = c.session()
    ...     _ = session.submit(InsertEdge(0, 2)).ack()
    ...     session.query(0, 2)
    (1, 1)
    """

    def __init__(self, engine, state_dir, config, serve_config=None,
                 partitioner=None, overwrite=False):
        if partitioner is not None:
            config = config.replace(shards=partitioner.num_shards)
        self._config = config
        # The journal is not optional here — it *is* the replication feed.
        serve_config = (serve_config or ServeConfig()).replace(
            durability_dir=state_dir, label_journal=True
        )
        self._state_dir = state_dir
        self._closed = False
        self.primary = SPCService(
            engine, config=serve_config, overwrite=overwrite
        )
        self._members = {}
        try:
            if partitioner is None:
                partitioner = RangePartitioner([])
                if config.shards > 1:
                    partitioner = make_partitioner(
                        config.partitioner, config.shards, seed=config.seed,
                        payload=load_checkpoint(
                            os.path.join(state_dir, SNAPSHOT_FILENAME)
                        ),
                    )
            self.partitioner = partitioner
            slices = []
            for k in range(partitioner.num_shards):
                slices.append([])
                for r in range(config.replicas):
                    member = self._start(config.member_name(k, r), k)
                    self._members[member.name] = member
                    slices[k].append(member)
            self.router = FleetRouter(
                self.primary,
                slices,
                policy=config.policy,
                staleness_delta=config.staleness_delta,
                wait_timeout=config.wait_timeout,
                parallel_threshold=config.parallel_threshold,
                degraded=config.degraded,
                degraded_max_lag=config.degraded_max_lag,
                breaker_threshold=config.breaker_threshold,
                breaker_cooldown=config.breaker_cooldown,
            )
            # Publish events wake blocked reads instead of letting them
            # sleep out their wait slice.
            self.primary.set_publish_listener(self.router.notify_event)
            for member in self._members.values():
                member.set_publish_listener(self.router.notify_event)
        except BaseException:
            # A member that failed to bootstrap must not leak the ones
            # that did, nor the primary's writer thread.
            self._teardown()
            raise

    def _start(self, name, slice_id):
        return Shard(
            self._state_dir, slice_id, self.partitioner,
            name=name,
            poll_interval=self._config.poll_interval,
            ring_size=self._config.ring_size,
            stall_budget=self._config.stall_budget,
        )

    # ------------------------------------------------------------------
    # Write path (primary only)
    # ------------------------------------------------------------------

    def submit(self, update):
        """Enqueue one update on the primary."""
        self.primary.submit(update)

    def submit_many(self, updates):
        """Enqueue a batch (kept whole) on the primary."""
        self.primary.submit_many(updates)

    def flush(self, timeout=30.0):
        """Apply + journal everything submitted on the primary so far."""
        return self.primary.flush(timeout=timeout)

    def checkpoint(self, truncate_wal=False, timeout=30.0):
        """Durable checkpoint on the primary (members re-bootstrap if the
        journal is compacted beneath their tail)."""
        return self.primary.checkpoint(
            truncate_wal=truncate_wal, timeout=timeout
        )

    # ------------------------------------------------------------------
    # Read path (routed)
    # ------------------------------------------------------------------

    def query(self, s, t):
        """The routed (dist, count) for one pair."""
        return self.router.query(s, t)

    def query_tagged(self, s, t):
        """Routed answer plus its provenance: (answer, seq, target)."""
        return self.router.query_tagged(s, t)

    def query_many(self, pairs):
        """Answer a batch of pairs (see :meth:`FleetRouter.query_many`)."""
        return self.router.query_many(pairs)

    def session(self):
        """A sticky :class:`~repro.cluster.ClusterSession` (read-your-writes)."""
        return ClusterSession(self)

    def set_answer_tap(self, tap):
        """Tap every routed answer (see :meth:`FleetRouter.set_answer_tap`)."""
        self.router.set_answer_tap(tap)

    def set_metrics(self, registry, tracer=None):
        """Install (or clear, with ``None``) telemetry across the fleet:
        the primary's serve instruments + writer spans, and the router's
        stage breakdown (see :meth:`FleetRouter.set_metrics`)."""
        self.primary.set_metrics(registry, tracer=tracer)
        self.router.set_metrics(registry, tracer=tracer)

    # ------------------------------------------------------------------
    # Fleet operations
    # ------------------------------------------------------------------

    @property
    def members(self):
        """Mapping name -> :class:`~repro.shard.Shard`, slice by slice
        (live view, do not mutate)."""
        return self._members

    @property
    def config(self):
        """The fleet's :class:`ClusterConfig` (frozen)."""
        return self._config

    @property
    def state_dir(self):
        """The primary's durability directory (= the replication feed)."""
        return self._state_dir

    def sync(self, timeout=30.0):
        """Flush the primary, then block until every healthy member has
        applied up to the primary's seq.  Returns that seq.

        Raises :class:`~repro.exceptions.ShardError` when a member
        cannot catch up in time — a lagging fleet is an operational fact
        the caller must see, not average away.
        """
        self.primary.flush(timeout=timeout)
        target = self.primary.applied_seq
        for name, member in self._members.items():
            if member.healthy and not member.catch_up(target, timeout=timeout):
                raise ShardError(
                    f"member {name!r} is stuck at seq {member.applied_seq}, "
                    f"primary at {target}"
                )
        return target

    def kill(self, name):
        """Hard-stop one member mid-stream (fault injection).

        The dead member stays registered — unhealthy, so the router skips
        it — until :meth:`restart` replaces it.  A slice left with no
        live member refuses reads (a single full slice falls back to the
        primary instead).
        """
        self._member(name).kill()

    def restart(self, name):
        """Crash-recover a member: bootstrap a fresh one under the same
        name from the *current* checkpoint + journal tail and swap it into
        the router.  Returns the new member."""
        old = self._member(name)
        old.kill()
        member = self._start(name, old.shard_id)
        member.set_publish_listener(self.router.notify_event)
        self._members[name] = member
        self.router.set_member(name, member)
        return member

    def check_invariants(self, timeout=30.0):
        """Validate the primary engine's label invariants, then cross-check
        every healthy member: its view at the primary's seq must equal the
        primary's own labels restricted to the member's hub slice.

        Syncs first; call it while no other thread submits.
        """
        seq = self.sync(timeout=timeout)
        engine = self.primary.engine
        engine.check_invariants()
        labels = {
            v: engine.backend.label_payload(v)
            for v in engine.graph.vertices()
        }
        for name, member in self._members.items():
            if not member.healthy:
                continue
            expected = {
                v: filter_label_payload(lp, member.keep)
                for v, lp in labels.items()
            }
            if member.view_at(seq) != expected:
                raise ShardError(
                    f"member {name!r} diverged from the primary's labels "
                    f"at seq {seq}"
                )
        return True

    def stats(self):
        """One dict tying together primary, partitioner and router
        counters (member stats live under ``router["members"]``)."""
        return {
            "primary": self.primary.stats(),
            "partitioner": self.partitioner.describe(),
            "router": self.router.stats(),
        }

    def close(self, timeout=30.0):
        """Stop every member and the primary.  Idempotent.

        Member applier failures surface as
        :class:`~repro.exceptions.ShardError` after everything has been
        torn down — a dead member must not leave the writer running.
        """
        if self._closed:
            return
        self._closed = True
        failures = self._teardown(timeout=timeout)
        if failures:
            raise ShardError(
                f"fleet shutdown found {len(failures)} failed "
                f"component(s): " + "; ".join(failures)
            )

    def _teardown(self, timeout=30.0):
        failures = []
        for member in self._members.values():
            try:
                member.close()
            except ClusterError as exc:
                failures.append(str(exc))
        try:
            self.primary.close(timeout=timeout)
        except Exception as exc:  # noqa: BLE001 — reported, not masked
            failures.append(f"primary: {exc!r}")
        return failures

    def _member(self, name):
        try:
            return self._members[name]
        except KeyError:
            raise ShardError(
                f"no member named {name!r}; have {sorted(self._members)}"
            ) from None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return (
            f"Fleet(members={list(self._members)}, "
            f"partitioner={self.partitioner.describe()['kind']!r}, "
            f"policy={self._config.policy!r}, "
            f"primary_seq={self.primary.applied_seq})"
        )


def _configured(config_cls, config, overrides):
    if config is None:
        return config_cls(**overrides)
    return config.replace(**overrides) if overrides else config


def SPCCluster(engine, state_dir, config=None, serve_config=None,
               overwrite=False, **overrides):
    """A replicated :class:`Fleet`: one full slice, ``replicas`` members.

    Keyword overrides patch individual :class:`ClusterConfig` fields.

    Example
    -------
    >>> import repro, tempfile
    >>> from repro.workloads import InsertEdge
    >>> engine = repro.open(repro.Graph.from_edges([(0, 1), (1, 2)]))
    >>> with SPCCluster(engine, tempfile.mkdtemp(), replicas=1) as c:
    ...     c.submit(InsertEdge(0, 2))
    ...     _ = c.sync()
    ...     c.query_tagged(0, 2)[2]
    'replica-0'
    """
    return Fleet(
        engine, state_dir, _configured(ClusterConfig, config, overrides),
        serve_config=serve_config, overwrite=overwrite,
    )


def ShardedCluster(engine, state_dir, config=None, serve_config=None,
                   partitioner=None, overwrite=False, **overrides):
    """A hub-partitioned :class:`Fleet`: ``shards`` slices, one member each.

    ``partitioner`` is a strategy name (folded into the config) or a
    :class:`~repro.shard.HubPartitioner` instance (its slot count wins).

    Example
    -------
    >>> import repro, tempfile
    >>> from repro.workloads import InsertEdge
    >>> engine = repro.open(repro.Graph.from_edges([(0, 1), (1, 2)]))
    >>> with ShardedCluster(engine, tempfile.mkdtemp(), shards=2) as sc:
    ...     sc.submit(InsertEdge(0, 2))
    ...     _ = sc.sync()
    ...     sc.query(0, 2)
    (1, 1)
    """
    if isinstance(partitioner, str):
        overrides["partitioner"] = partitioner
        partitioner = None
    return Fleet(
        engine, state_dir, _configured(ShardConfig, config, overrides),
        serve_config=serve_config, partitioner=partitioner,
        overwrite=overwrite,
    )


def _open(constructor, graph_or_engine, state_dir, engine_config, **kwargs):
    if isinstance(graph_or_engine, SPCEngine):
        engine = graph_or_engine
    else:
        engine = SPCEngine(graph_or_engine, config=engine_config)
    return constructor(engine, state_dir, **kwargs)


def cluster(graph_or_engine, state_dir, config=None, serve_config=None,
            engine_config=None, overwrite=False, **overrides):
    """Open an :func:`SPCCluster` over a graph or an existing engine.

    Mirrors :func:`repro.serve.serve`: a graph is indexed first
    (auto-selected backend, ``engine_config`` forwarded).
    """
    return _open(SPCCluster, graph_or_engine, state_dir, engine_config,
                 config=config, serve_config=serve_config,
                 overwrite=overwrite, **overrides)


def shard_cluster(graph_or_engine, state_dir, config=None, serve_config=None,
                  engine_config=None, partitioner=None, overwrite=False,
                  **overrides):
    """Open a :func:`ShardedCluster` over a graph or an existing engine."""
    return _open(ShardedCluster, graph_or_engine, state_dir, engine_config,
                 config=config, serve_config=serve_config,
                 partitioner=partitioner, overwrite=overwrite, **overrides)

"""repro.cluster — the replicated face of the one serving fleet.

Horizontal scale-out for the serving layer: one durable **primary**
(:class:`~repro.serve.SPCService`) owns the engine, the write-ahead log
and the label-delta journal; R **replicas** — journal-tailing members of
the fleet's single full hub slice (:class:`~repro.shard.Shard`) —
bootstrap from its checkpoint and decode the journal, never re-running
maintenance; the fleet's one **router** spreads reads across them under
round-robin, least-loaded, or bounded-staleness policies, with sticky
sessions for read-your-writes::

    import repro
    from repro.cluster import SPCCluster

    engine = repro.open(graph)
    with SPCCluster(engine, "state/", replicas=2,
                    policy="bounded_staleness", staleness_delta=8) as c:
        session = c.session()
        session.submit(InsertEdge(0, 9)).ack()   # ack = applied + published
        session.query(0, 9)       # routed; never older than the ack
        c.kill("replica-0")       # fault injection
        c.restart("replica-0")    # checkpoint + journal tail
        c.sync()                  # whole fleet converged

:func:`SPCCluster` and :func:`~repro.shard.ShardedCluster` are two
constructors of one :class:`~repro.shard.fleet.Fleet` (K hub slices x R
members).  See DESIGN.md §11 for the fleet model, routing policies and
failure model, and :mod:`repro.cluster.loadgen` / ``repro-bench cluster``
for the kill-and-catch-up consistency harness.
"""

from repro.shard.fleet import ClusterConfig, Fleet, SPCCluster, cluster
from repro.shard.router import POLICIES, Cut, FleetRouter
from repro.cluster.loadgen import run_cluster_loadgen
from repro.cluster.session import ClusterSession, WriteTicket

__all__ = [
    "SPCCluster",
    "ClusterConfig",
    "cluster",
    "Fleet",
    "FleetRouter",
    "Cut",
    "POLICIES",
    "ClusterSession",
    "WriteTicket",
    "run_cluster_loadgen",
]

"""SPCCluster end-to-end: replication, sessions, faults, the harness.

The stress test at the bottom is the acceptance bar of the subsystem: on
every backend family, kill a replica mid-stream, crash-recover it from
checkpoint + journal tail, require it to converge to the primary's seq,
and audit *every* answer any replica ever served against progressive WAL
replay at that answer's claimed seq.
"""

import pytest

from repro.cluster import ClusterConfig, SPCCluster, cluster, run_cluster_loadgen
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ClusterError
from repro.graph.generators import erdos_renyi, random_directed, random_weighted
from repro.workloads import hybrid_stream, random_insertions

_GRAPH_MAKERS = {
    "core": erdos_renyi,
    "sd": erdos_renyi,
    "directed": random_directed,
    "weighted": random_weighted,
}

ALL_BACKENDS = ("core", "directed", "weighted", "sd")


def _cluster(tmp_path, backend="core", n=40, m=90, seed=3, **overrides):
    graph = _GRAPH_MAKERS[backend](n, m, seed=seed)
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    return SPCCluster(engine, str(tmp_path), **overrides)


def _answers(member, pairs):
    """One member's own answers, read from its freshest published view."""
    view = member.view_at(member.latest_seq)
    return [member.partial(s, t, view) for s, t in pairs]


class TestClusterBasics:
    def test_replicas_answer_like_the_primary_after_sync(self, tmp_path):
        with _cluster(tmp_path, replicas=2) as c:
            insertions = random_insertions(c.primary.engine.graph, 12, seed=1)
            c.submit_many(insertions)
            seq = c.sync()
            assert seq == c.primary.applied_seq
            pairs = [(u.u, u.v) for u in insertions]
            expected = c.primary.query_many(pairs)
            for replica in c.members.values():
                assert _answers(replica, pairs) == expected
                assert replica.applied_seq == seq

    def test_routed_reads_spread_across_replicas(self, tmp_path):
        with _cluster(tmp_path, replicas=2, policy="round_robin") as c:
            c.sync()
            for _ in range(10):
                c.query(0, 1)
            routed = c.router.stats()["leases"]
            assert all(count > 0 for count in routed.values())

    def test_session_read_your_writes(self, tmp_path):
        with _cluster(tmp_path, replicas=2,
                      policy="bounded_staleness", staleness_delta=4) as c:
            session = c.session()
            insertions = random_insertions(c.primary.engine.graph, 6, seed=2)
            for update in insertions:
                ticket = session.submit(update)
                acked = ticket.ack()
                assert acked == ticket.ack()  # idempotent
                assert session.last_acked_seq == acked
                # the session must observe its own write immediately,
                # whichever target the router picks
                assert session.query(update.u, update.v)[0] == 1
            tagged = session.query_tagged(insertions[0].u, insertions[0].v)
            assert tagged[1] >= session.last_acked_seq

    def test_kill_restart_converges_and_router_routes_around(self, tmp_path):
        with _cluster(tmp_path, replicas=2) as c:
            insertions = random_insertions(c.primary.engine.graph, 12, seed=4)
            c.submit_many(insertions[:6])
            c.sync()
            c.kill("replica-0")
            assert not c.members["replica-0"].healthy
            for _ in range(8):  # reads keep flowing during the outage
                c.query(0, 1)
            assert c.router.stats()["leases"]["replica-0"] == 0
            c.submit_many(insertions[6:])
            c.flush()
            replica = c.restart("replica-0")
            assert replica.catch_up(c.primary.applied_seq, timeout=10.0)
            seq = c.sync()
            pairs = [(u.u, u.v) for u in insertions]
            assert _answers(replica, pairs) == c.primary.query_many(pairs)
            assert replica.applied_seq == seq

    def test_cluster_survives_primary_compaction(self, tmp_path):
        with _cluster(tmp_path, replicas=2) as c:
            insertions = random_insertions(c.primary.engine.graph, 12, seed=5)
            c.submit_many(insertions[:6])
            c.sync()
            c.checkpoint(truncate_wal=True)
            c.submit_many(insertions[6:])
            seq = c.sync()
            pairs = [(u.u, u.v) for u in insertions]
            expected = c.primary.query_many(pairs)
            for replica in c.members.values():
                assert _answers(replica, pairs) == expected
                assert replica.applied_seq == seq

    def test_unknown_replica_name_raises(self, tmp_path):
        with _cluster(tmp_path, replicas=1) as c:
            with pytest.raises(ClusterError, match="no member named"):
                c.kill("replica-9")

    def test_config_validation(self):
        with pytest.raises(ClusterError, match="at least one replica"):
            ClusterConfig(replicas=0)

    def test_convenience_constructor_accepts_graphs(self, tmp_path):
        graph = erdos_renyi(30, 60, seed=7)
        with cluster(graph, str(tmp_path), replicas=1) as c:
            c.sync()
            assert c.primary.engine.backend_name == "core"
            assert c.query(0, 1) == c.primary.query(0, 1)

    def test_close_is_idempotent(self, tmp_path):
        c = _cluster(tmp_path, replicas=1)
        c.close()
        c.close()


class TestFollowerEquivalence:
    """Replicas copy the primary's post-batch labels from the journal and
    never re-run maintenance, so at any seq they hold exactly its labels."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_members_hold_the_primary_labels_across_compaction(
            self, tmp_path, backend):
        with _cluster(tmp_path, backend=backend, replicas=2) as c:
            stream = hybrid_stream(c.primary.engine.graph, insertions=12,
                                   deletions=4, seed=5)
            half = len(stream) // 2
            for update in stream[:half]:
                c.submit(update)
            assert c.check_invariants()
            c.checkpoint(truncate_wal=True)
            for update in stream[half:]:
                c.submit(update)
            assert c.check_invariants()
            pairs = [(s, t) for s in range(0, 40, 4) for t in range(1, 40, 6)]
            for replica in c.members.values():
                assert _answers(replica, pairs) == c.primary.query_many(pairs)

    def test_a_diverged_member_is_reported(self, tmp_path, monkeypatch):
        with _cluster(tmp_path, replicas=1) as c:
            c.sync()
            monkeypatch.setattr(c.members["replica-0"], "view_at",
                                lambda seq: {})
            with pytest.raises(ClusterError, match="diverged"):
                c.check_invariants()


class TestFaultInjectionStress:
    """The acceptance stress: all four backends, kill + catch-up, and the
    progressive-replay audit of every concurrently served answer."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_kill_and_catch_up_consistency(self, backend):
        report = run_cluster_loadgen(
            backend=backend,
            replicas=2,
            readers=3,
            duration=0.8,
            n=90,
            m=240,
            churn=16,
            seed=11,
            policy="bounded_staleness",
            staleness_delta=16,
        )
        assert report["consistency_problems"] == []
        assert report["reads"] > 0
        assert report["answers_audited"] > 0
        fault = report["fault_injection"]
        assert fault.get("converged") is True
        assert fault["restarted_at_seq"] >= fault["killed_at_seq"]

    def test_strict_mode_raises_on_injected_inconsistency(self, monkeypatch):
        from repro.cluster import loadgen as cl

        def poisoned(state_dir, initial_payload, served, problems, backend):
            problems.append("poisoned audit result")
            from repro.audit import DivergenceReport

            return DivergenceReport()

        monkeypatch.setattr(cl, "_verify_against_replay", poisoned)
        with pytest.raises(ClusterError, match="poisoned"):
            run_cluster_loadgen(
                backend="core", replicas=1, readers=1, duration=0.2,
                n=50, m=120, churn=8, inject_fault=False,
            )

    def test_non_strict_returns_problems(self, monkeypatch):
        from repro.cluster import loadgen as cl

        def poisoned(state_dir, initial_payload, served, problems, backend):
            problems.append("poisoned audit result")
            from repro.audit import DivergenceReport

            return DivergenceReport()

        monkeypatch.setattr(cl, "_verify_against_replay", poisoned)
        report = run_cluster_loadgen(
            backend="core", replicas=1, readers=1, duration=0.2,
            n=50, m=120, churn=8, inject_fault=False, strict=False,
        )
        assert "poisoned audit result" in report["consistency_problems"]

"""The answer-tap hook: the sampler's attachment point on every read path."""

import tempfile

import pytest

from repro.audit import AuditSampler, tamper_member
from repro.cluster import SPCCluster
from repro.engine import EngineConfig, SPCEngine
from repro.graph.generators import erdos_renyi
from repro.serve.service import ServeConfig, SPCService
from repro.workloads import InsertEdge


class RecordingTap:
    """Captures every tap call verbatim."""

    def __init__(self):
        self.calls = []

    def __call__(self, answered, seq, target, epoch):
        self.calls.append((list(answered), seq, target, epoch))


@pytest.fixture
def service(tmp_path):
    engine = SPCEngine(
        erdos_renyi(20, 50, seed=1), config=EngineConfig(backend="core")
    )
    svc = SPCService(
        engine,
        config=ServeConfig(publish_every=1, durability_dir=str(tmp_path)),
        overwrite=True,
    )
    yield svc
    svc.close()


class TestServiceTap:
    def test_query_taps_answer_with_consistency_point(self, service):
        tap = RecordingTap()
        service.set_answer_tap(tap)
        answer = service.query(0, 1)
        assert len(tap.calls) == 1
        answered, seq, target, epoch = tap.calls[0]
        assert answered == [((0, 1), answer)]
        assert target == "service"
        assert seq == service.snapshot().seq
        assert epoch == service.snapshot().epoch

    def test_query_many_taps_the_whole_batch_once(self, service):
        tap = RecordingTap()
        service.set_answer_tap(tap)
        pairs = [(0, 1), (1, 2), (2, 3)]
        answers = service.query_many(pairs)
        assert len(tap.calls) == 1
        answered, _, target, _ = tap.calls[0]
        assert answered == list(zip(pairs, answers))
        assert target == "service"

    def test_convenience_wrappers_route_through_the_tap(self, service):
        tap = RecordingTap()
        service.set_answer_tap(tap)
        service.distance(0, 1)
        service.count(0, 1)
        assert len(tap.calls) == 2

    def test_tap_sees_the_post_update_seq(self, service):
        tap = RecordingTap()
        service.set_answer_tap(tap)
        before = service.snapshot().seq
        service.submit(InsertEdge(0, 19))
        service.flush()
        service.query(0, 19)
        assert tap.calls[-1][1] > before

    def test_clearing_the_tap_stops_the_flow(self, service):
        tap = RecordingTap()
        service.set_answer_tap(tap)
        service.query(0, 1)
        service.set_answer_tap(None)
        service.query(0, 1)
        assert len(tap.calls) == 1

    def test_sampler_is_a_valid_tap(self, service):
        sampler = AuditSampler(rate=1.0, capacity=64, seed=0)
        service.set_answer_tap(sampler)
        answer = service.query(0, 1)
        (sample,) = sampler.take()
        assert (sample.s, sample.t) == (0, 1)
        assert sample.answer == answer
        assert sample.target == "service"


class TestRouterTap:
    @pytest.fixture
    def cluster(self):
        engine = SPCEngine(
            erdos_renyi(20, 50, seed=1), config=EngineConfig(backend="core")
        )
        with tempfile.TemporaryDirectory() as state_dir:
            with SPCCluster(
                engine, state_dir, replicas=2, overwrite=True
            ) as cluster:
                cluster.sync(timeout=20)
                yield cluster

    def test_routed_reads_tap_with_the_replica_name(self, cluster):
        tap = RecordingTap()
        cluster.router.set_answer_tap(tap)
        for _ in range(8):
            cluster.router.query(0, 1)
        answers, seq, name = cluster.router.query_many_tagged([(0, 1), (1, 2)])
        assert len(tap.calls) == 9
        targets = {call[2] for call in tap.calls}
        assert targets <= {"primary", "replica-0", "replica-1"}
        # The batch call taps once with the whole batch and the lease's
        # claimed consistency point.
        answered, tapped_seq, tapped_name, _ = tap.calls[-1]
        assert answered == list(zip([(0, 1), (1, 2)], answers))
        assert (tapped_seq, tapped_name) == (seq, name)

    def test_tagged_answers_and_tap_agree_on_the_claim(self, cluster):
        tap = RecordingTap()
        cluster.router.set_answer_tap(tap)
        answer, seq, name = cluster.router.query_tagged(0, 1)
        answered, tapped_seq, tapped_name, _ = tap.calls[-1]
        assert answered == [((0, 1), answer)]
        assert (tapped_seq, tapped_name) == (seq, name)

    def test_tap_observes_corrupted_answers_as_served(self, cluster):
        # The sampler must record what was *served*, not what is true —
        # otherwise the auditor would have nothing to catch.
        honest = cluster.router.query(0, 1)
        for replica in cluster.members.values():
            tamper_member(replica, "count")
        tap = RecordingTap()
        cluster.router.set_answer_tap(tap)
        seen = set()
        for _ in range(12):
            cluster.router.query(0, 1)
            answered, _, target, _ = tap.calls[-1]
            if target != "primary":
                seen.add(answered[0][1])
        if seen:  # at least one read routed to a replica
            assert all(a != honest for a in seen)

"""Fault-injection wrappers: corruption modes, proxies, the tamper hook."""

import pytest

from repro.audit import (
    COUNT_MISMATCH,
    DIST_MISMATCH,
    EXPECTED_SEVERITY,
    MODES,
    REFUSAL,
    CorruptingIndex,
    classify_divergence,
    corrupt_answer,
    tamper_backend,
    tamper_member,
)
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import AuditDivergenceError
from repro.graph.generators import erdos_renyi
from repro.serve.service import ServeConfig, SPCService
from repro.workloads import InsertVertex

INF = float("inf")


class TestCorruptAnswer:
    def test_modes_map_onto_their_severity_class(self):
        honest = (3, 2)
        for mode in MODES:
            got = corrupt_answer(honest, mode)
            assert classify_divergence(honest, got) == EXPECTED_SEVERITY[mode]

    def test_count_mode(self):
        assert corrupt_answer((3, 2), "count") == (3, 3)

    def test_dist_mode(self):
        assert corrupt_answer((3, 2), "dist") == (4, 2)
        # dist is the one mode that bites distance-only answers too.
        assert corrupt_answer((3, None), "dist") == (4, None)

    def test_refusal_mode(self):
        assert corrupt_answer((3, 2), "refusal") == (3, 0)

    @pytest.mark.parametrize("mode", MODES)
    def test_unreachable_passes_through(self, mode):
        assert corrupt_answer((INF, 0), mode) == (INF, 0)
        assert corrupt_answer((INF, None), mode) == (INF, None)

    def test_uncorruptible_counts_pass_through(self):
        # count/refusal need a count to lie about; (sd, None) has none.
        assert corrupt_answer((3, None), "count") == (3, None)
        assert corrupt_answer((3, None), "refusal") == (3, None)

    def test_unknown_mode_rejected(self):
        with pytest.raises(AuditDivergenceError):
            corrupt_answer((3, 2), "bogus")


class FakeMember:
    name = "replica-1"
    applied_seq = 12
    healthy = True

    def partial(self, s, t, view):
        return (2, 3)


class TestTamperMember:
    def test_read_path_lies_coordinates_do_not(self):
        member = FakeMember()
        tamper_member(member, "count")
        assert member.partial(0, 1, None) == (2, 4)
        assert [member.partial(s, t, None) for s, t in [(0, 1), (1, 2)]] \
            == [(2, 4), (2, 4)]
        assert (member.name, member.applied_seq, member.healthy) == (
            "replica-1", 12, True)

    def test_undo_restores_the_honest_probe(self):
        member = FakeMember()
        restore = tamper_member(member, "dist")
        assert member.partial(0, 1, None) == (3, 3)
        restore()
        assert member.partial(0, 1, None) == (2, 3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(AuditDivergenceError):
            tamper_member(FakeMember(), "bogus")


class TestTamperBackend:
    def make_service(self, tmp_path):
        engine = SPCEngine(
            erdos_renyi(20, 50, seed=1), config=EngineConfig(backend="core")
        )
        service = SPCService(
            engine,
            config=ServeConfig(publish_every=1, durability_dir=str(tmp_path)),
            overwrite=True,
        )
        return engine, service

    def connected_pair(self, service, vertices):
        for s in vertices:
            for t in vertices:
                if s != t and service.query(s, t)[0] != INF:
                    return s, t
        raise AssertionError("no connected pair in the test graph")

    @pytest.mark.parametrize("mode", MODES)
    def test_published_snapshots_lie_until_restored(self, tmp_path, mode):
        engine, service = self.make_service(tmp_path)
        try:
            vs = sorted(engine.graph.vertices())
            s, t = self.connected_pair(service, vs)
            honest = service.query(s, t)
            restore = tamper_backend(engine.backend, mode)
            # An isolated vertex forces a republish (through the tampered
            # hook) without changing any s-t answer.
            service.submit(InsertVertex(900))
            service.flush()
            corrupted = service.query(s, t)
            assert corrupted == corrupt_answer(honest, mode)
            assert corrupted != honest
            restore()
            service.submit(InsertVertex(901))
            service.flush()
            assert service.query(s, t) == honest
        finally:
            service.close()

    @pytest.mark.parametrize("mode", MODES)
    def test_incremental_publishes_stay_poisoned_until_restored(
        self, tmp_path, mode
    ):
        engine, service = self.make_service(tmp_path)
        try:
            vs = sorted(engine.graph.vertices())
            s, t = self.connected_pair(service, vs)
            honest = service.query(s, t)
            restore = tamper_backend(engine.backend, mode)
            previous = None
            for v in range(900, 904):
                service.submit(InsertVertex(v))
                service.flush()
                snap = service.snapshot()
                assert isinstance(snap.index, CorruptingIndex)
                assert service.query(s, t) == corrupt_answer(honest, mode)
                assert service.query_many([(s, t)]) == [
                    corrupt_answer(honest, mode)
                ]
                if previous is not None:
                    # Copy-on-write under the proxy: the hook unwrapped
                    # the previous proxy and shared its clean labels.
                    assert snap.index._inner.label_set(s) is (
                        previous.index._inner.label_set(s)
                    )
                    assert service.stats()["publish_copied_last"] == 1
                previous = snap
            restore()
            for v in range(904, 907):
                service.submit(InsertVertex(v))
                service.flush()
                snap = service.snapshot()
                assert not isinstance(snap.index, CorruptingIndex)
                assert service.query(s, t) == honest
                assert service.query_many([(s, t)]) == [honest]
            assert engine.backend.snapshot_index().to_dict() == (
                service.snapshot().index.to_dict()
            )
        finally:
            service.close()

    def test_checkpoint_path_stays_honest(self, tmp_path):
        # The shadow baseline bootstraps from the checkpoint; a corrupted
        # checkpoint would compare one lie to another.
        engine, service = self.make_service(tmp_path)
        try:
            tamper_backend(engine.backend, "count")
            service.flush()
            service.checkpoint()
            from repro.serve.persist import load_checkpoint
            from repro.serve.service import SNAPSHOT_FILENAME

            payload = load_checkpoint(str(tmp_path / SNAPSHOT_FILENAME))
            assert payload["backend"] == "core"
            # A poisoned checkpoint would have serialized the proxy (and
            # likely crashed); loading cleanly is the honesty check.
        finally:
            service.close()

    def test_unknown_mode_rejected(self):
        with pytest.raises(AuditDivergenceError):
            CorruptingIndex(object(), "bogus")


class TestCorruptingIndex:
    def test_source_probe_hidden_so_batches_corrupt_too(self):
        class FakeIndex:
            def query(self, s, t):
                return (1, 1)

            def source_probe(self, s):
                raise AssertionError("batch fast path must be hidden")

        proxy = CorruptingIndex(FakeIndex(), "count")
        assert proxy.source_probe is None
        assert proxy.query(0, 1) == (1, 2)

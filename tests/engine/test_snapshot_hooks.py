"""The backend protocol's snapshot/serialization hooks (the serve seam)."""

import pytest

from repro.engine import EngineConfig, SPCEngine, get_backend
from repro.exceptions import EngineError
from repro.graph.generators import erdos_renyi, random_directed, random_weighted

BACKEND_GRAPHS = [
    ("core", lambda: erdos_renyi(25, 50, seed=4)),
    ("directed", lambda: random_directed(25, 50, seed=4)),
    ("weighted", lambda: random_weighted(25, 50, seed=4)),
    ("sd", lambda: erdos_renyi(25, 50, seed=4)),
]


@pytest.mark.parametrize("backend,make", BACKEND_GRAPHS)
class TestSnapshotIndex:
    def test_copy_answers_identically(self, backend, make):
        engine = SPCEngine(make(), config=EngineConfig(backend=backend))
        copy = engine.backend.snapshot_index()
        vs = sorted(engine.graph.vertices())
        for s in vs[:6]:
            for t in vs[-6:]:
                assert copy.query(s, t) == engine.index.query(s, t)

    def test_copy_is_independent_of_live_updates(self, backend, make):
        engine = SPCEngine(make(), config=EngineConfig(backend=backend))
        copy = engine.backend.snapshot_index()
        vs = sorted(engine.graph.vertices())
        pairs = [(s, t) for s in vs[:6] for t in vs[-6:]]
        before = [copy.query(s, t) for s, t in pairs]
        from repro.workloads import random_insertions

        for upd in random_insertions(engine.graph, 4, seed=6):
            engine.insert_edge(upd.u, upd.v, upd.weight)
        assert [copy.query(s, t) for s, t in pairs] == before

    def test_incremental_snapshot_equals_a_full_one(self, backend, make):
        from repro.workloads import random_insertions

        engine = SPCEngine(make(), config=EngineConfig(backend=backend))
        sink = set()
        engine.backend.install_label_sink(sink)
        base = engine.backend.snapshot_index()
        before = base.to_dict()
        for upd in random_insertions(engine.graph, 3, seed=7):
            engine.insert_edge(upd.u, upd.v, upd.weight)
        engine.insert_vertex(999)
        assert sink
        snap = engine.backend.snapshot_index(base, sink)
        assert snap.to_dict() == engine.backend.snapshot_index().to_dict()
        assert 999 in snap.order and 999 not in base.order
        assert base.to_dict() == before
        # Nothing dirty since: everything is shared, the order included.
        again = engine.backend.snapshot_index(snap, ())
        assert again.order is snap.order
        assert again.to_dict() == snap.to_dict()


@pytest.mark.parametrize("backend,make", BACKEND_GRAPHS)
class TestIndexSerializationHooks:
    def test_to_dict_from_dict_roundtrip(self, backend, make):
        engine = SPCEngine(make(), config=EngineConfig(backend=backend))
        payload = engine.backend.index_to_dict()
        clone = get_backend(backend).index_from_dict(payload)
        vs = sorted(engine.graph.vertices())
        for s in vs[:6]:
            for t in vs[-6:]:
                assert clone.query(s, t) == engine.index.query(s, t)


class TestDefaults:
    def test_index_type_declared_by_builtins(self):
        for name in ("core", "directed", "weighted"):
            assert get_backend(name).index_type is not None

    def test_missing_index_type_fails_loudly(self):
        from repro.engine.backends import SPCBackend

        class Bare(SPCBackend):
            name = "bare"

            def build_index(self):
                raise NotImplementedError

            def insert_edge(self, a, b, weight=None):
                raise NotImplementedError

            def delete_edge(self, a, b):
                raise NotImplementedError

            def verify(self, sample_pairs=None, seed=0):
                raise NotImplementedError

        with pytest.raises(EngineError, match="index_type"):
            Bare.index_from_dict({})

    def test_batch_hooks_default_noop(self, paper_graph):
        import repro

        engine = repro.open(paper_graph)
        engine.backend.begin_update_batch()
        engine.backend.end_update_batch()
        assert engine.query(0, 4) == (3, 3)

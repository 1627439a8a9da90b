"""Copy-on-write publish: snapshots share clean label sets, copy dirty ones.

Deterministic and timing-free: every assertion is about object identity
and label contents of consecutive published snapshot indexes.
"""

import pytest

from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import VertexNotFound
from repro.graph.generators import erdos_renyi, random_directed, random_weighted
from repro.serve.service import SPCService
from repro.workloads import DeleteVertex, random_deletions, random_insertions

BACKEND_GRAPHS = [
    ("core", lambda: erdos_renyi(60, 150, seed=1)),
    ("directed", lambda: random_directed(60, 150, seed=1)),
    ("weighted", lambda: random_weighted(60, 150, seed=1)),
    ("sd", lambda: erdos_renyi(60, 150, seed=1)),
]
BACKENDS = [name for name, _ in BACKEND_GRAPHS]


def label_objects(index, backend):
    """{vertex: tuple of the label objects a snapshot holds for it}."""
    if backend == "directed":
        return {v: (index.in_label_set(v), index.out_label_set(v))
                for v in index.vertices()}
    if backend == "sd":
        return {v: (index.label_arrays(v),) for v in index.order}
    return {v: (index.label_set(v),) for v in index.vertices()}


def label_contents(index):
    """{vertex: [entries per label family]} from the index's payload."""
    payload = index.to_dict()
    out = {}
    for family, labels in payload.items():
        if family == "order":
            continue
        for key, entries in labels.items():
            out.setdefault(int(key), []).append(entries)
    return out


def all_answers(index):
    vs = sorted(index.order)
    return {(s, t): index.query(s, t) for s in vs for t in vs}


def make_service(backend):
    make = dict(BACKEND_GRAPHS)[backend]
    engine = SPCEngine(make(), config=EngineConfig(backend=backend))
    return engine, SPCService(engine, publish_every=1)


def publish(service, updates):
    """Apply ``updates`` as one batch; return (previous, new) indexes."""
    before = service.snapshot().index
    service.submit_many(updates)
    service.flush()
    assert not service.errors
    return before, service.snapshot().index


class TestSharing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_insert_copies_only_dirty_vertices(self, backend):
        engine, service = make_service(backend)
        with service:
            old, new = publish(
                service, random_insertions(engine.graph, 1, seed=3)
            )
            old_objs = label_objects(old, backend)
            new_objs = label_objects(new, backend)
            old_labels = label_contents(old)
            new_labels = label_contents(new)
            dirty = {v for v in new_labels if new_labels[v] != old_labels[v]}
            assert dirty, "the insertion must change some labels"
            for v, objs in new_objs.items():
                if v in dirty:
                    assert all(a is not b
                               for a, b in zip(objs, old_objs[v])), v
                else:
                    assert all(a is b for a, b in zip(objs, old_objs[v])), v
            assert service.stats()["publish_copied_last"] == len(dirty)
            assert len(dirty) < len(new_objs)
            assert new_labels == label_contents(engine.index)

    @pytest.mark.parametrize("backend", ["core", "directed", "weighted"])
    def test_one_delete_copies_only_dirty_vertices(self, backend):
        engine, service = make_service(backend)
        with service:
            old, new = publish(
                service, random_deletions(engine.graph, 1, seed=3)
            )
            old_objs = label_objects(old, backend)
            new_objs = label_objects(new, backend)
            fresh = {v for v, objs in new_objs.items()
                     if any(a is not b for a, b in zip(objs, old_objs[v]))}
            old_labels = label_contents(old)
            new_labels = label_contents(new)
            assert fresh == {v for v in new_labels
                             if new_labels[v] != old_labels[v]}
            assert service.stats()["publish_copied_last"] == len(fresh)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dropped_vertex_disappears(self, backend):
        engine, service = make_service(backend)
        with service:
            victim = max(engine.graph.vertices())
            old, new = publish(service, [DeleteVertex(victim)])
            assert victim in old.order
            assert victim not in new.order
            assert victim not in label_objects(new, backend)
            assert victim not in label_contents(new)
            with pytest.raises(VertexNotFound):
                new.query(victim, victim)
            assert label_contents(new) == label_contents(engine.index)
            assert old.query(victim, victim)[0] == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replaced_index_falls_back_to_a_full_copy(self, backend):
        engine, service = make_service(backend)
        with service:
            # The writer is idle between flushes, so rebuilding from this
            # thread cannot race an apply.
            engine.rebuild()
            old, new = publish(
                service, random_insertions(engine.graph, 1, seed=4)
            )
            old_objs = label_objects(old, backend)
            for v, objs in label_objects(new, backend).items():
                assert all(a is not b for a, b in zip(objs, old_objs[v])), v
            assert service.stats()["publish_copied_last"] == len(old_objs)
            assert label_contents(new) == label_contents(engine.index)
            # The fallback is one publish long: the next one shares again.
            again, _ = publish(
                service, random_insertions(engine.graph, 1, seed=5)
            )
            assert again is new
            assert service.stats()["publish_copied_last"] < len(old_objs)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pinned_snapshot_keeps_answering(self, backend):
        engine, service = make_service(backend)
        with service:
            pinned = service.snapshot()
            answers = all_answers(pinned.index)
            labels = label_contents(pinned.index)
            for seed in range(4):
                publish(service, random_insertions(engine.graph, 1, seed=seed))
            publish(service, [DeleteVertex(max(engine.graph.vertices()))])
            assert all_answers(pinned.index) == answers
            assert label_contents(pinned.index) == labels
            assert service.snapshot() is not pinned


class TestLazyHolders:
    @pytest.mark.parametrize("backend", ["core", "directed", "weighted"])
    def test_snapshot_builds_its_reverse_map_on_demand(self, backend):
        from repro.verify import check_invariants, check_invariants_directed

        engine, service = make_service(backend)
        with service:
            _, snap = publish(
                service, random_insertions(engine.graph, 2, seed=6)
            )
            if backend == "directed":
                assert snap._in_holders is None and snap._out_holders is None
                assert snap.in_holders_map() == engine.index.in_holders_map()
                assert snap.out_holders_map() == engine.index.out_holders_map()
                assert check_invariants_directed(snap)
            else:
                assert snap._holders is None
                assert snap.holders_map() == engine.index.holders_map()
                hub = next(iter(engine.index.holders_map()))
                assert snap.holders(hub) == engine.index.holders(hub)
                assert check_invariants(snap)


class TestTelemetry:
    def test_copied_vertices_histogram_follows_the_dirty_set(self):
        from repro.obs import MetricsRegistry

        engine, service = make_service("core")
        registry = MetricsRegistry()
        service.set_metrics(registry)
        copied = []
        with service:
            for seed in range(3):
                publish(service, random_insertions(engine.graph, 1, seed=seed))
                copied.append(service.stats()["publish_copied_last"])
            engine.rebuild()  # writer idle: see the fallback test
            publish(service, random_insertions(engine.graph, 1, seed=9))
            copied.append(service.stats()["publish_copied_last"])
        hist = registry.get("repro_serve_publish_copied_vertices")
        assert hist.count == len(copied)
        assert hist.total == sum(copied)
        assert hist.max == copied[-1] == engine.graph.num_vertices
        assert max(copied[:-1]) < engine.graph.num_vertices
        counters = registry.counter_values()
        assert counters["repro_serve_publish_copied_vertices:count"] == (
            counters["repro_serve_publishes"]
        )

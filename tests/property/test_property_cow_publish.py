"""Property: a copy-on-write snapshot equals a full copy of the live index.

Random insert / delete / set_weight / vertex add / vertex drop streams are
submitted to an :class:`SPCService` with random flush points, under
``publish_every`` 1 and 3 (so one publish may coalesce several applied
batches) and with the label journal on and off (the journal drains the
dirty sink per batch, before a coalesced publish reads it).  At every
publish, on the writer thread, the published snapshot's payload must
equal a full ``snapshot_index()`` of the live index.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, SPCEngine
from repro.serve.service import SPCService
from repro.workloads import (
    DeleteEdge,
    DeleteVertex,
    InsertEdge,
    InsertVertex,
    SetWeight,
)
from tests.property.strategies import (
    small_digraphs,
    small_graphs,
    small_weighted_graphs,
)

GRAPHS = {
    "core": small_graphs(max_vertices=9),
    "directed": small_digraphs(max_vertices=7),
    "weighted": small_weighted_graphs(max_vertices=7),
    "sd": small_graphs(max_vertices=9),
}

ops_lists = st.lists(
    st.tuples(
        st.sampled_from(["ins", "ins", "del", "del", "weight", "addv",
                         "dropv", "flush"]),
        st.integers(0, 10_000),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=24,
)


def absent_edges(graph, directed):
    vs = sorted(graph.vertices())
    return [(u, v) for u in vs for v in vs
            if (u != v if directed else u < v) and not graph.has_edge(u, v)]


def next_update(model, backend, kind, idx, w, fresh_id):
    """Draw one valid update against ``model`` and apply it there too.

    Returns the update, or ``None`` when the op has nothing to act on.
    """
    directed = backend == "directed"
    weighted = backend == "weighted"
    if kind == "weight" and not weighted:
        kind = "ins"
    if kind == "ins":
        candidates = absent_edges(model, directed)
        if not candidates:
            return None
        u, v = candidates[idx % len(candidates)]
        if weighted:
            model.add_edge(u, v, w)
            return InsertEdge(u, v, w)
        model.add_edge(u, v)
        return InsertEdge(u, v)
    if kind in ("del", "weight"):
        edges = sorted(e[:2] for e in model.edges())
        if not edges:
            return None
        u, v = edges[idx % len(edges)]
        if kind == "weight":
            model.set_weight(u, v, w)
            return SetWeight(u, v, w)
        model.remove_edge(u, v)
        return DeleteEdge(u, v)
    vs = sorted(model.vertices())
    if kind == "addv":
        anchor = vs[idx % len(vs)]
        model.add_vertex(fresh_id)
        if weighted:
            model.add_edge(fresh_id, anchor, w)
            return InsertVertex(fresh_id, edges=((anchor, w),))
        model.add_edge(fresh_id, anchor)
        return InsertVertex(fresh_id, edges=(anchor,))
    if len(vs) <= 2:
        return None
    victim = vs[idx % len(vs)]
    model.remove_vertex(victim)
    return DeleteVertex(victim)


@pytest.mark.parametrize("backend", sorted(GRAPHS))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), ops=ops_lists,
       publish_every=st.sampled_from([1, 3]), journal=st.booleans())
def test_every_publish_equals_a_full_snapshot(backend, data, ops,
                                              publish_every, journal):
    graph = data.draw(GRAPHS[backend])
    model = graph.copy()
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    mismatches = []

    with tempfile.TemporaryDirectory() as state_dir:
        service = SPCService(
            engine, publish_every=publish_every, max_staleness=60.0,
            durability_dir=state_dir if journal else None,
            label_journal=journal,
        )

        def check_publish():
            # Writer thread, right after publication: the live index is
            # exactly the state the snapshot claims.
            snap = service.snapshot()
            if snap.index.to_dict() != engine.backend.snapshot_index().to_dict():
                mismatches.append(snap.seq)

        service.set_publish_listener(check_publish)
        with service:
            fresh_id = max(graph.vertices(), default=-1) + 1
            for kind, idx, w in ops:
                if kind == "flush":
                    service.flush()
                    continue
                update = next_update(model, backend, kind, idx, w, fresh_id)
                if update is None:
                    continue
                if kind == "addv":
                    fresh_id += 1
                service.submit(update)
            service.flush()
            assert not service.errors, service.errors
            assert not mismatches, f"stale snapshot at seqs {mismatches}"
            assert service.snapshot().index.to_dict() == (
                engine.backend.snapshot_index().to_dict()
            )

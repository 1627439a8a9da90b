"""Property-based shard tests: a ShardedCluster's merged scatter-gather
answers equal a single-engine SPCEngine's on arbitrary small graphs, for
all four backend families, every partitioner strategy, and under
kill/restart churn — plus algebraic laws of the shared partial-merge."""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import IDENTITY_PARTIAL, merge_partial_answers
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ShardError
from repro.shard import ShardedCluster, make_partitioner, partial_answer
from repro.workloads import InsertEdge
from tests.property.strategies import (
    small_digraphs,
    small_graphs,
    small_weighted_graphs,
)

INF = float("inf")

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: backend family -> the graph strategy it serves.
BACKEND_STRATEGIES = {
    "core": small_graphs,
    "directed": small_digraphs,
    "weighted": small_weighted_graphs,
    "sd": small_graphs,
}


def _insertions(graph, backend, picks):
    """Up to len(picks) valid edge insertions chosen by index (the graph
    argument is a scratch copy used only to keep the picks valid)."""
    directed = backend == "directed"
    weighted = backend == "weighted"
    updates = []
    for pick in picks:
        vs = sorted(graph.vertices())
        if directed:
            candidates = [(u, v) for u in vs for v in vs
                          if u != v and not graph.has_edge(u, v)]
        else:
            candidates = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                          if not graph.has_edge(u, v)]
        if not candidates:
            break
        u, v = candidates[pick % len(candidates)]
        weight = 1 + pick % 3 if weighted else None
        graph.add_edge(u, v, weight) if weighted else graph.add_edge(u, v)
        updates.append(InsertEdge(u, v, weight=weight))
    return updates


def assert_cluster_matches_engine(sc, engine):
    vs = sorted(engine.graph.vertices())
    pairs = [(u, v) for u in vs for v in vs if u != v][:40]
    answers = sc.query_many(pairs)
    for (s, t), got in zip(pairs, answers):
        assert got == engine.query(s, t), (s, t)


@pytest.mark.parametrize("backend", sorted(BACKEND_STRATEGIES))
class TestShardedClusterProperty:
    @settings(max_examples=6, **COMMON)
    @given(
        data=st.data(),
        strategy=st.sampled_from(["balanced", "range", "hash"]),
        picks=st.lists(st.integers(0, 10_000), max_size=3),
    )
    def test_merged_answers_equal_engine(self, backend, data, strategy,
                                         picks):
        graph = data.draw(BACKEND_STRATEGIES[backend]())
        shards = data.draw(st.integers(1, 4), label="shards")
        engine = SPCEngine(graph.copy(), config=EngineConfig(backend=backend))
        with tempfile.TemporaryDirectory(prefix="repro-shard-prop-") as d:
            with ShardedCluster(
                engine, d, shards=shards, partitioner=strategy,
            ) as sc:
                sc.sync()
                assert_cluster_matches_engine(sc, engine)
                for update in _insertions(graph.copy(), backend, picks):
                    sc.submit(update)
                sc.sync()
                assert_cluster_matches_engine(sc, engine)

    @settings(max_examples=4, **COMMON)
    @given(
        data=st.data(),
        strategy=st.sampled_from(["balanced", "hash"]),
        picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=2),
    )
    def test_answers_survive_kill_restart_churn(self, backend, data,
                                                strategy, picks):
        graph = data.draw(BACKEND_STRATEGIES[backend]())
        shards = data.draw(st.integers(2, 3), label="shards")
        victim = data.draw(st.integers(0, shards - 1), label="victim")
        engine = SPCEngine(graph.copy(), config=EngineConfig(backend=backend))
        with tempfile.TemporaryDirectory(prefix="repro-shard-prop-") as d:
            with ShardedCluster(
                engine, d, shards=shards, partitioner=strategy,
            ) as sc:
                sc.sync()
                sc.kill(f"shard-{victim}")
                # down => refusal, never a wrong merged answer
                vs = sorted(engine.graph.vertices())
                with pytest.raises(ShardError):
                    sc.query(vs[0], vs[-1])
                for update in _insertions(graph.copy(), backend, picks):
                    sc.submit(update)  # writes keep flowing while down
                sc.restart(f"shard-{victim}")
                sc.sync()
                assert_cluster_matches_engine(sc, engine)


class TestMergeAlgebra:
    entries = st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 4), st.integers(1, 3)),
        max_size=5,
    ).map(
        lambda es: [list(t) for t in
                    sorted({e[0]: e for e in es}.values())]
    )

    partials = st.one_of(
        st.just(IDENTITY_PARTIAL),
        st.tuples(st.integers(0, 8), st.integers(0, 9)),
        st.tuples(st.integers(0, 8), st.just(None)),  # distance-only family
        st.tuples(st.just(INF), st.just(0)),
    )

    @settings(max_examples=50, **COMMON)
    @given(a=partials, b=partials, c=partials)
    def test_merge_is_associative_and_commutative(self, a, b, c):
        merged = merge_partial_answers
        assert merged(a, b) == merged(b, a)
        assert merged(merged(a, b), c) == merged(a, merged(b, c))
        assert merged(a, IDENTITY_PARTIAL) == (
            a if a[0] != INF else IDENTITY_PARTIAL
        )

    @settings(max_examples=40, **COMMON)
    @given(
        s=entries, t=entries,
        boundary=st.integers(1, 6),
        counts=st.booleans(),
    )
    def test_sliced_partials_fold_to_the_full_merge(self, s, t, boundary,
                                                    counts):
        # Cutting the hub space anywhere and folding the two partials
        # must reproduce the unsliced two-pointer merge.
        p = make_partitioner("hash", 2, seed=boundary)
        full = partial_answer(s, t, counts=counts)
        folded = merge_partial_answers(*[
            partial_answer(
                [e for e in s if p.shard_of(e[0]) == i],
                [e for e in t if p.shard_of(e[0]) == i],
                counts=counts,
            )
            for i in range(2)
        ])
        if not counts:
            folded = (folded[0], None)
        assert folded == full

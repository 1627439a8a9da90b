"""Batch planner + FleetRouter over shards: cuts, merges, taps, refusals."""

import pytest

import repro
from repro.exceptions import ShardError, VertexNotFound
from repro.graph.generators import erdos_renyi
from repro.shard import ShardedCluster, gather_chunks, split_batch
from repro.workloads import InsertEdge


class TestSplitBatch:
    def test_empty(self):
        assert split_batch([], 4) == []

    def test_contiguous_cover_in_order(self):
        items = list(range(23))
        chunks = split_batch(items, 4)
        flat = [x for _off, chunk in chunks for x in chunk]
        assert flat == items
        offsets = [off for off, _chunk in chunks]
        assert offsets == sorted(offsets)
        assert all(
            items[off:off + len(chunk)] == chunk for off, chunk in chunks
        )

    def test_near_equal_sizes(self):
        sizes = [len(c) for _o, c in split_batch(list(range(10)), 3)]
        assert sorted(sizes) == [3, 3, 4]

    def test_min_chunk_caps_ways(self):
        chunks = split_batch(list(range(10)), 8, min_chunk=4)
        assert len(chunks) == 2

    def test_small_batch_degrades_to_one_chunk(self):
        assert len(split_batch([1, 2], 5, min_chunk=3)) == 1

    def test_never_empty_chunks(self):
        for n in range(1, 12):
            for ways in range(1, 6):
                assert all(
                    chunk for _o, chunk in split_batch(list(range(n)), ways)
                )


class TestGatherChunks:
    def worker(self, offset, chunk):
        return [x * 10 for x in chunk]

    @pytest.mark.parametrize("parallel", [False, True])
    def test_reassembles_in_submission_order(self, parallel):
        items = list(range(17))
        chunks = split_batch(items, 4)
        out = gather_chunks(chunks, self.worker, parallel=parallel)
        assert out == [x * 10 for x in items]

    def test_short_worker_result_is_an_error(self):
        chunks = split_batch(list(range(8)), 2)
        with pytest.raises(ValueError, match="answers for a chunk"):
            gather_chunks(chunks, lambda off, c: c[:-1], parallel=True)

    def test_worker_exception_fails_the_batch(self):
        def boom(offset, chunk):
            raise RuntimeError("sub-batch died")

        with pytest.raises(RuntimeError, match="sub-batch died"):
            gather_chunks(split_batch(list(range(8)), 2), boom, parallel=True)


@pytest.fixture()
def sharded(tmp_path):
    g = erdos_renyi(30, 70, seed=6)
    engine = repro.open(g)
    with ShardedCluster(
        engine, str(tmp_path), shards=3, parallel_threshold=8
    ) as sc:
        yield sc, engine


class TestShardRouter:
    def test_merged_answers_match_engine(self, sharded):
        sc, engine = sharded
        sc.sync()
        for s in range(0, 30, 5):
            for t in range(1, 30, 7):
                assert sc.query(s, t) == engine.query(s, t)

    def test_query_tagged_carries_cut_seq(self, sharded):
        sc, _engine = sharded
        sc.submit(InsertEdge(0, 29))
        seq = sc.sync()
        _answer, tag, target = sc.query_tagged(0, 29)
        assert tag == seq
        assert target == "shard-router"

    def test_query_many_single_cut_in_order(self, sharded):
        sc, engine = sharded
        sc.sync()
        pairs = [(s, t) for s in range(6) for t in range(6)]
        assert sc.query_many(pairs) == [engine.query(s, t) for s, t in pairs]

    def test_unknown_vertex_raises_vertex_not_found(self, sharded):
        sc, _engine = sharded
        sc.sync()
        with pytest.raises(VertexNotFound):
            sc.query(0, 999)

    def test_dead_shard_refuses_not_wrong(self, sharded):
        sc, _engine = sharded
        sc.sync()
        sc.kill("shard-1")
        with pytest.raises(ShardError, match="refusing"):
            sc.query(0, 5)
        stats = sc.router.stats()
        assert stats["refusals"] > 0

    def test_restart_recovers_service(self, sharded):
        sc, engine = sharded
        sc.kill("shard-1")
        sc.restart("shard-1")
        sc.sync()
        assert sc.query(0, 5) == engine.query(0, 5)

    def test_answer_tap_sees_merged_answers_with_cut_seq(self, sharded):
        sc, _engine = sharded
        seq = sc.sync()
        seen = []

        def tap(answered, tap_seq, target, epoch):
            seen.append((list(answered), tap_seq, target, epoch))

        sc.set_answer_tap(tap)
        answer = sc.query(2, 9)
        batch = sc.query_many([(0, 1), (1, 2)])
        assert seen[0] == ([((2, 9), answer)], seq, "shard-router", 0)
        answered, tap_seq, _target, _epoch = seen[1]
        assert [a for _pair, a in answered] == batch and tap_seq == seq

    def test_min_seq_floor_honoured(self, sharded):
        sc, _engine = sharded
        seq = sc.sync()
        cut = sc.router.acquire(min_seq=seq)
        assert cut.seq >= seq

    def test_unattainable_cut_refuses_after_timeout(self, sharded):
        sc, _engine = sharded
        seq = sc.sync()
        sc.router.wait_timeout = 0.05
        with pytest.raises(ShardError, match="refusing"):
            sc.router.acquire(min_seq=seq + 50)

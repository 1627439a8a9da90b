"""ShardedCluster end-to-end: config, correctness per backend, faults,
compaction, the 1/K memory goal and the strict shard loadgen contract."""

import os

import pytest

import repro
from repro.exceptions import AuditDivergenceError, ShardError
from repro.graph.directed import DiGraph
from repro.graph.generators import erdos_renyi
from repro.graph.weighted import WeightedGraph
from repro.serve.service import JOURNAL_FILENAME
from repro.shard import ShardConfig, ShardedCluster, run_shard_loadgen, \
    shard_cluster
from repro.workloads import DeleteEdge, InsertEdge, SetWeight


class TestShardConfig:
    def test_needs_a_shard(self):
        with pytest.raises(ShardError, match="at least one shard"):
            ShardConfig(shards=0)

    def test_ring_needs_overlap(self):
        with pytest.raises(ShardError, match="ring_size"):
            ShardConfig(ring_size=1)

    def test_replace(self):
        cfg = ShardConfig().replace(shards=7)
        assert cfg.shards == 7 and cfg.partitioner == "balanced"


class TestShardedCluster:
    def test_journal_is_forced_on(self, tmp_path):
        g = erdos_renyi(10, 18, seed=0)
        with ShardedCluster(repro.open(g), str(tmp_path), shards=2) as sc:
            sc.submit(InsertEdge(0, 9))
            sc.sync()
        assert os.path.exists(str(tmp_path / JOURNAL_FILENAME))

    @pytest.mark.parametrize("partitioner", ["balanced", "range", "hash"])
    def test_matches_engine_across_partitioners(self, tmp_path, partitioner):
        g = erdos_renyi(24, 55, seed=3)
        engine = repro.open(g)
        with ShardedCluster(
            engine, str(tmp_path), shards=3, partitioner=partitioner
        ) as sc:
            sc.submit_many([InsertEdge(0, 20), DeleteEdge(0, 20)])
            sc.submit(InsertEdge(1, 17))
            sc.sync()
            for s in range(0, 24, 3):
                for t in range(1, 24, 5):
                    assert sc.query(s, t) == engine.query(s, t), (s, t)

    def test_directed_backend(self, tmp_path):
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        engine = repro.open(g)
        with ShardedCluster(engine, str(tmp_path), shards=2) as sc:
            sc.submit(InsertEdge(0, 2))
            sc.sync()
            for s in range(4):
                for t in range(4):
                    assert sc.query(s, t) == engine.query(s, t)

    def test_weighted_backend(self, tmp_path):
        g = WeightedGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 5.0)]
        )
        engine = repro.open(g)
        with ShardedCluster(engine, str(tmp_path), shards=2) as sc:
            sc.submit(SetWeight(0, 3, 2.0))
            sc.sync()
            assert sc.query(0, 3) == engine.query(0, 3)

    def test_sd_backend_survives_rebuild_on_delete(self, tmp_path):
        g = erdos_renyi(14, 30, seed=8)
        engine = repro.open(g, backend="sd")
        with ShardedCluster(engine, str(tmp_path), shards=2) as sc:
            sc.submit(InsertEdge(0, 13))
            sc.sync()
            sc.submit(DeleteEdge(0, 13))  # SD deletes rebuild the index
            sc.sync()
            for s in range(0, 14, 2):
                for t in range(1, 14, 3):
                    assert sc.query(s, t) == engine.query(s, t)

    def test_compaction_rebootstraps_shards(self, tmp_path):
        g = erdos_renyi(16, 34, seed=2)
        engine = repro.open(g)
        with ShardedCluster(engine, str(tmp_path), shards=2) as sc:
            sc.submit(InsertEdge(0, 15))
            sc.sync()
            sc.checkpoint(truncate_wal=True)
            sc.submit(InsertEdge(1, 14))
            sc.sync()
            assert sc.query(1, 14) == engine.query(1, 14)

    def test_memory_splits_roughly_one_over_k(self, tmp_path):
        # The acceptance criterion in miniature: per-shard peak label
        # entries <= (1 + eps)/K of the unsharded index, eps = 0.35.
        g = erdos_renyi(60, 150, seed=7)
        engine = repro.open(g)
        shards = 4
        with ShardedCluster(engine, str(tmp_path), shards=shards) as sc:
            sc.sync()
            stats = sc.router.stats()["members"]
            total = sum(s["entries"] for s in stats)
            bound = (1 + 0.35) / shards
            for s in stats:
                assert s["peak_entries"] <= bound * total, s

    def test_kill_then_restart_round_trip(self, tmp_path):
        g = erdos_renyi(12, 24, seed=1)
        engine = repro.open(g)
        with ShardedCluster(engine, str(tmp_path), shards=2) as sc:
            sc.sync()
            sc.kill("shard-0")
            with pytest.raises(ShardError):
                sc.query(0, 5)
            sc.submit(InsertEdge(0, 11))  # writes keep flowing while down
            sc.restart("shard-0")
            sc.sync()
            assert sc.query(0, 11) == engine.query(0, 11)

    def test_unknown_shard_id(self, tmp_path):
        g = erdos_renyi(8, 12, seed=0)
        with ShardedCluster(repro.open(g), str(tmp_path), shards=2) as sc:
            with pytest.raises(ShardError, match="no member named"):
                sc.kill("shard-5")

    def test_shard_cluster_convenience_accepts_graph(self, tmp_path):
        g = erdos_renyi(8, 14, seed=4)
        with shard_cluster(g, str(tmp_path), shards=2) as sc:
            sc.sync()
            assert sc.query(0, 1) is not None

    def test_stats_shape(self, tmp_path):
        g = erdos_renyi(8, 14, seed=4)
        with ShardedCluster(repro.open(g), str(tmp_path), shards=2) as sc:
            stats = sc.stats()
            assert set(stats) == {"primary", "partitioner", "router"}
            assert len(stats["router"]["members"]) == 2


QUICK = dict(
    shards=3, readers=2, duration=0.6, n=90, m=260, churn=14,
    sample_rate=0.5, seed=0,
)


class TestShardLoadgen:
    def test_clean_run_audits_merged_answers(self):
        report = run_shard_loadgen(backend="core", kill=False, **QUICK)
        assert report["reads"] > 0
        assert report["auditor"]["audited"] > 0
        assert report["auditor"]["divergences"]["total"] == 0
        assert report["refusals"] == 0
        assert report["memory"]["within_bound"]
        assert report["shard_problems"] == []

    def test_kill_produces_refusals_then_recovers(self):
        # Longer run than QUICK: the kill lands at 0.35·T and the restart
        # at 0.65·T, so the post-restart assertions need enough tail for
        # the revived shard to re-bootstrap and serve under a loaded
        # single-core CI box.
        report = run_shard_loadgen(backend="core", kill=True,
                                   **{**QUICK, "duration": 1.5})
        assert report["fault_injection"].get("killed") == "shard-0"
        assert report["refusals"] > 0
        assert report["auditor"]["divergences"]["total"] == 0
        assert report["fault_injection"]["post_restart_reads"] > 0

    def test_memory_violation_fails_strict_runs(self):
        with pytest.raises(AuditDivergenceError, match="memory criterion"):
            run_shard_loadgen(backend="core", kill=False,
                              epsilon=-0.9, **QUICK)

"""Automatic WAL compaction: the every-k / max-bytes checkpoint policy."""

import os

import pytest

import repro
from repro.exceptions import ServeError
from repro.serve import (
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    ServeConfig,
    SPCService,
    load_checkpoint,
    read_wal,
    restore,
)
from repro.workloads import InsertEdge, random_insertions


def _service(graph, tmp_path, **overrides):
    return SPCService(
        repro.open(graph), durability_dir=str(tmp_path), **overrides
    )


class TestConfigValidation:
    def test_negative_knobs_rejected(self):
        with pytest.raises(ServeError, match="auto_checkpoint"):
            ServeConfig(auto_checkpoint_every_k_batches=-1)
        with pytest.raises(ServeError, match="wal_max_bytes"):
            ServeConfig(wal_max_bytes=-1)

    def test_compaction_requires_durability_dir(self, paper_graph):
        # the config alone may defer the pairing (wrappers inject the
        # directory later), but a service must refuse the combination
        config = ServeConfig(auto_checkpoint_every_k_batches=4)
        with pytest.raises(ServeError, match="durability_dir"):
            SPCService(repro.open(paper_graph), config=config)
        with pytest.raises(ServeError, match="durability_dir"):
            SPCService(repro.open(paper_graph), wal_max_bytes=1024)
        # with a durability dir both knobs are fine
        ServeConfig(durability_dir="state", auto_checkpoint_every_k_batches=4,
                    wal_max_bytes=1024)

    def test_cluster_accepts_compaction_serve_config(self, tmp_path):
        # SPCCluster injects state_dir into the serve config, so a bare
        # compaction config must be constructible and work end to end
        from repro.cluster import SPCCluster
        from repro.graph.generators import erdos_renyi

        engine = repro.open(erdos_renyi(30, 60, seed=1))
        config = ServeConfig(auto_checkpoint_every_k_batches=2)
        with SPCCluster(engine, str(tmp_path), replicas=1,
                        serve_config=config) as c:
            insertions = random_insertions(engine.graph, 6, seed=2)
            for update in insertions:
                c.submit(update)
                c.flush()
            c.sync()
            assert c.primary.stats()["wal_compactions"] >= 2
            pairs = [(u.u, u.v) for u in insertions]
            replica = c.members["replica-0"]
            view = replica.view_at(replica.latest_seq)
            assert [replica.partial(s, t, view) for s, t in pairs] == \
                c.primary.query_many(pairs)


class TestEveryKBatches:
    def test_writer_compacts_every_k_batches(self, paper_graph, tmp_path):
        d = str(tmp_path)
        with _service(paper_graph, tmp_path,
                      auto_checkpoint_every_k_batches=2) as service:
            insertions = random_insertions(service.engine.graph, 6, seed=1)
            for update in insertions:  # flush per update -> one batch each
                service.submit(update)
                service.flush()
            stats = service.stats()
            assert stats["wal_compactions"] >= 3
            # the surviving WAL holds only records past the last checkpoint
            ckpt_seq = load_checkpoint(
                os.path.join(d, SNAPSHOT_FILENAME)
            )["applied_seq"]
            assert ckpt_seq >= 6 - 2
            for seq, updates in read_wal(os.path.join(d, WAL_FILENAME)):
                assert seq >= ckpt_seq
            answers = {
                (u.u, u.v): service.query(u.u, u.v) for u in insertions
            }
        restored = restore(d)
        try:
            assert restored.applied_seq == 6
            for (s, t), answer in answers.items():
                assert restored.query(s, t) == answer
        finally:
            restored.close()

    def test_manual_checkpoint_resets_the_counter(self, paper_graph,
                                                  tmp_path):
        with _service(paper_graph, tmp_path,
                      auto_checkpoint_every_k_batches=3) as service:
            service.submit(InsertEdge(0, 4))
            service.flush()
            service.checkpoint()  # durable path -> counter resets to seq 1
            service.submit(InsertEdge(0, 9))
            service.flush()
            assert service.stats()["wal_compactions"] == 0


class TestMaxBytes:
    def test_writer_compacts_when_wal_exceeds_budget(self, paper_graph,
                                                     tmp_path):
        d = str(tmp_path)
        with _service(paper_graph, tmp_path, wal_max_bytes=64) as service:
            insertions = random_insertions(service.engine.graph, 5, seed=2)
            for update in insertions:
                service.submit(update)
                service.flush()
            assert service.stats()["wal_compactions"] >= 1
            # the live WAL never stays far beyond the budget
            assert service.stats()["wal_bytes"] <= 64 + 128
        restored = restore(d)
        try:
            assert restored.applied_seq == 5
        finally:
            restored.close()

    def test_disabled_by_default(self, paper_graph, tmp_path):
        d = str(tmp_path)
        with _service(paper_graph, tmp_path) as service:
            insertions = random_insertions(service.engine.graph, 5, seed=3)
            for update in insertions:
                service.submit(update)
                service.flush()
            assert service.stats()["wal_compactions"] == 0
        assert len(list(read_wal(os.path.join(d, WAL_FILENAME)))) == 5


class TestFailureHandling:
    def test_failed_compaction_keeps_serving(self, paper_graph, tmp_path,
                                             monkeypatch):
        from repro.serve import service as service_mod

        calls = {"n": 0}
        real = service_mod.save_checkpoint

        def flaky(path, engine, applied_seq=0):
            calls["n"] += 1
            if calls["n"] > 1:  # let the seq-0 boot checkpoint through
                raise OSError("disk full")
            return real(path, engine, applied_seq=applied_seq)

        monkeypatch.setattr(service_mod, "save_checkpoint", flaky)
        with _service(paper_graph, tmp_path,
                      auto_checkpoint_every_k_batches=1) as service:
            service.submit(InsertEdge(0, 4))
            service.flush()
            service.submit(InsertEdge(0, 9))
            service.flush()
            # both compactions failed, got recorded, and serving continued
            assert service.stats()["wal_compactions"] == 0
            assert any(
                isinstance(exc, ServeError) and "auto checkpoint" in str(exc)
                for _, exc in service.errors
            )
            assert service.query(0, 9) == (1, 1)
            # the WAL kept every record, so durability is intact
            wal = list(read_wal(os.path.join(str(tmp_path), WAL_FILENAME)))
            assert [seq for seq, _ in wal] == [1, 2]

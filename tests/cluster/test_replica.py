"""Replica members: bootstrap, journal tailing, compaction survival.

A replica is a :class:`~repro.shard.Shard` holding the full hub slice: it
bootstraps from the primary's checkpoint and follows the label journal
the primary writes next to its WAL, copying post-batch labels instead of
re-running maintenance.
"""

import os
import shutil
import time

import pytest

from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ClusterError, ServeError
from repro.graph.generators import erdos_renyi
from repro.serve import ServeConfig, SPCService
from repro.serve.service import JOURNAL_FILENAME, SNAPSHOT_FILENAME
from repro.shard import RangePartitioner, Shard
from repro.workloads import random_insertions


def _service(tmp_path, backend="core", n=40, m=90, seed=3, **overrides):
    graph = erdos_renyi(n, m, seed=seed)
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    config = ServeConfig(
        durability_dir=str(tmp_path), publish_every=2, max_staleness=0.005,
        label_journal=True, **overrides,
    )
    return SPCService(engine, config=config)


def _replica(primary_dir, name="replica"):
    """A full-slice member following ``primary_dir``."""
    return Shard(primary_dir, 0, RangePartitioner([]), name=name)


def _sample_pairs(engine, k=40):
    vertices = sorted(engine.graph.vertices())
    return [(vertices[i % len(vertices)], vertices[(3 * i + 1) % len(vertices)])
            for i in range(k)]


def _answers(replica, pairs):
    view = replica.view_at(replica.latest_seq)
    return [replica.partial(s, t, view) for s, t in pairs]


def _labels(service):
    backend = service.engine.backend
    return {v: backend.label_payload(v) for v in service.engine.graph.vertices()}


class TestBootstrapAndTail:
    def test_replica_follows_the_wal(self, tmp_path):
        # The journal is written in lockstep with the WAL, one record per
        # WAL batch, so following it follows the WAL seq for seq.
        service = _service(tmp_path)
        with _replica(str(tmp_path), name="r0") as replica:
            assert replica.applied_seq == 0
            insertions = random_insertions(service.engine.graph, 12, seed=1)
            service.submit_many(insertions)
            service.flush()
            assert replica.catch_up(service.applied_seq, timeout=10.0)
            pairs = _sample_pairs(service.engine)
            assert _answers(replica, pairs) == service.query_many(pairs)
            assert replica.latest_seq == service.applied_seq
            assert replica.view_at(service.applied_seq) == _labels(service)
        service.close()

    def test_replica_started_after_writes_bootstraps_warm(self, tmp_path):
        service = _service(tmp_path)
        insertions = random_insertions(service.engine.graph, 10, seed=2)
        service.submit_many(insertions)
        service.flush()
        service.checkpoint()
        with _replica(str(tmp_path), name="late") as replica:
            # the checkpoint already covers every batch: nothing to replay
            assert replica.applied_seq == service.applied_seq
            pairs = _sample_pairs(service.engine)
            assert _answers(replica, pairs) == service.query_many(pairs)
        service.close()

    def test_kill_mid_stream_then_fresh_replica_converges(self, tmp_path):
        service = _service(tmp_path)
        replica = _replica(str(tmp_path), name="doomed")
        insertions = random_insertions(service.engine.graph, 16, seed=4)
        service.submit_many(insertions[:8])
        service.flush()
        replica.kill()
        assert not replica.healthy
        frozen = replica.applied_seq
        service.submit_many(insertions[8:])
        service.flush()
        assert service.applied_seq > frozen
        # the dead replica's last view stays pinned and readable
        assert replica.latest_seq == frozen
        # crash-recovery: a fresh replica under the same directory replays
        # checkpoint + journal tail and converges to the primary
        with _replica(str(tmp_path), name="reborn") as again:
            assert again.catch_up(service.applied_seq, timeout=10.0)
            pairs = _sample_pairs(service.engine)
            assert _answers(again, pairs) == service.query_many(pairs)
        service.close()

    def test_missing_checkpoint_fails_loudly(self, tmp_path):
        with pytest.raises(ServeError, match="no checkpoint"):
            _replica(str(tmp_path / "empty"))

    def test_persistent_gap_kills_the_applier_instead_of_spinning(
            self, tmp_path):
        # Corrupt a record *past* the checkpoint's applied_seq: every
        # re-bootstrap lands on the same gap, which must surface as an
        # unhealthy replica, not an infinite hot bootstrap loop.
        service = _service(tmp_path)
        insertions = random_insertions(service.engine.graph, 6, seed=9)
        service.submit_many(insertions)
        service.flush()
        service.close()
        journal_path = os.path.join(str(tmp_path), JOURNAL_FILENAME)
        with open(journal_path) as f:
            lines = f.readlines()
        lines[0] = "bit rot, but terminated\n"
        with open(journal_path, "w") as f:
            f.writelines(lines)
        replica = _replica(str(tmp_path), name="stuck")
        deadline = time.monotonic() + 10.0
        while replica.healthy and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not replica.healthy
        assert "no progress" in str(replica.fatal)
        assert replica.bootstraps <= 1 + replica.MAX_STALLED_BOOTSTRAPS
        replica.kill()


class TestCompactionSurvival:
    def test_caught_up_replica_survives_truncation_without_rebootstrap(
            self, tmp_path):
        service = _service(tmp_path)
        with _replica(str(tmp_path), name="r0") as replica:
            insertions = random_insertions(service.engine.graph, 12, seed=5)
            service.submit_many(insertions[:6])
            service.flush()
            assert replica.catch_up(service.applied_seq, timeout=10.0)
            service.checkpoint(truncate_wal=True)
            # let the tailer observe the compacted log before it regrows:
            # if new records land beyond its stale offset first, it takes
            # the (safe, but costlier) re-bootstrap fallback instead of
            # the cheap marker skip this test pins down
            time.sleep(0.1)
            service.submit_many(insertions[6:])
            service.flush()
            assert replica.catch_up(service.applied_seq, timeout=10.0)
            pairs = _sample_pairs(service.engine)
            assert _answers(replica, pairs) == service.query_many(pairs)
            # it skipped the head marker and kept streaming — compaction
            # must not cost a caught-up follower a full state transfer
            assert replica.bootstraps == 1
        service.close()

    def test_lagging_replica_rebootstraps_after_truncation(self, tmp_path):
        # The replica follows a *mirror* of the primary's directory, so
        # the test controls exactly which log state it observes: it is
        # deterministically lagging when the compacted state lands.
        primary_dir = tmp_path / "primary"
        mirror_dir = tmp_path / "mirror"
        service = _service(primary_dir)
        insertions = random_insertions(service.engine.graph, 12, seed=5)
        service.submit_many(insertions[:6])
        service.flush()
        shutil.copytree(primary_dir, mirror_dir)
        with _replica(str(mirror_dir), name="r0") as replica:
            assert replica.catch_up(service.applied_seq, timeout=10.0)
            assert replica.bootstraps == 1
            frozen = replica.applied_seq
            service.submit_many(insertions[6:])
            service.flush()
            service.checkpoint(truncate_wal=True)
            # publish the compacted state to the mirror: checkpoint
            # first, then the truncated log — the order the primary's
            # own checkpoint-before-truncate protocol guarantees
            shutil.copy(primary_dir / SNAPSHOT_FILENAME,
                        mirror_dir / SNAPSHOT_FILENAME)
            shutil.copy(primary_dir / JOURNAL_FILENAME,
                        mirror_dir / JOURNAL_FILENAME)
            assert replica.catch_up(service.applied_seq, timeout=10.0)
            assert replica.applied_seq > frozen
            assert replica.bootstraps == 2  # the gap forced a re-bootstrap
            pairs = _sample_pairs(service.engine)
            assert _answers(replica, pairs) == service.query_many(pairs)
        service.close()

    def test_replica_survives_auto_compaction(self, tmp_path):
        service = _service(
            tmp_path, auto_checkpoint_every_k_batches=2
        )
        with _replica(str(tmp_path), name="r0") as replica:
            insertions = random_insertions(service.engine.graph, 18, seed=6)
            for update in insertions:  # one batch each -> many compactions
                service.submit(update)
                service.flush()
            assert service.stats()["wal_compactions"] >= 2
            assert replica.catch_up(service.applied_seq, timeout=10.0)
            pairs = _sample_pairs(service.engine)
            assert _answers(replica, pairs) == service.query_many(pairs)
            assert replica.healthy
        service.close()


class TestBackendFamilies:
    def test_catch_up_on_dead_replica_raises(self, tmp_path):
        service = _service(tmp_path)
        replica = _replica(str(tmp_path), name="r0")
        replica.kill()
        with pytest.raises(ClusterError, match="died"):
            replica._fatal = RuntimeError("boom")  # simulate applier death
            replica.catch_up(replica.applied_seq + 1, timeout=0.2)
        service.close()

    def test_catch_up_timeout_returns_false(self, tmp_path):
        service = _service(tmp_path)
        with _replica(str(tmp_path), name="r0") as replica:
            assert replica.catch_up(10**9, timeout=0.05) is False
        service.close()

"""Mid-record corruption in the replication stream, end to end.

Satellite of the chaos harness: an interior bit flip in the label journal
(the feed of every fleet member, replica or shard) must surface as the typed
:class:`~repro.exceptions.WalCorruptionError` — counted in
``stream_corruptions``, killing the follower rather than letting it
apply damaged records — and stay poisoned across re-bootstraps until the
stream itself is rewritten (checkpoint + truncation), after which a
restart heals.  No supervisor here: this pins the member-level contract
the supervisor builds on.
"""

import os

import pytest

from repro.cluster import SPCCluster
from repro.exceptions import ClusterError, ShardError
from repro.resilience.chaos import flip_bit_in_record
from repro.shard import ShardedCluster
from repro.workloads import random_insertions


def _grow(fleet, batches=6, seed=7):
    insertions = random_insertions(
        fleet.primary.engine.graph, batches, seed=seed
    )
    for update in insertions:
        fleet.submit(update)
    return fleet.sync()


class TestReplicaWalCorruption:
    def test_flip_kills_the_rebootstrapping_replica_typed(
            self, engine, tmp_path, await_true):
        cluster = SPCCluster(engine, str(tmp_path), replicas=1,
                             stall_budget=2)
        try:
            _grow(cluster)
            name = sorted(cluster.members)[0]
            flip_bit_in_record(
                os.path.join(str(tmp_path), "labels.jsonl"), seed=17
            )
            cluster.kill(name)
            cluster.restart(name)
            # The replacement replays the poisoned journal from the seq-0
            # checkpoint: every record is re-verified, the flip fails
            # its stamp (or its parse) as a *typed* corruption — counted,
            # never applied — and the stall budget converts the
            # unfillable gap into a fatal death.
            replica = cluster.members[name]
            assert await_true(lambda: not replica.healthy)
            assert replica.stream_corruptions >= 1
            assert isinstance(replica.fatal, ClusterError)
            assert "corrupt" in str(replica.fatal)
        finally:
            # close() reporting the poisoned follower's death is the
            # expected epitaph.
            with pytest.raises(ClusterError):
                cluster.close()

    def test_repair_then_restart_heals(self, engine, tmp_path, await_true):
        with SPCCluster(engine, str(tmp_path), replicas=1,
                        stall_budget=2) as cluster:
            seq = _grow(cluster)
            name = sorted(cluster.members)[0]
            flip_bit_in_record(
                os.path.join(str(tmp_path), "labels.jsonl"), seed=17
            )
            cluster.kill(name)
            cluster.restart(name)
            assert await_true(lambda: not cluster.members[name].healthy)
            # The supervisor's repair, by hand: a fresh checkpoint
            # subsumes the poisoned records and truncates the logs.
            cluster.checkpoint(truncate_wal=True)
            cluster.restart(name)
            replica = cluster.members[name]
            assert await_true(
                lambda: replica.healthy and replica.applied_seq >= seq
            )
            assert cluster.query(0, 1) is not None


class TestShardJournalCorruption:
    def test_flip_kills_the_rebootstrapping_shard_typed(
            self, engine, tmp_path, await_true):
        fleet = ShardedCluster(engine, str(tmp_path), shards=2,
                               stall_budget=2)
        try:
            _grow(fleet)
            flip_bit_in_record(
                os.path.join(str(tmp_path), "labels.jsonl"), seed=17
            )
            fleet.kill("shard-0")
            fleet.restart("shard-0")
            shard = fleet.members["shard-0"]
            assert await_true(lambda: not shard.healthy)
            assert shard.stream_corruptions >= 1
            assert isinstance(shard.fatal, ShardError)
            assert "corrupt" in str(shard.fatal)
        finally:
            with pytest.raises(ShardError):
                fleet.close()

    def test_repair_then_restart_heals(self, engine, tmp_path, await_true):
        with ShardedCluster(engine, str(tmp_path), shards=2,
                            stall_budget=2) as fleet:
            seq = _grow(fleet)
            flip_bit_in_record(
                os.path.join(str(tmp_path), "labels.jsonl"), seed=17
            )
            fleet.kill("shard-0")
            fleet.restart("shard-0")
            assert await_true(lambda: not fleet.members["shard-0"].healthy)
            fleet.checkpoint(truncate_wal=True)
            fleet.restart("shard-0")
            shard = fleet.members["shard-0"]
            assert await_true(
                lambda: shard.healthy and shard.applied_seq >= seq
            )
            assert fleet.query(0, 1) is not None

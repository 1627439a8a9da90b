"""Resilient routing: failover, refusal-by-default, opt-in degradation.

The correctness contract under faults: a read is either served from a
state at least as fresh as its floor, refused with a typed error, or —
only when the operator opted in — served bounded-stale and *tagged* as
such.  Silent staleness is never an option.
"""

import pytest

from repro.cluster import SPCCluster
from repro.exceptions import ClusterError, ShardError
from repro.shard import ShardedCluster
from repro.workloads import random_insertions


def _grow(fleet, batches=6, seed=7):
    insertions = random_insertions(
        fleet.primary.engine.graph, batches, seed=seed
    )
    for update in insertions:
        fleet.submit(update)
    return fleet.sync()


class TestClusterFailover:
    def test_reads_fail_over_to_the_primary_when_replicas_die(
            self, engine, tmp_path):
        with SPCCluster(engine, str(tmp_path), replicas=2,
                        wait_timeout=0.2) as cluster:
            _grow(cluster)
            for name in list(cluster.members):
                cluster.kill(name)
            # No replica qualifies; the router's last resort is the
            # primary's own snapshot — fresh, never degraded.
            answer, _seq, target = cluster.query_tagged(0, 1)
            assert answer == cluster.primary.query(0, 1)
            assert target == "primary"
            assert not target.endswith("+degraded")

    def test_unreachable_floor_is_refused_not_served_stale(
            self, engine, tmp_path):
        with SPCCluster(engine, str(tmp_path), replicas=1,
                        wait_timeout=0.1, degraded="stale") as cluster:
            seq = _grow(cluster)
            # A read-your-writes floor nothing has applied yet: even in
            # degraded mode a floored read must refuse, not degrade —
            # read-your-writes never weakens.
            with pytest.raises(ClusterError):
                cluster.router.query(0, 1, min_seq=seq + 100)


class TestShardRefusalAndDegradation:
    def test_dead_shard_refuses_cross_shard_reads_by_default(
            self, engine, tmp_path):
        with ShardedCluster(engine, str(tmp_path), shards=3,
                            wait_timeout=0.1) as fleet:
            _grow(fleet)
            fleet.kill("shard-0")
            with pytest.raises(ShardError, match="down"):
                fleet.query(0, 1)
            assert fleet.router.stats()["refusals"] >= 1

    def test_breaker_converts_repeated_refusals_into_fast_ones(
            self, engine, tmp_path):
        with ShardedCluster(engine, str(tmp_path), shards=3,
                            wait_timeout=0.1, breaker_threshold=2,
                            breaker_cooldown=30.0) as fleet:
            _grow(fleet)
            fleet.kill("shard-0")
            for _ in range(3):
                with pytest.raises(ShardError):
                    fleet.query(0, 1)
            # The dead shard's breaker tripped; with the cooldown still
            # running, further reads refuse instantly (no wait budget
            # burned) and say so.
            with pytest.raises(ShardError, match="circuit open"):
                fleet.query(0, 1)
            stats = fleet.router.stats()
            assert stats["fast_refusals"] >= 1
            assert any(
                b["trips"] >= 1 for b in stats["breakers"].values()
            )

    def test_restart_resets_the_breaker_and_serves_again(
            self, engine, tmp_path, await_true):
        with ShardedCluster(engine, str(tmp_path), shards=3,
                            wait_timeout=0.5, breaker_threshold=2,
                            breaker_cooldown=30.0) as fleet:
            seq = _grow(fleet)
            fleet.kill("shard-0")
            for _ in range(3):
                with pytest.raises(ShardError):
                    fleet.query(0, 1)
            fleet.restart("shard-0")
            assert await_true(
                lambda: fleet.members["shard-0"].healthy
                and fleet.members["shard-0"].applied_seq >= seq
            )
            # No 30 s cooldown to sit out: the restart reset the breaker.
            assert fleet.query(0, 1) == fleet.primary.query(0, 1)

    def test_degraded_mode_serves_tagged_bounded_stale(
            self, engine, tmp_path):
        with ShardedCluster(engine, str(tmp_path), shards=3,
                            wait_timeout=0.1, degraded="stale",
                            degraded_max_lag=256, ring_size=256) as fleet:
            seq = _grow(fleet)
            fleet.sync()
            fleet.kill("shard-0")
            # The dead slice still holds its published ring views, so a
            # floorless read degrades to the newest common historical
            # cut — tagged, with the cut's true seq.
            answer, cut_seq, target = fleet.query_tagged(0, 1)
            assert target == "shard-router+degraded"
            assert cut_seq <= seq
            assert fleet.router.stats()["degraded_serves"] >= 1

    def test_degraded_mode_refuses_beyond_the_staleness_bound(
            self, engine, tmp_path, await_true):
        with ShardedCluster(engine, str(tmp_path), shards=3,
                            wait_timeout=0.1, degraded="stale",
                            degraded_max_lag=2, ring_size=64) as fleet:
            _grow(fleet, batches=4, seed=7)
            fleet.kill("shard-0")
            # Advance the survivors far past the bound: the writer
            # coalesces everything pending into one seq per flush, so it
            # takes several flush rounds for the dead slice's frozen
            # ring to fall outside degraded_max_lag — after which the
            # read must refuse; bounded staleness means the bound is real.
            for round_seed in range(9, 13):
                for update in random_insertions(
                        fleet.primary.engine.graph, 2, seed=round_seed):
                    fleet.submit(update)
                seq = fleet.flush(timeout=30.0).seq
            assert await_true(
                lambda: all(
                    s.applied_seq >= seq
                    for s in fleet.members.values() if s.healthy
                )
            )
            with pytest.raises(ShardError):
                fleet.query(0, 1)
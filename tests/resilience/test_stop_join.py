"""Failed-join detection: a wedged applier thread must not leak silently.

If ``kill()``'s join times out, a live thread would keep mutating the
engine under whatever replaces the member.  The contract: the member is
marked fatal ("failed to stop"), a ``RuntimeWarning`` is issued, and a
later ``close()`` raises.  The wedge is simulated with a thread stub
whose ``join`` returns immediately and whose ``is_alive`` lies — the
real applier still exits cleanly underneath, so nothing actually leaks
out of the test.
"""

import pytest

from repro.cluster import SPCCluster
from repro.exceptions import ClusterError, ShardError
from repro.shard import ShardedCluster
from repro.workloads import random_insertions


class WedgedThread:
    """Wraps the real applier thread, pretending it never stops."""

    def __init__(self, real):
        self._real = real

    def join(self, timeout=None):
        # Let the real thread wind down (its stop flag is already set)
        # without eating the member's full join budget.
        self._real.join(timeout=5.0)

    def is_alive(self):
        return True


def _grow(fleet, batches=4, seed=7):
    for update in random_insertions(
            fleet.primary.engine.graph, batches, seed=seed):
        fleet.submit(update)
    return fleet.sync()


class TestReplicaFailedJoin:
    def test_wedged_join_marks_fatal_and_warns(self, engine, tmp_path):
        cluster = SPCCluster(engine, str(tmp_path), replicas=1)
        try:
            _grow(cluster)
            name = sorted(cluster.members)[0]
            replica = cluster.members[name]
            replica._thread = WedgedThread(replica._thread)
            with pytest.warns(RuntimeWarning, match="failed to stop"):
                replica.kill()
            assert not replica.healthy
            assert isinstance(replica.fatal, ClusterError)
            assert "failed to stop" in str(replica.fatal)
        finally:
            # close() must surface the leaked thread, not absorb it.
            with pytest.warns(RuntimeWarning, match="failed to stop"):
                with pytest.raises(ClusterError, match="failed to stop"):
                    cluster.close()

    def test_wedge_does_not_displace_an_earlier_fatal(self, engine, tmp_path):
        cluster = SPCCluster(engine, str(tmp_path), replicas=1)
        try:
            _grow(cluster)
            name = sorted(cluster.members)[0]
            replica = cluster.members[name]
            first = ClusterError("original cause of death")
            replica._fatal = first
            replica._thread = WedgedThread(replica._thread)
            with pytest.warns(RuntimeWarning, match="failed to stop"):
                replica.kill()
            # The wedge is reported, but the recorded epitaph stays the
            # first fatal — the root cause outranks the symptom.
            assert replica.fatal is first
        finally:
            with pytest.warns(RuntimeWarning):
                with pytest.raises(ClusterError, match="original cause"):
                    cluster.close()


class TestShardFailedJoin:
    def test_wedged_join_marks_fatal_and_warns(self, engine, tmp_path):
        fleet = ShardedCluster(engine, str(tmp_path), shards=2)
        try:
            _grow(fleet)
            shard = fleet.members["shard-0"]
            shard._thread = WedgedThread(shard._thread)
            with pytest.warns(RuntimeWarning, match="failed to stop"):
                shard.kill()
            assert not shard.healthy
            assert isinstance(shard.fatal, ShardError)
            assert "failed to stop" in str(shard.fatal)
        finally:
            with pytest.warns(RuntimeWarning, match="failed to stop"):
                with pytest.raises(ShardError, match="failed to stop"):
                    fleet.close()

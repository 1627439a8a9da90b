"""Self-checks of the benchmark at a small size.

* the percentile rule (nearest rank, and how many samples lie beyond it:
  a tail is quoted with at least ten);
* the exact-count metrics repeat exactly for a seed;
* both stream workloads apply every update and check their answers;
* the open loop times reads and batch visibility from due times, on a
  virtual clock.
"""

import pytest

import repro
from repro.graph.generators import powerlaw_cluster, random_weighted
from repro.workloads.updates import InsertEdge, hybrid_stream

from perfbench import layers, workloads
from perfbench.inputs import Inputs, _weighted_hybrid, fingerprint, make_inputs
from perfbench.spans import Tracer
from perfbench.stats import beyond, percentile


class TestPercentileRule:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 99) == 99
        assert percentile([7], 99) == 7

    def test_samples_beyond(self):
        assert beyond(100, 90) == 10
        assert beyond(99, 90) == 9
        assert beyond(1000, 99) == 10
        assert beyond(10000, 99.9) == 10


def _small_inputs(seed):
    graph = powerlaw_cluster(120, attach=3, seed=seed)
    stream = hybrid_stream(graph, insertions=100, deletions=20, seed=seed + 1)
    pairs = [(s, (s * 7 + 3) % 120) for s in range(120)]
    return Inputs("update-stream", graph, pairs, stream, seed)


def _small_weighted(seed):
    graph = random_weighted(60, 150, seed=seed)
    return Inputs("weighted", graph, [], _weighted_hybrid(graph, 12, seed))


def _counts(seed, tmp_path):
    tracer = Tracer()
    metrics = layers.core_probe(_small_inputs(seed), tracer)
    metrics.update(layers.weighted_probe(_small_weighted(seed), tracer))
    write, _ = layers.write_path_probe(_small_inputs(seed), tracer,
                                       str(tmp_path))
    metrics.update(write)
    return {k: metrics[k][0] for k in layers.COUNT_METRICS}


def test_exact_counts_repeat_for_a_seed(tmp_path):
    first = _counts(5, tmp_path)
    assert first == _counts(5, tmp_path)
    assert all(value > 0 for value in first.values())


def test_weighted_prefix_alternates_deletes_and_set_weights():
    stream = _small_weighted(3).stream
    kinds = [type(u).__name__ for u in stream if not isinstance(u, InsertEdge)]
    assert kinds[:4] == ["DeleteEdge", "SetWeight", "DeleteEdge", "SetWeight"]


@pytest.mark.parametrize("stack", ["engine", "service"])
def test_stream_applies_every_update_and_checks_answers(stack, tmp_path):
    inp = _small_inputs(2)
    run = workloads.run_stream(inp, 0.5, stack, str(tmp_path), setups=2)
    assert len(run.setup_s) == 2
    assert run.updates_applied == len(run.visible) == len(inp.stream)
    assert run.failed == 0
    assert run.mismatches == 0 and run.checked > 0
    assert not list(tmp_path.iterdir())  # state directories removed


def test_fingerprint_follows_the_seed():
    a = fingerprint(make_inputs("update-stream", 3, 1))
    assert a == fingerprint(make_inputs("update-stream", 3, 1))
    assert a != fingerprint(make_inputs("update-stream", 4, 1))


# ----------------------------------------------------------------------
# Open-loop due-time accounting on a virtual clock
# ----------------------------------------------------------------------

class VirtualClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def wait_until(self, due):
        self.t = max(self.t, due)


class FakeSnapshot:
    def __init__(self, service, epoch, seq):
        self.service, self.epoch, self.seq = service, epoch, seq

    def query(self, s, t):
        service = self.service
        service.clock.t += service.costs.pop(0) if service.costs else 0.001
        return service.engine.query(s, t)


class FakeService:
    """Applies each submitted update ``delay`` virtual seconds after its
    submission, publishing one snapshot per update."""

    def __init__(self, graph, clock, delay, costs):
        self.engine = repro.open(graph, cache_size=0)
        self.clock, self.delay, self.costs = clock, delay, costs
        self.queue = []
        self.published = 1
        self.errors = []

    def _catch_up(self):
        while self.queue and self.queue[0][0] <= self.clock.t:
            self.engine.apply(self.queue.pop(0)[1])
            self.published += 1

    def snapshot(self):
        self._catch_up()
        return FakeSnapshot(self, self.engine.epoch, self.published)

    def submit_many(self, updates):
        self.queue.extend((self.clock.t + self.delay, u) for u in updates)

    def stats(self):
        return {"snapshots_published": self.published, "lag_batches": 0,
                "queue_depth": len(self.queue)}

    def flush(self):
        if self.queue:
            self.clock.t = max(self.clock.t, self.queue[-1][0])
        self._catch_up()

    def query(self, s, t):
        self._catch_up()
        return self.engine.query(s, t)


def test_open_loop_times_from_due_time():
    graph = repro.Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    schedule = [(0.000, "read", 0), (0.005, "write", 0), (0.010, "read", 1),
                (0.020, "read", 2), (0.030, "read", 3)]
    inp = Inputs("mixed-serve", graph, [(0, 3)] * 8, [InsertEdge(0, 3)], 1,
                 schedule)
    clock = VirtualClock()
    # The first read stalls for 25 ms; every later one takes 1 ms.
    service = FakeService(graph.copy(), clock, delay=0.003, costs=[0.025])
    run = workloads.Run()
    workloads.open_loop(run, service, inp, seconds=0.04, wait=clock.wait_until,
                        now=clock.now)

    # The stall delays the reads due at 10 and 20 ms; their latency counts
    # from the due time, not from when they were finally sent.
    assert list(run.read_lat) == pytest.approx([0.025, 0.016, 0.007, 0.001])
    # The write due at 5 ms went out at 25 ms.
    assert run.extra["late"] == pytest.approx([0.0, 0.020, 0.015, 0.006, 0.0])
    # Applied at 28 ms; the read pinned at 30 ms is the first to see it.
    assert run.visible == pytest.approx([0.025])
    assert run.updates_applied == 1
    assert run.failed == 0
    assert run.mismatches == 0 and run.checked > 0

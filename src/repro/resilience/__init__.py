"""repro.resilience: self-healing supervision for serving fleets.

The serving stack (``repro.serve`` → ``repro.cluster`` / ``repro.shard``
→ ``repro.audit``) detects failures — dead appliers, replication gaps,
checksum-failed records — but until this package every recovery was an
operator action.  ``repro.resilience`` closes the loop:

* :class:`HealthMonitor` — one shared state machine per fleet member
  (up → lagging → down → restarting → failed) with a structured
  transition event log;
* :class:`Supervisor` — a watchdog thread that folds member health and
  tail lag into the monitor, auto-restarts dead followers with
  exponential backoff + jitter, repairs a corrupted stream (fresh
  checkpoint + truncated log) when members die on typed
  :class:`~repro.exceptions.WalCorruptionError` signals, and gives up —
  marking the member ``failed`` — after a crash-loop budget;
* :class:`CircuitBreaker` — the per-target failure gate the routers use
  to convert repeated lease failures into fast failover;
* :mod:`~repro.resilience.chaos` — torn-write / bit-flip / ENOSPC disk
  fault injectors around the WAL, label journal and checkpoint files;
* :mod:`~repro.resilience.loadgen` — the kill + corrupt + crash-loop
  chaos harness behind ``repro-bench chaos``, judged strictly: every
  injected corruption detected as a typed error (never served), zero
  shadow-audit divergences, per-phase MTTR recorded.

Example
-------
>>> from repro.cluster import SPCCluster
>>> from repro.resilience import Supervisor
>>> cluster = SPCCluster(engine, state_dir)                # doctest: +SKIP
>>> with Supervisor(cluster) as sup:                       # doctest: +SKIP
...     cluster.kill("replica-0")           # injected fault...
...     ...                                 # ...self-heals under load
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import (
    DiskFullFault,
    corrupt_checkpoint,
    flip_bit_in_record,
    torn_write,
)
from repro.resilience.health import (
    MEMBER_STATES,
    SERVING_STATES,
    HealthEvent,
    HealthMonitor,
)
from repro.resilience.supervisor import (
    Incident,
    Supervisor,
    SupervisorConfig,
)

__all__ = [
    "MEMBER_STATES",
    "SERVING_STATES",
    "CircuitBreaker",
    "DiskFullFault",
    "HealthEvent",
    "HealthMonitor",
    "Incident",
    "Supervisor",
    "SupervisorConfig",
    "corrupt_checkpoint",
    "flip_bit_in_record",
    "torn_write",
    "run_chaos_loadgen",
]


def __getattr__(name):
    # Lazy (PEP 562): the chaos harness imports the cluster and shard
    # fleets, but those fleets' routers import this package for
    # CircuitBreaker — an eager import here would be circular.
    if name == "run_chaos_loadgen":
        from repro.resilience.loadgen import run_chaos_loadgen

        return run_chaos_loadgen
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

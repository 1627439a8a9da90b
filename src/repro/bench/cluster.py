"""repro.bench.cluster — the replicated serving layer under fault injection.

Runs :func:`repro.cluster.loadgen.run_cluster_loadgen` once per backend
family: N readers route point/batch queries across the replica fleet
while one submitter feeds the primary and a fault controller kills
replica-0 mid-stream and crash-recovers it from checkpoint + journal tail.
Consistency checking is always on — a bounded-staleness violation, a
per-target snapshot regression, a diverged or stuck replica, or a
replay-oracle mismatch (any served answer that does not equal progressive
WAL replay at its claimed seq) fails the run with
:class:`~repro.exceptions.ClusterError` — while the timing numbers are
recorded, never judged (CI's cluster-smoke job runs the quick profile and
fails on crash/inconsistency only).

Results land in ``bench_results/cluster.json`` via
``repro-bench cluster --save-dir bench_results``.
"""

from repro.bench.tables import ExperimentResult, Table
from repro.cluster.loadgen import run_cluster_loadgen


def run(config):
    """Run the cluster loadgen per backend; returns an ExperimentResult."""
    result = ExperimentResult(
        name="cluster",
        description="journal-replicated fleet under routed load with "
                    "kill-and-catch-up fault injection (consistency-checked)",
    )
    n, m = config.cluster_graph
    table = Table(
        f"cluster loadgen: {config.cluster_replicas} replicas, "
        f"{config.cluster_readers} readers, {config.cluster_duration}s, "
        f"ER({n}, {m}), bounded staleness Δ={config.cluster_staleness_delta}",
        ["backend", "read_qps", "p50_ms", "p99_ms", "audited",
         "replica_share", "catch_up_ms", "converged"],
    )
    for backend in config.cluster_backends:
        report = run_cluster_loadgen(
            backend=backend,
            replicas=config.cluster_replicas,
            readers=config.cluster_readers,
            duration=config.cluster_duration,
            n=n,
            m=m,
            churn=config.cluster_churn,
            staleness_delta=config.cluster_staleness_delta,
            seed=config.seed,
            telemetry=config.telemetry,
        )
        replica_reads = sum(report["routed"].values())
        total = replica_reads + report["primary_reads"]
        fault = report["fault_injection"]
        table.add_row(
            backend,
            report["read_qps"],
            report["read_latency_ms"]["p50"],
            report["read_latency_ms"]["p99"],
            report["answers_audited"],
            round(replica_reads / total, 3) if total else 0.0,
            fault.get("catch_up_ms", ""),
            fault.get("converged", ""),
        )
        result.extra[backend] = report
    result.tables.append(table)
    return result

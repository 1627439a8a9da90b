"""repro.audit — shadow-replica differential verification + perf trajectory.

Serving answers from a dynamically maintained 2-hop counting index is a
bet that IncSPC/DecSPC preserved the index invariants through every batch;
this package checks the bet continuously in production style rather than
only in tests:

* :class:`AuditSampler` taps live answers (service or cluster router) and
  reservoir-samples ``(query, answer, seq)`` triples at bounded overhead;
* :class:`ShadowAuditor` replays each sample at its claimed seq on a
  WAL-tailing shadow graph and recomputes the answer by direct pruned
  traversal — a baseline that cannot share a maintenance bug with the
  index — filing classified :class:`Divergence` records in a
  :class:`DivergenceReport`;
* :mod:`repro.audit.faults` injects plausible-wrong-answer corruption for
  tests and the CI audit-smoke job;
* :mod:`repro.audit.loadgen` drives the full kill-and-corrupt scenario;
* :mod:`repro.audit.trajectory` records every bench run into
  ``BENCH_history.jsonl`` and reports drift against a rolling baseline.
"""

from repro.audit.comparator import (
    COUNT_MISMATCH,
    DIST_MISMATCH,
    IDENTITY_PARTIAL,
    REFUSAL,
    SEVERITIES,
    Divergence,
    DivergenceReport,
    check_answer_shape,
    classify_divergence,
    merge_partial_answers,
)
from repro.audit.faults import (
    MODES,
    CorruptingIndex,
    corrupt_answer,
    tamper_backend,
    tamper_member,
)
from repro.audit.loadgen import EXPECTED_SEVERITY, run_audit_loadgen
from repro.audit.replay import GraphReplayer, apply_graph_update
from repro.audit.sampler import AuditRateController, AuditSample, AuditSampler
from repro.audit.shadow import ShadowAuditor
from repro.audit.trajectory import (
    HISTORY_FILENAME,
    drift_report,
    load_history,
    record_run,
)

__all__ = [
    "COUNT_MISMATCH",
    "DIST_MISMATCH",
    "IDENTITY_PARTIAL",
    "REFUSAL",
    "SEVERITIES",
    "Divergence",
    "DivergenceReport",
    "check_answer_shape",
    "classify_divergence",
    "merge_partial_answers",
    "MODES",
    "CorruptingIndex",
    "corrupt_answer",
    "tamper_backend",
    "tamper_member",
    "EXPECTED_SEVERITY",
    "run_audit_loadgen",
    "GraphReplayer",
    "apply_graph_update",
    "AuditRateController",
    "AuditSample",
    "AuditSampler",
    "ShadowAuditor",
    "HISTORY_FILENAME",
    "drift_report",
    "load_history",
    "record_run",
]

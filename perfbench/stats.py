"""Summary statistics shared by the workloads and the traced run."""

import math
import resource

#: A tail percentile needs at least this many samples beyond it (fewer
#: make it a handful of outliers); the report warns when one falls short.
MIN_BEYOND = 10


def _rank(n, p):
    # Rounded first so that, e.g., 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(n, p):
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``p``-th percentile position."""
    return n - _rank(n, p)


def peak_rss_mb():
    """This process's resident-memory high-water mark, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

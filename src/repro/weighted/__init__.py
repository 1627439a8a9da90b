"""Weighted extension (Appendix C.2): Dijkstra-based labeling and updates.

Note on float weights: shortest-path *counting* relies on exact distance
ties; floating-point sums make ties numerically fragile.  Use integer (or
rational) weights when exact counts matter — the tests and benchmarks do.
"""

from repro.weighted.builder import build_weighted_spc_index
from repro.weighted.decremental import dec_spc_weighted, increase_weight
from repro.weighted.incremental import decrease_weight, inc_spc_weighted
from repro.weighted.index import WeightedSPCIndex

__all__ = [
    "WeightedSPCIndex",
    "build_weighted_spc_index",
    "inc_spc_weighted",
    "dec_spc_weighted",
    "decrease_weight",
    "increase_weight",
]

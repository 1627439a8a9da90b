"""Vertex orderings — the total order ≤ that hub labeling is built on (§2.2).

The paper (following Zhang & Yu's HP-SPC) ranks vertices by descending
degree: high-degree vertices lie on more shortest paths, so ranking them
higher lets later pruned BFSs terminate earlier.  ``VertexOrder`` freezes a
total order and provides O(1) rank lookup in both directions; the SPC-Index
stores label hubs as rank numbers, so ranks must stay stable across updates —
new vertices are *appended* (lowest rank), matching the paper's treatment of
vertex insertion.
"""

import random as _random

from repro.exceptions import OrderingError


class VertexOrder:
    """An immutable-except-append total order over vertex ids.

    ``order[r]`` is the vertex with rank ``r`` (rank 0 = highest rank, i.e.
    the minimum of the paper's ≤ relation).  ``rank_of[v]`` inverts it.

    Example
    -------
    >>> order = VertexOrder([2, 0, 1])
    >>> order.rank(2), order.vertex(0)
    (0, 2)
    >>> order.higher(2, 1)   # is 2 ranked higher than 1?
    True
    """

    __slots__ = ("_order", "_rank")

    #: sentinel stored in a rank slot whose vertex was removed; rank numbers
    #: are never recycled so labels referencing other ranks stay valid.
    TOMBSTONE = None

    def __init__(self, vertices):
        self._order = list(vertices)
        self._rank = {}
        for r, v in enumerate(self._order):
            if v is self.TOMBSTONE:
                continue
            if v in self._rank:
                raise OrderingError(f"vertex {v!r} appears twice in the order")
            self._rank[v] = r

    def __len__(self):
        """Number of live vertices (tombstoned slots excluded)."""
        return len(self._rank)

    def __contains__(self, v):
        return v in self._rank

    def __iter__(self):
        """Iterate live vertices from highest rank to lowest."""
        return (v for v in self._order if v is not self.TOMBSTONE)

    def rank(self, v):
        """Return the rank number of ``v`` (0 = highest)."""
        try:
            return self._rank[v]
        except KeyError:
            raise OrderingError(f"vertex {v!r} is not in the order") from None

    def vertex(self, r):
        """Return the vertex with rank number ``r``."""
        try:
            v = self._order[r]
        except IndexError:
            raise OrderingError(f"rank {r} out of range") from None
        if v is self.TOMBSTONE:
            raise OrderingError(f"rank {r} belongs to a removed vertex")
        return v

    def higher(self, u, v):
        """Return True if u ≤ v in the paper's notation (u ranks higher)."""
        return self.rank(u) <= self.rank(v)

    def append(self, v):
        """Append ``v`` with the lowest rank; returns its rank number.

        This is how vertex insertion is ranked: a newly added vertex has no
        structural importance yet, so it goes last.  Existing ranks are
        untouched, keeping all stored labels valid.  A previously removed id
        may return — it gets a fresh lowest rank, not its old one.
        """
        if v is self.TOMBSTONE:
            raise OrderingError("None cannot be used as a vertex id")
        if v in self._rank:
            raise OrderingError(f"vertex {v!r} is already in the order")
        r = len(self._order)
        self._order.append(v)
        self._rank[v] = r
        return r

    def remove(self, v):
        """Tombstone ``v``'s rank slot; returns the freed rank number.

        The slot is never reused: other vertices' ranks — and therefore all
        hub references in stored labels — are unaffected.
        """
        r = self._rank.pop(v, None)
        if r is None:
            raise OrderingError(f"vertex {v!r} is not in the order")
        self._order[r] = self.TOMBSTONE
        return r

    def as_list(self):
        """Return the live vertices as a list (rank 0 first)."""
        return [v for v in self._order if v is not self.TOMBSTONE]

    def as_raw_list(self):
        """Return all rank slots including tombstones (for serialization)."""
        return list(self._order)

    def snapshot(self, base=None):
        """Return a frozen copy of this order for a read-only snapshot.

        ``base`` is the order of an earlier snapshot of the same live
        order; it is returned as is when no vertex was appended or removed
        since.  Slots only append and live vertices only drop out, so
        equal slot and live counts mean no change.
        """
        if (base is not None and len(base._order) == len(self._order)
                and len(base._rank) == len(self._rank)):
            return base
        clone = VertexOrder.__new__(VertexOrder)
        clone._order = list(self._order)
        clone._rank = dict(self._rank)
        return clone

    def rank_map(self):
        """Return the internal {vertex: rank} dict for hot loops.

        Treat the result as read-only: it is the live mapping, shared so BFS
        inner loops can avoid per-lookup method-call overhead.
        """
        return self._rank


def degree_order(graph):
    """Degree-based ordering: descending degree, ties broken by vertex id.

    This is the ordering the paper adopts ("the degree-based ordering ...
    is adopted in our work").
    """
    return VertexOrder(sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v)))


def natural_order(graph):
    """Order vertices by their id — used by the paper-example tests, where
    the prescribed order is v0 ≤ v1 ≤ ... ≤ v11."""
    return VertexOrder(sorted(graph.vertices()))


def random_order(graph, seed=0):
    """Uniformly random ordering — the ablation baseline for Table 4."""
    vertices = sorted(graph.vertices())
    _random.Random(seed).shuffle(vertices)
    return VertexOrder(vertices)


def make_order(graph, strategy="degree", seed=0):
    """Build a :class:`VertexOrder` by strategy name.

    ``strategy`` is one of ``"degree"`` (paper default), ``"natural"``,
    ``"random"``, or an explicit list of vertices.
    """
    if isinstance(strategy, (list, tuple)):
        order = VertexOrder(strategy)
        missing = [v for v in graph.vertices() if v not in order]
        if missing:
            raise OrderingError(f"explicit order is missing vertices: {missing[:5]}")
        if len(order) != graph.num_vertices:
            raise OrderingError("explicit order has extra vertices")
        return order
    if strategy == "degree":
        return degree_order(graph)
    if strategy == "natural":
        return natural_order(graph)
    if strategy == "random":
        return random_order(graph, seed=seed)
    raise OrderingError(f"unknown ordering strategy {strategy!r}")

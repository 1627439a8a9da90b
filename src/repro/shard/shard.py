"""Shard: one hub slice of the index, kept fresh by tailing the journal.

A :class:`Shard` is the one fleet member class — a *materialized view*,
not an engine: it holds no graph and runs no maintenance algorithm (the
paper's pruning rules need the whole index — a slice would under-prune
and corrupt counts; see DESIGN.md §11).  Its state is a
:class:`ShardStore` mapping every vertex to the label entries whose hub
falls in this member's slice (every entry, for the full slice of a
replicated fleet), bootstrapped by filtering the primary's checkpoint
(:func:`repro.serve.persist.checkpoint_label_slice`) and advanced by one
applier thread that decodes the primary's label-delta journal.  Applying
a batch costs a journal decode, never an IncSPC/DecSPC run.

The applier is a small state machine: **bootstrap** from the current
checkpoint, **tail** the journal, **re-bootstrap** when the tailer
reports a gap (the primary compacted the journal beneath it), and die
visibly after ``stall_budget`` re-bootstraps that made no progress (a
corrupt journal record that no fresh checkpoint can skip).

For reads the applier *publishes* an immutable view (a shallow copy of
the store — entry lists are shared structurally, so a view costs O(V)
references, not a label copy) per applied journal record into a bounded
seq-indexed ring.  Rings are what make cross-slice consistency cheap:
because every member publishes at every journal seq, the router can pick
one seq and read each slice's view *at exactly that seq* — a consistent
cut — instead of coordinating the appliers.
"""

import os
import threading
import time
import warnings
from collections import OrderedDict

from repro.engine import get_backend
from repro.exceptions import ShardError, VertexNotFound
from repro.serve.persist import (
    checkpoint_label_slice,
    filter_label_payload,
    load_checkpoint,
)
from repro.serve.service import JOURNAL_FILENAME, SNAPSHOT_FILENAME
from repro.serve.wal import WalTailer
from repro.shard.journal import OP_LABEL, OP_NOP, OP_RESET, decode_label_op

INF = float("inf")

#: nominal bytes per label entry — the accounting unit bench reports use
#: to turn entry counts into comparable "index memory" figures.
ENTRY_BYTES = 8


def partial_answer(s_entries, t_entries, counts=True):
    """Merge two hub-sliced label entry lists into a partial answer.

    The full index's query merge restricted to whatever hubs survived
    this member's filter: the minimal ``d(s,h) + d(h,t)`` over the
    slice's common hubs, with path counts multiplied per hub and summed
    over minimal-distance hubs.  Hub ranks are unique within a list, so
    the shorter list is hashed and the longer one probes it — cheaper in
    pure Python than a two-pointer walk over nested entries.  Returns the
    partial ``(dist, count)`` — ``(inf, 0)`` when the slice contributes
    nothing, ``(dist, None)`` for distance-only families — ready for
    :func:`repro.audit.merge_partial_answers`.
    """
    if len(s_entries) > len(t_entries):
        s_entries, t_entries = t_entries, s_entries
    by_hub = {e[0]: e for e in s_entries}.get
    best = INF
    total = 0
    for et in t_entries:
        es = by_hub(et[0])
        if es is None:
            continue
        d = es[1] + et[1]
        if d < best:
            best = d
            if counts:
                total = es[2] * et[2]
        elif d == best and counts:
            total += es[2] * et[2]
    if not counts:
        return (best, None)
    return (best, total if best != INF else 0)


class ShardStore:
    """{vertex: hub-sliced label payload} with entry accounting.

    Every vertex the primary knows is present — an empty slice still
    records *existence*, which is how shards distinguish "no in-range
    labels" from "unknown vertex" (and how the router keeps
    :class:`~repro.exceptions.VertexNotFound` parity with an engine).
    ``num_entries`` / ``peak_entries`` count label entries in the slice;
    the bench's 1/K memory criterion reads them.
    """

    __slots__ = ("directed", "_labels", "num_entries", "peak_entries")

    def __init__(self, directed=False):
        self.directed = directed
        self._labels = {}
        self.num_entries = 0
        self.peak_entries = 0

    def _size(self, lp):
        if self.directed:
            return len(lp["in"]) + len(lp["out"])
        return len(lp)

    def put(self, v, lp):
        old = self._labels.get(v)
        if old is not None:
            self.num_entries -= self._size(old)
        self._labels[v] = lp
        self.num_entries += self._size(lp)
        if self.num_entries > self.peak_entries:
            self.peak_entries = self.num_entries

    def drop(self, v):
        old = self._labels.pop(v, None)
        if old is not None:
            self.num_entries -= self._size(old)

    def reset(self, items):
        self._labels = {}
        self.num_entries = 0
        for v, lp in items:
            self._labels[v] = lp
            self.num_entries += self._size(lp)
        if self.num_entries > self.peak_entries:
            self.peak_entries = self.num_entries

    def view(self):
        """A read-consistent shallow copy (entry lists shared)."""
        return dict(self._labels)

    def __len__(self):
        return len(self._labels)

    def __contains__(self, v):
        return v in self._labels

    def __repr__(self):
        return (
            f"ShardStore(vertices={len(self._labels)}, "
            f"entries={self.num_entries}, peak={self.peak_entries})"
        )


class Shard:
    """One hub slice of the primary's index, following its label journal.

    Parameters
    ----------
    primary_dir:
        The primary's ``durability_dir`` — checkpoint, WAL and the label
        journal (``labels.jsonl``) all live there.
    shard_id:
        This member's slice slot in the partitioner.
    partitioner:
        A :class:`~repro.shard.HubPartitioner`; this member keeps hubs
        with ``partitioner.shard_of(h) == shard_id`` (all of them when
        the partitioner has a single slot).
    ring_size:
        How many recent per-seq views to retain for consistent cuts.
    stall_budget:
        Consecutive no-progress re-bootstraps before the applier dies
        (``None`` uses :attr:`MAX_STALLED_BOOTSTRAPS`); the chaos harness
        shortens it so a corrupted journal is declared dead quickly.
    """

    #: consecutive no-progress re-bootstraps before the applier gives up —
    #: a gap no fresh checkpoint can advance past would otherwise
    #: hot-loop forever while the member still reported healthy.
    MAX_STALLED_BOOTSTRAPS = 3

    def __init__(self, primary_dir, shard_id, partitioner, name=None,
                 poll_interval=0.002, ring_size=64, stall_budget=None):
        self.shard_id = shard_id
        self.name = name or f"shard-{shard_id}"
        self._dir = primary_dir
        #: hub predicate of this member's slice; ``None`` keeps every hub
        #: (the full slice skips the per-entry filter).
        self.keep = (
            partitioner.keep(shard_id) if partitioner.num_shards > 1 else None
        )
        self._poll_interval = poll_interval
        self._stall_budget = (
            self.MAX_STALLED_BOOTSTRAPS if stall_budget is None else stall_budget
        )
        self._ring_size = max(2, ring_size)
        self._views = OrderedDict()   # seq -> published view, oldest first
        self._lock = threading.Lock()
        self._publish_listener = None
        self._store = None
        self._tailer = None
        self._corruptions_base = 0
        self._applied_seq = 0
        self._fatal = None
        self._alive = True
        self._bootstraps = 0
        self._records_applied = 0
        self._stop = threading.Event()
        self._bootstrap()  # constructor fails loudly on a bad checkpoint
        self._thread = threading.Thread(
            target=self._apply_loop, name=f"spc-{self.name}", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Read path (router threads, lock only for ring lookups)
    # ------------------------------------------------------------------

    def view_at(self, seq):
        """The published view for ``seq``, or ``None`` if not in the ring."""
        with self._lock:
            return self._views.get(seq)

    @property
    def latest_seq(self):
        """Seq of the freshest published view."""
        with self._lock:
            return next(reversed(self._views)) if self._views else 0

    @property
    def min_seq(self):
        """Oldest seq still in the ring (consistent cuts can't go below)."""
        with self._lock:
            return next(iter(self._views)) if self._views else 0

    def partial(self, s, t, view):
        """This slice's partial ``(dist, count)`` for (s, t) on ``view``.

        Vertex-set parity with an engine: every shard holds *every*
        vertex (with a possibly empty slice), so any shard can — and
        must — raise :class:`~repro.exceptions.VertexNotFound` for a
        vertex the primary does not know at this cut.
        """
        try:
            ls = view[s]
        except KeyError:
            raise VertexNotFound(s) from None
        try:
            lt = view[t]
        except KeyError:
            raise VertexNotFound(t) from None
        if self.directed:
            s_entries, t_entries = ls["out"], lt["in"]
        else:
            s_entries, t_entries = ls, lt
        return partial_answer(s_entries, t_entries, counts=self.counts)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def applied_seq(self):
        """Seq of the last journal record folded into the store."""
        return self._applied_seq

    @property
    def healthy(self):
        """True while the applier thread runs without a fatal error."""
        return self._alive and self._fatal is None

    @property
    def fatal(self):
        """The exception that killed the applier, or ``None``."""
        return self._fatal

    @property
    def bootstraps(self):
        """How many times this shard (re-)bootstrapped from a checkpoint."""
        return self._bootstraps

    @property
    def stream_corruptions(self):
        """Typed corruption events the journal stream raised so far
        (accumulated across re-bootstraps — each fresh tailer re-reads the
        journal from the head, so a poisoned interior record keeps
        counting until the supervisor's repair rewrites the stream)."""
        tailer = self._tailer
        return self._corruptions_base + (
            tailer.corruptions if tailer is not None else 0
        )

    def set_publish_listener(self, listener):
        """Install (or clear, with ``None``) a publication hook.

        ``listener()`` runs on the applier thread after every published
        view — the router's condition-variable wakeup seam.  Must be
        cheap and must never raise (a raising listener kills the applier).
        """
        self._publish_listener = listener

    def catch_up(self, target_seq, timeout=10.0):
        """Block until ``applied_seq >= target_seq``; True on success."""
        deadline = time.monotonic() + timeout
        while self._applied_seq < target_seq:
            if not self.healthy:
                raise ShardError(
                    f"member {self.name!r} died at seq {self._applied_seq} "
                    f"while catching up to {target_seq}: {self._fatal!r}"
                )
            if time.monotonic() >= deadline:
                return False
            time.sleep(min(self._poll_interval, 0.005))
        return True

    def stats(self):
        """JSON-safe counters (monitoring, bench results)."""
        store = self._store
        with self._lock:
            ring = len(self._views)
        return {
            "name": self.name,
            "shard_id": self.shard_id,
            "backend": self.backend_name,
            "applied_seq": self._applied_seq,
            "vertices": len(store),
            "entries": store.num_entries,
            "peak_entries": store.peak_entries,
            "ring": ring,
            "records_applied": self._records_applied,
            "bootstraps": self._bootstraps,
            "stream_corruptions": self.stream_corruptions,
            "healthy": self.healthy,
        }

    def kill(self):
        """Hard-stop the applier mid-stream (fault injection).

        Published views stay readable, but the member stops following the
        journal and reports unhealthy, so the router skips it (and
        refuses reads once its slice has no live member left).
        Idempotent.  A join that times out (the applier is wedged) marks
        the shard fatal and issues a warning instead of silently leaking
        a live thread under whatever replaces this member.
        """
        self._stop.set()
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            stuck = ShardError(
                f"member {self.name!r} applier thread failed to stop "
                f"within 10.0 s; the thread has leaked and the member "
                f"must not be reused"
            )
            if self._fatal is None:
                self._fatal = stuck
            warnings.warn(str(stuck), RuntimeWarning, stacklevel=2)
        self._alive = False

    def close(self):
        """Stop the applier; raises if it had died of an unexpected error."""
        self.kill()
        if self._fatal is not None:
            raise ShardError(
                f"member {self.name!r} applier died: {self._fatal!r}"
            ) from self._fatal

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return (
            f"Shard(name={self.name!r}, backend={self.backend_name!r}, "
            f"applied_seq={self._applied_seq}, "
            f"entries={self._store.num_entries}, healthy={self.healthy})"
        )

    # ------------------------------------------------------------------
    # Applier thread
    # ------------------------------------------------------------------

    def _bootstrap(self):
        """(Re)build the slice from the primary's current checkpoint."""
        payload = load_checkpoint(os.path.join(self._dir, SNAPSHOT_FILENAME))
        backend_cls = get_backend(payload["backend"])
        self.backend_name = backend_cls.name
        self.directed = backend_cls.directed
        self.counts = backend_cls.counts
        store = ShardStore(directed=backend_cls.directed)
        store.reset(checkpoint_label_slice(payload, self.keep).items())
        if self._store is not None:
            # A re-bootstrap continues the lifetime peak across stores.
            store.peak_entries = max(
                store.peak_entries, self._store.peak_entries
            )
        self._store = store
        self._applied_seq = payload.get("applied_seq", 0)
        if self._tailer is not None:
            self._corruptions_base += self._tailer.corruptions
        self._tailer = WalTailer(
            os.path.join(self._dir, JOURNAL_FILENAME),
            after_seq=self._applied_seq,
            expect_backend=payload["backend"],
            decode=decode_label_op,
        )
        self._bootstraps += 1
        with self._lock:
            self._views.clear()
        self._publish(self._applied_seq)

    def _publish(self, seq):
        view = self._store.view()
        with self._lock:
            self._views[seq] = view
            while len(self._views) > self._ring_size:
                self._views.popitem(last=False)
        listener = self._publish_listener
        if listener is not None:
            listener()

    def _apply_ops(self, ops):
        store = self._store
        keep = self.keep
        for op in ops:
            kind = op[0]
            if kind == OP_LABEL:
                v, lp = op[1], op[2]
                if lp is None:
                    store.drop(v)
                else:
                    store.put(v, filter_label_payload(lp, keep))
            elif kind == OP_RESET:
                store.reset(
                    (v, filter_label_payload(lp, keep)) for v, lp in op[1]
                )
            elif kind != OP_NOP:  # decode_label_op already screened these
                raise ShardError(f"unknown label-journal op kind {kind!r}")

    def _apply_loop(self):
        stalled = 0
        # Progress means advancing past the furthest seq ever reached —
        # a corruption-forced re-bootstrap re-reads the journal head and
        # re-applies the same prefix every round, and counting that as
        # progress would hot-loop a poisoned stream forever while the
        # member still reported healthy.
        high_water = self._applied_seq
        try:
            while not self._stop.is_set():
                records, gap = self._tailer.poll()
                for seq, ops in records:
                    self._apply_ops(ops)
                    self._applied_seq = seq
                    self._records_applied += 1
                    # One view per seq: the aligned rings are what give
                    # the router its consistent cross-shard cuts.
                    self._publish(seq)
                if records and self._applied_seq > high_water:
                    high_water = self._applied_seq
                    stalled = 0
                if gap:
                    # The primary compacted the journal beneath us: the
                    # missing deltas live only in the new checkpoint now.
                    self._bootstrap()
                    if self._applied_seq > high_water:
                        high_water = self._applied_seq
                        stalled = 0
                        continue
                    stalled += 1
                    if stalled >= self._stall_budget:
                        raise ShardError(
                            f"member {self.name!r} cannot advance past a "
                            f"label-journal gap at seq {self._applied_seq}: "
                            f"{stalled} consecutive re-bootstraps made no "
                            f"progress (corrupt or incompatible journal at "
                            f"{self._tailer.path})"
                        )
                    self._stop.wait(self._poll_interval)
                    continue
                if not records:
                    self._stop.wait(self._poll_interval)
        except BaseException as exc:  # noqa: BLE001 — surfaced via healthy/fatal
            self._fatal = exc
        finally:
            self._alive = False

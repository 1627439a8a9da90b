"""Corrupting wrappers — test-only fault injection for the audit stack.

The serving layer's own fault harness kills processes and truncates logs;
what it cannot produce is a *plausible wrong answer* — a replica that
stays healthy, keeps its seq current, and quietly serves bad counts.
That is exactly the failure differential verification exists to catch, so
these wrappers simulate it at the two seams the serving layer exposes:

* :func:`tamper_member` — for a live fleet: rebinds one member's
  ``partial`` probe so every answer it serves is corrupted while its
  views, journal tail and the primary's checkpoints stay clean (the
  shadow baseline must bootstrap from *honest* state, or the audit would
  be comparing one lie to another).
* :func:`tamper_backend` — for a single service: rebinds the engine
  backend's ``snapshot_index`` hook so every *published* snapshot index is a
  corrupting proxy, while ``index_to_dict`` (the checkpoint path) keeps
  telling the truth.

Corruption modes map one-to-one onto the comparator's severity classes:

* ``"count"`` — finite-distance answers gain one phantom path
  (``count-mismatch``); distance-only and unreachable answers are served
  honestly, so a corrupted run reports *exactly one* divergence class.
* ``"dist"``  — finite distances grow by one (``dist-mismatch``); the
  mode that bites distance-only (sd) backends too.
* ``"refusal"`` — finite-distance answers report zero paths, a
  structurally impossible shape (``refusal``).
"""

from repro.exceptions import AuditDivergenceError

INF = float("inf")

#: corruption mode -> the comparator severity class it must trigger.
MODES = ("count", "dist", "refusal")


def corrupt_answer(answer, mode):
    """Corrupt one (distance, count) answer under ``mode``.

    Answers the mode cannot corrupt without changing its divergence class
    (unreachable pairs; counts that do not exist) pass through honestly.
    """
    d, c = answer
    if d == INF:
        return answer
    if mode == "count":
        if c is None:
            return answer
        return d, c + 1
    if mode == "dist":
        return d + 1, c
    if mode == "refusal":
        if c is None:
            return answer
        return d, 0
    raise AuditDivergenceError(
        f"unknown corruption mode {mode!r}; choose from {MODES}"
    )


class CorruptingIndex:
    """An index proxy that corrupts ``query`` answers.

    ``source_probe`` is pinned to ``None`` so the batch path
    (:func:`repro.engine.batch_answers`) falls back to per-pair ``query``
    — every answer then flows through the corruption, not just singleton
    sources.  Everything else delegates, so serialization stays honest.
    """

    #: hide the shared-scan fast path; see the class docstring.
    source_probe = None

    def __init__(self, inner, mode="count"):
        if mode not in MODES:
            raise AuditDivergenceError(
                f"unknown corruption mode {mode!r}; choose from {MODES}"
            )
        self._inner = inner
        self._mode = mode

    def query(self, s, t):
        return corrupt_answer(self._inner.query(s, t), self._mode)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __repr__(self):
        return f"CorruptingIndex(mode={self._mode!r}, inner={self._inner!r})"


def tamper_backend(backend, mode="count"):
    """Make ``backend`` publish corrupting index copies from now on.

    Rebinding ``snapshot_index`` on the *instance* poisons every snapshot
    the serving layer publishes next, while the checkpoint path
    (``index_to_dict``) and the live index stay honest — the audited
    service keeps passing its own invariant checks while serving wrong
    answers, which is precisely the scenario the shadow auditor exists
    for.  Returns the undo callable that restores the honest hook.

    The hook keeps the copy-on-write signature ``(base, dirty)``; after
    the undo, the honest hook reads the previous proxy's labels through
    its attribute delegation, so the next snapshot is honest again.
    """
    original = backend.snapshot_index

    def corrupted_snapshot_index(base=None, dirty=None):
        # Copy-on-write publish passes the previous snapshot as ``base``:
        # share the honest labels underneath, never the proxy.
        if isinstance(base, CorruptingIndex):
            base = base._inner
        return CorruptingIndex(original(base, dirty), mode)

    backend.snapshot_index = corrupted_snapshot_index

    def restore():
        backend.snapshot_index = original

    return restore


def tamper_member(member, mode="count"):
    """Make one fleet member serve corrupted partial answers from now on.

    Rebinding ``partial`` on the *instance* poisons every answer the
    router folds from this member, while its published views, seq and
    health stay honest — a byzantine member that stays current while
    serving wrong answers, which only the differential audit can catch.
    On a full slice a partial *is* the answer, so the corruption lands
    exactly as :func:`corrupt_answer` describes.  Returns the undo
    callable that restores the honest probe.
    """
    if mode not in MODES:
        raise AuditDivergenceError(
            f"unknown corruption mode {mode!r}; choose from {MODES}"
        )
    honest = member.partial

    def corrupted_partial(s, t, view):
        return corrupt_answer(honest(s, t, view), mode)

    member.partial = corrupted_partial

    def restore():
        del member.partial

    return restore

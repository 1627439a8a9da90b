"""Checkpoint files: durable, backend-agnostic snapshots of an engine.

A checkpoint is one JSON document holding everything needed to rebuild an
:class:`~repro.engine.SPCEngine` without re-running the index builder:
the backend name, the engine config, the graph (vertices + edges, with
weights on weighted graphs), the index payload (each family's
``to_dict``), and ``applied_seq`` — the WAL sequence number the state
reflects.  ``applied_seq`` is the joint between the two durability files:
restore loads the checkpoint, then replays only WAL records with a higher
sequence number.

Writes go through a temp file + ``os.replace`` so a crash mid-checkpoint
leaves the previous checkpoint intact, never a half-written one.  The
written document additionally carries a top-level ``"crc"`` stamp — a
CRC32 over the canonical dump of the rest of the payload — verified by
:func:`load_checkpoint`, so in-place corruption of a checkpoint that
stays json-parseable (a bit flip inside a count, say) raises the typed
:class:`~repro.exceptions.WalCorruptionError` instead of restoring
silently wrong state.  Checkpoints written before stamping existed carry
no ``crc`` and still load.
"""

import dataclasses
import json
import os
import zlib

from repro.engine import EngineConfig, SPCEngine, get_backend
from repro.exceptions import (
    CheckpointMismatchError,
    ServeError,
    WalCorruptionError,
)

#: bump when the payload layout changes incompatibly.
CHECKPOINT_FORMAT = 1


def graph_to_payload(graph):
    """JSON-safe payload of a graph: sorted vertices and edges.

    ``edges()`` yields (u, v, w) triples on weighted graphs and (u, v)
    pairs elsewhere (arcs on digraphs), so one shape covers every family.
    Sorting makes checkpoints deterministic.
    """
    return {
        "vertices": sorted(graph.vertices()),
        "edges": [list(e) for e in sorted(graph.edges())],
    }


def graph_from_payload(payload, graph_type):
    """Rebuild a graph of ``graph_type`` from :func:`graph_to_payload`."""
    edges = [tuple(e) for e in payload["edges"]]
    return graph_type.from_edges(edges, vertices=payload["vertices"])


def config_to_payload(config):
    """EngineConfig -> plain dict (dataclass fields only)."""
    return dataclasses.asdict(config)


def config_from_payload(payload):
    """Rebuild an EngineConfig, ignoring fields this version doesn't know.

    Forward compatibility: a checkpoint written by a newer version with
    extra knobs still restores; unknown knobs are dropped.
    """
    known = {f.name for f in dataclasses.fields(EngineConfig)}
    return EngineConfig(**{k: v for k, v in payload.items() if k in known})


def engine_to_payload(engine, applied_seq=0):
    """Capture a full engine state as a checkpoint payload."""
    backend = engine.backend
    return {
        "format": CHECKPOINT_FORMAT,
        "backend": backend.name,
        "applied_seq": applied_seq,
        "epoch": engine.epoch,
        "config": config_to_payload(engine.config),
        "graph": graph_to_payload(engine.graph),
        "index": backend.index_to_dict(),
    }


def engine_from_payload(payload):
    """Rebuild a live engine from :func:`engine_to_payload` output.

    The index is rehydrated from its serialized labels (no rebuild), so
    restore cost is I/O plus deserialization — not an HP-SPC build.
    """
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ServeError(
            f"unsupported checkpoint format {payload.get('format')!r} "
            f"(this version reads format {CHECKPOINT_FORMAT})"
        )
    backend_cls = get_backend(payload["backend"])
    try:
        graph = graph_from_payload(payload["graph"], backend_cls.graph_type)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointMismatchError(
            f"checkpoint declares backend {payload['backend']!r} but its "
            f"graph payload does not load as {backend_cls.graph_type.__name__}"
            f": {exc!r}"
        ) from exc
    config = config_from_payload(payload["config"]).replace(
        backend=payload["backend"]
    )
    try:
        index = backend_cls.index_from_dict(payload["index"])
    except (KeyError, TypeError, ValueError) as exc:
        # A hand-edited or mixed-up checkpoint: the declared family's
        # index class cannot rehydrate the payload.  Without this guard
        # the family-specific ``from_dict`` surfaces a bare KeyError.
        raise CheckpointMismatchError(
            f"checkpoint declares backend {payload['backend']!r} but its "
            f"index payload does not rehydrate as that family: {exc!r}"
        ) from exc
    engine = SPCEngine(graph, config=config, index=index)
    # Continue the pre-crash epoch numbering so snapshots published after
    # a restore never reissue epochs readers already saw.
    engine.seed_epoch(payload.get("epoch", 0))
    return engine


def filter_label_payload(lp, keep):
    """Restrict one vertex's label payload to hubs passing ``keep``.

    Handles every family's payload shape: entry lists (core / weighted /
    sd — the hub rank is always ``entry[0]``) and the directed backend's
    ``{"in": [...], "out": [...]}`` pair.  ``None`` (vertex gone) passes
    through, so journal ``lb`` ops can be filtered with the same function;
    ``keep=None`` keeps every hub (a full slice) and returns ``lp`` as is.
    """
    if lp is None or keep is None:
        return lp
    if isinstance(lp, dict):
        return {
            fam: [e for e in entries if keep(e[0])]
            for fam, entries in lp.items()
        }
    return [e for e in lp if keep(e[0])]


def checkpoint_label_slice(payload, keep):
    """Hub-sliced label states from a checkpoint: ``{vertex: payload}``.

    The slice-restricted restore seam for :mod:`repro.shard`: instead of
    rehydrating the full index (:func:`engine_from_payload`), a shard walks
    the checkpoint's label payloads and keeps only entries whose hub rank
    passes ``keep``.  Every vertex stays present (possibly with an empty
    slice) — shards must know the vertex set to distinguish "no in-range
    labels" from "unknown vertex".
    """
    backend_cls = get_backend(payload["backend"])
    return {
        v: filter_label_payload(lp, keep)
        for v, lp in backend_cls.iter_label_payloads(payload["index"])
    }


def checkpoint_crc(payload):
    """CRC32 over a checkpoint payload's canonical JSON dump.

    The payload is round-tripped through JSON first: in-memory payloads
    key index dicts by int vertex id, but ``json.dump`` writes — and
    :func:`load_checkpoint` returns — string keys, and the stamp must
    hash what a reader will re-hash.  Any ``"crc"`` key already present
    is excluded (the stamp never covers itself).
    """
    body = {k: v for k, v in payload.items() if k != "crc"}
    normalized = json.loads(json.dumps(body))
    canon = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canon.encode("utf-8"))


def save_checkpoint(path, engine, applied_seq=0):
    """Atomically write a checksummed checkpoint of ``engine`` to ``path``.

    Returns the in-memory payload (unstamped, int-keyed) — callers that
    want exactly what a reader will see should :func:`load_checkpoint`.
    """
    payload = engine_to_payload(engine, applied_seq=applied_seq)
    stamped = dict(payload)
    stamped["crc"] = checkpoint_crc(payload)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(stamped, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return payload


def load_checkpoint(path):
    """Read and verify a checkpoint payload.

    Raises :class:`~repro.exceptions.ServeError` when missing or
    unparseable and the typed :class:`~repro.exceptions.WalCorruptionError`
    when the document parses but fails its ``"crc"`` stamp (unstamped
    legacy checkpoints skip verification).  The stamp is left in the
    returned payload; :func:`engine_from_payload` ignores unknown keys.
    """
    try:
        with open(path) as f:
            payload = json.load(f)
    except FileNotFoundError:
        raise ServeError(f"no checkpoint at {path}") from None
    except ValueError as exc:
        raise ServeError(f"corrupt checkpoint at {path}: {exc}") from exc
    stamp = payload.get("crc") if isinstance(payload, dict) else None
    if stamp is not None and stamp != checkpoint_crc(payload):
        raise WalCorruptionError(
            f"checkpoint at {path} fails its checksum (stamped crc={stamp})"
            f": durable bytes were corrupted in place; refusing to restore"
        )
    return payload

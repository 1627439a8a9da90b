"""Batch planning for the fleet router's ``query_many``.

A large batch is a list of query pairs, several live members able to
serve it, and answers that must come back in submission order.  The
planner keeps the deterministic part — how to split a batch and how to
reassemble ordered results — in one place, apart from
:class:`~repro.shard.FleetRouter`'s selection logic.

Splits are *contiguous*: chunk boundaries preserve submission order, so
reassembly is a positional write, and a sub-batch maps back to a
contiguous range of the caller's pairs when something needs reporting.
"""

from concurrent.futures import ThreadPoolExecutor


def split_batch(items, ways, min_chunk=1):
    """Split ``items`` into at most ``ways`` contiguous chunks.

    Returns ``[(offset, chunk), ...]`` with near-equal chunk sizes, no
    chunk smaller than ``min_chunk`` (except a final short remainder when
    the batch itself is shorter) and never an empty chunk.  ``ways <= 1``
    or a too-small batch degrades to a single chunk — the callers' signal
    to keep their cheap single-target path.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        return []
    if min_chunk > 0:
        ways = min(ways, n // min_chunk or 1)
    ways = max(1, min(ways, n))
    base, extra = divmod(n, ways)
    chunks = []
    offset = 0
    for i in range(ways):
        size = base + (1 if i < extra else 0)
        chunks.append((offset, items[offset:offset + size]))
        offset += size
    return chunks


def gather_chunks(chunks, worker, parallel=True):
    """Run ``worker(offset, chunk) -> [result, ...]`` over every chunk and
    reassemble one flat, submission-ordered result list.

    With ``parallel`` the chunks run on a transient thread pool (one
    worker per chunk — the chunk count is already bounded by the target
    count); the first worker exception propagates after the pool drains,
    so a failed sub-batch fails the whole batch instead of returning a
    silently shorter answer list.
    """
    if not chunks:
        return []
    total = sum(len(chunk) for _off, chunk in chunks)
    out = [None] * total
    if len(chunks) == 1 or not parallel:
        for offset, chunk in chunks:
            out[offset:offset + len(chunk)] = worker(offset, chunk)
        return out
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [
            (offset, len(chunk), pool.submit(worker, offset, chunk))
            for offset, chunk in chunks
        ]
        for offset, size, future in futures:
            results = future.result()
            if len(results) != size:
                raise ValueError(
                    f"batch worker returned {len(results)} answers for a "
                    f"chunk of {size}"
                )
            out[offset:offset + size] = results
    return out

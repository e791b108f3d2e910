"""Work partitioning helpers for the process-pool harness."""

from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")

__all__ = ["chunk_sized", "chunk_evenly"]


def chunk_sized(items: Sequence[T], size: int) -> list[list[T]]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def chunk_evenly(
    items: Sequence[T], n_chunks: int, *, exact: bool = False
) -> list[list[T]]:
    """Split ``items`` into ``n_chunks`` near-equal consecutive chunks.

    Earlier chunks are at most one element longer.  By default empty
    chunks are *dropped*, so fewer than ``n_chunks`` lists may be returned
    when there are fewer items than chunks — a silent-shrink hazard for
    callers that zip the chunks against a fixed-size resource list (e.g. a
    per-worker table).  Pass ``exact=True`` to always get exactly
    ``n_chunks`` lists, padding with empty ones.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    n = len(items)
    base, extra = divmod(n, n_chunks)
    out: list[list[T]] = []
    start = 0
    for c in range(n_chunks):
        size = base + (1 if c < extra else 0)
        if size == 0:
            if exact:
                out.append([])
            continue
        out.append(list(items[start : start + size]))
        start += size
    return out

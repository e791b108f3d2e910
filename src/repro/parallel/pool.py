"""Process-pool map with ordered results and serial fallback.

``parallel_map(fn, items)`` behaves exactly like ``[fn(x) for x in items]``
but can fan out across processes.  The callable and items must be picklable
(all trial specs in :mod:`repro.experiments` are plain dataclasses).  Order
is always preserved — downstream aggregation indexes results by position.

The serial path is taken when ``n_workers <= 1`` or the item count is tiny,
avoiding pool startup costs dominating short sweeps; it is also the path
used under pytest, keeping test failures debuggable.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "ParallelConfig",
    "parallel_map",
    "default_workers",
    "PARALLEL_ENTRY_POINTS",
]

#: Fan-out entry points: callable name -> positional index of the worker
#: callable argument.  The IDDE010/IDDE012 lint rules consult this instead
#: of hard-coding knowledge of this module, so adding a new pool API here
#: automatically extends the parallel-safety checks to it.
PARALLEL_ENTRY_POINTS: dict[str, int] = {"parallel_map": 0}


def default_workers() -> int:
    """A safe default worker count: physical parallelism minus one."""
    return max((os.cpu_count() or 2) - 1, 1)


@dataclass(frozen=True)
class ParallelConfig:
    """How to fan work out.

    ``n_workers = 0`` or ``1`` forces serial execution; ``None`` uses
    :func:`default_workers`.  ``min_parallel_items`` guards against paying
    pool startup for trivially small batches.
    """

    n_workers: int | None = None
    chunksize: int = 1
    min_parallel_items: int = 4

    def resolved_workers(self) -> int:
        if self.n_workers is None:
            return default_workers()
        return max(self.n_workers, 0)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    config: ParallelConfig | None = None,
) -> list[R]:
    """Apply ``fn`` to every item, optionally across processes, in order."""
    items = list(items)
    config = config or ParallelConfig()
    workers = config.resolved_workers()
    if workers <= 1 or len(items) < config.min_parallel_items:
        return [fn(item) for item in items]
    workers = min(workers, len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(config.chunksize, 1)))

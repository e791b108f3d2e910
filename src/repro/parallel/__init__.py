"""Parallel trial execution substrate.

Experiment sweeps repeat every parameter point tens of times with
independent seeds; the trials are embarrassingly parallel and CPU-bound, so
they are farmed to a :class:`concurrent.futures.ProcessPoolExecutor` with
deterministic per-trial seed spawning (see :mod:`repro.rng`).  The helpers
here keep ordering, chunking and graceful serial fallback in one place.
"""

from .pool import ParallelConfig, parallel_map

__all__ = [
    "parallel_map",
    "ParallelConfig",
]

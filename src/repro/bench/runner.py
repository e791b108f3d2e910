"""The benchmark runner: setup outside the timer, then measure.

``make(scale, seed)`` builds a benchmark's fixtures untimed; only the
callable it returns is timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..errors import BenchError
from .registry import Benchmark, select_benchmarks
from .timer import BenchStats, time_callable

__all__ = ["BenchRunConfig", "run_benchmarks", "run_one"]


@dataclass(frozen=True)
class BenchRunConfig:
    """How one benchmark session is driven."""

    scale: str = "S"
    seed: int = 0
    repeats: int = 5
    warmup: int = 1
    filter: str | None = None

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise BenchError(f"repeats must be >= 1, got {self.repeats}")
        if self.warmup < 0:
            raise BenchError(f"warmup must be >= 0, got {self.warmup}")


def run_one(
    bench: Benchmark,
    config: BenchRunConfig,
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> BenchStats:
    """Set up and measure a single benchmark under ``config``."""
    fn = bench.make(config.scale, config.seed)
    return time_callable(fn, repeats=config.repeats, warmup=config.warmup, clock=clock)


def run_benchmarks(
    config: BenchRunConfig,
    *,
    clock: Callable[[], float] = time.perf_counter,
    progress: Callable[[str, BenchStats], None] | None = None,
) -> dict[str, BenchStats]:
    """Run the (filtered) registry in name order; results keyed by name.

    ``progress`` is invoked after each benchmark completes (the CLI's
    text mode streams the table row by row).
    """
    results: dict[str, BenchStats] = {}
    for bench in select_benchmarks(config.filter):
        stats = run_one(bench, config, clock=clock)
        results[bench.name] = stats
        if progress is not None:
            progress(bench.name, stats)
    return results

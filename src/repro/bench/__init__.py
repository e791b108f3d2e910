"""IDDE-Bench: the statistical microbenchmark subsystem.

The ROADMAP's north star is a system that "runs as fast as the hardware
allows"; this package is the quantified notion of *fast* — the
measurement substrate every performance PR is judged against.

Pieces:

* :mod:`~repro.bench.timer` — warmup + repeated timed runs,
  median/IQR/min statistics, monotonic-clock discipline;
* :mod:`~repro.bench.fixtures` — seeded S/M/L scenario fixtures shared
  across benches;
* :mod:`~repro.bench.registry` / :mod:`~repro.bench.suite` — the named
  benchmarks covering the IDDE-G hot paths;
* :mod:`~repro.bench.runner` — orchestration: untimed setup, then the
  timed repeats;
* :mod:`~repro.bench.document` — the schema-versioned JSON trajectory
  point (``BENCH_<rev>.json``);
* :mod:`~repro.bench.compare` — the noise-aware regression gate
  (``idde bench --compare OLD NEW``).

See ``docs/BENCHMARKING.md`` for the workflow and the CI gate.
"""

from .compare import (
    BenchDelta,
    CompareResult,
    classify,
    compare_documents,
    render_compare_text,
)
from .document import (
    SCHEMA,
    build_document,
    document_stats,
    load_document,
    render_text,
    save_document,
    validate_document,
)
from .fixtures import SCALES, ScaleSpec, instance_for, scale_spec
from .registry import Benchmark, all_benchmarks, benchmark, get_benchmark, select_benchmarks
from .runner import BenchRunConfig, run_benchmarks, run_one
from .timer import BenchStats, summarize, time_callable

__all__ = [
    "SCHEMA",
    "SCALES",
    "Benchmark",
    "BenchDelta",
    "BenchRunConfig",
    "BenchStats",
    "CompareResult",
    "ScaleSpec",
    "all_benchmarks",
    "benchmark",
    "build_document",
    "classify",
    "compare_documents",
    "document_stats",
    "get_benchmark",
    "instance_for",
    "load_document",
    "render_compare_text",
    "render_text",
    "run_benchmarks",
    "run_one",
    "save_document",
    "scale_spec",
    "select_benchmarks",
    "summarize",
    "time_callable",
    "validate_document",
]

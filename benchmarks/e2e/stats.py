"""Summary statistics for the end-to-end benchmark.

Pure functions with no dependency on the program under test, so the
harness self-tests can pin them on fixed samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    data = sorted(values)
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND` of
    ``n`` samples beyond it, or ``None`` when even the median lacks them."""
    best = None
    for p in PERCENTILE_LADDER:
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            best = p
    return best


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def self_times(spans: Iterable[object]) -> dict[str, float]:
    """Summed self time per span name, in seconds.

    A span's self time is its duration minus the durations of its direct
    children.  ``spans`` holds records with ``span_id``, ``parent_id``,
    ``name`` and ``duration_s`` (``repro.obs`` span records fit); open
    spans are skipped.
    """
    spans = [s for s in spans if s.duration_s is not None]
    child_total: dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_total[s.parent_id] = child_total.get(s.parent_id, 0.0) + s.duration_s
    out: dict[str, float] = {}
    for s in spans:
        own = s.duration_s - child_total.get(s.span_id, 0.0)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def verdict(
    base: Sequence[float], new: Sequence[float], *, better: str, bound: float
) -> str:
    """Whether ``new``'s median is within ``bound`` of ``base``'s median.

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the share of the
    base median by which the metric may worsen.  When the base runs spread
    wider than the bound the answer is ``unresolved`` unless every new run
    beats every base run.
    """
    _, b_med, _ = quartiles(base)
    _, n_med, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if relative_spread(base) > bound:
        beats = all(sign * (n - b) < 0 for n in new for b in base)
        return "better" if beats else "unresolved"
    if worse_by > bound:
        return "REGRESSED"
    return "ok"


def timing_summary(name: str, values_s: Sequence[float]) -> dict[str, float]:
    """A timing's median and tail in milliseconds, with its sample count."""
    out = {f"{name}_n": float(len(values_s))}
    for p in (50.0, tail_percentile(len(values_s))):
        if p is not None:
            out[f"{name}_p{p:g}_ms"] = percentile(values_s, p) * 1e3
    return out

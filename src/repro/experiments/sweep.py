"""Parameter sweeps: repeated trials over Table 2 grids with aggregation.

``run_sweep`` executes ``reps`` trials per grid point (the paper uses 50),
optionally across worker processes, and aggregates each solver's metrics
into mean and standard deviation per point — exactly the series plotted in
Figs. 3–7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..obs.tracer import Tracer, ensure_tracer
from ..parallel import ParallelConfig, parallel_map
from ..rng import key_to_int
from .runner import SOLVER_NAMES, METRICS, TrialResult, TrialSpec, run_trial
from .settings import SweepSettings

__all__ = ["SweepPoint", "SweepResult", "run_sweep"]


@dataclass
class SweepPoint:
    """Aggregated metrics for one grid value.

    ``raw`` holds the per-trial samples (``raw[solver][metric]`` aligned
    trial-wise across solvers) when the sweep ran with ``keep_raw=True`` —
    the input the paired-significance analysis needs.
    """

    value: float
    reps: int
    mean: dict[str, dict[str, float]] = field(default_factory=dict)
    std: dict[str, dict[str, float]] = field(default_factory=dict)
    raw: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def get(self, solver: str, metric: str) -> float:
        return self.mean[solver][metric]


@dataclass
class SweepResult:
    """All aggregated points of one sweep, in grid order."""

    settings: SweepSettings
    points: list[SweepPoint] = field(default_factory=list)
    solver_names: tuple[str, ...] = SOLVER_NAMES

    @property
    def values(self) -> list[float]:
        return [p.value for p in self.points]

    def series(self, solver: str, metric: str) -> list[float]:
        """One plotted line: the metric across the grid for one solver."""
        return [p.get(solver, metric) for p in self.points]

    def average(self, solver: str, metric: str) -> float:
        """Cross-grid average (the paper's per-set headline numbers)."""
        xs = self.series(solver, metric)
        return sum(xs) / len(xs) if xs else math.nan

    def advantage_pct(self, metric: str, ours: str = "IDDE-G") -> dict[str, float]:
        """IDDE-G's average advantage over each other approach, in percent.

        For rates (higher is better): ``(ours − theirs) / theirs``.
        For latencies/times (lower is better): ``(theirs − ours) / theirs``.
        """
        higher_better = metric == "r_avg"
        out: dict[str, float] = {}
        ours_avg = self.average(ours, metric)
        for name in self.solver_names:
            if name == ours:
                continue
            theirs = self.average(name, metric)
            if theirs == 0:
                out[name] = math.nan
            elif higher_better:
                out[name] = 100.0 * (ours_avg - theirs) / theirs
            else:
                out[name] = 100.0 * (theirs - ours_avg) / theirs
        return out


def _aggregate(
    value: float,
    trials: list[TrialResult],
    solver_names,
    *,
    keep_raw: bool = False,
) -> SweepPoint:
    point = SweepPoint(value=value, reps=len(trials))
    for name in solver_names:
        means: dict[str, float] = {}
        stds: dict[str, float] = {}
        raws: dict[str, list[float]] = {}
        for metric in METRICS:
            xs = [t.metrics[name][metric] for t in trials]
            mu = sum(xs) / len(xs)
            var = sum((x - mu) ** 2 for x in xs) / len(xs)
            means[metric] = mu
            stds[metric] = math.sqrt(var)
            if keep_raw:
                raws[metric] = list(xs)
        point.mean[name] = means
        point.std[name] = stds
        if keep_raw:
            point.raw[name] = raws
    return point


def run_sweep(
    settings: SweepSettings,
    *,
    reps: int = 5,
    seed: int = 0,
    ip_time_budget_s: float = 3.0,
    solver_names: tuple[str, ...] = SOLVER_NAMES,
    parallel: ParallelConfig | None = None,
    keep_raw: bool = False,
    tracer: Tracer | None = None,
) -> SweepResult:
    """Run one Table 2 sweep and aggregate it.

    Trials at different points and repetitions are independent; the trial
    seed is spawned from ``(seed, set name, value, rep)`` so adding points
    or repetitions never perturbs existing trials.

    When a recording ``tracer`` is attached, trials run serially in this
    process — a tracer cannot aggregate across worker processes — so
    tracing a sweep observes the single-process schedule.
    """
    tracer = ensure_tracer(tracer)
    specs: list[TrialSpec] = []
    layout: list[tuple[float, int]] = []
    for value in settings.values:
        params = settings.params_for(value)
        for rep in range(reps):
            # Stable 32-bit trial seed derived from the sweep coordinates
            # (hash() is salted per process; key_to_int is not).
            trial_seed = key_to_int((seed, settings.name, float(value), rep))
            specs.append(
                TrialSpec(
                    n=int(params["n"]),
                    m=int(params["m"]),
                    k=int(params["k"]),
                    density=float(params["density"]),
                    seed=trial_seed,
                    pool_seed=seed,
                    ip_time_budget_s=ip_time_budget_s,
                    solver_names=solver_names,
                )
            )
            layout.append((value, rep))

    with tracer.span(
        "sweep.run", sweep=settings.name, points=len(settings.values), reps=reps
    ):
        if tracer.enabled:
            results = [run_trial(spec, tracer=tracer) for spec in specs]
        else:
            results = parallel_map(run_trial, specs, parallel)

        points: list[SweepPoint] = []
        for value in settings.values:
            trials = [r for (v, _), r in zip(layout, results) if v == value]
            points.append(_aggregate(value, trials, solver_names, keep_raw=keep_raw))
            if tracer.enabled:
                tracer.event("sweep.point", value=float(value), reps=len(trials))
                tracer.count("sweep.points")
    return SweepResult(settings=settings, points=points, solver_names=solver_names)

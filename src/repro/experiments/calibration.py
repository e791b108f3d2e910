"""Calibration sensitivity: how environment parameters move the results.

EXPERIMENTS.md documents one deliberate deviation from the raw EUA
convention (coverage radii) and one compressed effect (latency spreads).
This harness quantifies how sensitive IDDE-G's measured advantage is to
the environment calibration, so reviewers can see which conclusions are
robust to those choices and which are artefacts of them:

* :func:`radius_sensitivity` — sweep the coverage-radius range and report
  mean covering-set size |V_j| plus IDDE-G's rate advantage: as overlap
  collapses to |V_j| → 1 the allocation game degenerates and every
  approach converges (the reason the repo uses macro-cell radii);
* :func:`parameter_sensitivity` — the generic engine behind it: build
  instances under a config transform, solve with a chosen pair of
  approaches, aggregate the advantage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..api import solve
from ..core.instance import IDDEInstance
from ..datasets.eua import sample_scenario, synthetic_eua
from ..datasets.melbourne import CBD_REGION
from ..datasets.synthetic import place_servers, place_users
from ..datasets.eua import EuaPool
from ..rng import ensure_rng, spawn_rng
from ..topology.graph import build_topology

__all__ = [
    "CalibrationPoint",
    "parameter_sensitivity",
    "radius_sensitivity",
]


@dataclass(frozen=True)
class CalibrationPoint:
    """Aggregated outcome of one calibration setting."""

    label: str
    mean_covering: float
    r_avg_ours: float
    r_avg_baseline: float
    l_avg_ours: float
    l_avg_baseline: float

    @property
    def rate_advantage_pct(self) -> float:
        if self.r_avg_baseline == 0:
            return float("nan")
        return 100.0 * (self.r_avg_ours - self.r_avg_baseline) / self.r_avg_baseline

    @property
    def latency_advantage_pct(self) -> float:
        if self.l_avg_baseline == 0:
            return float("nan")
        return 100.0 * (self.l_avg_baseline - self.l_avg_ours) / self.l_avg_baseline


def parameter_sensitivity(
    labels_and_builders: list[tuple[str, Callable[[int], IDDEInstance]]],
    *,
    reps: int = 3,
    ours: str = "idde-g",
    baseline: str = "cdp",
    seed: int = 0,
) -> list[CalibrationPoint]:
    """Evaluate ``ours`` vs ``baseline`` across custom instance builders.

    Each builder maps a trial seed to an instance; ``reps`` seeds are
    averaged per setting.
    """
    points: list[CalibrationPoint] = []
    for label, builder in labels_and_builders:
        covering: list[float] = []
        r_ours: list[float] = []
        r_base: list[float] = []
        l_ours: list[float] = []
        l_base: list[float] = []
        for rep in range(reps):
            instance = builder(seed + rep)
            covering.append(
                float(np.mean([len(v) for v in instance.scenario.covering_servers]))
            )
            for name, rates, lats in (
                (ours, r_ours, l_ours),
                (baseline, r_base, l_base),
            ):
                s = solve(instance, name, rng=spawn_rng(seed, label, rep, name))
                rates.append(s.r_avg)
                lats.append(s.l_avg_ms)
        points.append(
            CalibrationPoint(
                label=label,
                mean_covering=float(np.mean(covering)),
                r_avg_ours=float(np.mean(r_ours)),
                r_avg_baseline=float(np.mean(r_base)),
                l_avg_ours=float(np.mean(l_ours)),
                l_avg_baseline=float(np.mean(l_base)),
            )
        )
    return points


def _pool_with_radius(radius_range: tuple[float, float], seed: int) -> EuaPool:
    rng = ensure_rng(seed)
    server_xy, radius = place_servers(
        CBD_REGION, 125, rng, radius_range=radius_range
    )
    user_xy = place_users(server_xy, radius, 816, rng)
    return EuaPool(
        server_xy=server_xy,
        radius=radius,
        user_xy=user_xy,
        name=f"calibration-{radius_range[0]:.0f}-{radius_range[1]:.0f}",
    )


def radius_sensitivity(
    radius_ranges: list[tuple[float, float]] | None = None,
    *,
    n: int = 30,
    m: int = 200,
    k: int = 5,
    density: float = 1.0,
    reps: int = 3,
    baseline: str = "cdp",
    seed: int = 0,
) -> list[CalibrationPoint]:
    """Sweep the coverage-radius calibration (the EXPERIMENTS.md deviation).

    Returns one :class:`CalibrationPoint` per radius range, ordered as
    given.  Expect the rate advantage to shrink toward zero as the mean
    covering-set size approaches 1.
    """
    radius_ranges = radius_ranges or [
        (100.0, 150.0),  # raw EUA convention
        (175.0, 250.0),
        (250.0, 350.0),  # this repo's default
        (350.0, 450.0),
    ]

    def builder_for(radius_range: tuple[float, float]) -> Callable[[int], IDDEInstance]:
        def build(trial_seed: int) -> IDDEInstance:
            pool = _pool_with_radius(radius_range, seed)
            scenario = sample_scenario(
                pool, n, m, k, spawn_rng(trial_seed, "calibration", radius_range)
            )
            topology = build_topology(
                n, density, spawn_rng(trial_seed, "calibration-topo", radius_range)
            )
            return IDDEInstance(scenario, topology)

        return build

    settings = [
        (f"{lo:.0f}-{hi:.0f} m", builder_for((lo, hi))) for lo, hi in radius_ranges
    ]
    return parameter_sensitivity(
        settings, reps=reps, baseline=baseline, seed=seed
    )

"""Theoretical performance bounds (Section 3.2–3.3 of the paper).

These functions quantify, for a concrete instance and solver output, the
guarantees of:

* **Theorem 4** — an upper bound on the number of best-response iterations
  ``Y ≤ M (Q_max² − Q_min²) / (2 Q_min)`` with ``Q_j = g_j · p_j``;
* **Theorem 5** — the Price of Anarchy interval for the average data rate,
  ``R_min / R_max ≤ ρ ≤ 1``;
* **Theorems 6–7** — the greedy delivery's latency-reduction guarantee
  ``ΔL(σ) ≥ (1 − N·s_max/ΣA) · (e−1)/(2e) · ΔL(σ*)`` and the induced
  upper bound on the achieved average latency.

They are diagnostics: experiments report them alongside measured values so
the measured behaviour can be checked against theory (tests assert the
measured quantities respect each bound).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..units import seconds_to_ms
from .instance import IDDEInstance

__all__ = [
    "user_signal_strengths",
    "theorem4_iteration_bound",
    "theorem5_poa_interval",
    "greedy_approximation_factor",
    "theorem7_latency_upper_bound_ms",
    "cloud_only_latency_ms",
    "TheoryReport",
    "theory_report",
]


def user_signal_strengths(instance: IDDEInstance) -> np.ndarray:
    """``Q_j = max_{i ∈ V_j} g_{i,j} · p_j`` for every user (0 if uncovered)."""
    engine = instance.new_engine()
    g = np.where(instance.scenario.coverage, engine.gain, 0.0)
    return g.max(axis=0) * instance.scenario.power


def theorem4_iteration_bound(instance: IDDEInstance) -> float:
    """Theorem 4: ``Y ≤ M (Q_max² − Q_min²) / (2 Q_min)``.

    The paper's proof assumes the signal strengths ``Q_j`` are integers:
    every interference sum is then a whole number, so each improving move
    raises the potential by at least ``Q_min``.  Our strengths are floats,
    so we apply the theorem in units of their common measure ``u``, the
    largest value of which every ``Q_j`` is a whole multiple (exact on the
    float values).  In those units the strengths are integers and the
    bound reads ``Y ≤ M (a² − b²) / (2 b)`` with ``a = Q_max/u`` and
    ``b = Q_min/u``, plus the ``M`` initial moves that bring every user in
    from the unallocated state (the paper's accounting starts from a fully
    allocated profile; ours starts empty, per Algorithm 1 line 2).

    When every ``Q_j`` is a whole multiple of ``Q_min`` this is the
    normalised ``M ((Q_max/Q_min)² − 1) / 2 + M``.  Dividing by ``Q_min``
    alone would not bound fractional ratios: one server, one common gain
    and powers 4, 4 and 5 W take 4 moves, more than that form's 3.84.
    Strengths with no coarse common measure (physical gains, continuous
    powers) give a valid but astronomically large bound.

    The theorem rests on Theorem 3's exact potential, which holds on one
    server or under homogeneous gains; elsewhere the game is only
    approximately potential and the number is a reference, not a
    guarantee.  Returns ``inf`` when some user is uncovered
    (``Q_min = 0``); the bound is vacuous there, matching the theorem's
    premise that every user can be allocated.
    """
    q = user_signal_strengths(instance)
    q = q[q > 0] if (q > 0).any() else q
    if len(q) == 0 or q.min() <= 0:
        return float("inf")
    strengths = [Fraction(float(x)) for x in q]
    unit = Fraction(
        math.gcd(*(f.numerator for f in strengths)),
        math.lcm(*(f.denominator for f in strengths)),
    )
    a = max(strengths) / unit
    b = min(strengths) / unit
    m = instance.n_users
    bound = m * (a * a - b * b) / (2 * b) + m
    return float(bound) if bound <= sys.float_info.max else float("inf")


def theorem5_poa_interval(
    instance: IDDEInstance, profile=None
) -> tuple[float, float]:
    """Theorem 5: ``(R_min/R_max, 1.0)`` for the average-rate PoA.

    ``R_min`` is the smallest candidate rate any user could be held to at
    the supplied allocation profile (the equilibrium, when certifying a
    game outcome; the interference-free empty profile when called a
    priori) and ``R_max`` the largest rate cap.  Any equilibrium's average
    rate ``R`` then satisfies ``R_min ≤ R ≤ R_opt ≤ R_max``, giving the
    stated PoA interval.
    """
    scenario = instance.scenario
    if scenario.n_users == 0:
        return (1.0, 1.0)
    engine = instance.new_engine()
    if profile is not None:
        engine.load_profile(profile.server, profile.channel)
    r_min = math.inf
    for j in range(scenario.n_users):
        view = engine.candidates(j)
        if view.servers.size == 0:
            continue
        worst = float(np.where(view.valid, view.rate, np.inf).min())
        r_min = min(r_min, worst)
    r_max = float(scenario.rmax.max())
    if not math.isfinite(r_min) or r_max <= 0:
        return (0.0, 1.0)
    return (max(0.0, min(1.0, r_min / r_max)), 1.0)


def greedy_approximation_factor(instance: IDDEInstance) -> float:
    """Theorems 6–7: ``(1 − N·s_max/ΣA) · (e−1)/(2e)``.

    The guaranteed fraction of the optimal latency *reduction* achieved by
    the Phase 2 greedy.  Clamped at 0 when the worst-case unplaceable mass
    ``N·s_max`` exceeds the total reserved storage (the bound is vacuous).
    """
    scenario = instance.scenario
    total = scenario.total_storage
    if total <= 0 or scenario.n_data == 0:
        return 0.0
    s_max = float(scenario.sizes.max())
    frac = 1.0 - instance.n_servers * s_max / total
    base = (math.e - 1.0) / (2.0 * math.e)
    return max(0.0, frac) * base


def cloud_only_latency_ms(instance: IDDEInstance) -> float:
    """``φ`` normalised per request: the average latency when every request
    is served from the cloud (the greedy's zero point), in ms."""
    zeta = instance.scenario.requests
    total = zeta.sum()
    if total == 0:
        return 0.0
    sizes = instance.scenario.sizes
    cloud = instance.latency_model.cloud_cost
    per_request = (zeta * (sizes[None, :] * cloud)).sum() / total
    return float(seconds_to_ms(per_request))


def theorem7_latency_upper_bound_ms(
    instance: IDDEInstance, l_opt_ms: float
) -> float:
    """Theorem 7's upper bound on the greedy's average latency, given the
    optimal profile's average latency ``l_opt_ms`` (both in ms)."""
    scenario = instance.scenario
    total = scenario.total_storage
    s_max = float(scenario.sizes.max()) if scenario.n_data else 0.0
    ratio = instance.n_servers * s_max / total if total > 0 else 1.0
    e = math.e
    phi = cloud_only_latency_ms(instance)
    return ((e + 1) / (2 * e) + (e - 1) / (2 * e) * ratio) * phi + max(
        0.0, 1.0 - ratio
    ) * (e - 1) / (2 * e) * l_opt_ms


@dataclass(frozen=True)
class TheoryReport:
    """All instance-level theoretical quantities in one bundle."""

    iteration_bound: float
    poa_interval: tuple[float, float]
    greedy_factor: float
    cloud_only_latency_ms: float


def theory_report(instance: IDDEInstance) -> TheoryReport:
    """Compute every theoretical diagnostic for an instance."""
    return TheoryReport(
        iteration_bound=theorem4_iteration_bound(instance),
        poa_interval=theorem5_poa_interval(instance),
        greedy_factor=greedy_approximation_factor(instance),
        cloud_only_latency_ms=cloud_only_latency_ms(instance),
    )

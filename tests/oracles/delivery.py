"""Phase 2 oracle: the literal greedy placement sweep (Algorithm 1, lines 22–26).

Every iteration re-sweeps all K items in Python, rebuilds each item's gain
vector from scratch and keeps the best ratio (Eq. 17) — or absolute gain,
under the A1 ablation — over the stopping threshold.  The production loop
selects lazily from a heap of per-item bounds instead; it must place the
identical replica sequence with bitwise-identical gains and emit the
identical ``delivery.place`` / ``delivery.stop`` events and
``delivery.threshold_rejects`` count.
"""

from __future__ import annotations

import numpy as np

from repro.config import DeliveryConfig
from repro.core.delivery import DeliveryResult
from repro.core.instance import IDDEInstance
from repro.core.profiles import AllocationProfile, DeliveryProfile
from repro.obs.tracer import Tracer, ensure_tracer

from .evaluation import oracle_attached_request_counts

__all__ = ["oracle_delivery"]


def oracle_delivery(
    instance: IDDEInstance,
    alloc: AllocationProfile,
    cfg: DeliveryConfig | None = None,
    *,
    weights: np.ndarray | None = None,
    tracer: Tracer | None = None,
) -> DeliveryResult:
    """The greedy placement of ``alloc``'s demand, one item at a time.

    ``weights`` replaces the attached request counts, as in
    :func:`~repro.core.delivery.greedy_delivery` (the CDP path).
    """
    cfg = cfg or DeliveryConfig()
    tracer = ensure_tracer(tracer)
    n, k = instance.n_servers, instance.n_data
    sizes = instance.scenario.sizes
    pc = instance.latency_model.path_cost
    if weights is None:
        counts = oracle_attached_request_counts(instance, alloc)
    else:
        counts = np.asarray(weights, dtype=float)
    # best[k, i]: current cheapest retrieval (seconds) for item k at server i.
    best = np.tile(instance.latency_model.cloud_cost * sizes[:, None], (1, n))
    residual = instance.scenario.storage.astype(float).copy()
    placed = np.zeros((n, k), dtype=bool)
    stop_threshold = cfg.min_gain_s_per_mb if cfg.ratio_rule else cfg.min_gain_s

    placements: list[tuple[int, int]] = []
    total_gain = 0.0
    while True:
        best_score = stop_threshold
        best_pick: tuple[int, int] | None = None
        best_pick_gain = 0.0
        sweep_rejects = 0
        for kk in range(k):
            s_k = sizes[kk]
            feasible = (~placed[:, kk]) & (residual >= s_k)
            if not feasible.any():
                continue
            # gain[i] = Σ_{i'} counts[kk, i'] · relu(best[kk, i'] − s_k·pc[i, i'])
            improvement = np.maximum(best[kk][None, :] - s_k * pc, 0.0)
            gains = improvement @ counts[kk]
            gains[~feasible] = -1.0
            scores = gains / s_k if cfg.ratio_rule else gains
            i = int(np.argmax(scores))
            if gains[i] > 0.0 and scores[i] > best_score:
                best_score = float(scores[i])
                best_pick = (i, kk)
                best_pick_gain = float(gains[i])
            if tracer.enabled:
                # Every positive-gain candidate the stopping threshold kills
                # (infeasible servers carry gain -1, so positivity implies
                # feasibility).
                sweep_rejects += int(
                    np.count_nonzero((gains > 0.0) & (scores <= stop_threshold))
                )
        if best_pick is None:
            if tracer.enabled:
                tracer.event(
                    "delivery.stop", rejected=sweep_rejects, iterations=len(placements)
                )
                tracer.count("delivery.threshold_rejects", sweep_rejects)
            break
        i, kk = best_pick
        placed[i, kk] = True
        residual[i] -= sizes[kk]
        best[kk] = np.minimum(best[kk], sizes[kk] * pc[i, :])
        placements.append((i, kk))
        total_gain += best_pick_gain
        if tracer.enabled:
            tracer.event(
                "delivery.place", server=i, item=kk, gain_s=best_pick_gain, score=best_score
            )
            tracer.count("delivery.placements")

    return DeliveryResult(
        profile=DeliveryProfile(placed),
        placements=placements,
        total_gain_s=total_gain,
        iterations=len(placements),
    )

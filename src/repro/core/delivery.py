"""Phase 2 of IDDE-G: greedy data delivery (Algorithm 1, lines 22–26).

Each iteration places the replica ``σ_{i,k}`` with the highest ratio of
total latency reduction over consumed storage (Eq. 17), subject to the
per-server storage constraint (Eq. 6), stopping when no feasible placement
still reduces latency.

The marginal-gain evaluation runs entirely in *server space*: because the
retrieval latency of a (user, item) pair depends only on the user's attached
server, per-item request counts are aggregated per attached server once, and
each candidate's gain is a relu-ed ``(N × N) @ (N,)`` product — ``O(N²K)``
per iteration, independent of M.

The loop builds the full ``(K, N)`` gain table up front (tiled over
K-blocks so the ``(B, N, N)`` improvement tensor stays memory-bounded) and
then maintains it *incrementally*: placing ``(i, k)`` changes only
``best[k]`` — so only row ``k`` is recomputed (``O(N²)``) — and server
``i``'s residual — so only column ``i`` of the feasibility mask is
re-derived (``O(K)``).  Per-iteration cost is ~K× below the literal
transcription, which re-sweeps all K items in Python every iteration, with
no approximation: the literal loop lives in the test suite
(``tests/oracles/delivery.py``) as the readable oracle, and the two are
bit-for-bit identical, including argmax tie-breaks and the tracer's
threshold-reject counts (``tests/oracles/test_parity.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import DeliveryConfig
from ..obs.tracer import Tracer, ensure_tracer
from .instance import IDDEInstance
from .profiles import UNALLOCATED, AllocationProfile, DeliveryProfile

__all__ = ["greedy_delivery", "DeliveryResult", "attached_request_counts"]


@dataclass
class DeliveryResult:
    """Outcome of the Phase 2 greedy placement.

    ``iterations`` counts *productive* loop iterations only — the terminal
    sweep that places nothing is excluded, so ``iterations ==
    len(placements)``.
    """

    profile: DeliveryProfile
    placements: list[tuple[int, int]] = field(default_factory=list)
    total_gain_s: float = 0.0
    iterations: int = 0
    wall_time_s: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeliveryResult(replicas={self.profile.n_replicas}, "
            f"gain={self.total_gain_s:.4f}s, iters={self.iterations})"
        )


def attached_request_counts(
    instance: IDDEInstance, alloc: AllocationProfile
) -> np.ndarray:
    """``(K, N)`` float64 count of requests for item ``k`` by users attached
    to server ``i`` (whole numbers; float64 so callers feed it straight into
    the gain matvecs without a per-solve ``(K, N)`` cast).  Unallocated
    users are excluded (replicas cannot help them; they always fetch from
    the cloud)."""
    n, k = instance.n_servers, instance.n_data
    counts = np.zeros((k, n), dtype=np.float64)
    attached = alloc.server
    mask = attached != UNALLOCATED
    if mask.any():
        zeta = instance.scenario.requests[mask]  # (Ma, K)
        servers = attached[mask]
        np.add.at(counts.T, (servers,), zeta)
    return counts


#: Peak size in bytes of one ``(B, N, N)`` improvement-tensor tile in the
#: gain table's initial build; the block height B is derived from
#: it, so metro-scale instances never materialise the full K·N² tensor.
_GAIN_TILE_BYTES = 32 << 20


class _GainTable:
    """The incrementally-maintained ``(K, N)`` gain table.

    ``gains[k, i] = Σ_{i'} counts[k, i'] · relu(best[k, i'] − sizes[k]·pc[i, i'])``

    Incremental-update invariant (the whole correctness argument of the
    loop): a row depends only on ``best[k]``, ``sizes[k]``,
    ``pc`` and ``counts[k]`` — never on ``placed`` or ``residual``, which
    enter the selection through the feasibility mask alone.  Placing
    ``(i, k)`` mutates only ``best[k]``, so :meth:`refresh_row` on that one
    row restores the table to exactly what a from-scratch rebuild would
    produce, bit for bit.

    Bitwise parity with the literal per-item sweep holds because both run
    the identical BLAS matvec per item: the tiled build uses a stacked
    3-D ``np.matmul`` (one gemv per block slice) and the row refresh is
    the literal sweep's expression verbatim.  A plain ``np.einsum`` contraction
    is *not* used — its sum order differs from gemv at the last ulp, which
    would flip argmax tie-breaks.
    """

    def __init__(
        self,
        best: np.ndarray,
        sizes: np.ndarray,
        pc: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self._best = best
        self._sizes = sizes
        self._pc = pc
        self._counts = counts
        k, n = best.shape
        self.gains = np.empty((k, n))
        block = max(1, _GAIN_TILE_BYTES // max(n * n * 8, 1))
        for lo in range(0, k, block):
            blk = slice(lo, min(lo + block, k))
            imp = best[blk, None, :] - sizes[blk, None, None] * pc[None, :, :]
            np.maximum(imp, 0.0, out=imp)
            self.gains[blk] = np.matmul(imp, counts[blk, :, None])[..., 0]

    def refresh_row(self, kk: int) -> None:
        """Recompute row ``kk`` after a placement changed ``best[kk]`` — O(N²)."""
        improvement = np.maximum(
            self._best[kk][None, :] - self._sizes[kk] * self._pc, 0.0
        )
        self.gains[kk] = improvement @ self._counts[kk]


def _run_batched(
    cfg: DeliveryConfig,
    tracer: Tracer,
    sizes: np.ndarray,
    pc: np.ndarray,
    counts: np.ndarray,
    best: np.ndarray,
    residual: np.ndarray,
    placed: np.ndarray,
    stop_threshold: float,
) -> tuple[list[tuple[int, int]], float]:
    """Incremental table-driven greedy loop.

    Selection semantics match the literal per-item sweep exactly: within an
    item, infeasible servers score ``-1`` so ``np.argmax`` picks the
    lowest-index winner on ties; across items, a strict-``>`` scan keeps
    the *first* item attaining the maximum score, which is what row-major
    ``np.argmax`` over the per-item winners returns.
    """
    k = best.shape[0]
    table = _GainTable(best, sizes, pc, counts)
    # feasible[k, i]: server i can still take item k (not placed, fits).
    feasible = (~placed.T) & (residual[None, :] >= sizes[:, None])
    rows = np.arange(k)
    placements: list[tuple[int, int]] = []
    total_gain = 0.0
    while True:
        # Masked (K, N) score table — items whose every server is
        # infeasible become all -1 rows, which never place.
        eff = np.where(feasible, table.gains, -1.0)
        scores = eff / sizes[:, None] if cfg.ratio_rule else eff
        srv = np.argmax(scores, axis=1)
        top_gain = eff[rows, srv]
        top_score = scores[rows, srv]
        valid = (top_gain > 0.0) & (top_score > stop_threshold)
        if tracer.enabled:
            sweep_rejects = int(
                np.count_nonzero((eff > 0.0) & (scores <= stop_threshold))
            )
        if not valid.any():
            if tracer.enabled:
                tracer.event(
                    "delivery.stop", rejected=sweep_rejects, iterations=len(placements)
                )
                tracer.count("delivery.threshold_rejects", sweep_rejects)
            break
        kk = int(np.argmax(np.where(valid, top_score, -np.inf)))
        i = int(srv[kk])
        best_pick_gain = float(top_gain[kk])
        best_score = float(top_score[kk])
        placed[i, kk] = True
        residual[i] -= sizes[kk]
        best[kk] = np.minimum(best[kk], sizes[kk] * pc[i, :])
        placements.append((i, kk))
        total_gain += best_pick_gain
        # Incremental maintenance: the placement touched best[kk] (one row
        # of gains) and residual[i] (one column of feasibility) — nothing
        # else in the table moved.
        table.refresh_row(kk)
        feasible[:, i] = (~placed[i, :]) & (residual[i] >= sizes)
        if tracer.enabled:
            tracer.event(
                "delivery.place",
                server=i,
                item=kk,
                gain_s=best_pick_gain,
                score=best_score,
            )
            tracer.count("delivery.placements")
    return placements, total_gain


def greedy_delivery(
    instance: IDDEInstance,
    alloc: AllocationProfile,
    cfg: DeliveryConfig | None = None,
    *,
    weights: np.ndarray | None = None,
    tracer: Tracer | None = None,
) -> DeliveryResult:
    """Run Algorithm 1's Phase 2 and return the delivery profile.

    Parameters
    ----------
    instance, alloc:
        The problem and the Phase 1 allocation it conditions on.
    cfg:
        ``ratio_rule=True`` applies Eq. (17) (gain per MB, thresholded by
        ``min_gain_s_per_mb``); ``False`` selects by absolute gain in
        seconds (the ablation A1 variant, thresholded by ``min_gain_s``).
    weights:
        Optional ``(K, N)`` demand weights replacing the true attached
        request counts — used by baselines that work from aggregate
        popularity statistics instead of the real attachment (CDP).
    tracer:
        Optional IDDE-Trace tracer recording each accepted placement and
        the terminal sweep's threshold rejections; defaults to the no-op.
    """
    cfg = cfg or DeliveryConfig()
    tracer = ensure_tracer(tracer)
    t0 = time.perf_counter()
    n, k = instance.n_servers, instance.n_data
    sizes = instance.scenario.sizes
    pc = instance.latency_model.path_cost  # (N, N) seconds/MB, cloud-capped
    cloud = instance.latency_model.cloud_cost

    if weights is None:
        counts = attached_request_counts(instance, alloc)  # (K, N) float64
    else:
        counts = np.asarray(weights, dtype=float)
        if counts.shape != (k, n):
            raise ValueError(f"weights must be (K, N) = {(k, n)}, got {counts.shape}")
    # best[k, i]: current cheapest retrieval (seconds) for item k at server i.
    best = np.tile(cloud * sizes[:, None], (1, n))
    residual = instance.scenario.storage.astype(float).copy()
    placed = np.zeros((n, k), dtype=bool)

    # The two selection rules score in different units — seconds saved per
    # MB of storage under Eq. (17), plain seconds under the A1 ablation —
    # so each has its own explicitly-suffixed stopping threshold.
    stop_threshold = cfg.min_gain_s_per_mb if cfg.ratio_rule else cfg.min_gain_s

    with tracer.span(
        "delivery.greedy", servers=n, items=k, ratio_rule=cfg.ratio_rule
    ) as span:
        placements, total_gain = _run_batched(
            cfg, tracer, sizes, pc, counts, best, residual, placed, stop_threshold
        )
        span.set(placements=len(placements), total_gain_s=total_gain)

    return DeliveryResult(
        profile=DeliveryProfile(placed),
        placements=placements,
        total_gain_s=total_gain,
        # Only productive iterations count: the terminal sweep that finds
        # nothing to place is not an iteration of Algorithm 1's loop.
        iterations=len(placements),
        wall_time_s=time.perf_counter() - t0,
    )

"""Phase 2 of IDDE-G: greedy data delivery (Algorithm 1, lines 22–26).

Each iteration places the replica ``σ_{i,k}`` with the highest ratio of
total latency reduction over consumed storage (Eq. 17), subject to the
per-server storage constraint (Eq. 6), stopping when no feasible placement
still reduces latency.

The marginal-gain evaluation runs entirely in *server space*: because the
retrieval latency of a (user, item) pair depends only on the user's attached
server, per-item request counts are aggregated per attached server once, and
each candidate's gain is a relu-ed ``(N × N) @ (N,)`` product — ``O(N²)``
per item, independent of M.

Selection is *lazy* (Minoux-style).  Placing a replica only lowers
``best[k]`` and only shrinks the feasible set, so with non-negative request
counts no candidate's gain or score ever rises: the diminishing-returns
property behind the paper's ``(e−1)/2e`` bound.  Each item's winner (its
best feasible server, gain and score) is therefore an upper bound on its
future score, and the loop keeps the items in a max-heap keyed
``(−score, item)``.  It pops the top item and re-scores it — the one-row
refresh of the gain table if a placement touched that item's row, then one
row argmax — only if the row is stale or its winner server has become
infeasible; otherwise the popped winner is exact and is placed.  A
placement ``(i, k)`` marks row ``k`` stale and clears, in column ``i`` of
the feasibility mask, just the items that no longer fit ``i``'s residual
(found by bisecting a size-sorted index).  No other item is touched.

The heap key reproduces the row-major first-maximum tie-break across items
and the row argmax the lowest-server tie-break within one, so the loop
places exactly the literal transcription's sequence: that loop, which
re-sweeps all K items in Python every iteration, lives in the test suite
(``tests/oracles/delivery.py``) as the readable oracle, and the two are
bit-for-bit identical, including the tracer's threshold-reject counts
(``tests/oracles/test_parity.py``).
"""

from __future__ import annotations

import bisect
import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from ..config import DeliveryConfig
from ..errors import DeliveryError, SolverError
from ..obs.tracer import Tracer, ensure_tracer
from .instance import IDDEInstance
from .profiles import AllocationProfile, DeliveryProfile

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
    the cloud): their one-hot row is all zero.

    One matmul of ζ against the users' one-hot attachment: every product
    is 0 or 1, so the sums are exact integers whatever the summation order.
    """
    attached = alloc.server
    onehot = attached[:, None] == np.arange(instance.n_servers)  # (M, N)
    zeta = instance.scenario.requests  # (M, K)
    return zeta.T.astype(np.float64) @ onehot.astype(np.float64)


#: Peak size in bytes of one ``(B, N, N)`` improvement-tensor tile in the
#: gain table's initial build; the block height B is derived from
#: it, so metro-scale instances never materialise the full K·N² tensor.
_GAIN_TILE_BYTES = 32 << 20


class _GainTable:
    """The ``(K, N)`` gain table, refreshed one row at a time.

    ``gains[k, i] = Σ_{i'} counts[k, i'] · relu(best[k, i'] − sizes[k]·pc[i, i'])``

    A row depends only on ``best[k]``, ``sizes[k]``, ``pc`` and
    ``counts[k]`` — never on ``placed`` or ``residual``, which enter the
    selection through the feasibility mask alone.  Placing ``(i, k)``
    mutates only ``best[k]``, so :meth:`refresh_row` on that one row
    restores the table to exactly what a from-scratch rebuild would
    produce, bit for bit.  ``best[k]`` only falls, so with ``counts ≥ 0``
    a refreshed row is elementwise ≤ the row it replaces (every operation
    on the way — subtract, relu, multiply, add — is monotone in IEEE
    arithmetic): the bound the lazy selection rests on.

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
            # One tile-sized buffer, written in place: a second temporary
            # of this size costs more in allocation than the arithmetic.
            imp = np.multiply(sizes[blk, None, None], pc[None, :, :])
            np.subtract(best[blk, None, :], imp, out=imp)
            np.maximum(imp, 0.0, out=imp)
            self.gains[blk] = np.matmul(imp, counts[blk, :, None])[..., 0]

    def refresh_row(self, kk: int) -> None:
        """Recompute row ``kk`` after a placement changed ``best[kk]`` — O(N²)."""
        improvement = np.maximum(
            self._best[kk][None, :] - self._sizes[kk] * self._pc, 0.0
        )
        self.gains[kk] = improvement @ self._counts[kk]


def _run_lazy(
    cfg: DeliveryConfig,
    tracer: Tracer,
    sizes: np.ndarray,
    pc: np.ndarray,
    counts: np.ndarray,
    best: np.ndarray,
    storage: np.ndarray,
    placed: np.ndarray,
    stop_threshold: float,
) -> tuple[list[tuple[int, int]], float]:
    """Lazy greedy loop over a heap of per-item score bounds.

    Selection semantics match the literal per-item sweep exactly: within an
    item, infeasible servers score ``-1`` so ``np.argmax`` picks the
    lowest-index winner on ties; across items, the heap key
    ``(−score, item)`` pops the *first* item attaining the maximum score,
    which is what row-major ``np.argmax`` over the per-item winners
    returns.  An entry is exact when its row is fresh and its winner still
    feasible (losing a non-winner server cannot move a first maximum that
    is above ``-1``); otherwise it is re-scored, and a re-score above the
    bound it was popped with is a broken invariant (:class:`SolverError`).
    An item that scores invalid never becomes valid again (scores only
    fall and the threshold is ``≥ 0``), so it leaves the heap for good.
    """
    ratio_rule = cfg.ratio_rule
    table = _GainTable(best, sizes, pc, counts)
    gains = table.gains
    # mask[k, i] is +inf while server i can still take item k (not placed,
    # fits) and -1 once it cannot, so ``np.minimum(gains, mask)`` is the
    # masked score table ``np.where(feasible, gains, -1)`` bit for bit
    # (gains are finite and >= 0) at a plain ufunc's cost.
    capacity = storage.astype(float)
    mask = np.where(
        (~placed.T) & (capacity[None, :] >= sizes[:, None]), np.inf, -1.0
    )

    # The one full-table selection: every item's winner, as scalars.
    eff = np.minimum(gains, mask)
    scores = eff / sizes[:, None] if ratio_rule else eff
    winner = scores.argmax(axis=1)
    rows = np.arange(best.shape[0])
    srv = winner.tolist()
    top_gain = eff[rows, winner].tolist()
    top_score = scores[rows, winner].tolist()
    heap = [
        (-score, kk)
        for kk, (gain, score) in enumerate(zip(top_gain, top_score))
        if gain > 0.0 and score > stop_threshold
    ]
    heapq.heapify(heap)

    size_of = sizes.tolist()
    residual = capacity.tolist()
    # Items by size, for the column-i clear after a placement at i.
    by_size = np.argsort(sizes, kind="stable")
    sorted_sizes = sizes[by_size].tolist()
    stale = [False] * best.shape[0]
    reselects = 0
    placements: list[tuple[int, int]] = []
    total_gain = 0.0
    while heap:
        bound, kk = heap[0]
        i = srv[kk]
        if stale[kk] or mask[kk, i] < 0.0:
            if stale[kk]:
                table.refresh_row(kk)
                stale[kk] = False
            eff_row = np.minimum(gains[kk], mask[kk])
            score_row = eff_row / size_of[kk] if ratio_rule else eff_row
            j = int(score_row.argmax())
            gain, score = float(eff_row[j]), float(score_row[j])
            reselects += 1
            if score > -bound:
                raise SolverError(
                    f"delivery item {kk} re-scored {score!r} above its bound "
                    f"{-bound!r}: a gain rose, so lazy selection is unsound"
                )
            srv[kk], top_gain[kk], top_score[kk] = j, gain, score
            if gain > 0.0 and score > stop_threshold:
                heapq.heapreplace(heap, (-score, kk))
            else:
                heapq.heappop(heap)
            continue
        # The top entry is exact: place it.  It stays on the heap with its
        # (now upper-bound) key and is re-scored when next popped.
        gain = top_gain[kk]
        placed[i, kk] = True
        before = residual[i]
        residual[i] = after = before - size_of[kk]
        np.minimum(best[kk], sizes[kk] * pc[i, :], out=best[kk])
        stale[kk] = True
        mask[kk, i] = -1.0
        # Items with after < size <= before no longer fit server i.
        lo = bisect.bisect_right(sorted_sizes, after)
        hi = bisect.bisect_right(sorted_sizes, before)
        if lo < hi:
            mask[by_size[lo:hi], i] = -1.0
        placements.append((i, kk))
        total_gain += gain
        if tracer.enabled:
            tracer.event(
                "delivery.place",
                server=i,
                item=kk,
                gain_s=gain,
                score=top_score[kk],
            )
            tracer.count("delivery.placements")
    if tracer.enabled:
        # The heap is empty only once every entry was re-scored, so every
        # row is fresh and the mask exact: the terminal sweep sees the table
        # the literal loop's last sweep sees.  Only its rejections count.
        eff = np.minimum(gains, mask)
        scores = eff / sizes[:, None] if ratio_rule else eff
        sweep_rejects = int(
            np.count_nonzero((eff > 0.0) & (scores <= stop_threshold))
        )
        tracer.event(
            "delivery.stop", rejected=sweep_rejects, iterations=len(placements)
        )
        tracer.count("delivery.threshold_rejects", sweep_rejects)
        tracer.count("delivery.reselects", reselects)
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
        popularity statistics instead of the real attachment (CDP).  A
        wrong shape, or a negative or non-finite weight, raises
        :class:`~repro.errors.DeliveryError`.
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
            raise DeliveryError(
                f"weights must be (K, N) = {(k, n)}, got {counts.shape}"
            )
        # Lazy selection needs gains that never rise as replicas land,
        # which holds only for finite, non-negative demand.
        if not np.isfinite(counts).all() or (counts < 0.0).any():
            raise DeliveryError("weights must be finite and non-negative")
    # best[k, i]: current cheapest retrieval (seconds) for item k at server i.
    best = np.tile(cloud * sizes[:, None], (1, n))
    placed = np.zeros((n, k), dtype=bool)

    # The two selection rules score in different units — seconds saved per
    # MB of storage under Eq. (17), plain seconds under the A1 ablation —
    # so each has its own explicitly-suffixed stopping threshold.
    stop_threshold = cfg.min_gain_s_per_mb if cfg.ratio_rule else cfg.min_gain_s

    with tracer.span(
        "delivery.greedy", servers=n, items=k, ratio_rule=cfg.ratio_rule
    ) as span:
        placements, total_gain = _run_lazy(
            cfg,
            tracer,
            sizes,
            pc,
            counts,
            best,
            instance.scenario.storage,
            placed,
            stop_threshold,
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

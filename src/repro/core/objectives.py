"""The two IDDE objectives: Eq. (5) average data rate and Eq. (9) average
data delivery latency.

The latency evaluation exploits a structural fact of the model: the latency
of user ``j`` retrieving item ``k`` depends only on the user's *attached
server* ``a_j`` and ``k`` (Eq. 8 minimises over replica origins to the
attached server).  All per-user work therefore collapses into server space:
one ``(N, K)`` table of best retrieval latencies is computed per profile and
users are a gather away.  This is also what makes the Phase 2 greedy's
marginal-gain evaluation ``O(N²K)`` instead of ``O(NMK)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import seconds_to_ms
from .instance import IDDEInstance
from .profiles import UNALLOCATED, AllocationProfile, DeliveryProfile

__all__ = [
    "retrieval_cost_table",
    "per_user_latencies",
    "average_delivery_latency_ms",
    "average_data_rate",
    "Evaluation",
    "evaluate",
    "evaluate_with_latencies",
]

#: Peak size in bytes of one ``(N, N, B)`` tile of the retrieval-cost min.
_TILE_BYTES = 32 << 20


def retrieval_cost_table(
    instance: IDDEInstance, delivery: DeliveryProfile
) -> np.ndarray:
    """``(N, K)`` seconds for a user attached to server ``i`` to retrieve
    item ``k`` under profile ``σ`` (Eq. 8, cloud included).

    Entries never exceed the cloud latency (the latency constraint).

    One masked min over origins: a server that does not hold item ``k``
    offers the cloud's per-MB cost instead of its path cost.  Min is exact,
    so the table equals the per-item sweep's bit for bit.  The
    ``(N, N, B)`` tensor is tiled over K-blocks to stay memory-bounded.
    """
    lm = instance.latency_model
    pc = lm.path_cost  # (N, N) seconds/MB, already cloud-capped
    sizes = instance.scenario.sizes
    n, k = instance.n_servers, instance.n_data
    placed = delivery.placed  # (N, K)
    per_mb = np.empty((n, k))
    block = max(1, _TILE_BYTES // max(n * n * 8, 1))
    for lo in range(0, k, block):
        blk = slice(lo, min(lo + block, k))
        # offer[o, i, b]: per-MB cost of fetching item lo+b at i from origin o.
        offer = np.where(placed[:, None, blk], pc[:, :, None], lm.cloud_cost)
        per_mb[:, blk] = offer.min(axis=0)
    return per_mb * sizes


def per_user_latencies(
    instance: IDDEInstance,
    alloc: AllocationProfile,
    delivery: DeliveryProfile,
) -> np.ndarray:
    """``(M, K)`` seconds: ``L_{j,k}`` for every user and item.

    Entries for items the user does not request are still filled (they are
    masked by ``ζ`` in the averaging); unallocated users pay the cloud
    latency for everything.
    """
    table = retrieval_cost_table(instance, delivery)
    cloud = instance.scenario.sizes * instance.latency_model.cloud_cost
    # An unallocated user's −1 gathers the last row, which the mask discards.
    return np.where((alloc.server != UNALLOCATED)[:, None], table[alloc.server], cloud)


def average_delivery_latency_ms(
    instance: IDDEInstance,
    alloc: AllocationProfile,
    delivery: DeliveryProfile,
) -> float:
    """Eq. (9): request-weighted mean delivery latency, in milliseconds."""
    lat = per_user_latencies(instance, alloc, delivery)
    return _request_weighted_ms(lat, instance.scenario.requests)


def _request_weighted_ms(lat: np.ndarray, zeta: np.ndarray) -> float:
    """Eq. (9) on a :func:`per_user_latencies` table, in milliseconds."""
    total = zeta.sum()
    return seconds_to_ms(float((lat * zeta).sum() / total)) if total else 0.0


def average_data_rate(instance: IDDEInstance, alloc: AllocationProfile) -> float:
    """Eq. (5): mean data rate over all M users, in MB/s."""
    engine = instance.new_engine()
    engine.load_profile(alloc.server, alloc.channel)
    return engine.average_rate()


@dataclass(frozen=True)
class Evaluation:
    """Joint evaluation of one IDDE strategy on both objectives."""

    r_avg: float
    l_avg_ms: float
    rates: np.ndarray
    latencies_ms: np.ndarray
    allocated_users: int
    replicas: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Evaluation(R_avg={self.r_avg:.2f} MB/s, L_avg={self.l_avg_ms:.2f} ms, "
            f"allocated={self.allocated_users}, replicas={self.replicas})"
        )


def evaluate(
    instance: IDDEInstance,
    alloc: AllocationProfile,
    delivery: DeliveryProfile,
) -> Evaluation:
    """Evaluate a full strategy: both objectives plus per-user detail.

    Loading ``alloc`` into a fresh engine checks Eq. (1); storage (Eq. 6)
    is not checked, so an over-full delivery is still scored.
    """
    return evaluate_with_latencies(instance, alloc, delivery)[0]


def evaluate_with_latencies(
    instance: IDDEInstance,
    alloc: AllocationProfile,
    delivery: DeliveryProfile,
) -> tuple[Evaluation, np.ndarray]:
    """:func:`evaluate` plus the :func:`per_user_latencies` table it scored."""
    engine = instance.new_engine()
    engine.load_profile(alloc.server, alloc.channel)
    rates = engine.rates()
    zeta = instance.scenario.requests
    lat = per_user_latencies(instance, alloc, delivery)
    per_user_ms = np.where(
        zeta.any(axis=1),
        seconds_to_ms((lat * zeta).sum(axis=1) / np.maximum(zeta.sum(axis=1), 1)),
        0.0,
    )
    return Evaluation(
        r_avg=float(rates.mean()) if len(rates) else 0.0,
        l_avg_ms=_request_weighted_ms(lat, zeta),
        rates=rates,
        latencies_ms=per_user_ms,
        allocated_users=alloc.n_allocated,
        replicas=delivery.n_replicas,
    ), lat

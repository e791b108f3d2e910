"""Server-space evaluation oracles: the literal per-item and per-user loops.

The production :func:`~repro.core.objectives.retrieval_cost_table` takes one
masked min over replica origins, and
:func:`~repro.core.delivery.attached_request_counts` one one-hot matmul.
Both must equal these transcriptions bit for bit: min is exact, and the
counts are sums of whole numbers.
"""

from __future__ import annotations

import numpy as np

from repro.core.instance import IDDEInstance
from repro.core.profiles import UNALLOCATED, AllocationProfile, DeliveryProfile

__all__ = ["oracle_attached_request_counts", "oracle_retrieval_cost_table"]


def oracle_retrieval_cost_table(
    instance: IDDEInstance, delivery: DeliveryProfile
) -> np.ndarray:
    """``(N, K)`` seconds to retrieve item ``k`` at server ``i`` (Eq. 8),
    one item at a time: the cheapest holder's path cost, or the cloud."""
    pc = instance.latency_model.path_cost
    cloud = instance.latency_model.cloud_cost
    sizes = instance.scenario.sizes
    n, k = instance.n_servers, instance.n_data
    cost = np.empty((n, k))
    for kk in range(k):
        origins = delivery.servers_holding(kk)
        if len(origins):
            per_mb = np.minimum(pc[origins, :].min(axis=0), cloud)
        else:
            per_mb = np.full(n, cloud)
        cost[:, kk] = sizes[kk] * per_mb
    return cost


def oracle_attached_request_counts(
    instance: IDDEInstance, alloc: AllocationProfile
) -> np.ndarray:
    """``(K, N)`` float64 requests for item ``k`` by users attached to
    server ``i``, accumulated user by user; unallocated users count nowhere."""
    counts = np.zeros((instance.n_data, instance.n_servers), dtype=np.float64)
    attached = alloc.server
    mask = attached != UNALLOCATED
    if mask.any():
        np.add.at(counts.T, (attached[mask],), instance.scenario.requests[mask])
    return counts

"""Constraint checkers for the IDDE formulation (Eqs. 1, 6, 8).

Eq. (1) is :func:`~repro.radio.sinr.check_eq1` (behind
``AllocationProfile.validate`` and every engine load), Eq. (6) is
``DeliveryProfile.validate``, Eq. (8) is :func:`check_latency_constraint`;
:func:`check_strategy` runs all three.
"""

from __future__ import annotations

import numpy as np

from ..errors import DeliveryError
from .instance import IDDEInstance
from .objectives import per_user_latencies
from .profiles import AllocationProfile, DeliveryProfile

__all__ = ["check_latency_constraint", "check_strategy"]


def check_latency_constraint(
    instance: IDDEInstance,
    lat: np.ndarray,
    *,
    atol: float = 1e-9,
) -> None:
    """Eq. (8) on a strategy's ``(M, K)`` ``per_user_latencies`` table: no
    retrieval is slower than fetching from the cloud.

    Raises
    ------
    DeliveryError
        If any requested (user, item) pair pays more than the cloud fetch.
    """
    sizes = instance.scenario.sizes
    cloud = instance.latency_model.cloud_cost
    bound = sizes[None, :] * cloud + atol
    zeta = instance.scenario.requests
    violated = (lat > bound) & zeta
    if violated.any():
        j, k = map(int, np.argwhere(violated)[0])
        raise DeliveryError(
            f"user {j} retrieves item {k} in {lat[j, k]:.6f}s, slower than the "
            f"cloud bound {bound[j, k]:.6f}s"
        )


def check_strategy(
    instance: IDDEInstance,
    alloc: AllocationProfile,
    delivery: DeliveryProfile,
) -> None:
    """All feasibility constraints of the IDDE formulation at once."""
    alloc.validate(instance.scenario)
    delivery.validate(instance.scenario)
    check_latency_constraint(instance, per_user_latencies(instance, alloc, delivery))

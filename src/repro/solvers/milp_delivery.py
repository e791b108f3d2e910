"""Exact data-delivery optimisation as a MILP (HiGHS via SciPy).

Problem
-------
Given a fixed user allocation ``α``, choose the delivery profile ``σ``
minimising the total (request-weighted) delivery latency subject to the
per-server storage constraint.  Because a user's retrieval latency depends
only on its *attached server*, demand aggregates into the ``(K, N)``
request-count matrix ``w`` and the model lives entirely in server space:

Variables
    ``σ_{o,k} ∈ {0,1}``     — replica of item ``k`` on server ``o``;
    ``y_{i,k,o} ∈ [0,1]``   — fraction of server ``i``'s demand for item
    ``k`` served from origin ``o`` (``o = N`` encodes the cloud).

Objective
    ``min Σ_{i,k,o} w[k,i] · s_k · pathcost[o,i] · y_{i,k,o}``

Constraints
    ``Σ_o y_{i,k,o} = 1``                 for every demanded ``(i, k)``;
    ``y_{i,k,o} ≤ σ_{o,k}``              for every edge origin ``o``;
    ``Σ_k σ_{o,k} · s_k ≤ A_o``          for every server ``o``.

The ``y`` variables may stay continuous: for any fixed binary ``σ`` the
cost-minimal ``y`` is an indicator of the cheapest available origin, so
the MILP's optimum equals the combinatorial optimum of Eq. (9).

This oracle replaces brute force beyond ~20 decision cells and powers the
greedy-optimality-gap ablation at the paper's full scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.delivery import attached_request_counts
from ..core.instance import IDDEInstance
from ..core.objectives import average_delivery_latency_ms
from ..core.profiles import AllocationProfile, DeliveryProfile
from ..errors import SolverError

__all__ = ["optimal_delivery_milp", "MilpDeliveryResult"]


@dataclass(frozen=True)
class MilpDeliveryResult:
    """Outcome of the exact delivery solve."""

    profile: DeliveryProfile
    l_avg_ms: float
    status: int
    message: str
    mip_gap: float
    n_variables: int
    n_constraints: int


def optimal_delivery_milp(
    instance: IDDEInstance,
    alloc: AllocationProfile,
    *,
    time_limit_s: float | None = None,
    mip_rel_gap: float = 0.0,
) -> MilpDeliveryResult:
    """Solve the Phase 2 subproblem to (certified) optimality.

    Parameters
    ----------
    instance, alloc:
        The problem and the fixed Phase 1 allocation.
    time_limit_s:
        Optional HiGHS wall-clock limit; the incumbent is returned with
        its reported gap when the limit binds.
    mip_rel_gap:
        Relative optimality tolerance (0 = prove optimality).

    Raises
    ------
    SolverError
        If HiGHS terminates without any feasible incumbent (cannot happen
        for this model — ``σ = 0`` is always feasible — except on solver
        failure).
    """
    # scipy is imported here, not at module level: this oracle is the only
    # user of scipy in the package, and importing ``repro`` must not pay
    # for it.
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    n, k = instance.n_servers, instance.n_data
    sizes = instance.scenario.sizes
    storage = instance.scenario.storage
    pc = instance.latency_model.path_cost  # (N, N), cloud-capped
    cloud = instance.latency_model.cloud_cost
    w = attached_request_counts(instance, alloc)  # (K, N) float64

    # Variable layout: first the N*K sigma binaries (o-major: sigma[o, kk]
    # at index o*k + kk), then one y block per demanded (i, kk) pair with
    # N+1 origins each (origin N = cloud).
    n_sigma = n * k
    demanded = [(i, kk) for kk in range(k) for i in range(n) if w[kk, i] > 0]
    n_y = len(demanded) * (n + 1)
    n_vars = n_sigma + n_y

    cost = np.zeros(n_vars)
    integrality = np.zeros(n_vars)
    integrality[:n_sigma] = 1  # sigma binary, y continuous

    lower = np.zeros(n_vars)
    upper = np.ones(n_vars)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    con_lb: list[float] = []
    con_ub: list[float] = []
    row = 0

    def sigma_idx(o: int, kk: int) -> int:
        return o * k + kk

    # Storage constraints: sum_k s_k sigma_{o,k} <= A_o.
    for o in range(n):
        for kk in range(k):
            rows.append(row)
            cols.append(sigma_idx(o, kk))
            vals.append(float(sizes[kk]))
        con_lb.append(0.0)
        con_ub.append(float(storage[o]))
        row += 1

    # Demand and linking constraints per demanded (i, kk).
    for d, (i, kk) in enumerate(demanded):
        base = n_sigma + d * (n + 1)
        weight = w[kk, i] * sizes[kk]
        # Objective coefficients for this block.
        cost[base : base + n] = weight * pc[:, i]
        cost[base + n] = weight * cloud
        # sum_o y = 1.
        for o in range(n + 1):
            rows.append(row)
            cols.append(base + o)
            vals.append(1.0)
        con_lb.append(1.0)
        con_ub.append(1.0)
        row += 1
        # y_{i,k,o} - sigma_{o,k} <= 0 for edge origins.
        for o in range(n):
            rows.append(row)
            cols.append(base + o)
            vals.append(1.0)
            rows.append(row)
            cols.append(sigma_idx(o, kk))
            vals.append(-1.0)
            con_lb.append(-np.inf)
            con_ub.append(0.0)
            row += 1

    a = coo_matrix((vals, (rows, cols)), shape=(row, n_vars))
    constraints = LinearConstraint(a, np.array(con_lb), np.array(con_ub))

    options: dict = {"mip_rel_gap": mip_rel_gap}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)

    res = milp(
        c=cost,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options=options,
    )
    if res.x is None:
        raise SolverError(f"HiGHS returned no incumbent: {res.message}")

    placed = res.x[:n_sigma].reshape(n, k) > 0.5
    profile = DeliveryProfile(placed)
    profile.validate(instance.scenario)
    l_avg = average_delivery_latency_ms(instance, alloc, profile)
    return MilpDeliveryResult(
        profile=profile,
        l_avg_ms=l_avg,
        status=int(res.status),
        message=str(res.message),
        mip_gap=float(getattr(res, "mip_gap", 0.0) or 0.0),
        n_variables=n_vars,
        n_constraints=row,
    )

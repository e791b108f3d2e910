"""Exact optimisation back-ends.

:mod:`repro.solvers.milp_delivery` formulates the Phase 2 data-delivery
subproblem (minimise Eq. 9 subject to the storage constraint Eq. 6, given
a fixed allocation) as a mixed-integer linear program and solves it with
SciPy's HiGHS backend, imported on the first call so that importing
:mod:`repro` loads no scipy — an *exact* oracle that scales far beyond the
brute-force enumerator in :mod:`repro.core.brute_force`, used to measure
the greedy's real optimality gap at paper scale (ablation bench).
"""

from .milp_delivery import MilpDeliveryResult, optimal_delivery_milp

__all__ = ["optimal_delivery_milp", "MilpDeliveryResult"]

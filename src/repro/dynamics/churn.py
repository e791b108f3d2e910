"""User churn: arrivals and departures over epochs.

Beyond movement, real edge populations *churn* — users open the app,
close it, leave the area.  :class:`PoissonChurn` maintains a boolean
active mask over a fixed user universe: each epoch, every active user
departs with probability ``p_depart`` and every inactive user (re)arrives
with probability ``p_arrive``.  The stationary active fraction is
``p_arrive / (p_arrive + p_depart)``.

The mask enters the epoch loop as join/leave events
(:func:`~repro.dynamics.mobility.mobility_batches`);
:meth:`~repro.workload.WorkloadState.scenario` then keeps inactive users'
slots (array shapes never change, so profiles stay aligned) but zeroes
their requests — and the game leaves them unallocated — so they
contribute zero rate and no demand, exactly like the paper's
``α_j = (0,0)`` users.
"""

from __future__ import annotations

import numpy as np

from ..errors import ScenarioError
from ..rng import ensure_rng

__all__ = ["PoissonChurn"]


class PoissonChurn:
    """Memoryless per-epoch arrival/departure process."""

    def __init__(
        self,
        n_users: int,
        rng: np.random.Generator | int | None = None,
        *,
        p_depart: float = 0.05,
        p_arrive: float = 0.20,
        initial_active: float = 1.0,
    ) -> None:
        if n_users < 0:
            raise ScenarioError(f"negative user count {n_users}")
        for name, p in (("p_depart", p_depart), ("p_arrive", p_arrive)):
            if not (0.0 <= p <= 1.0):
                raise ScenarioError(f"{name} must be in [0, 1], got {p}")
        if not (0.0 <= initial_active <= 1.0):
            raise ScenarioError(f"initial_active must be in [0, 1], got {initial_active}")
        self.rng = ensure_rng(rng)
        self.p_depart = p_depart
        self.p_arrive = p_arrive
        self.active = self.rng.random(n_users) < initial_active

    @property
    def n_users(self) -> int:
        return self.active.shape[0]

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def step(self) -> np.ndarray:
        """Advance one epoch; returns the new active mask (a copy)."""
        u = self.rng.random(self.n_users)
        departs = self.active & (u < self.p_depart)
        arrives = ~self.active & (u < self.p_arrive)
        self.active = (self.active & ~departs) | arrives
        return self.active.copy()

    def stationary_fraction(self) -> float:
        """The long-run expected active fraction."""
        total = self.p_arrive + self.p_depart
        if total == 0.0:
            return float(self.active.mean()) if self.n_users else 1.0
        return self.p_arrive / total


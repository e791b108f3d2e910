"""User mobility models.

Both models operate on an ``(M, 2)`` position array and a bounding
:class:`~repro.geometry.Region`, advancing positions by one epoch of
``dt`` seconds per :meth:`step`.  Speeds follow the pedestrian/vehicle
mix customary in edge-computing mobility studies (default 0.5–3 m/s).

* :class:`RandomWaypoint` — each user walks toward a private target at a
  private speed and draws a fresh target on arrival (the classic model;
  produces smooth, persistent trajectories);
* :class:`ConfinedRandomWalk` — i.i.d. Gaussian steps reflected at the
  region boundary (produces jittery, diffusive motion; a harsher test of
  allocation stability).

:func:`mobility_batches` adapts a model (plus optional churn) into the
event batches :meth:`~repro.dynamics.timeline.DynamicSimulation.run_events`
consumes.
"""

from __future__ import annotations

import abc
from typing import Iterator

import numpy as np

from ..errors import ExperimentError, ScenarioError
from ..geometry import Region
from ..rng import ensure_rng
from ..workload.events import EpochBatch, Event, Move, UserJoin, UserLeave
from .churn import PoissonChurn

__all__ = ["MobilityModel", "RandomWaypoint", "ConfinedRandomWalk", "mobility_batches"]


class MobilityModel(abc.ABC):
    """Stateful mobility process over a fixed user population."""

    def __init__(self, positions: np.ndarray, region: Region):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ScenarioError(f"positions must be (M, 2), got {positions.shape}")
        self.region = region
        self.positions = np.clip(
            positions,
            [region.x0, region.y0],
            [region.x1, region.y1],
        )

    @property
    def n_users(self) -> int:
        return self.positions.shape[0]

    @abc.abstractmethod
    def step(self, dt: float) -> np.ndarray:
        """Advance all users by ``dt`` seconds; returns the new ``(M, 2)``
        positions (also stored on the model)."""

    def _clip(self) -> None:
        np.clip(
            self.positions[:, 0], self.region.x0, self.region.x1, out=self.positions[:, 0]
        )
        np.clip(
            self.positions[:, 1], self.region.y0, self.region.y1, out=self.positions[:, 1]
        )


class RandomWaypoint(MobilityModel):
    """Walk to a uniformly random target, then pick another.

    Parameters
    ----------
    speed_range:
        Per-user speeds drawn uniformly (m/s) and kept for the user's
        lifetime.
    """

    def __init__(
        self,
        positions: np.ndarray,
        region: Region,
        rng: np.random.Generator | int | None = None,
        *,
        speed_range: tuple[float, float] = (0.5, 3.0),
    ):
        super().__init__(positions, region)
        lo, hi = speed_range
        if not (0 < lo <= hi):
            raise ScenarioError(f"bad speed_range {speed_range}")
        self.rng = ensure_rng(rng)
        self.speeds = self.rng.uniform(lo, hi, size=self.n_users)
        self.targets = self._draw_targets(np.arange(self.n_users))

    def _draw_targets(self, users: np.ndarray) -> np.ndarray:
        xs = self.rng.uniform(self.region.x0, self.region.x1, size=len(users))
        ys = self.rng.uniform(self.region.y0, self.region.y1, size=len(users))
        fresh = np.column_stack([xs, ys])
        if len(users) == self.n_users:
            return fresh
        targets = self.targets
        targets[users] = fresh
        return targets

    def step(self, dt: float) -> np.ndarray:
        if dt < 0:
            raise ScenarioError(f"negative dt {dt}")
        delta = self.targets - self.positions
        dist = np.linalg.norm(delta, axis=1)
        reach = self.speeds * dt
        arriving = dist <= reach
        moving = ~arriving & (dist > 0)
        # Move the travellers proportionally along their heading.
        scale = np.zeros(self.n_users)
        scale[moving] = reach[moving] / dist[moving]
        self.positions += delta * scale[:, None]
        # Arrivals land exactly on target and redraw.
        self.positions[arriving] = self.targets[arriving]
        if arriving.any():
            self.targets = self._draw_targets(np.flatnonzero(arriving))
        self._clip()
        return self.positions


class ConfinedRandomWalk(MobilityModel):
    """Gaussian steps with reflection at the region boundary."""

    def __init__(
        self,
        positions: np.ndarray,
        region: Region,
        rng: np.random.Generator | int | None = None,
        *,
        sigma: float = 1.5,
    ):
        super().__init__(positions, region)
        if sigma <= 0:
            raise ScenarioError(f"sigma must be > 0, got {sigma}")
        self.rng = ensure_rng(rng)
        #: Per-second displacement scale (m / sqrt(s)).
        self.sigma = sigma

    def step(self, dt: float) -> np.ndarray:
        if dt < 0:
            raise ScenarioError(f"negative dt {dt}")
        step = self.rng.normal(0.0, self.sigma * np.sqrt(max(dt, 0.0)), size=(self.n_users, 2))
        self.positions += step
        # Reflect at the boundary (one bounce is enough for sane sigmas;
        # clip catches pathological steps).
        for axis, lo, hi in ((0, self.region.x0, self.region.x1), (1, self.region.y0, self.region.y1)):
            coord = self.positions[:, axis]
            over = coord > hi
            under = coord < lo
            coord[over] = 2 * hi - coord[over]
            coord[under] = 2 * lo - coord[under]
        self._clip()
        return self.positions


def mobility_batches(
    mobility: MobilityModel,
    epochs: int,
    dt: float,
    churn: PoissonChurn | None = None,
) -> Iterator[EpochBatch]:
    """Event batches for ``epochs`` epochs of ``dt`` seconds each.

    Epoch 0 is the initial solve at the starting positions, so the
    generator yields ``epochs - 1`` batches: each moves every user one
    :meth:`~MobilityModel.step` and, with ``churn``, toggles the users
    whose mask flipped.  Start the simulation from the churn's initial
    mask (``DynamicSimulation(..., active=churn.active)``).
    """
    if epochs < 1:
        raise ExperimentError(f"need at least one epoch, got {epochs}")
    if churn is not None and churn.n_users != mobility.n_users:
        raise ExperimentError(
            f"churn covers {churn.n_users} users, mobility has {mobility.n_users}"
        )
    return _batches(mobility, epochs, dt, churn)


def _batches(
    mobility: MobilityModel, epochs: int, dt: float, churn: PoissonChurn | None
) -> Iterator[EpochBatch]:
    prev_active = churn.active.copy() if churn is not None else None
    for epoch in range(1, epochs):
        t = epoch * dt
        events: list[Event] = [
            Move(t=t, user=j, x=float(x), y=float(y))
            for j, (x, y) in enumerate(mobility.step(dt))
        ]
        if churn is not None:
            active = churn.step()
            for j in np.flatnonzero(active != prev_active):
                cls = UserJoin if active[j] else UserLeave
                events.append(cls(t=t, user=int(j)))
            prev_active = active.copy()
        yield EpochBatch(epoch - 1, (epoch - 1) * dt, t, tuple(events))

"""Streaming workload events and their application to scenario state.

The event vocabulary covers the paper's closing future-work scenario —
"the dynamics of user movements and data migrations" — over a *fixed user
universe* (array shapes never change, so profiles stay index-aligned
across epochs):

* :class:`UserJoin` / :class:`UserLeave` — a user (re)enters or leaves the
  system (the active mask flips; an absent user requests nothing and
  allocates nowhere, the paper's ``α_j = (0,0)`` state);
* :class:`Move` — a user's position changes (absolute coordinates, so a
  replayed trace is exact regardless of what generated it);
* :class:`PopularityShift` — demand migrates across the catalogue: the
  request matrix's item columns are permuted by ``order``
  (``requests[:, order]``), the rank-rotation model of content-popularity
  drift.  The IDDE-U benefit function never reads requests, so a shift
  perturbs only the delivery phase — warm starts survive it untouched.

Events are frozen dataclasses with a float timestamp ``t`` (seconds) and
serialise to one JSON object each (see :mod:`repro.workload.replay`).
:class:`EpochBatch` groups consecutive events into one re-solve epoch;
:class:`WorkloadState` folds batches into the mutable scenario state
(positions, active mask, requests) and projects :class:`~repro.types.Scenario`
snapshots for the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from ..errors import ScenarioError
from ..types import Scenario

__all__ = [
    "Event",
    "UserJoin",
    "UserLeave",
    "Move",
    "PopularityShift",
    "EpochBatch",
    "WorkloadState",
]


@dataclass(frozen=True)
class Event:
    """Base class: one timestamped workload event."""

    t: float

    #: Wire name used by the ``idde-events/1`` JSONL schema.
    kind = "event"

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind, "t": self.t}
        for name in self.__dataclass_fields__:
            if name != "t":
                value = getattr(self, name)
                doc[name] = list(value) if isinstance(value, tuple) else value
        return doc


@dataclass(frozen=True)
class UserJoin(Event):
    """User ``user`` (re)arrives: it becomes active, unallocated."""

    user: int
    kind = "join"


@dataclass(frozen=True)
class UserLeave(Event):
    """User ``user`` departs: inactive, detached, requests nothing."""

    user: int
    kind = "leave"


@dataclass(frozen=True)
class Move(Event):
    """User ``user`` is now at absolute position ``(x, y)`` metres."""

    user: int
    x: float
    y: float
    kind = "move"


@dataclass(frozen=True)
class PopularityShift(Event):
    """Demand rotates across the catalogue: ``requests = requests[:, order]``.

    ``order`` is a permutation of ``range(K)``: new item-column ``k`` takes
    the old column ``order[k]``'s requesters.
    """

    order: tuple[int, ...]
    kind = "shift"


@dataclass(frozen=True)
class EpochBatch:
    """One epoch's worth of events, in timestamp order."""

    index: int
    t_start: float
    t_end: float
    events: tuple[Event, ...]

    @property
    def n_events(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EpochBatch(#{self.index}, [{self.t_start:.1f}, {self.t_end:.1f})s, "
            f"{self.n_events} events)"
        )


class WorkloadState:
    """Mutable scenario state an event stream evolves.

    Holds the *pristine* request matrix (inactive users keep their demand
    rows so a re-arrival restores them); :meth:`scenario` projects the
    solver-facing snapshot with inactive rows zeroed (the paper's
    ``α_j = (0,0)`` users request nothing).
    """

    __slots__ = ("positions", "active", "requests")

    def __init__(
        self,
        positions: np.ndarray,
        active: np.ndarray,
        requests: np.ndarray,
    ) -> None:
        self.positions = np.asarray(positions, dtype=float).copy()
        self.active = np.asarray(active, dtype=bool).copy()
        self.requests = np.asarray(requests, dtype=bool).copy()
        m = self.positions.shape[0]
        if self.positions.shape != (m, 2):
            raise ScenarioError(f"positions must be (M, 2), got {self.positions.shape}")
        if self.active.shape != (m,):
            raise ScenarioError(
                f"active mask shape {self.active.shape} mismatches {m} users"
            )
        if self.requests.ndim != 2 or self.requests.shape[0] != m:
            raise ScenarioError(
                f"requests must be (M, K), got {self.requests.shape}"
            )

    @classmethod
    def from_scenario(
        cls, scenario: Scenario, active: np.ndarray | None = None
    ) -> "WorkloadState":
        """Initial state: the scenario's positions/requests, all-active by
        default (pass the churn mask to start partially populated)."""
        if active is None:
            active = np.ones(scenario.n_users, dtype=bool)
        return cls(scenario.user_xy, active, scenario.requests)

    @property
    def n_users(self) -> int:
        return self.positions.shape[0]

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def apply(self, events: "EpochBatch | Iterator[Event] | tuple[Event, ...]") -> int:
        """Fold events into the state in order; returns how many applied.

        Every event is checked before any is folded (the checks depend
        only on ``n_users`` and ``K``), so a batch holding one bad event
        raises :class:`~repro.errors.ScenarioError` and leaves the state
        untouched.
        """
        batch = tuple(events)
        for ev in batch:
            self._check(ev)
        for ev in batch:
            if isinstance(ev, UserJoin):
                self.active[ev.user] = True
            elif isinstance(ev, UserLeave):
                self.active[ev.user] = False
            elif isinstance(ev, Move):
                self.positions[ev.user, 0] = ev.x
                self.positions[ev.user, 1] = ev.y
            elif isinstance(ev, PopularityShift):
                self.requests = self.requests[:, np.asarray(ev.order, dtype=np.int64)]
        return len(batch)

    def _check(self, ev: Event) -> None:
        if isinstance(ev, (UserJoin, UserLeave, Move)):
            user = ev.user
            if isinstance(user, bool) or not isinstance(user, (int, np.integer)):
                raise ScenarioError(
                    f"event user must be an integer, got {type(user).__name__} {user!r}"
                )
            if not (0 <= user < self.n_users):
                raise ScenarioError(
                    f"event user {user} out of range [0, {self.n_users})"
                )
        elif isinstance(ev, PopularityShift):
            k = self.requests.shape[1]
            try:
                order = np.asarray(ev.order, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                order = np.empty(0, dtype=np.int64)  # rejected just below
            if order.shape != (k,) or not np.array_equal(
                np.sort(order), np.arange(k)
            ):
                raise ScenarioError(
                    f"shift order must be a permutation of range({k}), got {ev.order}"
                )
        else:
            raise ScenarioError(f"unknown event type {type(ev).__name__}")

    def scenario(self, base: Scenario) -> Scenario:
        """Project the solver-facing snapshot onto ``base``'s fixed entities
        (servers, storage, channels, powers, sizes); inactive users' request
        rows are zeroed so they contribute no demand."""
        if base.n_users != self.n_users:
            raise ScenarioError(
                f"state covers {self.n_users} users, scenario has {base.n_users}"
            )
        requests = self.requests.copy()
        requests[~self.active] = False
        return Scenario(
            server_xy=base.server_xy,
            radius=base.radius,
            storage=base.storage,
            channels=base.channels,
            user_xy=self.positions,
            power=base.power,
            rmax=base.rmax,
            sizes=base.sizes,
            requests=requests,
        )

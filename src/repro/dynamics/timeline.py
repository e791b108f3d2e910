"""The dynamic IDDE epoch loop, driven by streaming workload events.

Each epoch consumes one :class:`~repro.workload.EpochBatch` of events
(user joins/leaves, moves, popularity shifts — see
:mod:`repro.workload`), folds it into the scenario state, and re-solves
through the :func:`repro.api.solve` façade — so every epoch composes with
tracing (spans ``timeline.epoch`` / ``workload.batch``), sharding, and
yields a full schema-versioned
:class:`~repro.api.Solution` on its :class:`EpochRecord`.

Mobility models enter through the same loop:
:func:`~repro.dynamics.mobility.mobility_batches` adapts a
:class:`~repro.dynamics.mobility.MobilityModel` plus optional
:class:`~repro.dynamics.churn.PoissonChurn` into that event stream.

Re-solve policies
-----------------
``"warm"``
    Re-enter the IDDE-U game from the previous equilibrium
    (``api.solve(..., warm_start=prev)``; the façade repairs the profile
    first).  The expected production mode: churn-proportional effort,
    certificate still proven on the full instance.
``"cold"``
    Re-solve from scratch every epoch (the static algorithm replayed —
    the paper's implicit baseline for dynamic scenarios).
``"static"``
    Never re-solve: keep the initial strategy, only repairing allocations
    that became infeasible (uncovered users detach and fall back to the
    cloud).  Shows how fast a stale strategy decays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..config import DeliveryConfig, GameConfig
from ..core.instance import IDDEInstance
from ..core.objectives import evaluate
from ..core.profiles import DeliveryProfile
from ..core.repair import repair_allocation
from ..errors import ExperimentError
from ..obs.tracer import Tracer, ensure_tracer
from ..rng import ensure_rng
from ..workload.events import EpochBatch, WorkloadState
from .migration import MigrationPlan, plan_migration

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..api import Solution
    from ..sharding import ShardConfig

__all__ = ["DynamicSimulation", "EpochRecord"]

_POLICIES = ("warm", "cold", "static")


@dataclass(frozen=True)
class EpochRecord:
    """Metrics for one epoch of the dynamic simulation.

    ``r_avg`` follows Eq. (5) — averaged over the full user universe —
    while ``active_users`` lets callers renormalise when churn leaves part
    of the universe inactive (inactive users contribute zero rate, like
    the paper's ``α_j = (0,0)`` state).

    ``reallocated_users`` changes meaning at the boundary: at epoch 0 it
    is the *cold build-up* — ``n_allocated``, every user the initial solve
    placed — while from epoch 1 on it counts users whose (server, channel)
    pair *changed* relative to the previous epoch.  That is why
    :meth:`DynamicSimulation.summarize` excludes epoch 0 from the churn
    statistics.

    ``solution`` carries the full façade :class:`~repro.api.Solution` for
    ``warm``/``cold`` epochs (certificate, config, trace-ready document)
    and is ``None`` for ``static`` epochs, which never re-solve.
    """

    epoch: int
    r_avg: float
    l_avg_ms: float
    game_moves: int
    reallocated_users: int
    uncovered_users: int
    migration: MigrationPlan
    solve_time_s: float
    active_users: int = 0
    n_events: int = 0
    solution: "Solution | None" = None

    @property
    def migration_mb(self) -> float:
        return self.migration.bytes_moved


class DynamicSimulation:
    """Epoch-stepped IDDE over a streaming workload (:meth:`run_events`).

    ``active`` is the initial ``(M,)`` participant mask (all active by
    default); events flip it as users join and leave.
    """

    def __init__(
        self,
        instance: IDDEInstance,
        *,
        policy: str = "warm",
        active: np.ndarray | None = None,
        game: GameConfig | None = None,
        delivery: DeliveryConfig | None = None,
        sharding: "ShardConfig | None" = None,
        tracer: Tracer | None = None,
    ) -> None:
        if policy not in _POLICIES:
            raise ExperimentError(f"policy must be one of {_POLICIES}, got {policy!r}")
        if active is not None:
            active = np.asarray(active, dtype=bool).copy()
            if active.shape != (instance.n_users,):
                raise ExperimentError(
                    f"active mask has shape {active.shape}, instance has "
                    f"{instance.n_users} users"
                )
        self.instance = instance
        self.policy = policy
        self.active = active
        self.game_cfg = game or GameConfig()
        self.delivery_cfg = delivery or DeliveryConfig()
        self.sharding = sharding
        self.tracer = ensure_tracer(tracer)

    # ------------------------------------------------------------------
    def run_events(
        self,
        batches: Iterable[EpochBatch],
        rng: np.random.Generator | int | None = None,
    ) -> list[EpochRecord]:
        """Run the epoch loop over an event-batch stream.

        Epoch 0 is the initial cold solve on the starting state; epoch
        ``i >= 1`` applies batch ``i - 1`` and re-solves under the policy.
        The batch iterable is consumed lazily — a generator of a million
        events runs in bounded memory (records accumulate, events do not).
        """
        from ..api import solve  # local import: repro.api ↔ dynamics layering
        from ..request import SolveRequest

        rng = ensure_rng(rng)
        tracer = self.tracer
        # One base request describes the run; each epoch stamps its own
        # runtime state (warm profile, churn mask, RNG) through
        # with_runtime — the same shape the IDDE-Serve session uses.
        base_request = SolveRequest(
            solver="idde-g",
            game_config=self.game_cfg,
            delivery_config=self.delivery_cfg,
            sharding=self.sharding,
        )
        records: list[EpochRecord] = []
        base = self.instance.scenario
        state = WorkloadState.from_scenario(base, self.active)

        def _instance_at() -> IDDEInstance:
            return IDDEInstance(
                state.scenario(base), self.instance.topology, self.instance.radio
            )

        def _active() -> np.ndarray:
            # Always thread the mask: it may start partial, and the event
            # stream can flip it via UserJoin/UserLeave; an all-True mask is
            # identical to "everyone plays".
            return state.active.copy()

        # Epoch 0: the cold build-up, through the façade like every other.
        instance = _instance_at()
        with tracer.span("timeline.epoch", epoch=0, policy=self.policy) as span:
            sol = solve(
                instance,
                base_request.with_runtime(active=_active(), rng=rng),
                tracer=tracer,
            )
            span.set(moves=sol.game.moves if sol.game else 0, r_avg=sol.r_avg)
        alloc, delivery = sol.allocation, sol.delivery
        empty = DeliveryProfile.empty(instance.n_servers, instance.n_data)
        records.append(
            EpochRecord(
                epoch=0,
                r_avg=sol.r_avg,
                l_avg_ms=sol.l_avg_ms,
                game_moves=sol.game.moves if sol.game else 0,
                reallocated_users=alloc.n_allocated,
                uncovered_users=int((~instance.scenario.covered_users).sum()),
                migration=plan_migration(instance, empty, delivery),
                solve_time_s=sol.wall_time_s,
                active_users=state.n_active,
                n_events=0,
                solution=sol,
            )
        )

        for batch in batches:
            epoch = batch.index + 1
            with tracer.span(
                "timeline.epoch", epoch=epoch, policy=self.policy
            ) as span:
                with tracer.span("workload.batch", events=batch.n_events) as bspan:
                    state.apply(batch)
                    bspan.set(active_users=state.n_active)
                instance = _instance_at()
                active = _active()

                if self.policy == "static":
                    t0 = time.perf_counter()
                    new_alloc, _detached = repair_allocation(instance, alloc, active)
                    solve_time = time.perf_counter() - t0
                    moves = 0
                    new_delivery = delivery
                    new_sol = None
                    ev = evaluate(instance, new_alloc, new_delivery)
                else:
                    new_sol = solve(
                        instance,
                        base_request.with_runtime(
                            warm_start=alloc if self.policy == "warm" else None,
                            active=active,
                            rng=rng,
                        ),
                        tracer=tracer,
                    )
                    new_alloc = new_sol.allocation
                    new_delivery = new_sol.delivery
                    moves = new_sol.game.moves if new_sol.game else 0
                    solve_time = new_sol.wall_time_s
                    ev = new_sol.evaluation

                migration = plan_migration(instance, delivery, new_delivery)
                changed = int(
                    (
                        (new_alloc.server != alloc.server)
                        | (new_alloc.channel != alloc.channel)
                    ).sum()
                )
                span.set(moves=moves, reallocated=changed, r_avg=ev.r_avg)
            records.append(
                EpochRecord(
                    epoch=epoch,
                    r_avg=ev.r_avg,
                    l_avg_ms=ev.l_avg_ms,
                    game_moves=moves,
                    reallocated_users=changed,
                    uncovered_users=int((~instance.scenario.covered_users).sum()),
                    migration=migration,
                    solve_time_s=solve_time,
                    active_users=state.n_active,
                    n_events=batch.n_events,
                    solution=new_sol,
                )
            )
            alloc, delivery = new_alloc, new_delivery

        return records

    # ------------------------------------------------------------------
    @staticmethod
    def summarize(records: list[EpochRecord]) -> dict[str, float]:
        """Aggregate a run into scalar metrics.

        Epoch 0 is excluded from the churn statistics (``mean_realloc``,
        ``mean_moves``, ``mean_migration_mb``, ``mean_solve_time_s``) — it
        is the cold build-up, where ``reallocated_users`` counts every
        placed user rather than epoch-over-epoch change.  A single-record
        run therefore has *no* steady-state sample at all and those
        metrics are NaN, not the cold solve in disguise.
        """
        if not records:
            return {}
        steady = records[1:]
        return {
            "mean_r_avg": float(np.mean([r.r_avg for r in records])),
            "mean_l_avg_ms": float(np.mean([r.l_avg_ms for r in records])),
            "mean_realloc": (
                float(np.mean([r.reallocated_users for r in steady]))
                if steady
                else float("nan")
            ),
            "mean_moves": (
                float(np.mean([r.game_moves for r in steady]))
                if steady
                else float("nan")
            ),
            "mean_migration_mb": (
                float(np.mean([r.migration_mb for r in steady]))
                if steady
                else float("nan")
            ),
            "mean_solve_time_s": (
                float(np.mean([r.solve_time_s for r in steady]))
                if steady
                else float("nan")
            ),
        }

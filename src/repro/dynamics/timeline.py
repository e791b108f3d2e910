"""The dynamic IDDE epoch loop, driven by streaming workload events.

Each epoch consumes one :class:`~repro.workload.EpochBatch` of events
(user joins/leaves, moves, popularity shifts — see
:mod:`repro.workload`).  The solving policies run on an IDDE-Serve
:class:`~repro.serve.SolverSession`, the same loop ``idde serve`` runs:
it folds the batch, projects from the last committed instance, re-solves
through the :func:`repro.api.solve` façade and commits only an answer
whose game certified ε-Nash (``Solution.game.is_nash``, one
``game.certify`` span per solving epoch), so every solving epoch is
certified, composes with tracing (spans ``timeline.epoch`` /
``workload.batch``) and yields a full
schema-versioned :class:`~repro.api.Solution` on its :class:`EpochRecord`.

Mobility models enter through the same loop:
:func:`~repro.dynamics.mobility.mobility_batches` adapts a
:class:`~repro.dynamics.mobility.MobilityModel` plus optional
:class:`~repro.dynamics.churn.PoissonChurn` into that event stream.

Re-solve policies
-----------------
``"warm"``
    Re-enter the IDDE-U game from the previous equilibrium (a session
    whose request says ``warm_start=True``; the façade repairs the
    profile first).  The expected production mode: churn-proportional
    effort, certificate still proven on the full instance.
``"cold"``
    Re-solve from scratch every epoch (a session without ``warm_start``:
    the static algorithm replayed — the paper's implicit baseline for
    dynamic scenarios).
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
from ..workload.events import EpochBatch
from .migration import MigrationPlan, plan_migration

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..api import Solution

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

    ``solution`` carries the session's certified
    :class:`~repro.api.Solution` for epoch 0 and every ``warm``/``cold``
    epoch (certificate, config, trace-ready document) and is ``None`` for
    ``static`` epochs, which never re-solve.
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
        self.tracer = ensure_tracer(tracer)

    # ------------------------------------------------------------------
    def run_events(
        self,
        batches: Iterable[EpochBatch],
        rng: int | None = None,
    ) -> list[EpochRecord]:
        """Run the epoch loop over an event-batch stream.

        Epoch 0 is the initial cold solve on the starting state; epoch
        ``i >= 1`` applies batch ``i - 1`` and re-solves under the policy.
        ``rng`` is the integer seed (``None`` means 0) rooting the
        per-epoch streams ``spawn_rng(rng, "serve", epoch)``.  The batch
        iterable is consumed lazily — a generator of a million events runs
        in bounded memory (records accumulate, events do not).
        """
        from ..request import SolveRequest
        from ..serve.session import SolverSession  # serve sits above dynamics

        tracer = self.tracer
        # The IDDE-Serve session runs every solving epoch: it folds the
        # batch, projects from the last committed instance, re-solves
        # (warm only under warm_start=True) and commits only an answer its
        # game certified.
        session = SolverSession(
            self.instance,
            SolveRequest(
                solver="idde-g",
                game_config=self.game_cfg,
                delivery_config=self.delivery_cfg,
                warm_start=True if self.policy == "warm" else None,
                active=self.active,
                rng=rng,
            ),
            tracer=tracer,
        )
        with tracer.span("timeline.epoch", epoch=0, policy=self.policy) as span:
            sol = session.solve()
            span.set(moves=sol.game.moves, r_avg=sol.r_avg)
        instance, state = session.served, session.state
        alloc, delivery = sol.allocation, sol.delivery
        empty = DeliveryProfile.empty(instance.n_servers, instance.n_data)
        records = [
            EpochRecord(
                epoch=0,
                r_avg=sol.r_avg,
                l_avg_ms=sol.l_avg_ms,
                game_moves=sol.game.moves,
                reallocated_users=alloc.n_allocated,
                uncovered_users=int((~instance.scenario.covered_users).sum()),
                migration=plan_migration(instance, empty, delivery),
                solve_time_s=sol.wall_time_s,
                active_users=state.n_active,
                n_events=0,
                solution=sol,
            )
        ]

        for batch in batches:
            epoch = batch.index + 1
            with tracer.span(
                "timeline.epoch", epoch=epoch, policy=self.policy
            ) as span:
                if self.policy == "static":
                    # Never re-solve, only repair.  The session is done
                    # after epoch 0, so its state is ours to fold.
                    with tracer.span("workload.batch", events=batch.n_events) as bspan:
                        state.apply(batch)
                        bspan.set(active_users=state.n_active)
                    instance = instance.project(state)
                    t0 = time.perf_counter()
                    new_alloc, _detached = repair_allocation(instance, alloc, state.active)
                    solve_time = time.perf_counter() - t0
                    new_sol, new_delivery, moves = None, delivery, 0
                    ev = evaluate(instance, new_alloc, new_delivery)
                else:
                    new_sol = session.apply_events(batch)
                    instance = session.served
                    new_alloc, new_delivery = new_sol.allocation, new_sol.delivery
                    moves = new_sol.game.moves
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

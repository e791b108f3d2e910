"""The solve result :class:`Solution` and the solver interface.

Every approach in this package — IDDE-G and all baselines — implements
:class:`Solver` and returns a :class:`Solution`: the pair ``(α, σ)``
validated against the instance constraints, the joint evaluation of both
objectives, timing and, for IDDE-G, the typed game and delivery results.
:meth:`Solution.to_dict` is the ``idde-solution/5`` document, which states
each fact once.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..obs.tracer import Tracer, ensure_tracer
from ..request import SolveRequest, json_scalarish
from ..rng import ensure_rng
from .constraints import check_latency_constraint
from .delivery import DeliveryResult
from .game import GameResult
from .instance import IDDEInstance
from .objectives import Evaluation, evaluate_with_latencies
from .profiles import AllocationProfile, DeliveryProfile

__all__ = ["SOLUTION_SCHEMA", "Solution", "Solver"]

SOLUTION_SCHEMA = "idde-solution/5"


@dataclass(frozen=True)
class Solution:
    """One solver run on one instance, with every layer's result attached.

    ``game`` and ``delivery_result`` are populated for the two-phase
    IDDE-G solver and ``None`` for baselines that have no such phases;
    ``evaluation`` and the headline metrics are always present.
    ``extras`` holds only what no typed field carries (a baseline's search
    counters, the warm-start repair's detached count).  ``request`` and
    ``config`` are the run description :func:`repro.api.solve` executed
    (empty for a bare :meth:`Solver.solve`).
    """

    solver: str
    allocation: AllocationProfile
    delivery: DeliveryProfile
    evaluation: Evaluation
    wall_time_s: float
    config: dict[str, Any] = field(default_factory=dict)
    game: GameResult | None = None
    delivery_result: DeliveryResult | None = None
    extras: dict[str, Any] = field(default_factory=dict)
    request: SolveRequest | None = None

    @property
    def r_avg(self) -> float:
        """Objective #1: average data rate over all users (MB/s)."""
        return self.evaluation.r_avg

    @property
    def l_avg_ms(self) -> float:
        """Objective #2: request-weighted average retrieval latency (ms)."""
        return self.evaluation.l_avg_ms

    @property
    def warm_detached(self) -> int | None:
        """Users the warm-start repair detached, or ``None`` on cold solves."""
        detached = self.extras.get("warm_detached")
        return int(detached) if detached is not None else None

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready ``idde-solution/5`` document.

        Surfaces every field of the typed results — including the ε-Nash
        certificate (``game.effective_epsilon``) and the move-capped
        player list — plus the ``idde-request/5`` document of the request
        that produced it (serialised leniently: a live warm-start object
        degrades to its boolean presence, a live generator to a null
        seed).
        """
        doc: dict[str, Any] = {
            "schema": SOLUTION_SCHEMA,
            "solver": self.solver,
            "r_avg": self.evaluation.r_avg,
            "l_avg_ms": self.evaluation.l_avg_ms,
            "wall_time_s": self.wall_time_s,
            "allocated_users": int(self.evaluation.allocated_users),
            "replicas": int(self.evaluation.replicas),
            "config": dict(self.config),
            "request": None if self.request is None else self.request.to_dict(lenient=True),
        }
        game, delivered = self.game, self.delivery_result
        doc["game"] = None if game is None else {
            "rounds": game.rounds,
            "moves": game.moves,
            "converged": game.converged,
            "is_nash": game.is_nash,
            "effective_epsilon": game.effective_epsilon,
            "capped_users": list(game.capped_users),
            "wall_time_s": game.wall_time_s,
        }
        doc["delivery"] = None if delivered is None else {
            "iterations": delivered.iterations,
            "placements": [list(p) for p in delivered.placements],
            "total_gain_s": delivered.total_gain_s,
            "wall_time_s": delivered.wall_time_s,
        }
        doc["extras"] = {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in self.extras.items()
            if json_scalarish(v)
        }
        return doc

    def summary(self) -> str:
        """One human-readable line per run (the CLI table row source)."""
        parts = [
            f"{self.solver}: R_avg={self.r_avg:.2f} MB/s",
            f"L_avg={self.l_avg_ms:.2f} ms",
            f"t={self.wall_time_s:.3f}s",
            f"allocated={self.evaluation.allocated_users}",
            f"replicas={self.evaluation.replicas}",
        ]
        if self.game is not None:
            nash = "nash" if self.game.is_nash else "no-cert"
            parts.append(
                f"game={self.game.rounds}r/{self.game.moves}m ({nash}, "
                f"eps={self.game.effective_epsilon:.1e})"
            )
        return "  ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Solution({self.summary()})"


class Solver(abc.ABC):
    """Abstract IDDE solver.

    Subclasses implement :meth:`_solve` returning the profile pair; the
    public :meth:`solve` wraps it with timing, validation and objective
    evaluation so every solver is measured identically (this is how the
    computation-time figure, Fig. 7, is produced).
    """

    #: Human-readable solver name used in reports and figures.
    name: str = "abstract"

    @abc.abstractmethod
    def _solve(
        self, instance: IDDEInstance, rng: np.random.Generator
    ) -> tuple[
        AllocationProfile | GameResult,
        DeliveryProfile | DeliveryResult,
        dict[str, Any],
    ]:
        """Produce ``(α, σ, extras)`` for the instance.

        A two-phase solver returns its :class:`GameResult` for α and its
        :class:`DeliveryResult` for σ; the :class:`Solution` then carries
        them as ``game`` and ``delivery_result``.
        """

    def solve(
        self,
        instance: IDDEInstance,
        rng: np.random.Generator | int | None = None,
        *,
        tracer: Tracer | None = None,
    ) -> Solution:
        """Run the solver, check the result against the instance
        constraints, and evaluate objectives.

        ``tracer`` scopes the spans this wrapper records; the timed
        ``wall_time_s`` region is :meth:`_solve` alone (the constraint
        checks and the evaluation are outside it, in one span).
        """
        rng = ensure_rng(rng)
        tracer = ensure_tracer(tracer)
        t0 = time.perf_counter()
        with tracer.span("solver.solve", solver=self.name):
            first, second, extras = self._solve(instance, rng)
        wall = time.perf_counter() - t0
        game, alloc = (first, first.profile) if isinstance(first, GameResult) else (None, first)
        delivered, delivery = (
            (second, second.profile) if isinstance(second, DeliveryResult) else (None, second)
        )
        # One pass checks and scores: Eq. (6) on the delivery, Eq. (8) on
        # the table it scored.  Eq. (1) was checked where the rates come
        # from: the game's certificate reload, or the evaluation's engine
        # load for a solver without a game.
        with tracer.span("solver.evaluate"):
            delivery.validate(instance.scenario)
            ev, lat = evaluate_with_latencies(
                instance, alloc, delivery, rates=None if game is None else game.rates
            )
            check_latency_constraint(instance, lat)
        return Solution(
            solver=self.name,
            allocation=alloc,
            delivery=delivery,
            evaluation=ev,
            wall_time_s=wall,
            game=game,
            delivery_result=delivered,
            extras=extras,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

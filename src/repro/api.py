"""The public solving façade: :func:`solve` and the unified :class:`Solution`.

Every front-end — the ``idde`` CLI, the experiment harness, the streaming
replay loop, the IDDE-Serve daemon, notebook users — reaches the solvers
through one call, and one *object* describes the run everywhere: the
schema-versioned :class:`~repro.request.SolveRequest` (``idde-request/3``,
also the daemon's wire format)::

    from repro.api import solve
    from repro.request import SolveRequest

    sol = solve(instance, SolveRequest(solver="idde-g",
                game_config=GameConfig(schedule="best-gain-winner"), rng=0))
    sol.to_dict()   # the schema-versioned ``idde-solution/3`` document

A solver name plus request fields builds the same request::

    sol = solve(instance, "idde-g", tracer=RecordingTracer(), rng=0)

:class:`Solution` unifies what used to live in three places — the
:class:`~repro.core.game.GameResult` (rounds, moves, the ε-Nash
certificate), the :class:`~repro.core.delivery.DeliveryResult` (placements,
latency gain), and the joint :class:`~repro.core.objectives.Evaluation` —
without re-running any phase: the solver stashes the full result objects in
``extras`` and this module lifts them out.  The solution document carries
the request that produced it, and the typed ``extras`` accessor
:attr:`Solution.warm_detached` replaces dict-key spelunking.
:func:`load_solution_document` reads ``idde-solution/3`` only (see
docs/SERVING.md for the schema history).

Solver names resolve through the :mod:`repro.baselines` registry, so
unknown names fail with a did-you-mean
:class:`~repro.errors.SolverLookupError`, and every solver is built by
:func:`~repro.baselines.build_solver`, so ``solver_options`` its
constructor does not accept fail with a
:class:`~repro.errors.ConfigurationError`.  Tracing threads through every
layer via the shared :class:`~repro.obs.tracer.Tracer` (no-op by default —
observability is execution context, not part of the request).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .baselines import build_solver, resolve_solver_name
from .core.delivery import DeliveryResult
from .core.game import GameResult
from .core.instance import IDDEInstance
from .core.objectives import Evaluation
from .core.profiles import AllocationProfile, DeliveryProfile
from .core.repair import repair_allocation
from .errors import ConfigurationError
from .obs.tracer import Tracer, ensure_tracer
from .request import SolveRequest, json_scalarish
from .rng import ensure_rng

__all__ = [
    "SOLUTION_SCHEMA",
    "Solution",
    "load_solution_document",
    "solve",
]

SOLUTION_SCHEMA = "idde-solution/3"


@dataclass(frozen=True)
class Solution:
    """One solver run on one instance, with every layer's result attached.

    ``game`` and ``delivery_result`` are populated for the two-phase
    IDDE-G solver and ``None`` for baselines that have no such phases;
    ``evaluation`` and the headline metrics are always present.
    ``request`` is the :class:`~repro.request.SolveRequest` the façade
    executed (``None`` only for solutions built by hand).
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

    # ------------------------------------------------------------------
    # typed extras accessors
    # ------------------------------------------------------------------
    @property
    def warm_detached(self) -> int | None:
        """Users the warm-start repair detached, or ``None`` on cold solves."""
        detached = self.extras.get("warm_detached")
        return int(detached) if detached is not None else None

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready ``idde-solution/3`` document.

        Surfaces every field reachable from the underlying results —
        including the ε-Nash certificate (``effective_epsilon``), the
        move-capped player list, and the schedule that produced the
        run — plus the ``idde-request/3`` document of the request that
        produced it (serialised leniently: a live warm-start object
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
            "request": (
                self.request.to_dict(lenient=True)
                if self.request is not None
                else None
            ),
        }
        if self.game is not None:
            doc["game"] = {
                "rounds": self.game.rounds,
                "moves": self.game.moves,
                "converged": self.game.converged,
                "is_nash": self.game.is_nash,
                "effective_epsilon": self.game.effective_epsilon,
                "capped_users": list(self.game.capped_users),
                "move_count": len(self.game.move_log),
                "wall_time_s": self.game.wall_time_s,
            }
        else:
            doc["game"] = None
        if self.delivery_result is not None:
            doc["delivery"] = {
                "iterations": self.delivery_result.iterations,
                "placements": [list(p) for p in self.delivery_result.placements],
                "total_gain_s": self.delivery_result.total_gain_s,
                "wall_time_s": self.delivery_result.wall_time_s,
            }
        else:
            doc["delivery"] = None
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


def load_solution_document(doc: Mapping[str, Any]) -> dict[str, Any]:
    """Validate an ``idde-solution/3`` document and return a copy of it.

    Any other schema tag, a non-object, or a document missing a required
    key fails with :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(doc, Mapping):
        raise ConfigurationError(
            f"solution document must be a JSON object, got {type(doc).__name__}"
        )
    schema = doc.get("schema")
    if schema != SOLUTION_SCHEMA:
        raise ConfigurationError(
            f"unsupported solution schema {schema!r}; this build reads "
            f"{SOLUTION_SCHEMA!r}"
        )
    missing = [
        key
        for key in ("solver", "r_avg", "l_avg_ms", "wall_time_s", "config")
        if key not in doc
    ]
    if missing:
        raise ConfigurationError(
            f"solution document is missing required key(s) {missing}"
        )
    return dict(doc)


def solve(
    instance: IDDEInstance,
    solver: "str | SolveRequest" = "idde-g",
    *,
    tracer: Tracer | None = None,
    **fields: Any,
) -> Solution:
    """Solve one instance as one :class:`~repro.request.SolveRequest` describes.

    ``solver`` is either a request, run as is, or a registry name
    (``"idde-g"``, ``"idde-ip"``, ``"saa"``, ``"cdp"``, ``"dup-g"``,
    ``"random"``, ``"nearest"``; case-insensitive), which runs
    ``SolveRequest(solver=solver, **fields)`` — the request documents every
    field.  A request plus any field raises
    :class:`~repro.errors.ConfigurationError`: the request is the single
    source of truth.  ``tracer`` is execution context, not part of the
    request, and composes with both forms.
    """
    if isinstance(solver, SolveRequest):
        if fields:
            raise ConfigurationError(
                f"solve() got both a SolveRequest and field(s) {sorted(fields)}; "
                "the request object is the single source of truth — use "
                "dataclasses.replace / SolveRequest.with_runtime"
            )
        request = solver
    else:
        request = SolveRequest(solver=solver, **fields)
    tracer = ensure_tracer(tracer)
    name = resolve_solver_name(request.solver)
    opts = dict(request.solver_options)
    warm_start = request.warm_start
    if warm_start is True:
        raise ConfigurationError(
            "warm_start=True is the wire sentinel for 'use the serving "
            "session's resident solution'; a direct solve needs the actual "
            "prior Solution or AllocationProfile"
        )
    active = request.active
    warm_detached: int | None = None
    fixed: dict[str, Any] = {}
    if name == "idde-g":
        initial: AllocationProfile | None = None
        if warm_start is not None:
            prior = (
                warm_start.allocation
                if isinstance(warm_start, Solution)
                else warm_start
            )
            with tracer.span("api.warm_start") as span:
                initial, warm_detached = repair_allocation(instance, prior, active)
                span.set(
                    detached=warm_detached,
                    carried=int(initial.allocated.sum()),
                )
        fixed = dict(
            game=request.game_config,
            delivery=request.delivery_config,
            tracer=tracer,
            initial=initial,
            active=active,
        )
        taken = sorted(set(opts) & set(fixed))
        if taken:
            raise ConfigurationError(
                f"solver_options may not set {taken}: the request sets them"
            )
    else:
        if request.game_config is not None or request.delivery_config is not None:
            raise ConfigurationError(
                f"game_config/delivery_config apply only to 'idde-g'; "
                f"solver {name!r} has no game or greedy-delivery phase"
            )
        if warm_start is not None or active is not None:
            raise ConfigurationError(
                f"warm_start/active apply only to 'idde-g'; solver {name!r} "
                f"has no game to re-enter"
            )
        if name == "idde-ip" and request.ip_time_budget_s is not None:
            opts.setdefault("time_budget_s", request.ip_time_budget_s)
    s = build_solver(name, **fixed, **opts)

    config: dict[str, Any] = {"solver": name}
    if name == "idde-g":
        gc, dc = s.game_cfg, s.delivery_cfg
        config.update(
            schedule=gc.schedule,
            epsilon=gc.epsilon,
            max_rounds=gc.max_rounds,
            ratio_rule=dc.ratio_rule,
        )
        config["warm_start"] = warm_start is not None
        if active is not None:
            config["active_users"] = int(np.asarray(active, dtype=bool).sum())
    elif name == "idde-ip":
        config["time_budget_s"] = float(opts.get("time_budget_s", 10.0))

    rng = ensure_rng(request.rng)
    with tracer.span("api.solve", solver=s.name) as span:
        strategy = s.solve(instance, rng, validate=request.validate, tracer=tracer)
        span.set(r_avg=strategy.r_avg, l_avg_ms=strategy.l_avg_ms)

    extras = dict(strategy.extras)
    if warm_detached is not None:
        extras["warm_detached"] = warm_detached
    evaluation: Evaluation = strategy.evaluation
    game: GameResult | None = extras.pop("game_result", None)
    delivery_result: DeliveryResult | None = extras.pop("delivery_result", None)
    return Solution(
        solver=strategy.solver,
        allocation=strategy.allocation,
        delivery=strategy.delivery,
        evaluation=evaluation,
        wall_time_s=strategy.wall_time_s,
        config=config,
        game=game,
        delivery_result=delivery_result,
        extras=extras,
        request=request,
    )

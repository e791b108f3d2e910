"""The public solving façade: :func:`solve` and the :class:`Solution` it returns.

Every front-end — the ``idde`` CLI, the experiment harness, the streaming
replay loop, the IDDE-Serve daemon, notebook users — reaches the solvers
through one call, and one *object* describes the run everywhere: the
schema-versioned :class:`~repro.request.SolveRequest` (``idde-request/5``,
also the daemon's wire format)::

    from repro.api import solve
    from repro.request import SolveRequest

    sol = solve(instance, SolveRequest(solver="idde-g",
                game_config=GameConfig(schedule="best-gain-winner"), rng=0))
    sol.to_dict()   # the schema-versioned ``idde-solution/5`` document

A solver name plus request fields builds the same request::

    sol = solve(instance, "idde-g", tracer=RecordingTracer(), rng=0)

:class:`~repro.core.strategy.Solution` is the one result type from solver
to wire: the solver returns it with its typed
:class:`~repro.core.game.GameResult`,
:class:`~repro.core.delivery.DeliveryResult` and joint
:class:`~repro.core.objectives.Evaluation` attached, and this façade only
stamps the request, the resolved config and the warm-start repair's
detached count onto it.  :func:`load_solution_document` reads
``idde-solution/5`` only (see docs/SERVING.md for the schema history).

Solver names resolve through the :mod:`repro.baselines` registry, so
unknown names fail with a did-you-mean
:class:`~repro.errors.SolverLookupError`, and every solver is built by
:func:`~repro.baselines.build_solver`, so ``solver_options`` its
constructor does not accept or rejects fail with a
:class:`~repro.errors.ConfigurationError`.  Tracing threads through every
layer via the shared :class:`~repro.obs.tracer.Tracer` (no-op by default —
observability is execution context, not part of the request).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from dataclasses import replace
from typing import Any, Mapping

import numpy as np

from .baselines import build_solver, resolve_solver_name
from .core.instance import IDDEInstance
from .core.profiles import AllocationProfile
from .core.repair import repair_allocation
from .core.strategy import SOLUTION_SCHEMA, Solution
from .errors import ConfigurationError
from .obs.tracer import Tracer, ensure_tracer
from .request import SolveRequest
from .rng import ensure_rng

__all__ = [
    "SOLUTION_SCHEMA",
    "Solution",
    "load_solution_document",
    "solve",
]


def load_solution_document(doc: Mapping[str, Any]) -> dict[str, Any]:
    """Validate an ``idde-solution/5`` document and return a copy of it.

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
    field, and a field it does not have raises
    :class:`~repro.errors.ConfigurationError` naming the known ones.  A
    request plus any field raises
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
        known = sorted(f.name for f in dataclass_fields(SolveRequest))
        unknown = sorted(set(fields) - set(known))
        if unknown:
            raise ConfigurationError(
                f"solve() got unknown SolveRequest field(s) {unknown}; "
                f"known fields: {known}"
            )
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
        config["time_budget_s"] = float(s.time_budget_s)

    rng = ensure_rng(request.rng)
    with tracer.span("api.solve", solver=s.name) as span:
        solution = s.solve(instance, rng, tracer=tracer)
        span.set(r_avg=solution.r_avg, l_avg_ms=solution.l_avg_ms)

    extras = solution.extras
    if warm_detached is not None:
        extras = {**extras, "warm_detached": warm_detached}
    return replace(solution, config=config, extras=extras, request=request)

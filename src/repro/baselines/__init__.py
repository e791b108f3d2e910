"""Benchmark approaches from Section 4.1, plus extra ablation solvers.

* :class:`~repro.baselines.idde_ip.IddeIP` — time-capped joint search
  standing in for the paper's CPLEX CP Optimizer run (100 s cap);
* :class:`~repro.baselines.saa.SAA` — sample-average-approximation
  per-server placement (Ning et al. [21] style);
* :class:`~repro.baselines.cdp.CDP` — centralised one-pass greedy
  placement by absolute latency reduction (Liu et al. [16] style);
* :class:`~repro.baselines.dup_g.DupG` — server-granularity allocation
  game without edge collaboration (Xia et al. [33] style);
* :mod:`~repro.baselines.naive` — random / nearest-server strawmen used
  by the ablation benches.

:func:`default_solvers` returns the paper's five-approach line-up in
figure order.  Every solver, including the one the :func:`repro.api.solve`
façade runs, is built by :func:`build_solver`: unknown names raise
:class:`~repro.errors.SolverLookupError` with a did-you-mean suggestion
(:func:`resolve_solver_name`), and keywords a solver's constructor does
not accept or rejects raise :class:`~repro.errors.ConfigurationError`
naming them.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Any

from ..core.idde_g import IddeG
from ..core.strategy import Solver
from ..errors import ConfigurationError, SolverLookupError
from ..request import json_scalarish
from .cdp import CDP
from .dup_g import DupG
from .idde_ip import IddeIP
from .naive import NearestNeighbor, RandomSolver
from .saa import SAA

__all__ = [
    "Solver",
    "IddeIP",
    "IddeG",
    "SAA",
    "CDP",
    "DupG",
    "RandomSolver",
    "NearestNeighbor",
    "CANONICAL_SOLVERS",
    "resolve_solver_name",
    "build_solver",
    "default_solvers",
]

#: Registry name → solver class.  Aliases ("dupg") map to the same class.
_FACTORIES: dict[str, type[Solver]] = {
    "idde-ip": IddeIP,
    "idde-g": IddeG,
    "saa": SAA,
    "cdp": CDP,
    "dup-g": DupG,
    "dupg": DupG,
    "random": RandomSolver,
    "nearest": NearestNeighbor,
}

#: The paper's five approaches, registry-named, in the order of Figs. 3–7.
CANONICAL_SOLVERS: tuple[str, ...] = ("idde-ip", "idde-g", "saa", "cdp", "dup-g")


def resolve_solver_name(name: str) -> str:
    """Normalise a solver name to its registry key.

    Raises
    ------
    SolverLookupError
        For unknown names, with a did-you-mean suggestion when a close
        registry key exists.  (Still a :class:`KeyError`, for callers of
        the pre-registry lookup.)
    """
    key = str(name).strip().lower()
    if key in _FACTORIES:
        return key
    close = difflib.get_close_matches(key, _FACTORIES, n=1, cutoff=0.5)
    hint = f" — did you mean {close[0]!r}?" if close else ""
    raise SolverLookupError(
        f"unknown solver {name!r}{hint} (choose from {sorted(_FACTORIES)})"
    )


def build_solver(name: str, /, **kwargs: Any) -> Solver:
    """Construct the solver registered as ``name`` (case-insensitive).

    The keywords bind against the constructor's signature; any it does
    not accept, or a value its constructor rejects with a
    :class:`ValueError`/:class:`TypeError`, raise
    :class:`~repro.errors.ConfigurationError` naming the solver and the
    options.
    """
    key = resolve_solver_name(name)
    cls = _FACTORIES[key]
    signature = inspect.signature(cls)
    try:
        signature.bind(**kwargs)
    except TypeError as exc:
        unknown = sorted(set(kwargs) - set(signature.parameters))
        raise ConfigurationError(
            f"solver {key!r} does not accept {unknown or exc}; "
            f"it takes {sorted(signature.parameters) or 'no options'}"
        ) from None
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        shown = {k: v if json_scalarish(v) else type(v).__name__ for k, v in kwargs.items()}
        raise ConfigurationError(f"solver {key!r} rejects options {shown}: {exc}") from exc


def default_solvers(*, ip_time_budget: float = 10.0) -> list[Solver]:
    """The paper's five approaches, in the order of Figs. 3–7."""
    budget = {"idde-ip": {"time_budget_s": ip_time_budget}}
    return [build_solver(n, **budget.get(n, {})) for n in CANONICAL_SOLVERS]

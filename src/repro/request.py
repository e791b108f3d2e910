"""The schema-versioned :class:`SolveRequest`: one object describing a run.

:class:`SolveRequest` holds the whole run description — solver name, two
phase configs, warm start, churn mask, RNG and the
solver's constructor options (the IDDE-IP time budget among them) — in a
single frozen dataclass that is *also* the daemon's wire format: the
``idde-request/5`` JSON document round-trips through
:meth:`SolveRequest.to_dict` / :meth:`SolveRequest.from_dict` with strict
validation — unknown keys are errors, every value must have its field's
JSON type, nested configs reconstruct through their own ``__post_init__``
checks — so a malformed request fails loudly at the boundary, never deep
inside a kernel.  Version 2 dropped the ``kernel`` key of ``game`` and
``delivery`` (each phase has one kernel); version 3 dropped ``sharding``
(the global game is the only IDDE-U path); version 4 dropped the
top-level IDDE-IP budget field (the budget travels as ``solver_options``)
and two ``game`` keys no solver read; version 5 dropped ``validate`` (every
answer is checked against the instance constraints; docs/SERVING.md names
every dropped key).  A request still carrying any dropped key fails as an
unknown key.

Two request fields are *runtime state*, not wire data:

* ``warm_start`` may hold a prior :class:`~repro.api.Solution` (or bare
  :class:`~repro.core.profiles.AllocationProfile`) in-process.  On the
  wire it degrades to a boolean: ``true`` asks the receiving
  :class:`~repro.serve.SolverSession` to warm-start from its *resident*
  solution (the daemon owns the state, the request only opts in).
* ``rng`` may hold a live generator in-process; the wire accepts only an
  integer seed (or ``null``) so a replayed request is deterministic.

``tracer`` is deliberately **not** a request field — observability is an
execution-context concern, threaded separately through
:func:`repro.api.solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from .config import DeliveryConfig, GameConfig
from .errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .core.strategy import Solution
    from .core.profiles import AllocationProfile

__all__ = ["REQUEST_SCHEMA", "SolveRequest", "json_scalarish"]

REQUEST_SCHEMA = "idde-request/5"

#: Wire keys of the ``idde-request/5`` document, in canonical order.
_WIRE_KEYS = (
    "schema",
    "solver",
    "game",
    "delivery",
    "warm_start",
    "active",
    "rng",
    "solver_options",
)


def json_scalarish(value: Any) -> bool:
    """True for values that serialise to JSON without coercion."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(json_scalarish(v) for v in value)
    if isinstance(value, dict):
        return all(
            isinstance(k, str) and json_scalarish(v) for k, v in value.items()
        )
    return False


def _config_to_doc(cfg: Any) -> dict[str, Any] | None:
    """One nested config as a JSON object (tuples become lists)."""
    if cfg is None:
        return None
    doc: dict[str, Any] = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        doc[f.name] = list(value) if isinstance(value, tuple) else value
    return doc


def _finite_number(value: Any) -> bool:
    """True for a JSON number (not a bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


#: Wire type checks for the scalar field types of the nested configs.
_TYPE_CHECKS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _finite_number,
    "str": lambda v: isinstance(v, str),
}


def _config_from_doc(cls: type, doc: Any, what: str) -> Any:
    """Rebuild a nested config, rejecting unknown keys and mistyped values.

    Each value must have its dataclass field's declared type: a bool is a
    JSON bool, an int is an int (not a bool), a float is a finite int or
    float (not a bool), a str is a str.
    """
    if doc is None:
        return None
    if not isinstance(doc, Mapping):
        raise ConfigurationError(
            f"request {what!r} must be a JSON object or null, got {type(doc).__name__}"
        )
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {what} key(s) {unknown}; known keys: {sorted(allowed)}"
        )
    for f in fields(cls):
        if f.name in doc and not _TYPE_CHECKS[str(f.type)](doc[f.name]):
            raise ConfigurationError(
                f"{what}.{f.name} must be a JSON {f.type}, got {doc[f.name]!r}"
            )
    return cls(**doc)


@dataclass(frozen=True, eq=False)
class SolveRequest:
    """A complete, picklable description of one :func:`repro.api.solve` run.

    Attributes
    ----------
    solver:
        Registry name (``"idde-g"``, ``"idde-ip"``, ``"saa"``, ``"cdp"``,
        ``"dup-g"``, ``"random"``, ``"nearest"``; case-insensitive).
        Unknown names raise :class:`~repro.errors.SolverLookupError` with
        a did-you-mean suggestion.
    game_config, delivery_config:
        Phase configs for the two-phase IDDE-G solver (e.g.
        ``GameConfig(schedule="best-gain-winner")``).  Any other solver
        raises :class:`~repro.errors.ConfigurationError` — baselines have
        no such phases, and silently ignoring the configs would mislabel
        the run.
    warm_start:
        A prior :class:`~repro.api.Solution` (or bare
        :class:`~repro.core.profiles.AllocationProfile`) to re-enter the
        IDDE-U game from instead of cold-solving.  The profile is first
        repaired against the instance
        (:func:`~repro.core.repair.repair_allocation`); the game then
        re-certifies ε-Nash on the full instance.  ``"idde-g"`` only.
        The boolean sentinel ``True`` (wire form) means *the executing
        session should substitute its resident prior solution* — only the
        IDDE-Serve daemon resolves that; a direct solve on it raises.
    active:
        Optional boolean ``(M,)`` participant mask (churn): inactive
        users never allocate and never move in the game.  ``"idde-g"``
        only.
    rng:
        Seed or generator for the solver's randomness (``repro.rng``
        discipline).
    solver_options:
        Extra keyword arguments for the solver's constructor (e.g.
        ``{"time_budget_s": 3.0}`` for ``"idde-ip"``); one it does not
        accept, or a value it rejects, raises
        :class:`~repro.errors.ConfigurationError`.
    """

    solver: str = "idde-g"
    game_config: GameConfig | None = None
    delivery_config: DeliveryConfig | None = None
    warm_start: "Solution | AllocationProfile | bool | None" = None
    active: np.ndarray | None = None
    rng: Any = None
    solver_options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.solver, str) or not self.solver:
            raise ConfigurationError(
                f"solver must be a non-empty registry name, got {self.solver!r}"
            )
        if self.warm_start is False:
            # Wire ``false`` means "no warm start" — normalise to None so
            # in-process truthiness checks stay simple.
            object.__setattr__(self, "warm_start", None)
        if self.active is not None:
            try:
                active = np.asarray(self.active, dtype=bool)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"active must be a flat 0/1 mask: {exc}"
                ) from exc
            if active.ndim != 1:
                raise ConfigurationError(
                    f"active must be a flat 0/1 mask, got an array of "
                    f"shape {tuple(active.shape)}"
                )
            object.__setattr__(self, "active", active)
        if not isinstance(self.solver_options, dict):
            raise ConfigurationError(
                f"solver_options must be a dict, got {type(self.solver_options).__name__}"
            )

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_dict(self, *, lenient: bool = False) -> dict[str, Any]:
        """The ``idde-request/5`` JSON document for this request.

        Strict by default: a live ``warm_start`` object or a non-integer
        ``rng`` cannot go on the wire and raise
        :class:`~repro.errors.ConfigurationError`.  ``lenient=True`` (used
        when embedding the request in an ``idde-solution/5`` document)
        degrades them instead — ``warm_start`` to its boolean presence,
        ``rng`` to ``null``.
        """
        warm: bool
        if self.warm_start is None or isinstance(self.warm_start, bool):
            warm = bool(self.warm_start)
        elif lenient:
            warm = True
        else:
            raise ConfigurationError(
                "warm_start holds a live solution object; the wire form is "
                "boolean (the serving session owns the resident state) — "
                "pass warm_start=True or serialise with lenient=True"
            )
        rng: int | None
        if self.rng is None:
            rng = None
        elif isinstance(self.rng, (int, np.integer)) and not isinstance(
            self.rng, bool
        ):
            rng = int(self.rng)
        elif lenient:
            rng = None
        else:
            raise ConfigurationError(
                f"rng must be an integer seed (or None) on the wire, "
                f"got {type(self.rng).__name__}"
            )
        if not json_scalarish(self.solver_options):
            raise ConfigurationError(
                "solver_options must be JSON-serialisable to go on the wire"
            )
        return {
            "schema": REQUEST_SCHEMA,
            "solver": self.solver,
            "game": _config_to_doc(self.game_config),
            "delivery": _config_to_doc(self.delivery_config),
            "warm_start": warm,
            "active": (
                None if self.active is None else [int(b) for b in self.active]
            ),
            "rng": rng,
            "solver_options": dict(self.solver_options),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "SolveRequest":
        """Rebuild a request from an ``idde-request/5`` document.

        Validation is strict: the schema tag must match, unknown keys are
        errors (no silent typo-tolerance on a wire format), every value
        must have its field's JSON type, and nested configs re-run their
        own ``__post_init__`` range checks.  Anything malformed raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if not isinstance(doc, Mapping):
            raise ConfigurationError(
                f"request document must be a JSON object, got {type(doc).__name__}"
            )
        schema = doc.get("schema")
        if schema != REQUEST_SCHEMA:
            raise ConfigurationError(
                f"expected request schema {REQUEST_SCHEMA!r}, got {schema!r}"
            )
        unknown = sorted(set(doc) - set(_WIRE_KEYS))
        if unknown:
            raise ConfigurationError(
                f"unknown request key(s) {unknown}; known keys: {sorted(_WIRE_KEYS)}"
            )
        warm = doc.get("warm_start", False)
        if not isinstance(warm, bool):
            raise ConfigurationError(
                f"warm_start must be a boolean on the wire, got {warm!r}"
            )
        rng = doc.get("rng")
        if rng is not None and (
            isinstance(rng, bool) or not isinstance(rng, int) or rng < 0
        ):
            raise ConfigurationError(
                f"rng must be a non-negative integer seed or null, got {rng!r}"
            )
        active = doc.get("active")
        if active is not None and (
            not isinstance(active, (list, tuple))
            or not all(isinstance(b, int) and b in (0, 1) for b in active)
        ):
            raise ConfigurationError(
                f"active must be a flat 0/1 mask: a 0/1 list (entries 0, 1, "
                f"true or false) or null, got {active!r}"
            )
        options = doc.get("solver_options")
        if options is None:
            options = {}
        if not isinstance(options, Mapping):
            raise ConfigurationError(
                f"solver_options must be a JSON object, got {type(options).__name__}"
            )
        return cls(
            solver=doc.get("solver", "idde-g"),
            game_config=_config_from_doc(GameConfig, doc.get("game"), "game"),
            delivery_config=_config_from_doc(
                DeliveryConfig, doc.get("delivery"), "delivery"
            ),
            warm_start=warm or None,
            # __post_init__ coerces the checked 0/1 list to a bool array.
            active=active,
            rng=rng,
            solver_options=dict(options),
        )

    # ------------------------------------------------------------------
    def with_runtime(
        self,
        *,
        warm_start: "Solution | AllocationProfile | bool | None" = None,
        active: np.ndarray | None = None,
        rng: Any = None,
    ) -> "SolveRequest":
        """A copy with the per-call runtime state swapped in.

        The streaming/serving loops hold one base request describing the
        solver and configs, then stamp each epoch's warm-start profile,
        churn mask and RNG stream through here.
        """
        return replace(
            self,
            warm_start=warm_start,
            active=active,
            rng=rng,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bits = [f"solver={self.solver!r}"]
        if self.warm_start is not None:
            bits.append("warm")
        return f"SolveRequest({', '.join(bits)})"

"""IDDE010 — interprocedural RNG stream flow.

The per-file IDDE001/IDDE002 checks see one function at a time; this rule
follows generators *across* functions using the project call graph and the
stochastic/spawning summaries computed to fixpoint over it.  Four shapes
are flagged, all of which silently break per-trial stream independence:

* a **module-global generator** (``_RNG = spawn_rng(...)`` at module
  scope): every caller shares one stream, so trial results depend on
  call order;
* **re-seeding mid-call-chain**: a function that already receives an
  ``rng``/``seed`` parameter but builds a *constant-seeded* stream inside
  (``spawn_rng(42, ...)``), discarding the caller's provenance;
* **spawn-free stochastic fan-out**: a callable handed to
  ``parallel_map`` whose transitive closure draws randomness without ever
  spawning a per-item stream (``spawn_rng(spec.seed, ...)``-style) and
  without accepting an rng/seed parameter — worker processes then draw
  from OS entropy and runs are unrepeatable;
* an **unthreaded stream**: a function holding an ``rng`` parameter calls
  a callee that accepts one (defaulting to ``None``) without passing it,
  so the callee falls back to fresh entropy mid-chain.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.parallel.pool import PARALLEL_ENTRY_POINTS

from ..findings import Finding
from ..registry import rule
from ..semantic.callgraph import own_body, resolve_callable_ref
from ..semantic.dataflow import fixpoint_summaries
from ..semantic.project import Project
from ..semantic.symbols import FunctionInfo
from ._ast_util import dotted_name

#: repro.rng helpers that *derive* a child stream from explicit provenance.
_SPAWN_HELPERS = {"spawn_rng", "split_rngs", "spawn_seedsequence", "seeds_for"}

#: All repro.rng helpers plus the raw numpy factory.
_RNG_FACTORIES = _SPAWN_HELPERS | {"ensure_rng", "default_rng"}

#: Parameter names (or suffixes) that mark a caller-controlled stream.
_RNG_PARAMS = ("rng", "seed")

#: Summary tags for the stochastic fixpoint.
_STOCHASTIC = "stochastic"
_SPAWNS = "spawns"


def _base(qname: str) -> str:
    return qname.rsplit(".", 1)[-1]


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    a = node.args
    return [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]


def _rng_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    return [
        name
        for name in _param_names(node)
        if name in _RNG_PARAMS or name.endswith(("_rng", "_seed"))
    ]


def _param_default(
    node: ast.FunctionDef | ast.AsyncFunctionDef, name: str
) -> ast.expr | None:
    """The default expression for parameter ``name``, or ``None``."""
    a = node.args
    pos = [*a.posonlyargs, *a.args]
    offset = len(pos) - len(a.defaults)
    for i, p in enumerate(pos):
        if p.arg == name and i >= offset:
            return a.defaults[i - offset]
    for p, d in zip(a.kwonlyargs, a.kw_defaults):
        if p.arg == name:
            return d
    return None


def _rng_locals(fn: FunctionInfo) -> set[str]:
    """Names in ``fn`` that (syntactically) hold a Generator."""
    names = {p for p in fn.params if p == "rng" or p.endswith("_rng")}
    for node in own_body(fn.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _base(dotted_name(node.value.func) or "") in _RNG_FACTORIES:
                names.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
    return names


def _stochastic_summaries(project: Project) -> dict[str, frozenset[str]]:
    """Per-function ``{stochastic, spawns}`` tags, transitive over calls."""
    functions = {fn.qname: fn for fn in project.functions()}

    def analyze(
        fn: FunctionInfo, summaries: dict[str, frozenset[str]]
    ) -> frozenset[str]:
        tags: set[str] = set()
        rng_names = _rng_locals(fn)
        for site in project.graph.sites_in(fn.qname):
            base = _base(site.callee)
            if base in _SPAWN_HELPERS:
                tags |= {_STOCHASTIC, _SPAWNS}
            elif base in ("ensure_rng", "default_rng"):
                tags.add(_STOCHASTIC)
            elif site.resolved and site.callee in summaries:
                tags |= summaries[site.callee]
            elif site.receiver is not None and site.receiver in rng_names:
                tags.add(_STOCHASTIC)  # rng.normal(...) and friends
        return frozenset(tags)

    return project.shared(
        "rng_flow.summaries",
        lambda: fixpoint_summaries(
            functions, project.graph, analyze, initial=lambda fn: frozenset()
        ),
    )  # type: ignore[return-value]


def _check_module_globals(project: Project) -> Iterator[Finding]:
    for mod in project.symbols.modules.values():
        if mod.name == "repro.rng":
            continue
        for name, expr in sorted(mod.assigns.items()):
            if not isinstance(expr, ast.Call):
                continue
            base = _base(dotted_name(expr.func) or "")
            if base in _RNG_FACTORIES:
                yield project.finding(
                    mod.path,
                    expr,
                    "IDDE010",
                    f"module-global generator '{name}' shares one stream across "
                    "every caller; spawn per-use streams inside functions "
                    "taking an rng/seed parameter",
                )


def _check_constant_reseed(project: Project) -> Iterator[Finding]:
    for fn in project.functions():
        if fn.module == "repro.rng" or not _rng_params(fn.node):
            continue
        for site in project.graph.sites_in(fn.qname):
            base = _base(site.callee)
            if base not in _SPAWN_HELPERS and base != "ensure_rng":
                continue
            args = site.node.args
            if args and isinstance(args[0], ast.Constant) and isinstance(
                args[0].value, (int, float)
            ):
                yield project.finding(
                    fn.path,
                    site.node,
                    "IDDE010",
                    f"'{fn.name}' receives an rng/seed parameter but re-seeds "
                    f"with the constant {args[0].value!r} via {base}(); derive "
                    "the stream from the caller-provided seed instead",
                )


def _check_fanout(project: Project) -> Iterator[Finding]:
    summaries = _stochastic_summaries(project)
    for site in project.graph.sites:
        idx = PARALLEL_ENTRY_POINTS.get(_base(site.callee))
        if idx is None or len(site.node.args) <= idx:
            continue
        caller = project.symbols.function(site.caller)
        if caller is None:
            continue
        worker_q = resolve_callable_ref(caller, project.symbols, site.node.args[idx])
        worker = project.symbols.function(worker_q)
        if worker is None:
            continue
        tags = summaries.get(worker.qname, frozenset())
        if _STOCHASTIC in tags and _SPAWNS not in tags and not _rng_params(worker.node):
            yield project.finding(
                site.path,
                site.node,
                "IDDE010",
                f"worker '{worker.name}' fanned out via {_base(site.callee)}() "
                "draws randomness without spawning a per-item stream "
                "(spawn_rng(item.seed, ...)); runs will not be reproducible",
            )


def _check_unthreaded(project: Project) -> Iterator[Finding]:
    for fn in project.functions():
        caller_rng = [p for p in _rng_params(fn.node) if p == "rng"]
        if not caller_rng or fn.module == "repro.rng":
            continue
        for site in project.graph.sites_in(fn.qname):
            if not site.resolved:
                continue
            callee = project.symbols.function(site.callee)
            if callee is None or callee.module == "repro.rng":
                continue
            targets = _rng_params(callee.node)
            if not targets:
                continue
            bound = callee.bind_args(site.node)
            if any(t in bound for t in targets):
                continue
            if _rng_flows_through_args(fn, site.node):
                # The stream rides inside an argument expression — e.g.
                # solve(instance, request.with_runtime(rng=rng)): the
                # SolveRequest carries the generator, so the callee never
                # falls back to fresh entropy.
                continue
            # only flag when omission means fresh entropy: the rng-ish
            # parameter is required or explicitly defaults to None
            required = False
            for t in targets:
                d = _param_default(callee.node, t)
                has_default = d is not None or _has_any_default(callee.node, t)
                if not has_default or (
                    isinstance(d, ast.Constant) and d.value is None
                ):
                    required = True
            if required:
                yield project.finding(
                    fn.path,
                    site.node,
                    "IDDE010",
                    f"'{fn.name}' holds 'rng' but calls '{callee.name}' without "
                    f"passing a stream ({'/'.join(targets)}); the callee will "
                    "fall back to a fresh, untracked generator",
                )


def _rng_flows_through_args(fn: FunctionInfo, call: ast.Call) -> bool:
    """True when an rng-holding local appears inside any argument expression.

    Covers streams threaded through carrier objects rather than a direct
    keyword — the ``idde-request/2`` pattern, where the generator enters
    the callee as ``SolveRequest.rng`` built inline at the call site.
    """
    rng_names = _rng_locals(fn)
    for arg in (*call.args, *(kw.value for kw in call.keywords)):
        for node in ast.walk(arg):
            if isinstance(node, ast.Name) and node.id in rng_names:
                return True
    return False


def _has_any_default(
    node: ast.FunctionDef | ast.AsyncFunctionDef, name: str
) -> bool:
    a = node.args
    pos = [*a.posonlyargs, *a.args]
    offset = len(pos) - len(a.defaults)
    for i, p in enumerate(pos):
        if p.arg == name:
            return i >= offset
    for p, d in zip(a.kwonlyargs, a.kw_defaults):
        if p.arg == name:
            return d is not None
    return False


@rule(
    "rng-flow",
    ["IDDE010"],
    "generators/seeds must flow through parameters: no module globals, "
    "constant re-seeds, or spawn-free parallel fan-out",
    scope="project",
    explain={
        "IDDE010": (
            "Interprocedural RNG discipline, enforced over the project call "
            "graph. A generator must enter a function as a parameter and "
            "leave as an argument: module-global generators, constant "
            "re-seeds inside functions that already receive a stream, "
            "parallel_map workers that draw randomness without spawning a "
            "per-item stream, and callers that hold 'rng' but do not thread "
            "it into an rng-accepting callee are all flagged. Fix by "
            "deriving every stream from explicit provenance — "
            "spawn_rng(seed, *keys) at the top, parameters below."
        )
    },
)
def check_rng_flow(project: Project) -> Iterator[Finding]:
    yield from _check_module_globals(project)
    yield from _check_constant_reseed(project)
    yield from _check_fanout(project)
    yield from _check_unthreaded(project)

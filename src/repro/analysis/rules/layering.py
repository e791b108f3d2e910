"""IDDE009 — the import DAG between package layers.

The architecture keeps the numeric heart of the reproduction free of
presentation and harness concerns, and the scenario builders free of
solution methods:

* ``core/`` and ``radio/`` must not import ``experiments``, ``viz``, ``cli``
  (model code never reaches up into the harness);
* ``radio/`` must not import ``obs`` either (the SINR engine holds no
  tracer: the game that owns an engine counts the evaluations it asks for);
* ``datasets/`` and ``topology/`` must not import ``solvers``, ``baselines``
  (instance generation is solver-agnostic so new solvers cannot bias it);
* ``bench/`` must not import ``experiments``, ``viz``, ``cli`` (the
  measurement substrate times kernels, never the reporting harness that
  wraps them);
* ``serve/`` must not import ``experiments``, ``viz``, ``cli``, ``bench``,
  ``analysis`` (the daemon wraps the façade and the workload fold; the
  CLI boots it and the benchmarks time it, never the reverse);
* ``obs/`` must not import any domain layer — ``core``, ``radio``,
  ``solvers``, ``baselines``, ``datasets``, ``topology``, ``bench``,
  ``experiments``, ``viz``, ``cli`` (the tracing substrate sits below
  everything it observes; only ``io``/``units``/``errors`` are beneath it);
* ``analysis/`` must not import any domain layer either — the linter
  reasons *about* the codebase syntactically and must never execute it;
  only the convention modules (``units``, ``parallel``) and ``errors``
  are fair game.

Both absolute (``repro.experiments``) and relative (``..experiments``)
imports are resolved before checking.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext
from ..findings import Finding
from ..registry import rule

#: source layer -> repro top-level segments it must not import.
FORBIDDEN: dict[str, frozenset[str]] = {
    "core": frozenset({"experiments", "viz", "cli"}),
    "radio": frozenset({"experiments", "viz", "cli", "obs"}),
    "datasets": frozenset({"solvers", "baselines"}),
    "topology": frozenset({"solvers", "baselines"}),
    "bench": frozenset({"experiments", "viz", "cli"}),
    "workload": frozenset({"experiments", "viz", "cli", "bench"}),
    "serve": frozenset({"experiments", "viz", "cli", "bench", "analysis"}),
    "obs": frozenset(
        {
            "core",
            "radio",
            "solvers",
            "baselines",
            "datasets",
            "topology",
            "bench",
            "experiments",
            "viz",
            "cli",
        }
    ),
    "analysis": frozenset(
        {
            "core",
            "radio",
            "solvers",
            "baselines",
            "datasets",
            "topology",
            "bench",
            "experiments",
            "viz",
            "cli",
            "dynamics",
            "obs",
        }
    ),
}


def _package_parts(ctx: FileContext) -> tuple[str, ...]:
    """Dotted package containing this module: ("repro", "core") for
    ``repro/core/game.py`` and for ``repro/core/__init__.py``."""
    parts = ("repro", *ctx.module_parts)
    filename = ctx.repro_parts[-1] if ctx.repro_parts else ""
    if filename != "__init__.py" and len(parts) > 1:
        parts = parts[:-1]
    return parts


def _resolve_target(ctx: FileContext, node: ast.ImportFrom | ast.Import) -> list[str]:
    """The repro top-level segment(s) an import statement reaches."""
    segments: list[str] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                segments.append(parts[1])
        return segments
    # ImportFrom: resolve relative levels against the enclosing package.
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts and parts[0] == "repro" and len(parts) > 1:
            segments.append(parts[1])
        return segments
    package = _package_parts(ctx)
    if node.level - 1 > len(package):
        return segments  # beyond the package root; not ours to judge
    base = package[: len(package) - (node.level - 1)]
    mod_parts = (node.module or "").split(".") if node.module else []
    resolved = [*base, *mod_parts]
    if resolved and resolved[0] == "repro":
        if len(resolved) > 1:
            segments.append(resolved[1])
        else:
            # ``from .. import x`` at repro top level: each name is a segment.
            segments.extend(alias.name for alias in node.names)
    return segments


@rule(
    "layering",
    ["IDDE009"],
    "enforce the import DAG: core/radio below experiments/viz/cli, radio below obs; "
    "datasets/topology below solvers/baselines",
)
def check_layering(ctx: FileContext) -> Iterator[Finding]:
    forbidden = FORBIDDEN.get(ctx.layer or "")
    if not forbidden:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for segment in _resolve_target(ctx, node):
            seg = segment[:-3] if segment.endswith(".py") else segment
            if seg in forbidden:
                yield ctx.finding(
                    node,
                    "IDDE009",
                    f"layer '{ctx.layer}' must not import repro.{seg} "
                    "(see the import DAG in docs/STATIC_ANALYSIS.md)",
                )

"""One experiment trial: build an instance, run every approach, measure.

A trial is fully described by a picklable :class:`TrialSpec` so it can be
executed in a worker process; the per-trial RNG streams are spawned
deterministically from the sweep's root seed (see :mod:`repro.rng`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..api import solve
from ..baselines import CDP, SAA, DupG, IddeIP
from ..core.idde_g import IddeG
from ..core.instance import IDDEInstance
from ..core.strategy import Solver
from ..datasets.eua import EuaPool, synthetic_eua
from ..errors import ExperimentError
from ..obs.tracer import Tracer, ensure_tracer
from ..request import SolveRequest
from ..rng import spawn_rng
from ..sharding import ShardConfig, ShardedIddeG

__all__ = ["SOLVER_NAMES", "TrialSpec", "TrialResult", "run_trial", "build_solver"]

#: The paper's five approaches in figure order.
SOLVER_NAMES: tuple[str, ...] = ("IDDE-IP", "IDDE-G", "SAA", "CDP", "DUP-G")

#: Metric keys every trial reports per solver.
METRICS: tuple[str, ...] = ("r_avg", "l_avg_ms", "time_s")


@dataclass(frozen=True)
class TrialSpec:
    """A picklable description of one trial."""

    n: int = 30
    m: int = 200
    k: int = 5
    density: float = 1.0
    seed: int = 0
    pool_seed: int = 0
    ip_time_budget_s: float = 3.0
    solver_names: tuple[str, ...] = SOLVER_NAMES
    #: Interference-domain decomposition for the IDDE-G runs: ``None`` (off),
    #: ``"auto"`` (natural coverage domains), or a target shard count.
    shards: int | str | None = None

    def __post_init__(self) -> None:
        if self.n <= 0 or self.m < 0 or self.k <= 0:
            raise ExperimentError(f"bad trial dimensions N={self.n}, M={self.m}, K={self.k}")
        if self.density < 0:
            raise ExperimentError(f"bad density {self.density}")
        unknown = set(self.solver_names) - set(SOLVER_NAMES)
        if unknown:
            raise ExperimentError(f"unknown solvers {sorted(unknown)}")
        if not (
            self.shards is None
            or self.shards == "auto"
            or (isinstance(self.shards, int) and self.shards >= 1)
        ):
            raise ExperimentError(
                f"shards must be None, 'auto' or a positive int, got {self.shards!r}"
            )

    def shard_config(self) -> ShardConfig | None:
        """The :class:`ShardConfig` this spec asks for (``None`` = unsharded).

        Trials inside a sweep may already run in worker processes, so the
        shard fan-out itself is pinned serial (``n_workers=0``) — nested
        process pools would oversubscribe the host.
        """
        if self.shards is None:
            return None
        if self.shards == "auto":
            return ShardConfig(n_workers=0)
        return ShardConfig(n_shards=int(self.shards), n_workers=0)

    def request_for(self, name: str) -> SolveRequest:
        """The :class:`~repro.request.SolveRequest` for one of this trial's
        solvers — the single spec→request mapping :func:`run_trial` uses
        (the per-solver RNG stream is stamped in at run time)."""
        return SolveRequest(
            solver=name.lower(),
            sharding=self.shard_config() if name == "IDDE-G" else None,
            ip_time_budget_s=self.ip_time_budget_s,
        )


@dataclass
class TrialResult:
    """Per-solver metric dictionary for one trial."""

    spec: TrialSpec
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)

    def metric(self, solver: str, key: str) -> float:
        return self.metrics[solver][key]


@lru_cache(maxsize=8)
def _pool(pool_seed: int) -> EuaPool:
    """Per-process cache of the EUA-style pool (shared across trials)."""
    return synthetic_eua(pool_seed)


def build_solver(name: str, spec: TrialSpec) -> Solver:
    """Instantiate one of the paper's approaches for a trial.

    Kept for direct construction; :func:`run_trial` itself routes through
    :func:`repro.api.solve` so every front-end shares one code path.
    """
    if name == "IDDE-IP":
        return IddeIP(time_budget_s=spec.ip_time_budget_s)
    if name == "IDDE-G":
        shard_cfg = spec.shard_config()
        if shard_cfg is not None:
            return ShardedIddeG(sharding=shard_cfg)
        return IddeG()
    if name == "SAA":
        return SAA()
    if name == "CDP":
        return CDP()
    if name == "DUP-G":
        return DupG()
    raise ExperimentError(f"unknown solver {name!r}")


def build_instance(spec: TrialSpec) -> IDDEInstance:
    """Build the trial's instance from its spec (deterministic)."""
    return IDDEInstance.generate(
        n=spec.n,
        m=spec.m,
        k=spec.k,
        density=spec.density,
        seed=spec.seed,
        pool=_pool(spec.pool_seed),
    )


def run_trial(spec: TrialSpec, tracer: Tracer | None = None) -> TrialResult:
    """Execute one trial: all requested solvers on the same instance.

    Every solver sees the identical instance and its own independent RNG
    stream, so cross-solver comparisons are paired (the variance-reduction
    trick behind the paper's 50-repetition averages).  Each solver runs
    through :func:`repro.api.solve` — the same façade the CLI uses — with
    the RNG stream spawned exactly as before, so trial results are
    bit-identical to the pre-façade harness.
    """
    tracer = ensure_tracer(tracer)
    instance = build_instance(spec)
    result = TrialResult(spec=spec)
    with tracer.span(
        "trial", n=spec.n, m=spec.m, k=spec.k, seed=spec.seed
    ):
        for name in spec.solver_names:
            request = spec.request_for(name).with_runtime(
                rng=spawn_rng(spec.seed, "solver", name)
            )
            solution = solve(instance, request, tracer=tracer)
            result.metrics[name] = {
                "r_avg": solution.r_avg,
                "l_avg_ms": solution.l_avg_ms,
                "time_s": solution.wall_time_s,
            }
    return result

"""Seeded scenario fixtures for the benchmark suite, at several scales.

Every benchmark draws its workload from here so that (a) two benches
measuring different kernels see the *same* instance, (b) a run is fully
deterministic in ``(scale, seed)``, and (c) expensive setup (instance
generation, playing the game to equilibrium for the delivery bench) is
paid once per process, outside every timed region.

Scales
------
``S``
    Smoke scale: small enough for CI (full suite in seconds), large
    enough that each timed region comfortably exceeds clock resolution.
``M``
    The paper's default operating point (Section 4.2: N=30, M=200, K=5).
``M_k64``
    The M topology with a K=64 catalogue and tighter per-server storage:
    the game phase is unchanged while Phase 2 runs tens of placement
    iterations over a 64-row gain table, so the delivery loop dominates
    the solve — the fixture ``delivery.greedy`` is judged on.
``L``
    A stress point beyond the paper's largest setting, for optimisation
    PRs whose wins only show at scale.
``XL``
    A metropolitan instance: six CBD-sized districts tiled with a gap
    wider than any coverage diameter (:func:`repro.datasets.synthetic_metro`),
    so a move touches the best-response rows of one district only — the
    regime ``game.converge.best-gain-winner`` measures.  Too slow for the
    full registry in CI; the bench-trajectory job runs it filtered to
    ``game.converge``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ScenarioConfig, WorkloadConfig
from ..core.instance import IDDEInstance
from ..core.profiles import AllocationProfile
from ..datasets.eua import EuaPool, synthetic_eua, synthetic_metro
from ..errors import BenchError

__all__ = [
    "ScaleSpec",
    "SCALES",
    "scale_spec",
    "instance_for",
    "equilibrium_profile",
    "eua_pool",
    "clear_cache",
]


@dataclass(frozen=True)
class ScaleSpec:
    """Instance dimensions for one benchmark scale.

    ``districts > 1`` samples from a :func:`~repro.datasets.synthetic_metro`
    pool instead of the single-CBD EUA pool, producing a naturally
    decomposable interference graph.  ``storage_range`` overrides the
    workload's per-server storage draw (MB) — the K-heavy delivery fixture
    tightens it so placement competition, not capacity slack, ends the
    greedy loop.
    """

    name: str
    n: int
    m: int
    k: int
    density: float
    districts: int = 1
    storage_range: tuple[float, float] | None = None


SCALES: dict[str, ScaleSpec] = {
    "S": ScaleSpec("S", n=10, m=60, k=3, density=1.5),
    "M": ScaleSpec("M", n=30, m=200, k=5, density=1.0),
    "M_k64": ScaleSpec(
        "M_k64", n=30, m=200, k=64, density=1.0, storage_range=(60.0, 180.0)
    ),
    "L": ScaleSpec("L", n=60, m=450, k=8, density=1.0),
    "XL": ScaleSpec("XL", n=96, m=2400, k=8, density=1.0, districts=6),
}

#: Process-local memo of expensive fixture objects, keyed by (kind, scale, seed).
_CACHE: dict[tuple[str, str, int], object] = {}


def scale_spec(scale: str) -> ScaleSpec:
    """Look up a :class:`ScaleSpec`, raising :class:`BenchError` if unknown."""
    try:
        return SCALES[scale]
    except KeyError:
        raise BenchError(
            f"unknown benchmark scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


def instance_for(scale: str, seed: int) -> IDDEInstance:
    """The shared :class:`IDDEInstance` for ``(scale, seed)`` (memoised)."""
    spec = scale_spec(scale)
    key = ("instance", spec.name, seed)
    if key not in _CACHE:
        pool = synthetic_metro(seed, districts=spec.districts) if spec.districts > 1 else None
        config = None
        if spec.storage_range is not None:
            config = ScenarioConfig(
                workload=WorkloadConfig(storage_range=spec.storage_range)
            )
        _CACHE[key] = IDDEInstance.generate(
            n=spec.n, m=spec.m, k=spec.k, density=spec.density, seed=seed,
            pool=pool, config=config,
        )
    inst = _CACHE[key]
    assert isinstance(inst, IDDEInstance)
    return inst


def equilibrium_profile(scale: str, seed: int) -> AllocationProfile:
    """A converged IDDE-U allocation over the shared instance (memoised).

    Benchmarks of downstream kernels (delivery placement, global rate
    evaluation, incremental churn) condition on a realistic equilibrium
    profile rather than an arbitrary one.
    """
    key = ("profile", scale, seed)
    if key not in _CACHE:
        from ..core.game import IddeUGame

        instance = instance_for(scale, seed)
        _CACHE[key] = IddeUGame(instance).run(rng=seed).profile
    profile = _CACHE[key]
    assert isinstance(profile, AllocationProfile)
    return profile


def eua_pool(seed: int) -> EuaPool:
    """The scale-independent synthetic EUA pool (125/816, memoised)."""
    key = ("pool", "", seed)
    if key not in _CACHE:
        _CACHE[key] = synthetic_eua(seed)
    pool = _CACHE[key]
    assert isinstance(pool, EuaPool)
    return pool


def clear_cache() -> None:
    """Drop all memoised fixtures (tests use this to probe cache behaviour)."""
    _CACHE.clear()

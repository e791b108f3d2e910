"""Production-vs-oracle parity on the shared bench fixtures.

A fast kernel is admissible only if it is *the same algorithm* as the
readable oracle — bit for bit, not "numerically close".  Each case runs
production and oracle on the identical fixture instance (and, for Phase 2,
its converged IDDE-U equilibrium) and compares named observables with
exact equality:

* game: the ordered ``move_log`` (which also pins RNG consumption under
  the random-winner schedule), the final profile, and the certificate
  (``converged``, ``is_nash``, rounds, moves, ``effective_epsilon``);
* delivery: the ordered placements, the bitwise total gain, the final
  placement matrix, and — in the traced replays — every
  ``delivery.place`` / ``delivery.stop`` event and the
  ``delivery.threshold_rejects`` count;
* evaluation: the bytes, dtype and shape of the retrieval-cost table and
  of the attached request counts, under empty, greedy and random
  placements.

A parity break is a correctness bug in whichever side changed last —
never relax a comparison to a tolerance to make it pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.bench.fixtures import equilibrium_profile, instance_for
from repro.config import DeliveryConfig, GameConfig
from repro.core.delivery import DeliveryResult, attached_request_counts, greedy_delivery
from repro.core.game import GameResult, IddeUGame
from repro.core.objectives import retrieval_cost_table
from repro.core.profiles import UNALLOCATED, AllocationProfile, DeliveryProfile
from repro.obs.tracer import RecordingTracer, Tracer
from repro.rng import spawn_rng

from .delivery import oracle_delivery
from .evaluation import oracle_attached_request_counts, oracle_retrieval_cost_table
from .game import OracleGame

__all__ = [
    "DELIVERY_CONFIGS",
    "SCHEDULES",
    "SEEDS",
    "PairCase",
    "compare",
    "delivery_cases",
    "evaluation_cases",
    "game_cases",
    "render",
]

#: The verification grid: 5 seeds x all three schedules for the game,
#: 5 seeds x four configs x {plain, traced} for delivery.
SEEDS: tuple[int, ...] = (0, 1, 2, 3, 4)
SCHEDULES: tuple[str, ...] = tuple(GameConfig._SCHEDULES)
#: Both selection rules, each plain and with a stopping threshold high
#: enough to reject real candidates — the thresholded cases are what make
#: the reject-count comparison meaningful.
DELIVERY_CONFIGS: tuple[DeliveryConfig, ...] = (
    DeliveryConfig(ratio_rule=True),
    DeliveryConfig(ratio_rule=True, min_gain_s_per_mb=0.005),
    DeliveryConfig(ratio_rule=False),
    DeliveryConfig(ratio_rule=False, min_gain_s=1.0),
)


@dataclass(frozen=True)
class PairCase:
    """Verdict of one production-vs-oracle replay.

    ``work`` counts what the case exercised (moves or placements): a case
    with no work verifies vacuously.  ``broken`` names every observable
    that differed.
    """

    label: str
    work: int
    broken: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.broken

    def describe(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        detail = f"work={self.work}"
        if self.broken:
            detail += " broken=" + ",".join(self.broken)
        return f"{self.label:<34s} {status:<8s} {detail}"


def compare(
    label: str, work: int, production: dict[str, Any], oracle: dict[str, Any]
) -> PairCase:
    """One case: every named observable must be exactly equal."""
    broken = tuple(name for name in production if production[name] != oracle[name])
    return PairCase(label=label, work=work, broken=broken)


def render(cases: list[PairCase]) -> str:
    """The verdict table, one line per case."""
    failures = sum(not case.ok for case in cases)
    verdict = f"PARITY BROKEN ({failures} cases)" if failures else "PARITY OK"
    lines = [case.describe() for case in cases]
    lines.append(f"{verdict}: {len(cases)} cases")
    return "\n".join(lines)


def _game_observables(result: GameResult) -> dict[str, Any]:
    return {
        "move-log": result.move_log,
        "profile": (result.profile.server.tolist(), result.profile.channel.tolist()),
        "certificate": (
            result.converged,
            result.is_nash,
            result.rounds,
            result.moves,
            result.effective_epsilon,
        ),
    }


def game_cases(
    scale: str,
    seed: int,
    schedules: tuple[str, ...] = SCHEDULES,
    tracer: Tracer | None = None,
) -> list[PairCase]:
    """Production vs :class:`~tests.oracles.game.OracleGame`, per schedule.

    An attached ``tracer`` observes the production run (the oracle records
    nothing); it never consumes RNG, so parity must hold with tracing on.
    """
    instance = instance_for(scale, seed)
    cases = []
    for schedule in schedules:
        cfg = GameConfig(schedule=schedule)
        fast = IddeUGame(instance, cfg, tracer=tracer).run(rng=seed)
        slow = OracleGame(instance, cfg, tracer=tracer).run(rng=seed)
        cases.append(
            compare(
                f"game {scale} seed={seed} {schedule}",
                slow.moves,
                _game_observables(fast),
                _game_observables(slow),
            )
        )
    return cases


def _delivery_observables(
    result: DeliveryResult, tracer: RecordingTracer | None
) -> dict[str, Any]:
    observed: dict[str, Any] = {
        "placements": (result.placements, result.iterations),
        "gains": result.total_gain_s,
        "profile": result.profile.placed.tolist(),
    }
    if tracer is not None:
        observed["trace"] = (
            [
                (e.etype, sorted(e.fields.items()))
                for e in tracer.events
                if e.etype in ("delivery.place", "delivery.stop")
            ],
            tracer.counters.get("delivery.threshold_rejects", 0),
        )
    return observed


def delivery_cases(
    scale: str,
    seed: int,
    configs: tuple[DeliveryConfig, ...] = DELIVERY_CONFIGS,
) -> list[PairCase]:
    """Production greedy vs :func:`~tests.oracles.delivery.oracle_delivery`,
    per config, untraced and traced."""
    instance = instance_for(scale, seed)
    alloc = equilibrium_profile(scale, seed)
    cases = []
    for cfg in configs:
        rule = "ratio" if cfg.ratio_rule else "abs"
        threshold = cfg.min_gain_s_per_mb if cfg.ratio_rule else cfg.min_gain_s
        for traced in (False, True):
            fast_tr = RecordingTracer() if traced else None
            slow_tr = RecordingTracer() if traced else None
            fast = greedy_delivery(instance, alloc, cfg, tracer=fast_tr)
            slow = oracle_delivery(instance, alloc, cfg, tracer=slow_tr)
            cases.append(
                compare(
                    f"delivery {scale} seed={seed} {rule} thresh={threshold:g} "
                    f"{'traced' if traced else 'plain'}",
                    len(slow.placements),
                    _delivery_observables(fast, fast_tr),
                    _delivery_observables(slow, slow_tr),
                )
            )
    return cases


def _bits(array: np.ndarray) -> tuple[str, tuple[int, ...], bytes]:
    """An array's dtype, shape and bytes: equal only if bitwise equal."""
    return array.dtype.str, array.shape, np.ascontiguousarray(array).tobytes()


def evaluation_cases(scale: str, seed: int) -> list[PairCase]:
    """Production server-space evaluation vs
    :mod:`~tests.oracles.evaluation`, under three strategies.

    * ``empty``: no replica and nobody allocated;
    * ``greedy``: the equilibrium and its greedy placement;
    * ``random``: the equilibrium with a random third of the users
      detached, and a random placement (storage is not checked here).
    """
    instance = instance_for(scale, seed)
    alloc = equilibrium_profile(scale, seed)
    n, m, k = instance.n_servers, instance.n_users, instance.n_data
    rng = spawn_rng(seed, "oracle", "evaluation")
    detached = rng.random(m) < 1 / 3
    server, channel = alloc.server.copy(), alloc.channel.copy()
    server[detached] = UNALLOCATED
    channel[detached] = UNALLOCATED
    strategies = {
        "empty": (AllocationProfile.empty(m), DeliveryProfile.empty(n, k)),
        "greedy": (alloc, greedy_delivery(instance, alloc).profile),
        "random": (AllocationProfile(server, channel), DeliveryProfile(rng.random((n, k)) < 0.2)),
    }
    cases = []
    for name, (profile, delivery) in strategies.items():
        cases.append(
            compare(
                f"evaluation {scale} seed={seed} {name}",
                delivery.n_replicas,
                {
                    "table": _bits(retrieval_cost_table(instance, delivery)),
                    "counts": _bits(attached_request_counts(instance, profile)),
                },
                {
                    "table": _bits(oracle_retrieval_cost_table(instance, delivery)),
                    "counts": _bits(oracle_attached_request_counts(instance, profile)),
                },
            )
        )
    return cases

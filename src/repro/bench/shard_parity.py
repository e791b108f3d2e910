"""Sharded-vs-global parity harness.

The oracle parity tests (``tests/oracles/test_parity.py``) prove the game
kernel is the literal Algorithm 1; this harness proves the sharded solver
reaches the same *kind* of answer as the global solver and — where the
theory says so — the same answer:

* **certificate parity** (every case): both runs must converge and
  certify an ε-Nash on the whole instance at their ``effective_epsilon``.
  The sharded certificate comes from the reconciliation run over the full
  player set, so this is a like-for-like whole-instance claim.
* **profile parity** (deterministic schedules on a clean decomposition):
  with no boundary users, sorted index maps preserve covering-set order
  and every per-shard float is the identical padded reduction, so
  ``round-robin`` and ``best-gain-winner`` must stitch to the
  *bit-identical* profile the global run finds.  ``random-winner`` is
  exempt: shards consume independent spawned streams, so it reaches a
  (certified) different equilibrium by design.

The CI smoke gate runs it via ``idde bench --verify-shard-parity``;
``tests/sharding/test_parity.py`` pins the same contract in the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..config import GameConfig
from ..core.game import GameResult, IddeUGame
from ..sharding import ShardConfig, build_plan, solve_sharded_game
from .fixtures import instance_for

__all__ = [
    "PARITY_SCHEDULES",
    "PARITY_SEEDS",
    "ShardPairCase",
    "ShardParityReport",
    "verify_sharded_pair",
    "render_shard_parity_text",
]

#: Default verification grid: 5 seeds x all three schedules.
PARITY_SEEDS: tuple[int, ...] = (0, 1, 2, 3, 4)
PARITY_SCHEDULES: tuple[str, ...] = tuple(GameConfig._SCHEDULES)


@dataclass(frozen=True)
class ShardPairCase:
    """Verdict for one ``(scale, seed, schedule)`` sharded-vs-global replay."""

    scale: str
    seed: int
    schedule: str
    n_shards: int
    boundary_users: int
    global_nash: bool
    sharded_nash: bool
    same_profile: bool
    profile_must_match: bool

    @property
    def ok(self) -> bool:
        certified = self.global_nash and self.sharded_nash
        return certified and (self.same_profile or not self.profile_must_match)

    def describe(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        detail = (
            f"shards={self.n_shards} boundary={self.boundary_users} "
            f"nash={self.sharded_nash}/{self.global_nash}"
        )
        if self.profile_must_match:
            detail += f" bit-identical={self.same_profile}"
        return (
            f"{self.scale} seed={self.seed} {self.schedule:<17s} {status:<8s} {detail}"
        )


@dataclass(frozen=True)
class ShardParityReport:
    """Aggregate verdict over the verification grid."""

    cases: tuple[ShardPairCase, ...]

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> tuple[ShardPairCase, ...]:
        return tuple(case for case in self.cases if not case.ok)


def _same_profile(a: GameResult, b: GameResult) -> bool:
    return bool(
        np.array_equal(a.profile.server, b.profile.server)
        and np.array_equal(a.profile.channel, b.profile.channel)
    )


def verify_sharded_pair(
    scale: str = "S",
    seeds: tuple[int, ...] = PARITY_SEEDS,
    schedules: tuple[str, ...] = PARITY_SCHEDULES,
    base_cfg: GameConfig | None = None,
    shard_cfg: ShardConfig | None = None,
) -> ShardParityReport:
    """Replay every ``(seed, schedule)`` case sharded and globally.

    Bit-identical profiles are demanded only where guaranteed:
    deterministic schedules on a plan with no boundary users.
    """
    base = base_cfg or GameConfig()
    shard_cfg = shard_cfg or ShardConfig(n_workers=0)
    cases = []
    for seed in seeds:
        instance = instance_for(scale, seed)
        plan = build_plan(instance, shard_cfg)
        for schedule in schedules:
            cfg = replace(base, schedule=schedule)
            glob = IddeUGame(instance, cfg).run(rng=seed)
            shard, stats = solve_sharded_game(
                instance, cfg, shard_cfg, rng=seed, plan=plan
            )
            must_match = schedule != "random-winner" and (
                plan.boundary_users.size == 0
            )
            cases.append(
                ShardPairCase(
                    scale=scale,
                    seed=seed,
                    schedule=schedule,
                    n_shards=stats["n_shards"],
                    boundary_users=stats["boundary_users"],
                    global_nash=glob.is_nash,
                    sharded_nash=shard.is_nash,
                    same_profile=_same_profile(glob, shard),
                    profile_must_match=must_match,
                )
            )
    return ShardParityReport(cases=tuple(cases))


def render_shard_parity_text(report: ShardParityReport) -> str:
    """Human-readable verdict table for the CLI."""
    lines = ["shard parity: sharded vs global"]
    lines.extend("  " + case.describe() for case in report.cases)
    verdict = (
        "SHARD PARITY OK"
        if report.ok
        else f"SHARD PARITY BROKEN ({len(report.failures)} cases)"
    )
    lines.append(f"{verdict}: {len(report.cases)} cases")
    return "\n".join(lines)

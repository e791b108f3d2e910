"""IDDE-G: the paper's proposed two-phase solver (Algorithm 1).

Phase 1 plays the IDDE-U game to a Nash equilibrium (user allocation,
Objective #1); Phase 2 greedily places replicas by latency reduction per
megabyte (data delivery, Objective #2).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..config import DeliveryConfig, GameConfig
from ..obs.tracer import Tracer, ensure_tracer
from .delivery import greedy_delivery
from .game import IddeUGame
from .instance import IDDEInstance
from .profiles import AllocationProfile, DeliveryProfile
from .strategy import Solver

__all__ = ["IddeG"]


class IddeG(Solver):
    """The IDDE-G algorithm (game-based allocation + greedy delivery)."""

    name = "IDDE-G"

    def __init__(
        self,
        game: GameConfig | None = None,
        delivery: DeliveryConfig | None = None,
        *,
        track_potential: bool = False,
        tracer: Tracer | None = None,
        initial: AllocationProfile | None = None,
        active: np.ndarray | None = None,
    ) -> None:
        self.game_cfg = game or GameConfig()
        self.delivery_cfg = delivery or DeliveryConfig()
        self.track_potential = track_potential
        self.tracer = ensure_tracer(tracer)
        # Warm-start state for incremental re-solves: ``initial`` re-enters
        # the IDDE-U game from a prior equilibrium (repair it first — see
        # repro.core.repair), ``active`` masks out churned-away users.
        self.initial = initial
        self.active = active

    def _solve(
        self, instance: IDDEInstance, rng: np.random.Generator
    ) -> tuple[AllocationProfile, DeliveryProfile, dict[str, Any]]:
        game = IddeUGame(
            instance,
            self.game_cfg,
            track_potential=self.track_potential,
            tracer=self.tracer,
        )
        result = game.run(rng, initial=self.initial, active=self.active)
        delivery = greedy_delivery(
            instance, result.profile, self.delivery_cfg, tracer=self.tracer
        )
        extras = {
            "game_rounds": result.rounds,
            "game_moves": result.moves,
            "game_converged": result.converged,
            "is_nash": result.is_nash,
            "effective_epsilon": result.effective_epsilon,
            "capped_users": list(result.capped_users),
            "schedule": self.game_cfg.schedule,
            "delivery_iterations": delivery.iterations,
            "replicas": delivery.profile.n_replicas,
            "delivery_gain_s": delivery.total_gain_s,
            # Full result objects so the repro.api façade can surface every
            # field in Solution without re-running either phase; popped
            # there, harmless (if bulky) for direct Solver users.
            "game_result": result,
            "delivery_result": delivery,
        }
        if self.track_potential:
            extras["potential_trace"] = result.potential_trace
        return result.profile, delivery.profile, extras

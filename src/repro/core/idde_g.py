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
from .delivery import DeliveryResult, greedy_delivery
from .game import GameResult, IddeUGame
from .instance import IDDEInstance
from .profiles import AllocationProfile
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
        tracer: Tracer | None = None,
        initial: AllocationProfile | None = None,
        active: np.ndarray | None = None,
    ) -> None:
        self.game_cfg = game or GameConfig()
        self.delivery_cfg = delivery or DeliveryConfig()
        self.tracer = ensure_tracer(tracer)
        # Warm-start state for incremental re-solves: ``initial`` re-enters
        # the IDDE-U game from a prior equilibrium (repair it first — see
        # repro.core.repair), ``active`` masks out churned-away users.
        self.initial = initial
        self.active = active

    def _solve(
        self, instance: IDDEInstance, rng: np.random.Generator
    ) -> tuple[GameResult, DeliveryResult, dict[str, Any]]:
        game = IddeUGame(instance, self.game_cfg, tracer=self.tracer)
        result = game.run(rng, initial=self.initial, active=self.active)
        delivery = greedy_delivery(
            instance, result.profile, self.delivery_cfg, tracer=self.tracer
        )
        return result, delivery, {}

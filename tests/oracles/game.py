"""Phase 1 oracle: the literal per-user IDDE-U loops (Algorithm 1, lines 5–21).

Each round visits the players one at a time and asks the SINR engine for
that user's full candidate grid (:meth:`~repro.radio.sinr.SinrEngine.candidates`).
The production runners evaluate every user in one batched pass instead; on
every instance, schedule and seed they must apply the identical move
sequence, reach the identical profile and issue the identical certificate.

:class:`OracleGame` swaps only the two schedule runners and the
certificate of :class:`~repro.core.game.IddeUGame`; the run scaffolding
(warm start, participant mask, escalation bookkeeping, tracing) is the
production one, so a parity break points at the batched evaluation.
:func:`oracle_is_nash` is the certificate on its own, reading nothing but
the engine's per-user candidate grid.
"""

from __future__ import annotations

import numpy as np

from repro.core.game import BestResponse, IddeUGame
from repro.core.instance import IDDEInstance
from repro.core.profiles import AllocationProfile
from repro.radio.sinr import UNALLOCATED, SinrEngine

__all__ = ["OracleGame", "oracle_is_nash"]


def oracle_is_nash(
    instance: IDDEInstance,
    profile: AllocationProfile,
    tol: float,
    players: np.ndarray | None = None,
) -> bool:
    """Definition 3, user by user: no player has a deviation beating its
    current benefit by more than ``tol`` (relative); an unallocated player
    disproves equilibrium with any positive benefit."""
    engine = instance.new_engine()
    engine.load_profile(profile.server, profile.channel)
    if players is None:
        players = np.arange(instance.n_users)
    for j in players:
        j = int(j)
        view = engine.candidates(j)
        if view.servers.size == 0:
            continue
        _, _, benefit = view.best("benefit")
        if engine.alloc_server[j] == UNALLOCATED:
            if benefit > 0.0:
                return False
        elif benefit > engine.user_benefit(j) * (1.0 + tol) + tol * 1e-30:
            return False
    return True


class OracleGame(IddeUGame):
    """:class:`IddeUGame` on the per-user runners and certificate."""

    def _run_round_robin(
        self, engine: SinrEngine, trace: list[float], log: list[tuple[int, int, int]]
    ) -> tuple[int, int, bool, float, np.ndarray]:
        m = self.instance.n_users
        players = self._players()
        moves = 0
        eps = self.cfg.epsilon
        patience = self.cfg.patience_for(m)
        since_escalation = 0
        moves_of = np.zeros(m, dtype=np.int64)
        cap = self.cfg.max_moves_per_user
        for rounds in range(1, self.cfg.max_rounds + 1):
            moved = False
            for j in players:
                j = int(j)
                if moves_of[j] >= cap:
                    continue
                br = self.best_response(engine, j)
                if self._improves(br, engine, eps):
                    assert br is not None
                    self._apply(engine, br, trace, log)
                    moves += 1
                    moves_of[j] += 1
                    since_escalation += 1
                    moved = True
            if not moved:
                unfrozen = self._unfreeze_capped(engine, players, moves_of, eps)
                if unfrozen is None:
                    return rounds, moves, True, eps, moves_of
                eps = unfrozen
                since_escalation = 0
                continue
            if since_escalation >= patience and eps < self.cfg.epsilon_max:
                eps = self._escalate_patience(eps, moves, "round-robin")
                since_escalation = 0
        return self.cfg.max_rounds, moves, False, eps, moves_of

    def _run_winner(
        self,
        engine: SinrEngine,
        trace: list[float],
        log: list[tuple[int, int, int]],
        rng: np.random.Generator,
        *,
        best_gain: bool,
    ) -> tuple[int, int, bool, float, np.ndarray]:
        m = self.instance.n_users
        players = self._players()
        moves = 0
        eps = self.cfg.epsilon
        patience = self.cfg.patience_for(m)
        since_escalation = 0
        moves_of = np.zeros(m, dtype=np.int64)
        cap = self.cfg.max_moves_per_user
        for rounds in range(1, self.cfg.max_rounds + 1):
            candidates: list[BestResponse] = []
            for j in players:
                j = int(j)
                if moves_of[j] >= cap:
                    continue
                br = self.best_response(engine, j)
                if self._improves(br, engine, eps):
                    assert br is not None
                    candidates.append(br)
            if not candidates:
                unfrozen = self._unfreeze_capped(engine, players, moves_of, eps)
                if unfrozen is None:
                    return rounds, moves, True, eps, moves_of
                eps = unfrozen
                since_escalation = 0
                continue
            if best_gain:
                winner = max(candidates, key=lambda b: (b.gain, -b.user))
            else:
                winner = candidates[int(rng.integers(0, len(candidates)))]
            self._apply(engine, winner, trace, log)
            moves += 1
            moves_of[winner.user] += 1
            since_escalation += 1
            if since_escalation >= patience and eps < self.cfg.epsilon_max:
                eps = self._escalate_patience(eps, moves, "winner schedule")
                since_escalation = 0
        return self.cfg.max_rounds, moves, False, eps, moves_of

    def is_nash(
        self,
        profile: AllocationProfile,
        *,
        tol: float | None = None,
        active: np.ndarray | None = None,
    ) -> bool:
        tol = self.cfg.epsilon if tol is None else tol
        if active is not None:
            players = np.flatnonzero(np.asarray(active, dtype=bool))
        else:
            players = self._players()
        return oracle_is_nash(self.instance, profile, tol, players)

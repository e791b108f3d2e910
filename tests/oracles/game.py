"""Phase 1 oracle: the literal per-user IDDE-U loops (Algorithm 1, lines 5–21).

Each round visits the players one at a time and asks the SINR engine for
that user's full candidate grid (:meth:`~repro.radio.sinr.SinrEngine.candidates`).
The production loop instead reads a resident best-response table whose
dirty rows are refreshed in one batched pass; on every instance, schedule
and seed it must apply the identical move sequence, reach the identical
profile and issue the identical certificate.

:class:`OracleGame` shares no code with :class:`~repro.core.game.IddeUGame`:
it has its own warm-start load, participant mask, move budget, capped-player
check and both epsilon escalations, and reads the engine only through
``candidates`` and ``user_benefit``.  It returns the production
:class:`~repro.core.game.GameResult` container so the parity harness can
compare the two field by field.
:func:`oracle_is_nash` is the certificate on its own, reading nothing but
the engine's per-user candidate grid.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import GameConfig
from repro.core.game import GameResult
from repro.core.instance import IDDEInstance
from repro.core.profiles import AllocationProfile
from repro.errors import ConvergenceError
from repro.obs.tracer import Tracer
from repro.radio.sinr import UNALLOCATED, SinrEngine
from repro.rng import ensure_rng

__all__ = ["OracleGame", "oracle_is_nash"]

#: A best response: ``(user, server, channel, benefit, current_benefit)``.
Move = tuple[int, int, int, float, float]


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


class OracleGame:
    """Algorithm 1's best-response dynamics, one user at a time.

    Takes :class:`~repro.core.game.IddeUGame`'s constructor and
    ``run``/``is_nash`` call shapes.  ``tracer`` is accepted for that shape
    only: the oracle records nothing, so a trace shows production alone.
    The last run's epsilon escalations are kept in :attr:`escalations` as
    ``(reason, epsilon, moves so far)``, the fields of production's
    ``game.epsilon_escalation`` events.
    """

    escalations: list[tuple[str, float, int]]

    def __init__(
        self,
        instance: IDDEInstance,
        cfg: GameConfig | None = None,
        *,
        tracer: Tracer | None = None,
    ) -> None:
        self.instance = instance
        self.cfg = cfg or GameConfig()

    def best_response(self, engine: SinrEngine, j: int) -> Move | None:
        """User ``j``'s best move read off its full candidate grid."""
        view = engine.candidates(j)
        if view.servers.size == 0:
            return None
        server, channel, benefit = view.best("benefit")
        return j, server, channel, benefit, engine.user_benefit(j)

    def _improves(self, br: Move | None, engine: SinrEngine, eps: float) -> bool:
        if br is None:
            return False
        j, server, channel, benefit, current = br
        if engine.alloc_server[j] == UNALLOCATED:
            return benefit > 0.0
        if server == engine.alloc_server[j] and channel == engine.alloc_channel[j]:
            return False
        return benefit > current * (1.0 + eps) + eps * 1e-30

    def run(
        self,
        rng: np.random.Generator | int | None = None,
        *,
        initial: AllocationProfile | None = None,
        active: np.ndarray | None = None,
    ) -> GameResult:
        cfg = self.cfg
        m = self.instance.n_users
        if active is None:
            players = list(range(m))
        else:
            active = np.asarray(active, dtype=bool)
            if active.shape != (m,):
                raise ConvergenceError(f"active mask shape {active.shape} != ({m},)")
            players = [j for j in range(m) if active[j]]
        engine = self.instance.new_engine()
        if initial is not None:
            initial.validate(self.instance.scenario)
            inactive = set(range(m)) - set(players)
            if any(initial.server[j] != UNALLOCATED for j in inactive):
                raise ConvergenceError("warm-start profile allocates inactive users")
            engine.load_profile(initial.server, initial.channel)
        rng = ensure_rng(rng)
        self.escalations = []
        t0 = time.perf_counter()
        log: list[tuple[int, int, int]] = []
        eps = cfg.epsilon
        patience = cfg.patience_for(m)
        since_escalation = 0
        moves_of = [0] * m
        rounds, converged = cfg.max_rounds, False
        for r in range(1, cfg.max_rounds + 1):
            mover: list[Move] = []
            if cfg.schedule == "round-robin":
                for j in players:
                    if moves_of[j] >= cfg.max_moves_per_user:
                        continue
                    br = self.best_response(engine, j)
                    if self._improves(br, engine, eps):
                        self._apply(engine, br, log, moves_of)
                        mover.append(br)
            else:
                candidates = []
                for j in players:
                    if moves_of[j] >= cfg.max_moves_per_user:
                        continue
                    br = self.best_response(engine, j)
                    if self._improves(br, engine, eps):
                        candidates.append(br)
                if candidates:
                    if cfg.schedule == "best-gain-winner":
                        winner = max(candidates, key=lambda b: (b[3] - b[4], -b[0]))
                    else:
                        winner = candidates[int(rng.integers(0, len(candidates)))]
                    self._apply(engine, winner, log, moves_of)
                    mover.append(winner)
            if not mover:
                unfrozen = self._unfreeze_capped(engine, players, moves_of, eps)
                if unfrozen is None:
                    rounds, converged = r, True
                    break
                eps = unfrozen
                self.escalations.append(("move-cap", eps, len(log)))
                since_escalation = 0
                continue
            since_escalation += len(mover)
            if since_escalation >= patience and eps < cfg.epsilon_max:
                eps = min(eps * cfg.epsilon_growth, cfg.epsilon_max)
                self.escalations.append(("patience", eps, len(log)))
                since_escalation = 0
        profile = AllocationProfile(engine.alloc_server, engine.alloc_channel)
        nash = converged and self.is_nash(profile, tol=eps, active=active)
        return GameResult(
            profile=profile,
            rounds=rounds,
            moves=len(log),
            converged=converged,
            is_nash=nash,
            wall_time_s=time.perf_counter() - t0,
            effective_epsilon=eps,
            move_log=log,
            capped_users=[j for j in range(m) if moves_of[j] >= cfg.max_moves_per_user],
        )

    @staticmethod
    def _apply(
        engine: SinrEngine, br: Move, log: list[tuple[int, int, int]], moves_of: list[int]
    ) -> None:
        j, server, channel = br[:3]
        engine.move(j, server, channel)
        log.append((j, server, channel))
        moves_of[j] += 1

    def _unfreeze_capped(
        self, engine: SinrEngine, players: list[int], moves_of: list[int], eps: float
    ) -> float | None:
        """A quiescent round certifies only if no move-capped player still
        improves; one that does escalates epsilon (with a one-ulp floor, past
        ``epsilon_max``) and refreshes every move budget."""
        for j in players:
            if moves_of[j] < self.cfg.max_moves_per_user:
                continue
            if self._improves(self.best_response(engine, j), engine, eps):
                for q in players:
                    moves_of[q] = 0
                return max(eps * self.cfg.epsilon_growth, float(np.finfo(np.float64).eps))
        return None

    def is_nash(
        self,
        profile: AllocationProfile,
        *,
        tol: float | None = None,
        active: np.ndarray | None = None,
    ) -> bool:
        tol = self.cfg.epsilon if tol is None else tol
        players = None
        if active is not None:
            players = np.flatnonzero(np.asarray(active, dtype=bool))
        return oracle_is_nash(self.instance, profile, tol, players)

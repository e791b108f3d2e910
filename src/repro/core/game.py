"""Phase 1 of IDDE-G: the IDDE-U user-allocation game (Algorithm 1, lines
5–21).

The game starts from the all-unallocated profile and iterates best-response
updates driven by the benefit function of Eq. (12) until no user can improve
— a Nash equilibrium of the potential game (Theorem 3), reached in finitely
many iterations (Theorem 4).

Three update schedules are provided (:class:`~repro.config.GameConfig`):

``"best-gain-winner"``
    The literal Algorithm 1 loop: every user submits its best response as
    an update candidate and the single user with the largest benefit gain
    "wins" the round and applies its move.
``"random-winner"``
    A uniformly random improving user moves each round (the classic
    asynchronous better-response dynamic used to argue decentralised
    enforceability in the paper).
``"round-robin"``
    Users are swept in index order, each applying its best response
    immediately; a sweep with no move terminates.  This is the fastest
    schedule in practice and the package default.

All schedules converge to the same *kind* of profile (a pure Nash
equilibrium certified by :meth:`IddeUGame.is_nash`), though not necessarily
the same equilibrium.  On rare instances heterogeneous gains make the game
only approximately potential and the dynamics cycle; the run then escalates
the improvement threshold until the cycle dies (see
:class:`~repro.config.GameConfig`) and the certificate is an ε-Nash at
``GameResult.effective_epsilon`` — a ``converged=True`` result is never
returned without a certificate that holds.

Every schedule, and the certificate, evaluates all users' candidate grids
in one einsum pass per round via
:meth:`~repro.radio.sinr.SinrEngine.batch_best_responses`.  The literal
per-user transcription of Algorithm 1 lives in the test suite
(``tests/oracles/game.py``) as the readable oracle: the batched runners
must replay it bit-for-bit — identical move sequences
(``GameResult.move_log``), identical equilibria, identical certificates
(``tests/oracles/test_parity.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import GameConfig
from ..errors import ConvergenceError
from ..logging_util import get_logger
from ..obs.tracer import Tracer, ensure_tracer
from ..radio.sinr import UNALLOCATED, BatchBestResponse, SinrEngine
from ..rng import ensure_rng
from .instance import IDDEInstance
from .profiles import AllocationProfile

_log = get_logger("core.game")

__all__ = ["IddeUGame", "GameResult", "BestResponse"]


@dataclass(frozen=True)
class BestResponse:
    """One user's best candidate move and the gain it would realise."""

    user: int
    server: int
    channel: int
    benefit: float
    current_benefit: float

    @property
    def gain(self) -> float:
        return self.benefit - self.current_benefit


@dataclass
class GameResult:
    """Outcome of one IDDE-U run.

    ``effective_epsilon`` is the improvement threshold in force when the
    dynamics stopped; it equals the configured epsilon unless cycling
    forced an escalation (see :class:`~repro.config.GameConfig`), in which
    case the certificate is for an ε-Nash equilibrium at that tolerance.
    """

    profile: AllocationProfile
    rounds: int
    moves: int
    converged: bool
    is_nash: bool
    wall_time_s: float
    effective_epsilon: float = 0.0
    potential_trace: list[float] = field(default_factory=list)
    #: Every applied move in order, as ``(user, server, channel)`` — the
    #: observable the oracle parity tests compare.
    move_log: list[tuple[int, int, int]] = field(default_factory=list)
    #: Users whose per-run move budget (``max_moves_per_user``) was spent
    #: when the dynamics stopped — the players a quiescent sweep had to
    #: re-check before certifying (empty on a clean convergence).
    capped_users: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GameResult(rounds={self.rounds}, moves={self.moves}, "
            f"nash={self.is_nash}, t={self.wall_time_s:.3f}s)"
        )


class IddeUGame:
    """Best-response dynamics over a shared :class:`SinrEngine`."""

    def __init__(
        self,
        instance: IDDEInstance,
        cfg: GameConfig | None = None,
        *,
        track_potential: bool = False,
        tracer: Tracer | None = None,
    ) -> None:
        self.instance = instance
        self.cfg = cfg or GameConfig()
        self.track_potential = track_potential
        self.tracer = ensure_tracer(tracer)

    #: Participant mask for the current run (None = everyone plays).
    _active: np.ndarray | None = None

    def _players(self) -> np.ndarray:
        if self._active is None:
            return np.arange(self.instance.n_users)
        return np.flatnonzero(self._active)

    # ------------------------------------------------------------------
    # single-user best response
    # ------------------------------------------------------------------
    def best_response(self, engine: SinrEngine, j: int) -> BestResponse | None:
        """The benefit-maximising move for user ``j``, or ``None`` when the
        user has no covering server (it must stay at ``α_j = (0,0)``)."""
        view = engine.candidates(j)
        if view.servers.size == 0:
            return None
        server, channel, benefit = view.best("benefit")
        return BestResponse(
            user=j,
            server=server,
            channel=channel,
            benefit=benefit,
            current_benefit=engine.user_benefit(j),
        )

    def _improves(
        self, br: BestResponse | None, engine: SinrEngine, epsilon: float
    ) -> bool:
        if br is None:
            return False
        if engine.alloc_server[br.user] == UNALLOCATED:
            # Any positive benefit beats the unallocated state.
            return br.benefit > 0.0
        threshold = br.current_benefit * (1.0 + epsilon) + epsilon * 1e-30
        if (
            br.server == engine.alloc_server[br.user]
            and br.channel == engine.alloc_channel[br.user]
        ):
            return False
        return br.benefit > threshold

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def run(
        self,
        rng: np.random.Generator | int | None = None,
        *,
        initial: AllocationProfile | None = None,
        active: np.ndarray | None = None,
    ) -> GameResult:
        """Play the game to a Nash equilibrium.

        Parameters
        ----------
        rng:
            Only consulted by the ``"random-winner"`` schedule.
        initial:
            Optional warm-start profile; defaults to all-unallocated as in
            Algorithm 1 line 2.
        active:
            Optional boolean ``(M,)`` participant mask (used by the churn
            extension): inactive users never move and never allocate —
            they behave exactly like the paper's ``α_j = (0,0)`` users.
            A warm-start profile may not allocate inactive users.
        """
        engine = self.instance.new_engine()
        engine.set_tracer(self.tracer)
        if active is not None:
            active = np.asarray(active, dtype=bool)
            if active.shape != (self.instance.n_users,):
                raise ConvergenceError(
                    f"active mask shape {active.shape} mismatches "
                    f"{self.instance.n_users} users"
                )
        # The mask must be cleared on *every* exit path — a raise during
        # warm-start validation or the dynamics must not poison the next
        # run()/is_nash() on this instance — so the whole body is guarded.
        self._active = active
        try:
            if initial is not None:
                initial.validate(self.instance.scenario)
                if active is not None and bool((initial.allocated & ~active).any()):
                    raise ConvergenceError(
                        "warm-start profile allocates inactive users"
                    )
                engine.load_profile(initial.server, initial.channel)
            rng = ensure_rng(rng)
            t0 = time.perf_counter()
            trace: list[float] = []
            log: list[tuple[int, int, int]] = []
            if self.track_potential:
                from .potential import interference_potential

                trace.append(interference_potential(engine))

            schedule = self.cfg.schedule
            with self.tracer.span(
                "game.run",
                schedule=schedule,
                users=self.instance.n_users,
                warm_start=initial is not None,
            ) as span:
                if schedule == "round-robin":
                    rounds, moves, converged, eps, moves_of = self._run_round_robin(
                        engine, trace, log
                    )
                else:
                    rounds, moves, converged, eps, moves_of = self._run_winner(
                        engine, trace, log, rng,
                        best_gain=schedule == "best-gain-winner",
                    )

                profile = AllocationProfile(engine.alloc_server, engine.alloc_channel)
                # If the dynamics truncated (max_rounds), the profile is
                # returned without a certificate: callers doing sweeps prefer
                # degraded output over an exception.
                nash = self.is_nash(profile, tol=eps) if converged else False
                capped = [
                    int(j)
                    for j in np.flatnonzero(moves_of >= self.cfg.max_moves_per_user)
                ]
                span.set(
                    rounds=rounds,
                    moves=moves,
                    converged=converged,
                    is_nash=nash,
                    effective_epsilon=eps,
                    capped_users=len(capped),
                )
        finally:
            self._active = None
        return GameResult(
            profile=profile,
            rounds=rounds,
            moves=moves,
            converged=converged,
            is_nash=nash,
            wall_time_s=time.perf_counter() - t0,
            effective_epsilon=eps,
            potential_trace=trace,
            move_log=log,
            capped_users=capped,
        )

    def _apply(
        self,
        engine: SinrEngine,
        br: BestResponse,
        trace: list[float],
        log: list[tuple[int, int, int]],
    ) -> None:
        engine.move(br.user, br.server, br.channel)
        log.append((br.user, br.server, br.channel))
        if self.tracer.enabled:
            self.tracer.event(
                "game.move",
                user=br.user,
                server=br.server,
                channel=br.channel,
                gain=br.gain,
            )
            self.tracer.count("game.moves")
        if self.track_potential:
            from .potential import interference_potential

            trace.append(interference_potential(engine))

    def _unfreeze_capped(
        self,
        engine: SinrEngine,
        players: np.ndarray,
        moves_of: np.ndarray,
        eps: float,
    ) -> float | None:
        """Escalated epsilon if a move-capped player still improves, else None.

        A quiescent sweep certifies an equilibrium only if every player
        truly had nothing to gain — but players frozen by
        ``max_moves_per_user`` never got a turn.  If one of them still has
        an ε-improving move the dynamics were cycling, so instead of
        returning a false certificate the threshold escalates (past
        ``epsilon_max``, which bounds only the patience-driven escalation)
        and every move budget is refreshed.  Benefit ratios are bounded, so
        the geometric escalation silences any cycle after finitely many
        refreshes and the eventual certificate is an honest ε-Nash at the
        returned tolerance.

        The check is per-user on purpose: it is a rare, terminal-sweep-only
        path, and the per-user oracle shares it verbatim, so both take
        bit-for-bit identical escalation decisions.
        """
        cap = self.cfg.max_moves_per_user
        capped = players[moves_of[players] >= cap]
        if self.tracer.enabled:
            self.tracer.count("game.quiescent_checks")
            self.tracer.count("game.quiescent_recheck_users", int(capped.size))
        for j in capped:
            j = int(j)
            if self._improves(self.best_response(engine, j), engine, eps):
                moves_of[players] = 0
                # A configured epsilon of exactly 0 must still escalate
                # off zero, hence the one-ulp floor.
                new_eps = max(
                    eps * self.cfg.epsilon_growth, float(np.finfo(np.float64).eps)
                )
                if self.tracer.enabled:
                    self.tracer.event(
                        "game.epsilon_escalation",
                        reason="move-cap",
                        epsilon=new_eps,
                        capped=int(capped.size),
                    )
                    self.tracer.count("game.escalations")
                return new_eps
        return None

    def _escalate_patience(self, eps: float, moves: int, label: str) -> float:
        """Patience-driven epsilon escalation, shared by both runners."""
        new_eps = min(eps * self.cfg.epsilon_growth, self.cfg.epsilon_max)
        _log.debug(
            "%s cycling: escalated epsilon to %.1e after %d moves",
            label,
            new_eps,
            moves,
        )
        if self.tracer.enabled:
            self.tracer.event(
                "game.epsilon_escalation", reason="patience", epsilon=new_eps, moves=moves
            )
            self.tracer.count("game.escalations")
        return new_eps

    def _run_round_robin(
        self, engine: SinrEngine, trace: list[float], log: list[tuple[int, int, int]]
    ) -> tuple[int, int, bool, float, np.ndarray]:
        """Round-robin sweeps: users in index order, each applying its best
        response immediately; a sweep with no move terminates.

        All users are evaluated in one einsum pass against the sweep-start
        state; within the sweep, a move at server ``i`` only perturbs the
        interference of users covered by ``i``, so exactly those users are
        marked stale and re-evaluated per-user at their turn.  Fresh batch
        entries and per-user fallbacks are bit-for-bit interchangeable
        (shared padded reduction), so the move sequence is identical to the
        literal per-user sweep.
        """
        m = self.instance.n_users
        players = self._players()
        coverage = self.instance.scenario.coverage
        moves = 0
        eps = self.cfg.epsilon
        patience = self.cfg.patience_for(m)
        since_escalation = 0
        moves_of = np.zeros(m, dtype=np.int64)
        cap = self.cfg.max_moves_per_user
        for rounds in range(1, self.cfg.max_rounds + 1):
            eligible = players[moves_of[players] < cap]
            batch = engine.batch_best_responses(eligible)
            stale = np.zeros(m, dtype=bool)
            moved = False
            for pos in range(eligible.shape[0]):
                j = int(eligible[pos])
                if stale[j]:
                    br = self.best_response(engine, j)
                elif batch.server[pos] == UNALLOCATED:
                    br = None
                else:
                    br = BestResponse(
                        user=j,
                        server=int(batch.server[pos]),
                        channel=int(batch.channel[pos]),
                        benefit=float(batch.benefit[pos]),
                        current_benefit=float(batch.current_benefit[pos]),
                    )
                if self._improves(br, engine, eps):
                    assert br is not None
                    old = int(engine.alloc_server[j])
                    self._apply(engine, br, trace, log)
                    moves += 1
                    moves_of[j] += 1
                    since_escalation += 1
                    moved = True
                    stale |= coverage[br.server]
                    if old != UNALLOCATED:
                        stale |= coverage[old]
            if not moved:
                unfrozen = self._unfreeze_capped(engine, players, moves_of, eps)
                if unfrozen is None:
                    return rounds, moves, True, eps, moves_of
                eps = unfrozen
                since_escalation = 0
                _log.debug(
                    "capped users still deviate: escalated epsilon to %.1e "
                    "after %d moves",
                    eps,
                    moves,
                )
                continue
            if since_escalation >= patience and eps < self.cfg.epsilon_max:
                eps = self._escalate_patience(eps, moves, "round-robin")
                since_escalation = 0
        _log.info("round-robin truncated at max_rounds=%d", self.cfg.max_rounds)
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
        """Winner schedules: one improving user moves per round.

        Each round evaluates every eligible user against the same fixed
        state, so one ``batch_best_responses`` pass replaces the per-user
        candidate sweep.  The winner choice keeps Algorithm 1's tie-breaks:
        ``argmax`` returns the lowest improving user among equal gains (the
        ``(gain, -user)`` key), and the random winner draws its index from
        the candidate list in user order, so the rng stream is consumed
        exactly as in the per-user loop.
        """
        m = self.instance.n_users
        players = self._players()
        moves = 0
        eps = self.cfg.epsilon
        patience = self.cfg.patience_for(m)
        since_escalation = 0
        moves_of = np.zeros(m, dtype=np.int64)
        cap = self.cfg.max_moves_per_user
        for rounds in range(1, self.cfg.max_rounds + 1):
            eligible = players[moves_of[players] < cap]
            batch = engine.batch_best_responses(eligible)
            improving = self._improving_mask(engine, batch, eps)
            idx = np.flatnonzero(improving)
            if idx.size == 0:
                unfrozen = self._unfreeze_capped(engine, players, moves_of, eps)
                if unfrozen is None:
                    return rounds, moves, True, eps, moves_of
                eps = unfrozen
                since_escalation = 0
                _log.debug(
                    "capped users still deviate: escalated epsilon to %.1e "
                    "after %d moves",
                    eps,
                    moves,
                )
                continue
            if best_gain:
                gains = batch.benefit[idx] - batch.current_benefit[idx]
                pos = int(idx[int(np.argmax(gains))])
            else:
                pos = int(idx[int(rng.integers(0, idx.size))])
            winner = BestResponse(
                user=int(batch.users[pos]),
                server=int(batch.server[pos]),
                channel=int(batch.channel[pos]),
                benefit=float(batch.benefit[pos]),
                current_benefit=float(batch.current_benefit[pos]),
            )
            self._apply(engine, winner, trace, log)
            moves += 1
            moves_of[winner.user] += 1
            since_escalation += 1
            if since_escalation >= patience and eps < self.cfg.epsilon_max:
                eps = self._escalate_patience(eps, moves, "winner schedule")
                since_escalation = 0
        _log.info("winner schedule truncated at max_rounds=%d", self.cfg.max_rounds)
        return self.cfg.max_rounds, moves, False, eps, moves_of

    def _improving_mask(
        self, engine: SinrEngine, batch: BatchBestResponse, eps: float
    ) -> np.ndarray:
        """Vectorised :meth:`_improves` over a :class:`BatchBestResponse`."""
        users = batch.users
        has_candidate = batch.server != UNALLOCATED
        cur_server = engine.alloc_server[users]
        cur_channel = engine.alloc_channel[users]
        unallocated = cur_server == UNALLOCATED
        threshold = batch.current_benefit * (1.0 + eps) + eps * 1e-30
        same = (batch.server == cur_server) & (batch.channel == cur_channel)
        return has_candidate & np.where(
            unallocated,
            batch.benefit > 0.0,
            ~same & (batch.benefit > threshold),
        )

    # ------------------------------------------------------------------
    # certification
    # ------------------------------------------------------------------
    def is_nash(
        self,
        profile: AllocationProfile,
        *,
        tol: float | None = None,
        active: np.ndarray | None = None,
    ) -> bool:
        """Definition 3 certificate: no user has a profitable deviation.

        ``tol`` defaults to the configured epsilon; a deviation must beat
        the current benefit by more than ``tol`` (relative) to disprove
        equilibrium.  ``active`` restricts the player set (the churn
        extension): inactive users are not players, so their lack of an
        allocation never disproves equilibrium.
        """
        tol = self.cfg.epsilon if tol is None else tol
        engine = self.instance.new_engine()
        engine.load_profile(profile.server, profile.channel)
        if active is not None:
            players = np.flatnonzero(np.asarray(active, dtype=bool))
        else:
            players = self._players()
        batch = engine.batch_best_responses(players)
        has_candidate = batch.server != UNALLOCATED
        unallocated = engine.alloc_server[players] == UNALLOCATED
        threshold = batch.current_benefit * (1.0 + tol) + tol * 1e-30
        deviates = has_candidate & np.where(
            unallocated, batch.benefit > 0.0, batch.benefit > threshold
        )
        return not bool(deviates.any())

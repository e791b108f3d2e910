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

The schedules share one round loop (:meth:`IddeUGame._dynamics`) and differ
only in which improving users take a turn (:meth:`IddeUGame._turns`).  Each
round reads every eligible user's best response off one resident ``(M,)``
table (:meth:`IddeUGame._refresh`).  A move from server ``s'`` to ``s``
changes the interference of exactly the users that ``s`` or ``s'`` covers,
so only those rows are marked dirty, and the next round re-evaluates just
them in one :meth:`~repro.radio.sinr.SinrEngine.batch_best_responses`
pass.  This is exact: rows are independent reductions, so a clean row is
bit for bit what a full batch would recompute.  The winner schedules
therefore pay for the rows one move touched, not all M, and need no
decomposition of the instance to stay cheap at city scale.  Within a
round-robin sweep, a user that an earlier move of the same sweep made
dirty is re-evaluated at its turn by the fused single-user kernel
:meth:`~repro.radio.sinr.SinrEngine.best_response`, which builds only the
best move.  The certificate (:meth:`IddeUGame.is_nash`, in the run's
``game.certify`` span) never reads the table: it evaluates every player
afresh on its own engine, and its verdict is the only certificate a
served answer carries (``GameResult.is_nash``).  The potential along a
run is replayed from its move log
(:func:`~repro.core.potential.potential_along`), so the loop carries no
diagnostics.  The literal per-user transcription of Algorithm 1 lives in
the test suite (``tests/oracles/game.py``) as the readable oracle, sharing
none of this loop: production must replay it bit-for-bit — identical move
sequences (``GameResult.move_log``), identical equilibria, identical
certificates (``tests/oracles/test_parity.py``).
"""

from __future__ import annotations

import time
from collections.abc import Iterable
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
    #: Every applied move in order, as ``(user, server, channel)`` — the
    #: observable the oracle parity tests compare, and the input of
    #: :func:`~repro.core.potential.potential_along`.
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
        tracer: Tracer | None = None,
    ) -> None:
        self.instance = instance
        self.cfg = cfg or GameConfig()
        self.tracer = ensure_tracer(tracer)

    def _participants(
        self, active: np.ndarray | None
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """The checked participant mask (``None`` = everyone plays) and the
        players it selects, in index order."""
        m = self.instance.n_users
        if active is None:
            return None, np.arange(m)
        active = np.asarray(active, dtype=bool)
        if active.shape != (m,):
            raise ConvergenceError(
                f"active mask shape {active.shape} mismatches {m} users"
            )
        return active, np.flatnonzero(active)

    # ------------------------------------------------------------------
    # single-user best response
    # ------------------------------------------------------------------
    def best_response(self, engine: SinrEngine, j: int) -> BestResponse | None:
        """The benefit-maximising move for user ``j``, or ``None`` when the
        user has no covering server (it must stay at ``α_j = (0,0)``)."""
        fused = engine.best_response(j)
        return None if fused is None else BestResponse(j, *fused)

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
        active, players = self._participants(active)
        engine = self.instance.new_engine()
        engine.set_tracer(self.tracer)
        if initial is not None:
            initial.validate(self.instance.scenario)
            if active is not None and bool((initial.allocated & ~active).any()):
                raise ConvergenceError("warm-start profile allocates inactive users")
            engine.load_profile(initial.server, initial.channel)
        rng = ensure_rng(rng)
        t0 = time.perf_counter()
        log: list[tuple[int, int, int]] = []
        with self.tracer.span(
            "game.run",
            schedule=self.cfg.schedule,
            users=self.instance.n_users,
            warm_start=initial is not None,
        ) as span:
            rounds, converged, eps, moves_of = self._dynamics(engine, players, rng, log)
            profile = AllocationProfile(engine.alloc_server, engine.alloc_channel)
            # If the dynamics truncated (max_rounds), the profile is
            # returned without a certificate: callers doing sweeps prefer
            # degraded output over an exception.
            nash = False
            if converged:
                with self.tracer.span("game.certify"):
                    nash = self.is_nash(profile, tol=eps, active=active)
            capped = [
                int(j) for j in np.flatnonzero(moves_of >= self.cfg.max_moves_per_user)
            ]
            span.set(
                rounds=rounds,
                moves=len(log),
                converged=converged,
                is_nash=nash,
                effective_epsilon=eps,
                capped_users=len(capped),
            )
        return GameResult(
            profile=profile,
            rounds=rounds,
            moves=len(log),
            converged=converged,
            is_nash=nash,
            wall_time_s=time.perf_counter() - t0,
            effective_epsilon=eps,
            move_log=log,
            capped_users=capped,
        )

    def _dynamics(
        self,
        engine: SinrEngine,
        players: np.ndarray,
        rng: np.random.Generator,
        log: list[tuple[int, int, int]],
    ) -> tuple[int, bool, float, np.ndarray]:
        """Rounds of best responses until one finds no improving player.

        Each round refreshes the eligible players' rows of the resident
        table, marks who improves at the round's epsilon, and lets the
        schedule's turns (:meth:`_turns`) apply their moves.  A refreshed
        row is clean, so within a round ``dirty[j]`` marks exactly the
        players that an earlier move of the same round made stale (it is
        read only once the round has moved).  A stale turn re-evaluates
        through the fused single-user kernel (:meth:`best_response`); a
        clean turn is decided by the round's mask without building
        anything.  Batch entries and fused re-evaluations are bit-for-bit
        interchangeable (shared padded reduction), so every schedule
        replays its literal per-user loop.

        A round with no improving player either certifies (every
        move-capped player re-checked, :meth:`_unfreeze_capped`) or
        escalates epsilon and refreshes the move budgets; a round with
        moves escalates once ``patience`` moves pass without convergence.
        """
        m = self.instance.n_users
        coverage = self.instance.scenario.coverage
        table, dirty = self._new_table(m)
        eps = self.cfg.epsilon
        patience = self.cfg.patience_for(m)
        since_escalation = 0
        moves_of = np.zeros(m, dtype=np.int64)
        cap = self.cfg.max_moves_per_user
        for rounds in range(1, self.cfg.max_rounds + 1):
            eligible = players[moves_of[players] < cap]
            batch = self._refresh(engine, table, dirty, eligible)
            improving = self._improving_mask(engine, batch, eps)
            idx = np.flatnonzero(improving)
            if idx.size == 0:
                unfrozen = self._unfreeze_capped(engine, players, moves_of, eps)
                if unfrozen is None:
                    return rounds, True, eps, moves_of
                eps = unfrozen
                since_escalation = 0
                _log.debug(
                    "capped users still deviate: escalated epsilon to %.1e "
                    "after %d moves",
                    eps,
                    len(log),
                )
                continue
            moved = False
            for pos, j, improves in self._turns(batch, improving, idx, rng):
                if moved and dirty[j]:
                    br = self.best_response(engine, j)
                    if not self._improves(br, engine, eps):
                        continue
                elif improves:
                    br = BestResponse(
                        user=j,
                        server=int(batch.server[pos]),
                        channel=int(batch.channel[pos]),
                        benefit=float(batch.benefit[pos]),
                        current_benefit=float(batch.current_benefit[pos]),
                    )
                else:
                    continue
                old = int(engine.alloc_server[j])
                self._apply(engine, br, log)
                dirty |= coverage[br.server]
                if old != UNALLOCATED:
                    dirty |= coverage[old]
                moved = True
                moves_of[j] += 1
                since_escalation += 1
            if since_escalation >= patience and eps < self.cfg.epsilon_max:
                eps = self._escalate_patience(eps, len(log))
                since_escalation = 0
        _log.info("%s truncated at max_rounds=%d", self.cfg.schedule, self.cfg.max_rounds)
        return self.cfg.max_rounds, False, eps, moves_of

    def _turns(
        self,
        batch: BatchBestResponse,
        improving: np.ndarray,
        idx: np.ndarray,
        rng: np.random.Generator,
    ) -> Iterable[tuple[int, int, bool]]:
        """The round's turns as ``(position, user, improves)``.

        Round-robin gives every eligible player a turn in index order.
        The winner schedules give one improving player the round, with
        Algorithm 1's tie-breaks: ``argmax`` returns the lowest user among
        equal gains (the ``(gain, -user)`` key), and the random winner
        draws its index from the improving players in user order, so the
        rng stream is consumed exactly as in the per-user loop.
        """
        schedule = self.cfg.schedule
        if schedule == "round-robin":
            return zip(range(improving.size), batch.users.tolist(), improving.tolist())
        if schedule == "best-gain-winner":
            gains = batch.benefit[idx] - batch.current_benefit[idx]
            pos = int(idx[int(np.argmax(gains))])
        else:
            pos = int(idx[int(rng.integers(0, idx.size))])
        return ((pos, int(batch.users[pos]), True),)

    def _apply(
        self, engine: SinrEngine, br: BestResponse, log: list[tuple[int, int, int]]
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

    def _unfreeze_capped(
        self,
        engine: SinrEngine,
        players: np.ndarray,
        moves_of: np.ndarray,
        eps: float,
    ) -> float | None:
        """Escalated epsilon if a move-capped player still improves, else None.

        A quiescent round certifies an equilibrium only if every player
        truly had nothing to gain — but players frozen by
        ``max_moves_per_user`` never got a turn.  If one of them still has
        an ε-improving move the dynamics were cycling, so instead of
        returning a false certificate the threshold escalates (past
        ``epsilon_max``, which bounds only the patience-driven escalation)
        and every move budget is refreshed.  Benefit ratios are bounded, so
        the geometric escalation silences any cycle after finitely many
        refreshes and the eventual certificate is an honest ε-Nash at the
        returned tolerance.

        The check is per-user on purpose: it is a rare, terminal-round-only
        path.  It goes through the fused :meth:`best_response`; the
        per-user oracle makes the same decision on the literal candidate
        grid, and both must escalate bit-for-bit identically.
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

    def _escalate_patience(self, eps: float, moves: int) -> float:
        """Patience-driven epsilon escalation."""
        new_eps = min(eps * self.cfg.epsilon_growth, self.cfg.epsilon_max)
        _log.debug(
            "%s cycling: escalated epsilon to %.1e after %d moves",
            self.cfg.schedule,
            new_eps,
            moves,
        )
        if self.tracer.enabled:
            self.tracer.event(
                "game.epsilon_escalation", reason="patience", epsilon=new_eps, moves=moves
            )
            self.tracer.count("game.escalations")
        return new_eps

    @staticmethod
    def _new_table(m: int) -> tuple[BatchBestResponse, np.ndarray]:
        """An empty ``(M,)``-indexed best-response table, every row dirty."""
        table = BatchBestResponse(
            users=np.arange(m),
            server=np.full(m, UNALLOCATED, dtype=np.int64),
            channel=np.full(m, UNALLOCATED, dtype=np.int64),
            benefit=np.zeros(m),
            current_benefit=np.zeros(m),
        )
        return table, np.ones(m, dtype=bool)

    def _refresh(
        self,
        engine: SinrEngine,
        table: BatchBestResponse,
        dirty: np.ndarray,
        eligible: np.ndarray,
    ) -> BatchBestResponse:
        """The round's batch view of ``eligible``, read off the resident table.

        Only the dirty eligible rows are re-evaluated, in one
        ``batch_best_responses`` pass.  A row depends only on the channel
        powers of the user's covering servers, so the dynamics mark dirty
        exactly the users covered by a move's old or new server; every
        clean row is still the value a full batch would compute now (rows
        are independent reductions over the same padded tables, bit for
        bit).  Dirty rows of capped players wait until they are eligible.
        """
        rows = eligible[dirty[eligible]]
        if rows.size:
            fresh = engine.batch_best_responses(rows)
            table.server[rows] = fresh.server
            table.channel[rows] = fresh.channel
            table.benefit[rows] = fresh.benefit
            table.current_benefit[rows] = fresh.current_benefit
            dirty[rows] = False
        return BatchBestResponse(
            users=eligible,
            server=table.server[eligible],
            channel=table.channel[eligible],
            benefit=table.benefit[eligible],
            current_benefit=table.current_benefit[eligible],
        )

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
        _, players = self._participants(active)
        engine = self.instance.new_engine()
        engine.load_profile(profile.server, profile.channel)
        batch = engine.batch_best_responses(players)
        # A best response at the current slot has exactly the current
        # benefit, which never beats the threshold for ``tol >= 0``, so the
        # dynamics' improvement mask is the certificate's deviation test.
        return not bool(self._improving_mask(engine, batch, tol).any())

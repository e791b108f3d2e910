"""Concurrent shard solving with whole-instance reconciliation.

The pipeline is build → solve → reconcile:

1. **build** — :func:`~repro.sharding.domains.build_plan` decomposes the
   instance; each shard becomes a picklable :class:`ShardTask` holding its
   own sub-instance (see :mod:`repro.sharding.extract`).
2. **solve** — shards fan out through :func:`repro.parallel.parallel_map`.
   Each worker plays the full IDDE-U dynamics on its sub-instance with an
   independent child RNG stream spawned from ``(root_seed, "shard", i)``,
   so results are reproducible regardless of worker count or scheduling.
3. **reconcile** — shard profiles are stitched back into global indices
   (boundary users left unallocated) and handed to a warm-started global
   :class:`~repro.core.game.IddeUGame` run.  Its quiescent sweep is what
   certifies the *whole-instance* ε-Nash at ``effective_epsilon``; on a
   clean decomposition (no boundary users) it converges in one sweep with
   zero moves, and the certificate is over the full player set either way.

The composed :class:`~repro.core.game.GameResult` therefore reports an
honest whole-instance certificate — ``is_nash``/``effective_epsilon`` come
from the reconciliation run, never from per-shard claims — while rounds,
moves and the move log aggregate the shard work.

When the plan is trivial (one shard owning every allocatable user, no
boundary) the solver falls back to the plain game on the full instance
with the caller's RNG untouched, which is bit-for-bit identical to not
sharding at all — for every schedule, including ``random-winner`` whose
stream alignment a detour through the fan-out would break.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..config import DeliveryConfig, GameConfig
from ..core.delivery import greedy_delivery
from ..core.game import GameResult, IddeUGame
from ..core.idde_g import IddeG
from ..core.instance import IDDEInstance
from ..core.profiles import AllocationProfile, DeliveryProfile
from ..obs.tracer import Tracer, ensure_tracer
from ..parallel import ParallelConfig, parallel_map
from ..radio.sinr import UNALLOCATED
from ..rng import ensure_rng, spawn_rng
from .config import ShardConfig
from .domains import ShardPlan, build_plan
from .extract import extract_subinstance

__all__ = ["ShardTask", "ShardOutcome", "ShardedIddeG", "solve_sharded_game"]


@dataclass(frozen=True)
class ShardTask:
    """One shard's unit of work — fully picklable, no shared state.

    ``initial_server``/``initial_channel`` carry a shard-local warm-start
    profile (allocations to out-of-domain servers already dropped) and
    ``active`` the shard-local participant mask; all three are ``None`` on
    a cold solve.
    """

    index: int
    root_seed: int
    instance: IDDEInstance
    cfg: GameConfig
    initial_server: np.ndarray | None = None
    initial_channel: np.ndarray | None = None
    active: np.ndarray | None = None


@dataclass(frozen=True)
class ShardOutcome:
    """What a shard worker sends back (local indices throughout)."""

    index: int
    server: np.ndarray
    channel: np.ndarray
    rounds: int
    moves: int
    converged: bool
    effective_epsilon: float
    move_log: list[tuple[int, int, int]]
    wall_time_s: float


def _solve_shard(task: ShardTask) -> ShardOutcome:
    """Worker entry point: play the game on one shard's sub-instance."""
    rng = spawn_rng(task.root_seed, "shard", task.index)
    initial = None
    if task.initial_server is not None and task.initial_channel is not None:
        initial = AllocationProfile(task.initial_server, task.initial_channel)
    result = IddeUGame(task.instance, task.cfg).run(
        rng=rng, initial=initial, active=task.active
    )
    return ShardOutcome(
        index=task.index,
        server=result.profile.server,
        channel=result.profile.channel,
        rounds=result.rounds,
        moves=result.moves,
        converged=result.converged,
        effective_epsilon=result.effective_epsilon,
        move_log=result.move_log,
        wall_time_s=result.wall_time_s,
    )


def solve_sharded_game(
    instance: IDDEInstance,
    game_cfg: GameConfig | None = None,
    shard_cfg: ShardConfig | None = None,
    *,
    rng: np.random.Generator | int | None = None,
    tracer: Tracer | None = None,
    plan: ShardPlan | None = None,
    initial: AllocationProfile | None = None,
    active: np.ndarray | None = None,
) -> tuple[GameResult, dict[str, Any]]:
    """Solve the IDDE-U game via interference-domain decomposition.

    ``initial`` warm-starts the decomposition: each shard re-enters its
    sub-game from the prior equilibrium restricted to its domain, boundary
    users keep their prior allocation going into reconciliation (guarded by
    a coverage/channel check), and ``active`` masks churned-away users
    throughout.  The certificate semantics are unchanged — the global
    reconciliation sweep still proves the whole-instance ε-Nash.

    Returns the composed whole-instance :class:`GameResult` plus a stats
    dict (shard sizes, per-shard rounds/moves, reconcile effort) suitable
    for solver ``extras`` and trace events.
    """
    game_cfg = game_cfg or GameConfig()
    shard_cfg = shard_cfg or ShardConfig()
    tracer = ensure_tracer(tracer)
    t0 = time.perf_counter()

    with tracer.span("shard.build", users=instance.n_users) as span:
        if plan is None:
            plan = build_plan(instance, shard_cfg)
        span.set(
            domains=plan.n_domains,
            shards=len(plan.shards),
            boundary_users=int(plan.boundary_users.size),
            uncovered_users=int(plan.uncovered_users.size),
            trivial=plan.is_trivial,
        )
    if tracer.enabled:
        tracer.count("shard.boundary_users", int(plan.boundary_users.size))

    if plan.is_trivial:
        # Bit-identical fallback: full instance, caller's RNG untouched.
        if tracer.enabled:
            tracer.event("shard.fallback", reason="trivial-plan")
        result = IddeUGame(instance, game_cfg, tracer=tracer).run(
            rng=rng, initial=initial, active=active
        )
        stats = _stats(plan, [], result, fallback=True)
        return result, stats

    # A generator caller pays one draw to seed the shard tree; an int seed
    # is used directly so `rng=seed` stays reproducible across runs.
    if rng is None or isinstance(rng, (int, np.integer)):
        root_seed = int(rng) if rng is not None else int(
            ensure_rng(None).integers(0, 2**31 - 1)
        )
    else:
        root_seed = int(ensure_rng(rng).integers(0, 2**31 - 1))

    # Shard-local warm-start projection: inverse-map global server indices
    # into each domain; allocations to out-of-domain servers are dropped
    # (those users re-enter their shard's game unallocated).
    server_pos = None
    if initial is not None:
        server_pos = np.full(instance.n_servers, -1, dtype=np.int64)

    def _local_warmth(
        dom: Any,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        loc_active = None if active is None else np.asarray(active, bool)[dom.users]
        if initial is None:
            return None, None, loc_active
        assert server_pos is not None
        server_pos.fill(-1)
        server_pos[dom.servers] = np.arange(dom.servers.size, dtype=np.int64)
        g_server = initial.server[dom.users]
        g_channel = initial.channel[dom.users]
        loc_server = np.where(g_server >= 0, server_pos[g_server], UNALLOCATED)
        loc_channel = np.where(loc_server >= 0, g_channel, UNALLOCATED)
        loc_server = np.where(loc_server >= 0, loc_server, UNALLOCATED)
        return loc_server, loc_channel, loc_active

    tasks = []
    for i, dom in enumerate(plan.shards):
        loc_server, loc_channel, loc_active = _local_warmth(dom)
        tasks.append(
            ShardTask(
                index=i,
                root_seed=root_seed,
                instance=extract_subinstance(instance, dom).instance,
                cfg=game_cfg,
                initial_server=loc_server,
                initial_channel=loc_channel,
                active=loc_active,
            )
        )

    with tracer.span(
        "shard.solve", shards=len(tasks), workers=shard_cfg.n_workers or 0
    ) as span:
        outcomes = parallel_map(
            _solve_shard, tasks, ParallelConfig(n_workers=shard_cfg.n_workers)
        )
        span.set(
            rounds=sum(o.rounds for o in outcomes),
            moves=sum(o.moves for o in outcomes),
            converged=all(o.converged for o in outcomes),
        )
    if tracer.enabled:
        for dom, o in zip(plan.shards, outcomes):
            tracer.event(
                "shard.result",
                index=o.index,
                users=dom.n_users,
                servers=dom.n_servers,
                rounds=o.rounds,
                moves=o.moves,
                converged=o.converged,
                effective_epsilon=o.effective_epsilon,
            )

    # Stitch local profiles back into global indices; boundary/uncovered
    # users stay unallocated until (and unless) reconciliation moves them.
    m = instance.n_users
    server = np.full(m, UNALLOCATED, dtype=np.int64)
    channel = np.full(m, UNALLOCATED, dtype=np.int64)
    move_log: list[tuple[int, int, int]] = []
    for dom, o in zip(plan.shards, outcomes):
        allocated = o.server != UNALLOCATED
        server[dom.users[allocated]] = dom.servers[o.server[allocated]]
        channel[dom.users[allocated]] = o.channel[allocated]
        move_log.extend(
            (int(dom.users[u]), int(dom.servers[s]), int(c))
            for u, s, c in o.move_log
        )
    if initial is not None and plan.boundary_users.size:
        # Boundary users were withheld from every shard; let them keep their
        # prior allocation into reconciliation instead of starting detached.
        # Guard coverage/channel validity so a stale warm profile can't make
        # the reconciliation game's initial-validate throw.
        b = plan.boundary_users
        b_server = initial.server[b]
        ok = b_server >= 0
        if active is not None:
            ok &= np.asarray(active, bool)[b]
        safe = b_server.clip(min=0)
        ok &= instance.scenario.coverage[safe, b]
        ok &= initial.channel[b] < instance.scenario.channels[safe]
        seed_users = b[ok]
        server[seed_users] = initial.server[seed_users]
        channel[seed_users] = initial.channel[seed_users]
    stitched = AllocationProfile(server, channel)

    # The reconciliation threshold starts at the loosest per-shard
    # certificate: anything the shards already settled at ε_i must not be
    # re-litigated, and the escalation machinery still tightens honesty —
    # the final certificate is whatever tolerance the global sweep proves.
    shard_eps = max((o.effective_epsilon for o in outcomes), default=game_cfg.epsilon)
    rec_cfg = replace(
        game_cfg,
        schedule=shard_cfg.reconcile_schedule,
        epsilon=max(game_cfg.epsilon, shard_eps),
        max_rounds=shard_cfg.reconcile_max_rounds,
    )
    with tracer.span(
        "shard.reconcile", boundary_users=int(plan.boundary_users.size)
    ) as span:
        rec = IddeUGame(instance, rec_cfg, tracer=tracer).run(
            rng=spawn_rng(root_seed, "reconcile"), initial=stitched, active=active
        )
        span.set(
            rounds=rec.rounds,
            moves=rec.moves,
            is_nash=rec.is_nash,
            effective_epsilon=rec.effective_epsilon,
        )
    if tracer.enabled:
        tracer.count("shard.reconcile_rounds", rec.rounds)
        tracer.count("shard.reconcile_moves", rec.moves)

    move_log.extend(rec.move_log)
    result = GameResult(
        profile=rec.profile,
        rounds=sum(o.rounds for o in outcomes) + rec.rounds,
        moves=sum(o.moves for o in outcomes) + rec.moves,
        converged=all(o.converged for o in outcomes) and rec.converged,
        is_nash=rec.is_nash,
        wall_time_s=time.perf_counter() - t0,
        effective_epsilon=rec.effective_epsilon,
        potential_trace=rec.potential_trace,
        move_log=move_log,
        capped_users=rec.capped_users,
    )
    return result, _stats(plan, outcomes, rec, fallback=False)


def _stats(
    plan: ShardPlan,
    outcomes: list[ShardOutcome],
    reconcile: GameResult,
    *,
    fallback: bool,
) -> dict[str, Any]:
    return {
        "fallback": fallback,
        "n_domains": plan.n_domains,
        "n_shards": len(plan.shards),
        "shard_users": [d.n_users for d in plan.shards],
        "boundary_users": int(plan.boundary_users.size),
        "uncovered_users": int(plan.uncovered_users.size),
        "shard_rounds": [o.rounds for o in outcomes],
        "shard_moves": [o.moves for o in outcomes],
        "shard_effective_epsilon": max(
            (o.effective_epsilon for o in outcomes), default=0.0
        ),
        "reconcile_rounds": 0 if fallback else reconcile.rounds,
        "reconcile_moves": 0 if fallback else reconcile.moves,
    }


class ShardedIddeG(IddeG):
    """IDDE-G with phase 1 executed by interference-domain decomposition.

    Keeps the ``IDDE-G`` solver name — sharding is an execution strategy
    for the same algorithm, not a different point in the paper's solver
    comparison — and the same extras contract, plus a ``"sharding"`` block
    with the decomposition stats.
    """

    def __init__(
        self,
        game: GameConfig | None = None,
        delivery: DeliveryConfig | None = None,
        *,
        sharding: ShardConfig | None = None,
        track_potential: bool = False,
        tracer: Tracer | None = None,
        initial: AllocationProfile | None = None,
        active: np.ndarray | None = None,
    ) -> None:
        super().__init__(
            game,
            delivery,
            track_potential=track_potential,
            tracer=tracer,
            initial=initial,
            active=active,
        )
        self.shard_cfg = sharding or ShardConfig()

    def _solve(
        self, instance: IDDEInstance, rng: np.random.Generator
    ) -> tuple[AllocationProfile, DeliveryProfile, dict[str, Any]]:
        result, stats = solve_sharded_game(
            instance,
            self.game_cfg,
            self.shard_cfg,
            rng=rng,
            tracer=self.tracer,
            initial=self.initial,
            active=self.active,
        )
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
            "sharding": stats,
            "delivery_iterations": delivery.iterations,
            "replicas": delivery.profile.n_replicas,
            "delivery_gain_s": delivery.total_gain_s,
            "game_result": result,
            "delivery_result": delivery,
        }
        if self.track_potential:
            extras["potential_trace"] = result.potential_trace
        return result.profile, delivery.profile, extras

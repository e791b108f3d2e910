"""The registered benchmarks covering the IDDE-G hot paths.

Each factory does its setup (fixtures, engines, profiles) outside the
timed callable, and each timed callable performs enough inner work to sit
comfortably above clock resolution at the ``S`` scale (inner-loop counts
are part of a benchmark's identity — changing one invalidates trajectory
comparisons for that benchmark, so bump the benchmark's *name* too).

The hot paths, mapped to the paper:

* ``sinr.*`` — the :class:`~repro.radio.sinr.SinrEngine` kernels behind
  every best-response evaluation (Eq. 2/12) and the global Eq. 4/5 rates;
* ``game.round.*`` — one best-response round under each of the three
  update schedules of Algorithm 1, plus a ``.traced`` twin of the
  round-robin round timing the recording-tracer overhead;
* ``game.converge`` — a full IDDE-U run to Nash equilibrium;
* ``shard.*`` — the interference-domain decomposition layer: plan
  construction (``shard.build``), a full sharded solve including
  reconciliation (``shard.solve``), and its unsharded twin
  (``shard.solve.global``) on the identical instance and config — their
  ratio IS the decomposition speed-up (serial by construction: the timed
  region runs under ``force_serial``).  Both solve benches use the
  literal Algorithm 1 ``best-gain-winner`` schedule, where
  decomposition shortens the per-move candidate sweep;
  run them at ``XL`` for the trajectory point;
* ``delivery.greedy`` — Phase 2 marginal-latency-per-byte placement
  (Eq. 17, Theorems 6–7) on the incremental gain-table loop; run it at
  ``M_k64``, where delivery dominates the solve, for the trajectory
  point;
* ``workload.replay.warm`` / ``workload.replay.cold`` — the day-in-the-
  life streaming pair: a Poisson/Zipf event stream batched into epochs,
  re-solved through the :func:`repro.api.solve` façade either warm
  (``warm_start=`` the previous epoch's equilibrium) or cold (from
  scratch) on the *identical* pre-built epoch instances; every epoch
  asserts the ε-Nash certificate, so their ratio IS the incremental
  re-solve speed-up with certificates intact.  Run at ``M`` (10k events)
  for the trajectory point; ``S`` is the CI smoke size;
* ``serve.request.warm`` — the IDDE-Serve hot path end to end: a
  warm-booted :class:`~repro.serve.SolverSession` services the same
  day-in-the-life delta batches — fold events, project the instance,
  warm re-solve, *independently* re-check the ε-Nash certificate —
  exactly what one ``POST /v1/events`` costs the daemon per request
  (run at ``M`` for the trajectory point);
* ``topology.all-pairs-dijkstra`` — the pure-Python fallback Dijkstra
  over all sources, paired with ``topology.all-pairs-dijkstra.scipy``,
  the compiled csgraph *production* path (the default everywhere) at a
  higher inner-loop count: the compiled kernel's per-call cost shrinks
  with scale while the Python one grows, so the twin needs more calls to
  clear clock resolution;
* ``datasets.eua-sample`` — EUA-style per-trial scenario generation;
* ``analysis.selflint.*`` — the IDDE-Lint self-lint of ``src/repro`` as a
  cold/warm cache pair: ``cold`` times the full semantic analysis,
  ``warm`` the incremental path, and their ratio gates the cache's
  effectiveness (``tests/bench/test_self_lint.py`` requires ≥5x).
"""

from __future__ import annotations

from typing import Callable

from ..config import DeliveryConfig, GameConfig
from ..core.delivery import greedy_delivery
from ..core.game import IddeUGame
from ..datasets.eua import sample_scenario
from ..radio.sinr import UNALLOCATED, SinrEngine
from ..rng import spawn_rng
from ..topology.shortest_path import all_pairs_path_cost
from .fixtures import equilibrium_profile, eua_pool, instance_for, scale_spec
from .registry import benchmark

__all__: list[str] = []

#: Inner-loop counts lifting sub-100µs kernels above timer noise at scale S.
_CHURN_SWEEPS = 10
_RATES_CALLS = 100
_GREEDY_CALLS = 3
_DIJKSTRA_CALLS = 3
_DIJKSTRA_SCIPY_CALLS = 50


def _loaded_engine(scale: str, seed: int) -> SinrEngine:
    """A fresh engine holding the equilibrium profile (setup helper)."""
    instance = instance_for(scale, seed)
    profile = equilibrium_profile(scale, seed)
    engine = instance.new_engine()
    engine.load_profile(profile.server, profile.channel)
    return engine


@benchmark(
    "sinr.candidates",
    "CandidateView evaluation (Eq. 2/12) for every user at equilibrium",
)
def _bench_sinr_candidates(scale: str, seed: int) -> Callable[[], object]:
    engine = _loaded_engine(scale, seed)
    users = range(engine.scenario.n_users)

    def run() -> object:
        views = [engine.candidates(j) for j in users]
        return len(views)

    return run


@benchmark(
    "sinr.churn",
    f"incremental unassign/assign bookkeeping, {_CHURN_SWEEPS} full user sweeps",
)
def _bench_sinr_churn(scale: str, seed: int) -> Callable[[], object]:
    engine = _loaded_engine(scale, seed)
    allocated = [
        (j, int(engine.alloc_server[j]), int(engine.alloc_channel[j]))
        for j in range(engine.scenario.n_users)
        if engine.alloc_server[j] != UNALLOCATED
    ]

    def run() -> object:
        for _ in range(_CHURN_SWEEPS):
            for j, server, channel in allocated:
                engine.unassign(j)
                engine.assign(j, server, channel)
        return len(allocated)

    return run


@benchmark(
    "sinr.rates",
    f"vectorised global Eq. 4/5 rate evaluation, {_RATES_CALLS} calls",
)
def _bench_sinr_rates(scale: str, seed: int) -> Callable[[], object]:
    engine = _loaded_engine(scale, seed)

    def run() -> object:
        total = 0.0
        for _ in range(_RATES_CALLS):
            total += float(engine.rates().sum())
        return total

    return run


def _one_round_factory(schedule: str) -> Callable[[str, int], Callable[[], object]]:
    def make(scale: str, seed: int) -> Callable[[], object]:
        instance = instance_for(scale, seed)
        cfg = GameConfig(schedule=schedule, max_rounds=1)

        def run() -> object:
            return IddeUGame(instance, cfg).run(rng=seed).moves

        return run

    return make


benchmark(
    "game.round.round-robin",
    "one best-response round, round-robin schedule (package default)",
)(_one_round_factory("round-robin"))


def _one_round_traced_factory(
    schedule: str,
) -> Callable[[str, int], Callable[[], object]]:
    """The ``.traced`` twin: the identical round with a live recording tracer.

    The tracer is constructed inside the timed callable on purpose — the
    twin times the full observed cost of tracing a round (tracer setup,
    per-move events, span bookkeeping), so ``twin / plain`` is the
    recording overhead and the plain benchmark gates the no-op overhead.
    """

    def make(scale: str, seed: int) -> Callable[[], object]:
        from ..obs.tracer import RecordingTracer

        instance = instance_for(scale, seed)
        cfg = GameConfig(schedule=schedule, max_rounds=1)

        def run() -> object:
            tracer = RecordingTracer()
            moves = IddeUGame(instance, cfg, tracer=tracer).run(rng=seed).moves
            return (moves, len(tracer.events))

        return run

    return make


# The ``.traced`` twin times the recording-tracer cost of the same round
# (tracer constructed inside the timed region); the plain round above
# runs with the shared no-op tracer, so CI gates the no-op overhead simply
# by gating the plain benchmarks against the seed baseline.
benchmark(
    "game.round.round-robin.traced",
    "the same round-robin round with a live recording tracer (overhead twin)",
)(_one_round_traced_factory("round-robin"))

benchmark(
    "game.round.best-gain-winner",
    "one best-response round, literal Algorithm 1 best-gain-winner schedule",
)(_one_round_factory("best-gain-winner"))

benchmark(
    "game.round.random-winner",
    "one best-response round, asynchronous random-winner schedule",
)(_one_round_factory("random-winner"))


@benchmark(
    "game.converge",
    "full IDDE-U best-response dynamics to Nash equilibrium (Theorem 4)",
)
def _bench_game_converge(scale: str, seed: int) -> Callable[[], object]:
    instance = instance_for(scale, seed)
    cfg = GameConfig()

    def run() -> object:
        return IddeUGame(instance, cfg).run(rng=seed).moves

    return run


#: The shard solve pair plays the literal Algorithm 1 schedule: one winner
#: per round means the global run pays a full candidate sweep per move,
#: which is exactly the cost decomposition amortises per shard.
_SHARD_GAME_CFG = GameConfig(schedule="best-gain-winner")


@benchmark(
    "shard.build",
    "interference-domain plan construction (components + split + pack)",
)
def _bench_shard_build(scale: str, seed: int) -> Callable[[], object]:
    from ..sharding import ShardConfig, build_plan

    instance = instance_for(scale, seed)
    cfg = ShardConfig()

    def run() -> object:
        return len(build_plan(instance, cfg).shards)

    return run


@benchmark(
    "shard.solve",
    "sharded IDDE-U solve + reconciliation, best-gain-winner (pair)",
)
def _bench_shard_solve(scale: str, seed: int) -> Callable[[], object]:
    from ..sharding import ShardConfig, solve_sharded_game

    instance = instance_for(scale, seed)
    shard_cfg = ShardConfig(n_workers=0)

    def run() -> object:
        result, _ = solve_sharded_game(
            instance, _SHARD_GAME_CFG, shard_cfg, rng=seed
        )
        assert result.is_nash
        return result.moves

    return run


@benchmark(
    "shard.solve.global",
    "the same solve unsharded on the whole instance (pair twin)",
)
def _bench_shard_solve_global(scale: str, seed: int) -> Callable[[], object]:
    instance = instance_for(scale, seed)

    def run() -> object:
        result = IddeUGame(instance, _SHARD_GAME_CFG).run(rng=seed)
        assert result.is_nash
        return result.moves

    return run


@benchmark(
    "delivery.greedy",
    f"Phase 2 greedy latency-per-byte placement (Eq. 17), {_GREEDY_CALLS} calls",
)
def _bench_delivery_greedy(scale: str, seed: int) -> Callable[[], object]:
    instance = instance_for(scale, seed)
    profile = equilibrium_profile(scale, seed)
    # Materialise the cached path-cost model outside the timed region.
    assert instance.latency_model is not None

    def run() -> object:
        replicas = 0
        for _ in range(_GREEDY_CALLS):
            replicas = greedy_delivery(instance, profile).profile.n_replicas
        return replicas

    return run


# --- the streaming day-in-the-life pair -------------------------------
#
# Both twins replay the identical epoch sequence: the event stream,
# per-epoch instances, and participant masks are pre-built (and their
# lazily-cached state — path costs, coverage, covering sets — pre-touched)
# in a shared memoised setup, so the timed region is exactly the façade
# re-solves.  The warm twin threads each epoch's Solution into the next
# ``warm_start=``; the cold twin solves every epoch from scratch.  Both
# assert the ε-Nash certificate every epoch — the speed-up is *with
# certificates intact*, which is the whole point.
#
# The stream is deliberately gentle (small move sigma, low churn): the
# regime where incremental re-solve should shine is "most users barely
# moved", and a cold solve's move count floors at ~n_active regardless.

#: Events per run and events per epoch, by scale.  ``M`` is the ISSUE's
#: 10k-event day-in-the-life trajectory point; ``S`` the CI smoke size.
_REPLAY_SPEC: dict[str, tuple[int, int]] = {
    "S": (600, 50),
    "M": (10_000, 25),
    "M_k64": (2_000, 50),
    "L": (2_000, 50),
    "XL": (2_000, 50),
}
_REPLAY_GAME_CFG = GameConfig(schedule="best-gain-winner", epsilon=0.01)
_REPLAY_DELIVERY_CFG = DeliveryConfig(min_gain_s_per_mb=0.05)

#: (epoch instance, active mask) steps plus the epoch-0 solution, memoised.
_REPLAY_CACHE: dict[tuple[str, int], tuple[list, object]] = {}


def _replay_day(scale: str, seed: int) -> tuple[list, object]:
    """Pre-built epoch steps + cold epoch-0 solution for ``(scale, seed)``."""
    from ..api import solve
    from ..core.instance import IDDEInstance
    from ..workload import (
        StreamConfig,
        WorkloadState,
        batch_by_count,
        poisson_zipf_stream,
    )

    key = (scale, seed)
    if key in _REPLAY_CACHE:
        return _REPLAY_CACHE[key]
    base = instance_for(scale, seed)
    n_events, per_epoch = _REPLAY_SPEC[scale]
    stream_cfg = StreamConfig(
        move_sigma=2.0, departure_rate=0.0005, arrival_rate=0.002
    )
    stream = poisson_zipf_stream(
        base.scenario,
        rng=spawn_rng(seed, "bench", "replay-stream"),
        config=stream_cfg,
        n_events=n_events,
    )
    state = WorkloadState.from_scenario(base.scenario)
    steps: list[tuple[IDDEInstance, object]] = []
    for batch in batch_by_count(stream, per_epoch):
        state.apply(batch)
        inst = IDDEInstance(state.scenario(base.scenario), base.topology, base.radio)
        # Touch the lazily-cached per-instance state outside the timed
        # region: the bench measures re-solving, not cache construction.
        assert inst.latency_model.path_cost is not None
        assert inst.scenario.coverage is not None
        assert inst.scenario.covering_servers is not None
        steps.append((inst, state.active.copy()))
    sol0 = solve(
        base,
        "idde-g",
        game_config=_REPLAY_GAME_CFG,
        delivery_config=_REPLAY_DELIVERY_CFG,
        rng=spawn_rng(seed, "bench", "replay-epoch0"),
        validate=False,
    )
    _REPLAY_CACHE[key] = (steps, sol0)
    return _REPLAY_CACHE[key]


def _replay_factory(warm: bool) -> Callable[[str, int], Callable[[], object]]:
    def make(scale: str, seed: int) -> Callable[[], object]:
        from ..api import solve

        steps, sol0 = _replay_day(scale, seed)

        def run(replay_seed: int = seed) -> object:
            # Default-bound seed so every repeat replays the identical
            # per-epoch streams (the eua-sample idiom).
            prev = sol0
            moves = 0
            for i, (inst, active) in enumerate(steps):
                sol = solve(
                    inst,
                    "idde-g",
                    game_config=_REPLAY_GAME_CFG,
                    delivery_config=_REPLAY_DELIVERY_CFG,
                    warm_start=prev if warm else None,
                    active=active,
                    rng=spawn_rng(replay_seed, "replay", i),
                    validate=False,
                )
                assert sol.game is not None and sol.game.is_nash
                if warm:
                    prev = sol
                moves += sol.game.moves
            return moves

        return run

    return make


benchmark(
    "workload.replay.warm",
    "streaming epoch replay, warm-started façade re-solve per epoch "
    "(certificate asserted every epoch)",
)(_replay_factory(warm=True))

benchmark(
    "workload.replay.cold",
    "the identical epoch replay re-solved from scratch every epoch "
    "(pair twin; certificate asserted every epoch)",
)(_replay_factory(warm=False))


#: Pre-built event batches + the cold epoch-0 solution per (scale, seed).
_SERVE_CACHE: dict[tuple[str, int], tuple[list, object]] = {}


def _serve_day(scale: str, seed: int) -> tuple[list, object]:
    """Event batches + warm-boot solution for the serve bench (memoised)."""
    from ..api import solve
    from ..request import SolveRequest
    from ..workload import StreamConfig, batch_by_count, poisson_zipf_stream

    key = (scale, seed)
    if key in _SERVE_CACHE:
        return _SERVE_CACHE[key]
    base = instance_for(scale, seed)
    n_events, per_epoch = _REPLAY_SPEC[scale]
    stream = poisson_zipf_stream(
        base.scenario,
        rng=spawn_rng(seed, "bench", "serve-stream"),
        config=StreamConfig(move_sigma=2.0, departure_rate=0.0005, arrival_rate=0.002),
        n_events=n_events,
    )
    batches = [tuple(batch) for batch in batch_by_count(stream, per_epoch)]
    sol0 = solve(
        base,
        SolveRequest(
            solver="idde-g",
            game_config=_REPLAY_GAME_CFG,
            delivery_config=_REPLAY_DELIVERY_CFG,
            rng=spawn_rng(seed, "bench", "serve-epoch0"),
            validate=False,
        ),
    )
    assert base.latency_model.path_cost is not None
    _SERVE_CACHE[key] = (batches, sol0)
    return _SERVE_CACHE[key]


@benchmark(
    "serve.request.warm",
    "IDDE-Serve session servicing a day of delta batches: fold events, "
    "warm re-solve, independent certificate check per response",
)
def _bench_serve_request_warm(scale: str, seed: int) -> Callable[[], object]:
    from ..request import SolveRequest
    from ..serve import SolverSession

    base = instance_for(scale, seed)
    batches, sol0 = _serve_day(scale, seed)
    request = SolveRequest(
        solver="idde-g",
        game_config=_REPLAY_GAME_CFG,
        delivery_config=_REPLAY_DELIVERY_CFG,
        warm_start=True,
        rng=seed,
        validate=False,
    )

    def run() -> object:
        # A fresh warm-booted session per repeat: every repeat services
        # the identical batch sequence from the identical resident state
        # (per-epoch RNG streams are keyed off the session epoch counter,
        # so the replay is deterministic end to end).
        session = SolverSession(base, request, resident=sol0)
        for batch in batches:
            session.apply_events(batch)
            assert session.certified
        return session.stats()["warm_solves"]

    return run


@benchmark(
    "topology.all-pairs-dijkstra",
    f"pure-Python all-pairs Dijkstra over the edge graph, {_DIJKSTRA_CALLS} calls",
)
def _bench_all_pairs_dijkstra(scale: str, seed: int) -> Callable[[], object]:
    cost = instance_for(scale, seed).topology.adjacency_cost

    def run() -> object:
        out = None
        for _ in range(_DIJKSTRA_CALLS):
            out = all_pairs_path_cost(cost, method="dijkstra-py")
        assert out is not None
        return float(out[0, -1])

    return run


@benchmark(
    "topology.all-pairs-dijkstra.scipy",
    "the same all-pairs shortest paths on the compiled scipy production "
    f"path, {_DIJKSTRA_SCIPY_CALLS} calls (pair twin)",
)
def _bench_all_pairs_dijkstra_scipy(scale: str, seed: int) -> Callable[[], object]:
    cost = instance_for(scale, seed).topology.adjacency_cost

    def run() -> object:
        out = None
        for _ in range(_DIJKSTRA_SCIPY_CALLS):
            out = all_pairs_path_cost(cost, method="scipy")
        assert out is not None
        return float(out[0, -1])

    return run


def _repro_src_root():
    """The ``src/repro`` tree this package was imported from."""
    from pathlib import Path

    return Path(__file__).resolve().parents[1]


@benchmark(
    "analysis.selflint.cold",
    "full IDDE-Lint self-lint of src/repro with an empty incremental cache",
)
def _bench_selflint_cold(scale: str, seed: int) -> Callable[[], object]:
    import tempfile
    from pathlib import Path

    from ..analysis import lint_paths

    root = _repro_src_root()

    def run() -> object:
        # A fresh cache directory per call: every file and the whole
        # interprocedural pass miss, so this times the full analysis.
        with tempfile.TemporaryDirectory() as tmp:
            findings = lint_paths([root], cache=Path(tmp) / "cache.json")
        return len(findings)

    return run


@benchmark(
    "analysis.selflint.warm",
    "the same self-lint served from a primed cache (incremental-path pair)",
)
def _bench_selflint_warm(scale: str, seed: int) -> Callable[[], object]:
    import tempfile
    from pathlib import Path

    from ..analysis import lint_paths

    root = _repro_src_root()
    # Prime the cache outside the timed region; the tree never changes
    # between repeats, so every call hits both cache tiers and the timed
    # cost is discovery + hashing + cache lookups.
    tmp = tempfile.mkdtemp(prefix="idde-selflint-")
    cache = Path(tmp) / "cache.json"
    lint_paths([root], cache=cache)

    def run() -> object:
        return len(lint_paths([root], cache=cache))

    return run


@benchmark(
    "datasets.eua-sample",
    "EUA-style per-trial scenario sampling from the shared 125/816 pool",
)
def _bench_eua_sample(scale: str, seed: int) -> Callable[[], object]:
    spec = scale_spec(scale)
    pool = eua_pool(seed)

    def run(sample_seed: int = seed) -> object:
        # The stream is respawned per call so every repeat samples the
        # identical scenario — stable work, stable timing.
        scenario = sample_scenario(
            pool, spec.n, spec.m, spec.k, spawn_rng(sample_seed, "bench", "eua-sample")
        )
        return scenario.n_users

    return run

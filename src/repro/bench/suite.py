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
* ``game.converge`` — a full IDDE-U run to Nash equilibrium under the
  default round-robin schedule, and ``game.converge.best-gain-winner``
  under the literal Algorithm 1 schedule, one winner per round, where
  the resident best-response table refreshes only the rows each move
  dirtied; run both at ``XL`` for the trajectory point;
* ``delivery.greedy`` — Phase 2 marginal-latency-per-byte placement
  (Eq. 17, Theorems 6–7) on the lazy greedy loop, which re-scores only
  the items a placement changed, taken from a heap of per-item bounds;
  run it at ``M_k64``, where delivery dominates the solve, for the
  trajectory point;
* ``workload.replay.warm`` / ``workload.replay.cold`` — the day-in-the-
  life streaming pair: a Poisson/Zipf event stream batched into epochs
  and replayed through :meth:`~repro.dynamics.DynamicSimulation.run_events`,
  the production epoch loop: an IDDE-Serve session folds each batch,
  projects the instance, re-solves and re-checks the ε-Nash certificate,
  the chain the daemon runs per ``POST /v1/events``.  The
  warm twin re-enters the game from the previous equilibrium, the cold
  twin solves every epoch from scratch, so their ratio is the
  incremental re-solve speed-up with certificates intact.  Run at ``M``
  (10k events) for the trajectory point; ``S`` is the CI smoke size;
* ``topology.all-pairs-dijkstra.scipy`` — the all-pairs path costs behind
  every delivery latency, on the compiled csgraph kernel;
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
from ..dynamics.timeline import DynamicSimulation
from ..radio.sinr import UNALLOCATED, SinrEngine
from ..rng import spawn_rng
from ..topology.shortest_path import all_pairs_path_cost
from ..workload import EpochBatch, StreamConfig, batch_by_count, poisson_zipf_stream
from .fixtures import equilibrium_profile, eua_pool, instance_for, scale_spec
from .registry import benchmark

__all__: list[str] = []

#: Inner-loop counts lifting sub-100µs kernels above timer noise at scale S.
_CHURN_SWEEPS = 10
_RATES_CALLS = 100
_GREEDY_CALLS = 3
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


@benchmark(
    "game.converge.best-gain-winner",
    "full IDDE-U run to Nash equilibrium, literal Algorithm 1 schedule",
)
def _bench_game_converge_best_gain(scale: str, seed: int) -> Callable[[], object]:
    instance = instance_for(scale, seed)
    cfg = GameConfig(schedule="best-gain-winner")

    def run() -> object:
        result = IddeUGame(instance, cfg).run(rng=seed)
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
# Both twins time the production epoch loop,
# :meth:`DynamicSimulation.run_events`, over the identical pre-built day
# of event batches: the epoch-0 solve, then per batch the session's fold,
# projection, re-solve and ε-Nash certificate, all inside the timed
# region.  The warm twin re-enters the game from the previous epoch's
# equilibrium; the cold twin solves every epoch from scratch.  A failed
# certificate raises, so a timing exists only with certificates intact.
#
# The stream is deliberately gentle (small move sigma, low churn): the
# regime where incremental re-solve should shine is "most users barely
# moved", and a cold solve's move count floors at ~n_active regardless.

#: Events per run and events per epoch, by scale.  ``M`` is the 10k-event
#: day-in-the-life trajectory point; ``S`` the CI smoke size.
_REPLAY_SPEC: dict[str, tuple[int, int]] = {
    "S": (600, 50),
    "M": (10_000, 25),
    "M_k64": (2_000, 50),
    "L": (2_000, 50),
    "XL": (2_000, 50),
}
_REPLAY_GAME_CFG = GameConfig(schedule="best-gain-winner", epsilon=0.01)
_REPLAY_DELIVERY_CFG = DeliveryConfig(min_gain_s_per_mb=0.05)

#: The pre-built event batches of one day, memoised per (scale, seed).
_REPLAY_BATCHES: dict[tuple[str, int], list[EpochBatch]] = {}


def _replay_batches(scale: str, seed: int) -> list[EpochBatch]:
    """The day's Poisson/Zipf event stream, batched into epochs."""
    key = (scale, seed)
    if key not in _REPLAY_BATCHES:
        n_events, per_epoch = _REPLAY_SPEC[scale]
        stream = poisson_zipf_stream(
            instance_for(scale, seed).scenario,
            rng=spawn_rng(seed, "bench", "replay-stream"),
            config=StreamConfig(
                move_sigma=2.0, departure_rate=0.0005, arrival_rate=0.002
            ),
            n_events=n_events,
        )
        _REPLAY_BATCHES[key] = list(batch_by_count(stream, per_epoch))
    return _REPLAY_BATCHES[key]


def _replay_factory(policy: str) -> Callable[[str, int], Callable[[], object]]:
    def make(scale: str, seed: int) -> Callable[[], object]:
        base = instance_for(scale, seed)
        batches = _replay_batches(scale, seed)

        def run() -> object:
            sim = DynamicSimulation(
                base,
                policy=policy,
                game=_REPLAY_GAME_CFG,
                delivery=_REPLAY_DELIVERY_CFG,
            )
            return sim.run_events(batches, rng=seed)

        return run

    return make


benchmark(
    "workload.replay.warm",
    "a streamed day through DynamicSimulation.run_events, warm re-solve "
    "per epoch (fold, project, solve, certify timed)",
)(_replay_factory("warm"))

benchmark(
    "workload.replay.cold",
    "the identical day re-solved from scratch every epoch "
    "(pair twin; certificate checked every epoch)",
)(_replay_factory("cold"))


@benchmark(
    "topology.all-pairs-dijkstra.scipy",
    "all-pairs shortest path costs over the edge graph on the compiled "
    f"scipy kernel, {_DIJKSTRA_SCIPY_CALLS} calls",
)
def _bench_all_pairs_dijkstra_scipy(scale: str, seed: int) -> Callable[[], object]:
    cost = instance_for(scale, seed).topology.adjacency_cost

    def run() -> object:
        out = None
        for _ in range(_DIJKSTRA_SCIPY_CALLS):
            out = all_pairs_path_cost(cost)
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

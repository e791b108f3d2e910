"""The traced run: an outside-in walk of every op through the public layer
functions, next to the untraced program doing the same op.

The walk calls the layers in the order ``SolverSession._run`` ->
``execute`` -> ``IddeG._solve`` -> ``Solver.solve`` calls them and wraps
each call in a benchmark-side span (``op=<i>``) on one
``RecordingTracer(max_events=0)``.  The same tracer goes into
``IddeUGame`` and ``greedy_delivery``, so their existing ``game.run`` and
``delivery.greedy`` spans nest inside the walk's spans and their counters
land beside them.  Lazily cached structure (the all-pairs path cost, the
coverage matrix) is touched first in spans of its own, so each layer's
cost lands in its own span rather than in whichever layer asks first.

Every op's allocation, placement matrix and ``effective_epsilon`` must
equal the served ones bitwise, or the run fails naming the op.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.api import Solution, solve
from repro.config import DeliveryConfig, GameConfig
from repro.core.bounds import cloud_only_latency_ms
from repro.core.constraints import check_strategy
from repro.core.delivery import greedy_delivery
from repro.core.game import GameResult, IddeUGame
from repro.core.instance import IDDEInstance
from repro.core.objectives import evaluate
from repro.core.profiles import AllocationProfile
from repro.core.repair import repair_allocation
from repro.obs import RecordingTracer, save_trace
from repro.rng import ensure_rng, spawn_rng
from repro.workload import Event, WorkloadState, parse_event

import serve_load
from stats import self_times
from workloads import (
    DAYS,
    QUALITY_OPS,
    STATIC_SHAPE,
    BenchmarkFailure,
    DaySpec,
    check_served,
    escalated,
    instance_seed,
    memory_mb,
    open_session,
    serve_op,
    stream_rng,
)

#: Per-layer metric -> the walk's span names whose self times make it up.
#: ``core.game`` wraps ``IddeUGame.run``: its own ``game.run`` span is the
#: game, the rest of the call builds the SINR engine.
LAYER_SPANS = {
    "workload.parse": ("workload.parse",),
    "workload.apply": ("workload.apply",),
    "core.instance.project": ("core.instance.project",),
    "topology.path_cost": ("topology.path_cost",),
    "types.coverage": ("types.coverage",),
    "core.repair": ("core.repair",),
    "radio.engine_build": ("core.game",),
    "core.game": ("game.run",),
    "core.delivery": ("core.delivery", "delivery.greedy"),
    "core.constraints": ("core.constraints",),
    "core.objectives": ("core.objectives",),
    "serve.certify": ("serve.certify",),
    "serve.encode": ("serve.encode",),
}


@dataclass
class Walked:
    """The walk's answer for one op."""

    instance: IDDEInstance
    game: GameResult
    placed: np.ndarray
    r_avg: float
    l_avg_ms: float
    certified: bool | None = None


@dataclass
class TraceRun:
    """Everything one traced run of a workload measured."""

    workload: str
    walk: "Walk"
    ops: int = 0
    untraced_s: float = 0.0
    traced_s: float = 0.0
    rounds: int = 0
    detached: int = 0
    escalated: int = 0
    solve_s: float = 0.0
    l_vs_cloud: float = 0.0
    spans_retained: int = 0
    rss_growth_mb: float = 0.0
    queue_wait_pct: float = 0.0
    wire_pct: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)


class Walk:
    """The benchmark-side spans around each layer call."""

    def __init__(self) -> None:
        self.tracer = RecordingTracer(max_events=0)

    def _derive(self, op: int, instance: IDDEInstance) -> None:
        """The instance's lazily cached structure, each in its own span."""
        with self.tracer.span("topology.path_cost", op=op):
            instance.latency_model.path_cost
        with self.tracer.span("types.coverage", op=op):
            instance.scenario.coverage
            instance.scenario.covering_servers

    def _solve(self, op: int, instance: IDDEInstance, rng, initial=None, active=None) -> Walked:
        """``IddeG._solve`` plus ``Solver.solve``'s validate and evaluate."""
        t = self.tracer
        with t.span("core.game", op=op):
            game = IddeUGame(instance, GameConfig(), tracer=t).run(
                rng, initial=initial, active=active
            )
        with t.span("core.delivery", op=op):
            delivery = greedy_delivery(instance, game.profile, DeliveryConfig(), tracer=t)
        with t.span("core.constraints", op=op):
            check_strategy(instance, game.profile, delivery.profile)
        with t.span("core.objectives", op=op):
            ev = evaluate(instance, game.profile, delivery.profile)
        return Walked(instance, game, delivery.profile.placed, ev.r_avg, ev.l_avg_ms)

    def static_op(self, op: int, instance: IDDEInstance, seed: int) -> Walked:
        """``repro.api.solve(instance, "idde-g", rng=seed)``, layer by layer."""
        with self.tracer.span("e2e.op", op=op):
            self._derive(op, instance)
            return self._solve(op, instance, ensure_rng(seed))

    def served_op(
        self,
        op: int,
        state: WorkloadState,
        base: IDDEInstance,
        prior: AllocationProfile,
        rng,
        served: Solution,
        events: Sequence[Event] = (),
        wire: Sequence[dict] | None = None,
    ) -> tuple[Walked, int]:
        """One served epoch, layer by layer; returns it and the detached count.

        ``wire`` (the serve-http path) is parsed first; ``served`` is the
        program's answer to the same op, encoded the way the session does.
        """
        t = self.tracer
        with t.span("e2e.op", op=op):
            if wire is not None:
                with t.span("workload.parse", op=op):
                    events = [parse_event(d, where=f"events[{i}]") for i, d in enumerate(wire)]
            with t.span("workload.apply", op=op):
                state.apply(tuple(events))
            with t.span("core.instance.project", op=op):
                instance = IDDEInstance(state.scenario(base.scenario), base.topology, base.radio)
            active = state.active.copy()
            self._derive(op, instance)
            with t.span("core.repair", op=op):
                initial, detached = repair_allocation(instance, prior, active)
            walked = self._solve(op, instance, rng, initial, active)
            with t.span("serve.certify", op=op):
                walked.certified = IddeUGame(instance, GameConfig()).is_nash(
                    walked.game.profile, tol=walked.game.effective_epsilon, active=active
                )
            with t.span("serve.encode", op=op):
                json.dumps(served.to_dict(), sort_keys=True)
        return walked, detached


def _same(served: Solution, walked: Walked, where: str) -> None:
    """The walk must reproduce the served answer bitwise."""
    if not (
        np.array_equal(served.allocation.server, walked.game.profile.server)
        and np.array_equal(served.allocation.channel, walked.game.profile.channel)
    ):
        raise BenchmarkFailure(f"{where}: walk allocation differs from the served one")
    if not np.array_equal(served.delivery.placed, walked.placed):
        raise BenchmarkFailure(f"{where}: walk placement matrix differs from the served one")
    if served.game.effective_epsilon != walked.game.effective_epsilon:
        raise BenchmarkFailure(
            f"{where}: walk effective_epsilon {walked.game.effective_epsilon} != "
            f"served {served.game.effective_epsilon}"
        )
    if (served.r_avg, served.l_avg_ms) != (walked.r_avg, walked.l_avg_ms):
        raise BenchmarkFailure(f"{where}: walk objectives differ from the served ones")
    if walked.certified is False:
        raise BenchmarkFailure(f"{where}: walk certificate fails")


def _same_as_daemon(doc: dict, served: Solution, where: str) -> None:
    """The daemon's answer must equal the library's answer to the same op."""
    got = (doc["r_avg"], doc["l_avg_ms"], doc["game"]["effective_epsilon"],
           doc["delivery"]["placements"])
    want = (served.r_avg, served.l_avg_ms, served.game.effective_epsilon,
            [list(p) for p in served.delivery_result.placements])
    if got != want:
        raise BenchmarkFailure(f"{where}: daemon answer differs from the in-process one")


def _record(run: TraceRun, served: Solution, walked: Walked, wall_s: float,
            traced_s: float, detached: int = 0) -> None:
    run.ops += 1
    run.untraced_s += wall_s
    run.traced_s += traced_s
    run.rounds += walked.game.rounds
    run.detached += detached
    run.escalated += escalated(served)
    run.solve_s += served.wall_time_s
    run.l_vs_cloud += served.l_avg_ms / cloud_only_latency_ms(walked.instance)


def trace_day(workload: str, seed: int, spec: DaySpec, n_ops: int) -> TraceRun:
    """The first ``n_ops`` ops of a day workload, served and walked."""
    run = TraceRun(workload, Walk())
    rss0 = memory_mb("VmRSS")
    day = 0
    while run.ops < n_ops:
        inst_seed = instance_seed(workload, seed, day)
        instance = spec.instance(inst_seed)
        batches = spec.batches(instance, stream_rng(workload, seed, day))
        session = open_session(instance, inst_seed)
        state = WorkloadState.from_scenario(instance.scenario)
        prior = session.solution.allocation
        for epoch, events in enumerate(batches, start=1):
            if run.ops >= n_ops:
                break
            where = f"{workload} day {day} epoch {epoch} (op {run.ops})"
            before = session.epoch
            t = time.perf_counter()
            served = serve_op(session, events)
            wall = time.perf_counter() - t
            check_served(session, before)
            t = time.perf_counter()
            walked, detached = run.walk.served_op(
                run.ops, state, instance, prior, spawn_rng(inst_seed, "serve", epoch),
                served, events=events,
            )
            traced = time.perf_counter() - t
            _same(served, walked, where)
            prior = walked.game.profile
            _record(run, served, walked, wall, traced, detached)
        run.spans_retained += len(session.tracer.spans)
        day += 1
    run.rss_growth_mb = memory_mb("VmRSS") - rss0
    run.extra["days"] = day
    return run


def _trace_static(seed: int) -> TraceRun:
    run = TraceRun("paper-static", Walk())
    rss0 = memory_mb("VmRSS")
    for i in range(QUALITY_OPS["paper-static"]):
        s = instance_seed("paper-static", seed, i)
        instance = IDDEInstance.generate(seed=s, **STATIC_SHAPE)
        t = time.perf_counter()
        served = solve(instance, "idde-g", rng=s)
        wall = time.perf_counter() - t
        # A fresh copy, so the walk pays the same lazy set-up the solve did.
        fresh = IDDEInstance.generate(seed=s, **STATIC_SHAPE)
        t = time.perf_counter()
        walked = run.walk.static_op(i, fresh, s)
        traced = time.perf_counter() - t
        _same(served, walked, f"paper-static instance {i}")
        _record(run, served, walked, wall, traced)
    run.rss_growth_mb = memory_mb("VmRSS") - rss0
    return run


def _trace_serve(root: Path, seed: int, seconds: float) -> TraceRun:
    """The HTTP load exactly as the timed run drives it, then the same ops
    in-process: the library session and the walk, both checked against
    what the daemon answered."""
    out, phases = serve_load.run_serve(root, seed, seconds)
    if out.failure is not None:
        raise BenchmarkFailure(out.failure)
    run = TraceRun("serve-http", Walk())
    service = wait = latency = 0.0
    daemon_solve_s = daemon_solves = 0.0
    for index, phase in enumerate(phases):
        instance = IDDEInstance.generate(seed=phase.seed, **serve_load.SERVE_SHAPE)
        session = open_session(instance, phase.seed)
        state = WorkloadState.from_scenario(instance.scenario)
        prior = session.solution.allocation
        for epoch, (wire, call, doc) in enumerate(zip(phase.wire, phase.writes, phase.docs), 1):
            where = f"serve-http daemon {index} write {epoch - 1} (op {run.ops})"
            t = time.perf_counter()
            served = serve_op(session, [parse_event(d) for d in wire])
            wall = time.perf_counter() - t
            _same_as_daemon(doc, served, where)
            t = time.perf_counter()
            walked, detached = run.walk.served_op(
                run.ops, state, instance, prior, spawn_rng(phase.seed, "serve", epoch),
                served, wire=wire,
            )
            traced = time.perf_counter() - t
            _same(served, walked, where)
            prior = walked.game.profile
            _record(run, served, walked, wall, traced, detached)
            service += call.done - call.sent
            wait += call.sent - call.due
            latency += call.done - call.due
        hist = phase.daemon_metrics["histograms"]["serve.solve_s"]
        daemon_solve_s += hist["total"]
        daemon_solves += hist["count"]
        run.spans_retained += phase.daemon_metrics["spans"]
    # Daemon-side numbers replace the in-process ones where they exist.
    run.solve_s = daemon_solve_s / daemon_solves * run.ops
    run.queue_wait_pct = 100.0 * wait / latency
    run.wire_pct = 100.0 * (service - run.untraced_s) / service
    run.rss_growth_mb = float(np.median([p.rss_end_mb - p.rss_start_mb for p in phases]))
    run.extra.update(out.extra)
    return run


def trace_workload(root: Path, workload: str, seed: int, seconds: float) -> TraceRun:
    if workload == "paper-static":
        return _trace_static(seed)
    if workload == "serve-http":
        return _trace_serve(root, seed, seconds)
    return trace_day(workload, seed, DAYS[workload], QUALITY_OPS[workload])


def per_layer(run: TraceRun) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    tracer = run.walk.tracer
    own = self_times(tracer.spans)
    counters = tracer.counters
    evals = counters.get("sinr.scalar_evals", 0) + counters.get("sinr.batch_rounds", 0)
    moves = counters.get("game.moves", 0)
    metrics = {
        f"{layer}_pct": 100.0 * sum(own.get(s, 0.0) for s in spans) / run.untraced_s
        for layer, spans in LAYER_SPANS.items()
    }
    layer_s = sum(own.get(s, 0.0) for spans in LAYER_SPANS.values() for s in spans)
    per_op = 1.0 / run.ops
    metrics.update({
        "trace.op_ms": 1e3 * run.untraced_s * per_op,
        "trace.coverage": layer_s / run.untraced_s,
        "trace.overhead": run.traced_s / run.untraced_s,
        "core.game.rounds": run.rounds * per_op,
        "core.game.moves": moves * per_op,
        "core.game.escalations": counters.get("game.escalations", 0) * per_op,
        "radio.best_response_evals": evals * per_op,
        "core.game.move_yield": moves / evals if evals else 0.0,
        "core.delivery.placements": counters.get("delivery.placements", 0) * per_op,
        "core.delivery.threshold_rejects": counters.get("delivery.threshold_rejects", 0) * per_op,
        "core.repair.detached": run.detached * per_op,
        "quality.l_avg_vs_cloud": run.l_vs_cloud * per_op,
        "quality.eps_escalated_frac": run.escalated * per_op,
        "serve.solve_ms": 1e3 * run.solve_s * per_op,
        "serve.queue_wait_pct": run.queue_wait_pct,
        "serve.wire_pct": run.wire_pct,
        "process.rss_growth_mb": run.rss_growth_mb,
        "obs.spans_retained": run.spans_retained * per_op,
    })
    return metrics


def save_walk(run: TraceRun, path: Path, seed: int) -> Path:
    """The walk's spans and counters as an ``idde-trace/1`` document."""
    return save_trace(
        run.walk.tracer, path,
        meta={"source": "benchmarks/e2e", "workload": run.workload, "seed": seed,
              "ops": run.ops},
    )

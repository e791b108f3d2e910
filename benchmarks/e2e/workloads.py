"""Seeded inputs and the timed, untraced runners of the in-process workloads.

Every input comes from ``spawn_rng(seed, "e2e", <workload>, ...)``; the
program receives only generated instances and events and runs with its
package defaults (no kernel, schedule or epsilon is ever set).

A day workload is a sequence of short served days.  Each day is one fresh
instance, one :class:`~repro.serve.SolverSession` built exactly as
``idde serve`` builds its session, an epoch-0 cold solve (the day's
set-up), then one op per event batch.  Several instances per run keep the
run-to-run spread of the medians small: one instance alone decides how
often the game escalates epsilon, and so most of its tail.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.api import Solution, solve
from repro.config import GameConfig, ScenarioConfig, WorkloadConfig
from repro.core.constraints import check_strategy
from repro.core.game import IddeUGame
from repro.core.instance import IDDEInstance
from repro.core.objectives import evaluate
from repro.request import SolveRequest
from repro.rng import spawn_rng
from repro.serve import SolverSession
from repro.workload import (
    Event,
    StreamConfig,
    WorkloadState,
    batch_by_count,
    poisson_zipf_stream,
)


@dataclass(frozen=True)
class DaySpec:
    """Instance shape and event stream of one served-day workload."""

    n: int
    m: int
    k: int
    scenario: ScenarioConfig | None
    stream: StreamConfig
    events_per_epoch: int
    epochs_per_day: int

    def instance(self, seed: int) -> IDDEInstance:
        return IDDEInstance.generate(
            n=self.n, m=self.m, k=self.k, density=1.0, seed=seed, config=self.scenario
        )

    def batches(self, instance: IDDEInstance, rng) -> list[tuple[Event, ...]]:
        """One day's event batches, generated benchmark-side."""
        stream = poisson_zipf_stream(
            instance.scenario,
            rng,
            self.stream,
            n_events=self.events_per_epoch * self.epochs_per_day,
        )
        return [b.events for b in batch_by_count(stream, self.events_per_epoch)]


DAYS = {
    # Mobility-dominated default stream on the paper's base shape.
    "day-mobility": DaySpec(
        n=30, m=200, k=5, scenario=None, stream=StreamConfig(),
        events_per_epoch=25, epochs_per_day=20,
    ),
    # The storage-tight M_k64 shape under a stream of popularity shifts,
    # which touch no radio state: delivery does the work, the game idles.
    "day-catalogue": DaySpec(
        n=30, m=200, k=64,
        scenario=ScenarioConfig(workload=WorkloadConfig(storage_range=(60.0, 180.0))),
        stream=StreamConfig(
            shift_rate=5.0, move_rate=0.0005, arrival_rate=0.0,
            departure_rate=0.0, move_sigma=2.0,
        ),
        events_per_epoch=10, epochs_per_day=10,
    ),
}

#: Ops whose answers feed the quality metrics.  A run always completes
#: this many, so those metrics depend on the seed alone, never on speed.
QUALITY_OPS = {"day-mobility": 300, "day-catalogue": 200, "paper-static": 300}

#: The paper-static instance shape (the paper's Section 4 base point).
STATIC_SHAPE = dict(n=30, m=200, k=5, density=1.0)


def instance_seed(workload: str, seed: int, i: int) -> int:
    """The integer seed of the ``i``-th instance a workload generates."""
    return int(spawn_rng(seed, "e2e", workload, i).integers(2**31 - 1))


def stream_rng(workload: str, seed: int, i: int):
    """The event-stream generator of the ``i``-th instance of a workload."""
    return spawn_rng(seed, "e2e", workload, i, "stream")


def open_session(instance: IDDEInstance, seed: int) -> SolverSession:
    """The session ``idde serve --seed <seed>`` boots, after its first
    ``POST /v1/solve`` (the epoch-0 cold solve)."""
    session = SolverSession(
        instance, SolveRequest(solver="idde-g", warm_start=True, rng=seed)
    )
    session.solve()
    if session.certified is not True or session.epoch != 0:
        raise BenchmarkFailure(f"epoch-0 solve not certified ({session.certified})")
    return session


def serve_op(session: SolverSession, events: Sequence[Event]) -> Solution:
    """One served op: fold a batch, warm re-solve, encode the answer."""
    solution = session.apply_events(events)
    json.dumps(session.solution_document(), sort_keys=True)
    return solution


class BenchmarkFailure(Exception):
    """An op failed or the program's output did not check out."""


def check_served(session: SolverSession, epoch_before: int) -> None:
    """The per-op gate: the epoch advanced and the answer is certified."""
    if session.epoch != epoch_before + 1:
        raise BenchmarkFailure(
            f"epoch did not advance ({epoch_before} -> {session.epoch})"
        )
    if session.certified is not True:
        raise BenchmarkFailure(f"certificate is {session.certified!r}, not True")


def recertify(
    instance: IDDEInstance, batches: Sequence[Sequence[Event]], solution: Solution
) -> None:
    """Rebuild the final state from the events alone and re-check the
    served answer there, the way ``idde replay --verify`` does."""
    state = WorkloadState.from_scenario(instance.scenario)
    for events in batches:
        state.apply(tuple(events))
    final = IDDEInstance(state.scenario(instance.scenario), instance.topology, instance.radio)
    if not IddeUGame(final, GameConfig()).is_nash(
        solution.allocation, tol=solution.game.effective_epsilon, active=state.active
    ):
        raise BenchmarkFailure("final state fails its epsilon-Nash re-certification")
    check_strategy(final, solution.allocation, solution.delivery)
    ev = evaluate(final, solution.allocation, solution.delivery)
    if (ev.r_avg, ev.l_avg_ms) != (solution.r_avg, solution.l_avg_ms):
        raise BenchmarkFailure(
            f"re-evaluated objectives ({ev.r_avg}, {ev.l_avg_ms}) differ from the "
            f"served ({solution.r_avg}, {solution.l_avg_ms})"
        )


def escalated(solution: Solution) -> bool:
    """Whether the answer's certificate is weaker than the configured epsilon."""
    return solution.game.effective_epsilon > solution.config["epsilon"]


@dataclass
class Outcome:
    """What one timed run of a workload measured."""

    workload: str
    #: Ops whose answers feed the quality metrics; the serve-http schedule
    #: fixes its op count, so it needs no cap.
    quality_ops: float = math.inf
    latency_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    r_avg: list[float] = field(default_factory=list)
    l_avg_ms: list[float] = field(default_factory=list)
    escalated: list[bool] = field(default_factory=list)
    attempted: int = 0
    #: The first failure, naming its op; a run stops there.
    failure: str | None = None
    peak_rss_mb: float = 0.0
    #: Workload-specific numbers for the human report.
    extra: dict[str, float] = field(default_factory=dict)

    def record(self, latency_s: float, r_avg: float, l_avg_ms: float, esc: bool) -> None:
        self.latency_s.append(latency_s)
        if len(self.r_avg) < self.quality_ops:
            self.r_avg.append(r_avg)
            self.l_avg_ms.append(l_avg_ms)
            self.escalated.append(esc)

    def fail(self, where: str, exc: Exception) -> None:
        self.failure = f"{self.workload} {where}: {type(exc).__name__}: {exc}"


def memory_mb(key: str, pid: int | str = "self") -> float:
    """``VmRSS`` (resident) or ``VmHWM`` (peak resident) of a process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkFailure(f"/proc/{pid}/status has no {key}")


def run_day(workload: str, seed: int, seconds: float) -> Outcome:
    """Served days back to back until ``seconds`` pass and the quality
    ops are done; stops at the first failure, naming its op."""
    spec = DAYS[workload]
    quality_ops = QUALITY_OPS[workload]
    out = Outcome(workload, quality_ops)
    deadline = time.perf_counter() + seconds
    day = 0
    where = "start"
    try:
        while time.perf_counter() < deadline or len(out.r_avg) < quality_ops:
            where = f"day {day} set-up"
            inst_seed = instance_seed(workload, seed, day)
            t0 = time.perf_counter()
            instance = spec.instance(inst_seed)
            gen_s = time.perf_counter() - t0
            batches = spec.batches(instance, stream_rng(workload, seed, day))
            t1 = time.perf_counter()
            session = open_session(instance, inst_seed)
            out.setup_s.append(gen_s + time.perf_counter() - t1)
            done = 0
            for epoch, events in enumerate(batches, start=1):
                if time.perf_counter() >= deadline and len(out.r_avg) >= quality_ops:
                    break
                where = f"day {day} epoch {epoch} (op {out.attempted})"
                out.attempted += 1
                before = session.epoch
                t = time.perf_counter()
                sol = serve_op(session, events)
                latency = time.perf_counter() - t
                check_served(session, before)
                out.record(latency, sol.r_avg, sol.l_avg_ms, escalated(sol))
                done = epoch
            where = f"day {day} final state"
            if done:
                recertify(instance, batches[:done], session.solution)
            day += 1
    except Exception as exc:  # every failure mode of the program counts
        out.fail(where, exc)
    out.extra["days"] = day
    out.peak_rss_mb = memory_mb("VmHWM")
    return out


def run_static(seed: int, seconds: float) -> Outcome:
    """Cold ``repro.api.solve`` calls on fresh instances, one per op."""
    quality_ops = QUALITY_OPS["paper-static"]
    out = Outcome("paper-static", quality_ops)
    deadline = time.perf_counter() + seconds
    i = 0
    try:
        while time.perf_counter() < deadline or len(out.r_avg) < quality_ops:
            s = instance_seed("paper-static", seed, i)
            t0 = time.perf_counter()
            instance = IDDEInstance.generate(seed=s, **STATIC_SHAPE)
            gen_s = time.perf_counter() - t0
            out.attempted += 1
            t = time.perf_counter()
            sol = solve(instance, "idde-g", rng=s)
            latency = time.perf_counter() - t
            if not (sol.game.converged and sol.game.is_nash):
                raise BenchmarkFailure("cold solve is not certified")
            # The set-up of this workload is its time to a first answer.
            out.setup_s.append(gen_s + latency)
            out.record(latency, sol.r_avg, sol.l_avg_ms, escalated(sol))
            i += 1
    except Exception as exc:  # every failure mode of the program counts
        out.fail(f"instance {i}", exc)
    out.peak_rss_mb = memory_mb("VmHWM")
    return out

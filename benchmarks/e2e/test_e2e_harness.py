"""Self-tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; they sit
outside the tier-1 test paths on purpose.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.profiles import UNALLOCATED
from repro.obs import RecordingTracer
from repro.workload import StreamConfig

from stats import percentile, quartiles, self_times, tail_percentile, verdict
from walk import Walked, _same, per_layer, trace_day
from workloads import (
    DAYS,
    BenchmarkFailure,
    DaySpec,
    instance_seed,
    open_session,
    serve_op,
    stream_rng,
)

#: An S-sized served day (the ``S`` bench scale's instance shape).
S_DAY = DaySpec(n=10, m=60, k=3, scenario=None, stream=StreamConfig(),
                events_per_epoch=25, epochs_per_day=20)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    data = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(data, 50.0) == 3.0
    assert percentile(data, 0.0) == 1.0
    assert percentile(data, 100.0) == 5.0
    assert percentile(data, 90.0) == pytest.approx(4.6)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_verdict_against_the_bound():
    base = [10.0, 10.1, 9.9, 10.0]
    assert verdict(base, [10.5, 10.4, 10.6], better="lower", bound=0.1) == "ok"
    assert verdict(base, [11.5, 11.4, 11.6], better="lower", bound=0.1) == "REGRESSED"
    assert verdict(base, [8.5, 8.4, 8.6], better="higher", bound=0.1) == "REGRESSED"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert verdict(noisy, [11.0, 12.0], better="lower", bound=0.1) == "unresolved"
    assert verdict(noisy, [1.0, 2.0], better="lower", bound=0.1) == "better"


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0, 10.5, 12.0])
    tracer = RecordingTracer(clock=lambda: next(ticks))  # birth reads 0.0
    with tracer.span("op"):  # 0 .. 10
        with tracer.span("a"):  # 1 .. 4
            pass
        with tracer.span("b"):  # 5 .. 9
            with tracer.span("c"):  # 6 .. 7
                pass
    with tracer.span("a"):  # 10.5 .. 12
        pass
    own = self_times(tracer.spans)
    assert own == {"op": 3.0, "a": 4.5, "b": 3.0, "c": 1.0}


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def _first_allocations(seed: int, epochs: int = 20):
    spec = DAYS["day-mobility"]
    s = instance_seed("day-mobility", seed, 0)
    instance = spec.instance(s)
    batches = spec.batches(instance, stream_rng("day-mobility", seed, 0))
    session = open_session(instance, s)
    served = [serve_op(session, events).allocation for events in batches[:epochs]]
    return batches, served


def test_same_seed_same_inputs_and_answers_other_seed_differs():
    batches_a, served_a = _first_allocations(0)
    batches_b, served_b = _first_allocations(0)
    assert batches_a == batches_b
    assert all(
        np.array_equal(a.server, b.server) and np.array_equal(a.channel, b.channel)
        for a, b in zip(served_a, served_b, strict=True)
    )
    batches_c, served_c = _first_allocations(1)
    assert batches_c != batches_a
    assert any(not np.array_equal(a.server, c.server) for a, c in zip(served_a, served_c))


# ----------------------------------------------------------------------
# the traced walk
# ----------------------------------------------------------------------
def test_walk_equals_session_bitwise_on_an_s_day():
    run = trace_day("s-day", 0, S_DAY, n_ops=20)
    assert run.ops == 20
    metrics = per_layer(run)
    assert 0.5 < metrics["trace.coverage"] < 1.5
    assert metrics["core.game_pct"] > 0.0
    assert metrics["workload.parse_pct"] == 0.0


def test_walk_mismatch_is_named():
    s = instance_seed("s-day", 0, 0)
    session = open_session(S_DAY.instance(s), s)
    served = session.solution
    wrong = served.allocation.copy()
    j = np.flatnonzero(wrong.allocated)[0]
    wrong.server[j] = wrong.channel[j] = UNALLOCATED
    walked = Walked(
        instance=session.instance, game=dataclasses.replace(served.game, profile=wrong),
        placed=served.delivery.placed, r_avg=served.r_avg, l_avg_ms=served.l_avg_ms,
    )
    with pytest.raises(BenchmarkFailure, match="op 7: walk allocation differs"):
        _same(served, walked, "op 7")

"""Game parity with the oracle must hold with a live recording tracer attached.

The tracer never consumes RNG and never feeds back into move selection,
so attaching it to the production run must leave every move log, profile
and certificate bit-identical to the oracle's (which records nothing) —
the acceptance gate for the instrumentation.
"""

from __future__ import annotations

from repro.obs import RecordingTracer

from ..oracles.parity import game_cases, render


def test_parity_holds_with_tracing_enabled():
    tracer = RecordingTracer()
    cases = game_cases("S", 0, tracer=tracer)
    assert all(case.ok for case in cases), render(cases)
    # Production ran every schedule; the standalone oracle records nothing.
    assert len([s for s in tracer.spans if s.name == "game.run"]) == 3
    assert tracer.counters["game.moves"] > 0

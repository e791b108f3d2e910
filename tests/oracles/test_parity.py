"""The bit-identity proof: the production kernels replay their oracles.

One case per ``(phase, seed)`` over the shared bench fixtures at the scale
named by ``IDDE_ORACLE_SCALE`` (default ``S``; CI also runs ``M``)::

    IDDE_ORACLE_SCALE=M PYTHONPATH=src python -m pytest tests/oracles/test_parity.py
"""

from __future__ import annotations

import os

import pytest

from repro.radio.sinr import SinrEngine

from .game import OracleGame
from .parity import SEEDS, delivery_cases, evaluation_cases, game_cases, render

SCALE = os.environ.get("IDDE_ORACLE_SCALE", "S")

PHASES = {"game": game_cases, "delivery": delivery_cases, "evaluation": evaluation_cases}


@pytest.fixture
def oracle_without_fused_kernel(monkeypatch):
    """Make the fused single-user kernel raise while the oracle runs.

    The oracle must reach its moves through the full candidate grid only;
    sharing the production stale-user kernel would make parity circular.
    """
    run = OracleGame.run

    def refuse(engine, j):
        raise AssertionError("the oracle reached SinrEngine.best_response")

    def guarded_run(self, *args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SinrEngine, "best_response", refuse)
            return run(self, *args, **kwargs)

    monkeypatch.setattr(OracleGame, "run", guarded_run)


@pytest.mark.usefixtures("oracle_without_fused_kernel")
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("phase", sorted(PHASES))
def test_kernel_matches_oracle(phase, seed):
    cases = PHASES[phase](SCALE, seed)
    assert all(case.ok for case in cases), render(cases)
    assert any(case.work > 0 for case in cases), "the grid verified vacuously"

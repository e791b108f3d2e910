"""The bit-identity proof: both production kernels replay their oracles.

One case per ``(phase, seed)`` over the shared bench fixtures at the scale
named by ``IDDE_ORACLE_SCALE`` (default ``S``; CI also runs ``M``)::

    IDDE_ORACLE_SCALE=M PYTHONPATH=src python -m pytest tests/oracles/test_parity.py
"""

from __future__ import annotations

import os

import pytest

from .parity import SEEDS, delivery_cases, game_cases, render

SCALE = os.environ.get("IDDE_ORACLE_SCALE", "S")

PHASES = {"game": game_cases, "delivery": delivery_cases}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("phase", sorted(PHASES))
def test_kernel_matches_oracle(phase, seed):
    cases = PHASES[phase](SCALE, seed)
    assert all(case.ok for case in cases), render(cases)
    assert any(case.work > 0 for case in cases), "the grid verified vacuously"

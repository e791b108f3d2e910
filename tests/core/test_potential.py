"""Potential function tests (Definition 4, Eq. 13, Lemma 2)."""

import numpy as np
import pytest

from repro.config import GameConfig, RadioConfig
from repro.core.game import IddeUGame
from repro.core.potential import (
    congestion_potential,
    global_channel_potential,
    lemma2_threshold,
    paper_potential,
)
from repro.radio.sinr import SinrEngine

from ..conftest import make_instance, make_scenario


def single_server_instance(n_users=6, channels=3):
    """One server covering all users — the exact-potential regime."""
    rng = np.random.default_rng(0)
    user_xy = rng.uniform(-80, 80, size=(n_users, 2))
    sc = make_scenario(
        [[0.0, 0.0]],
        user_xy,
        radius=500.0,
        channels=channels,
        power=rng.uniform(1, 5, n_users),
    )
    return make_instance(sc)


class TestCongestionPotential:
    def test_empty_allocation_zero(self, tiny_instance):
        engine = tiny_instance.new_engine()
        assert congestion_potential(engine) == 0.0

    def test_increases_with_load(self, tiny_instance):
        engine = tiny_instance.new_engine()
        engine.assign(0, 0, 0)
        p1 = congestion_potential(engine)
        engine.assign(1, 0, 0)
        p2 = congestion_potential(engine)
        assert p2 > p1 > 0

    def test_known_value(self):
        inst = single_server_instance(2, channels=2)
        engine = inst.new_engine()
        p = inst.scenario.power
        engine.assign(0, 0, 0)
        engine.assign(1, 0, 0)
        expected = 0.5 * ((p[0] + p[1]) ** 2 + p[0] ** 2 + p[1] ** 2)
        assert congestion_potential(engine) == pytest.approx(expected)

    def test_monotone_decrease_under_best_response_single_server(self):
        """With one server the game is an exact congestion game: every
        improving move strictly decreases the Rosenthal potential."""
        inst = single_server_instance(8, channels=3)
        game = IddeUGame(inst, GameConfig(schedule="round-robin"), track_potential=True)
        result = game.run(rng=0)
        trace = result.potential_trace
        # Skip the build-up phase (moving in from unallocated increases the
        # potential); once everyone is allocated, moves must decrease it.
        m = inst.n_users
        settled = trace[m:]
        assert all(b <= a + 1e-12 for a, b in zip(settled, settled[1:]))

    def test_coincides_with_global_for_single_server(self):
        inst = single_server_instance(5, channels=2)
        engine = inst.new_engine()
        for j in range(5):
            engine.assign(j, 0, j % 2)
        assert congestion_potential(engine) == pytest.approx(
            global_channel_potential(engine)
        )


class TestGlobalChannelPotential:
    def test_monotone_under_homogeneous_gains(self):
        """Forcing homogeneous gains reproduces the paper's Theorem 3 proof
        regime: improving moves decrease the global-channel potential."""
        inst = single_server_instance(6, channels=3)
        engine = SinrEngine(
            inst.scenario, inst.radio, gain=np.full((1, 6), 1e-6)
        )
        for j in range(6):
            engine.assign(j, 0, 0)
        before = global_channel_potential(engine)
        # User 0 moves to the empty channel 1 — an improving move under the
        # homogeneous gains the engine evaluates.
        assert engine.best_response(0)[:2] == (0, 1)
        crowded = engine.user_benefit(0)
        engine.move(0, 0, 1)
        assert engine.user_benefit(0) > crowded
        after = global_channel_potential(engine)
        assert after < before


class TestLemma2:
    def test_threshold_positive_and_finite(self, tiny_instance):
        engine = tiny_instance.new_engine()
        for j in range(tiny_instance.n_users):
            engine.assign(j, j % 3, 0)
        for j in range(tiny_instance.n_users):
            t = lemma2_threshold(engine, j)
            assert t > 0

    def test_uncovered_user_infinite(self):
        sc = make_scenario([[0.0, 0.0]], [[9999.0, 0.0]], radius=10.0)
        inst = make_instance(sc)
        engine = inst.new_engine()
        assert lemma2_threshold(engine, 0) == float("inf")

    def test_threshold_bounds_received_interference(self, tiny_instance):
        """Lemma 2: at any profile, a user's received interference on its
        best-rate channel stays below T_j."""
        engine = tiny_instance.new_engine()
        for j in range(tiny_instance.n_users):
            engine.assign(j, j % 3, j % 2)
        for j in range(tiny_instance.n_users):
            t = lemma2_threshold(engine, j)
            _, w = engine.interference_profile(j)
            assert w.min() <= t


class TestPaperPotential:
    def test_empty_zero(self, tiny_instance):
        engine = tiny_instance.new_engine()
        assert paper_potential(engine) == 0.0

    def test_finite_on_full_allocation(self, tiny_instance):
        engine = tiny_instance.new_engine()
        for j in range(tiny_instance.n_users):
            engine.assign(j, j % 3, j % 2)
        val = paper_potential(engine)
        assert np.isfinite(val)
        assert val > 0  # all allocated: only the pair term remains

    def test_penalty_for_unallocated(self, tiny_instance):
        engine = tiny_instance.new_engine()
        for j in range(1, tiny_instance.n_users):
            engine.assign(j, j % 3, j % 2)
        with_hole = paper_potential(engine)
        engine.assign(0, 0, 0)
        full = paper_potential(engine)
        assert full > with_hole

"""IDDE-U game tests: convergence, Nash certification, schedules."""

import numpy as np
import pytest

from repro.config import GameConfig
from repro.core.game import IddeUGame
from repro.core.objectives import average_data_rate
from repro.core.profiles import AllocationProfile

SCHEDULES = ("round-robin", "best-gain-winner", "random-winner")


class TestConvergence:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_converges_to_nash(self, tiny_instance, schedule):
        game = IddeUGame(tiny_instance, GameConfig(schedule=schedule))
        result = game.run(rng=0)
        assert result.converged
        assert result.is_nash
        assert game.is_nash(result.profile)

    def test_all_users_allocated(self, tiny_instance):
        result = IddeUGame(tiny_instance).run(rng=0)
        assert result.profile.n_allocated == tiny_instance.n_users

    def test_uncovered_users_stay_unallocated(self, line_instance):
        result = IddeUGame(line_instance).run(rng=0)
        # Every user in line_instance is covered by exactly one server.
        assert result.profile.n_allocated == line_instance.n_users
        result.profile.validate(line_instance.scenario)

    def test_profile_valid(self, small_instance):
        result = IddeUGame(small_instance).run(rng=1)
        result.profile.validate(small_instance.scenario)
        assert result.is_nash

    def test_max_rounds_truncation(self, small_instance):
        game = IddeUGame(small_instance, GameConfig(max_rounds=1))
        result = game.run(rng=0)
        # One sweep makes moves, so the game cannot certify convergence.
        assert not result.converged
        assert not result.is_nash

    def test_stats_populated(self, tiny_instance):
        result = IddeUGame(tiny_instance).run(rng=0)
        assert result.moves >= tiny_instance.n_users  # everyone moved in
        assert result.rounds >= 1
        assert result.wall_time_s > 0


class TestEquilibriumQuality:
    def test_beats_random_channel_allocation(self, medium_instance):
        """The equilibrium's average rate beats naive random allocation."""
        result = IddeUGame(medium_instance).run(rng=0)
        r_nash = average_data_rate(medium_instance, result.profile)
        rng = np.random.default_rng(0)
        rates = []
        for _ in range(5):
            alloc = AllocationProfile.empty(medium_instance.n_users)
            for j in range(medium_instance.n_users):
                cov = medium_instance.scenario.covering_servers[j]
                if len(cov) == 0:
                    continue
                i = int(cov[rng.integers(0, len(cov))])
                alloc.server[j] = i
                alloc.channel[j] = int(
                    rng.integers(0, medium_instance.scenario.channels[i])
                )
            rates.append(average_data_rate(medium_instance, alloc))
        assert r_nash > np.mean(rates)

    def test_single_user_gets_best_channel(self, tiny_scenario):
        from ..conftest import make_instance, make_scenario

        sc = make_scenario([[0.0, 0.0], [500.0, 0.0]], [[10.0, 0.0]], radius=1000.0)
        inst = make_instance(sc)
        result = IddeUGame(inst).run(rng=0)
        # Solo user: any channel is interference-free; must be allocated to
        # one of the covering servers (benefit 1 everywhere).
        assert result.profile.n_allocated == 1


class TestWarmStart:
    def test_initial_profile_respected(self, tiny_instance):
        game = IddeUGame(tiny_instance)
        cold = game.run(rng=0)
        warm = game.run(rng=0, initial=cold.profile)
        # Warm-starting from an equilibrium converges with zero moves.
        assert warm.moves == 0
        assert warm.profile == cold.profile

    def test_invalid_initial_rejected(self, tiny_instance):
        from repro.errors import AllocationError

        bad = AllocationProfile.empty(tiny_instance.n_users)
        bad.server[0], bad.channel[0] = 0, 99
        with pytest.raises(AllocationError):
            IddeUGame(tiny_instance).run(rng=0, initial=bad)


class TestDeterminism:
    @pytest.mark.parametrize("schedule", ["round-robin", "best-gain-winner"])
    def test_deterministic_schedules(self, small_instance, schedule):
        cfg = GameConfig(schedule=schedule)
        a = IddeUGame(small_instance, cfg).run(rng=0)
        b = IddeUGame(small_instance, cfg).run(rng=0)
        assert a.profile == b.profile

    def test_random_winner_seed_dependent(self, small_instance):
        cfg = GameConfig(schedule="random-winner")
        a = IddeUGame(small_instance, cfg).run(rng=0)
        b = IddeUGame(small_instance, cfg).run(rng=0)
        assert a.profile == b.profile  # same seed => same equilibrium


class TestNashCertificate:
    def test_rejects_non_equilibrium(self, tiny_instance):
        game = IddeUGame(tiny_instance)
        # All users piled on one channel is not an equilibrium when another
        # channel is free.
        alloc = AllocationProfile.empty(tiny_instance.n_users)
        alloc.server[:] = 0
        alloc.channel[:] = 0
        assert not game.is_nash(alloc)

    def test_accepts_equilibrium(self, tiny_instance):
        result = IddeUGame(tiny_instance).run(rng=0)
        assert IddeUGame(tiny_instance).is_nash(result.profile)


class TestPotentialTrace:
    def test_trace_recorded(self, tiny_instance):
        """The potential trace is replayed from the move log: one value
        before the first move and one after each."""
        from repro.core.potential import congestion_potential, potential_along

        game = IddeUGame(tiny_instance)
        result = game.run(rng=0)
        trace = potential_along(tiny_instance, result.move_log)
        assert len(trace) == result.moves + 1
        assert trace[0] == 0.0
        final = tiny_instance.new_engine()
        final.load_profile(result.profile.server, result.profile.channel)
        assert trace[-1] == pytest.approx(congestion_potential(final))

"""IDDE-IP (budgeted joint search) tests."""

import time

import pytest

from repro.baselines.idde_ip import IddeIP


class TestBudget:
    def test_respects_wall_clock(self, small_instance):
        solver = IddeIP(time_budget_s=0.4)
        t0 = time.perf_counter()
        solver.solve(small_instance, rng=0)
        elapsed = time.perf_counter() - t0
        assert 0.3 < elapsed < 2.0  # budget plus bounded overhead

    def test_longer_budget_not_worse_on_objective(self, small_instance):
        short = IddeIP(time_budget_s=0.15).solve(small_instance, rng=0)
        long = IddeIP(time_budget_s=1.2).solve(small_instance, rng=0)
        j_short = short.extras["best_objective"]
        j_long = long.extras["best_objective"]
        # Annealing is stochastic but the incumbent is monotone in budget
        # for the same seed stream up to schedule effects; allow slack.
        assert j_long >= j_short - 0.05

    def test_extras_recorded(self, small_instance):
        s = IddeIP(time_budget_s=0.2).solve(small_instance, rng=0)
        assert s.extras["proposals"] > 0
        assert 0 <= s.extras["accepted"] <= s.extras["proposals"]
        # The budget is the solver's setting, not a search counter.
        assert "time_budget_s" not in s.extras

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            IddeIP(time_budget_s=0.0)


class TestQuality:
    def test_beats_random_solver(self, medium_instance):
        from repro.baselines.naive import RandomSolver

        ip = IddeIP(time_budget_s=1.0).solve(medium_instance, rng=0)
        rnd = RandomSolver().solve(medium_instance, rng=0)
        assert ip.r_avg > rnd.r_avg

    def test_incumbent_always_feasible(self, small_instance):
        s = IddeIP(time_budget_s=0.3).solve(small_instance, rng=1)
        s.delivery.validate(small_instance.scenario)
        s.allocation.validate(small_instance.scenario)

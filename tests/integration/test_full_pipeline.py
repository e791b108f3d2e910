"""End-to-end pipeline tests: generation → all solvers → evaluation."""

import numpy as np
import pytest

from repro import IDDEInstance, default_solvers
from repro.core.constraints import check_strategy
from repro.experiments.runner import TrialSpec, run_trial
from repro.experiments.settings import SweepSettings
from repro.experiments.sweep import run_sweep
from repro.parallel import ParallelConfig


class TestFullSolve:
    @pytest.fixture(scope="class")
    def instance(self):
        return IDDEInstance.generate(n=12, m=50, k=4, density=1.5, seed=42)

    def test_all_solvers_produce_valid_strategies(self, instance):
        for solver in default_solvers(ip_time_budget=0.3):
            strategy = solver.solve(instance, rng=42)
            check_strategy(instance, strategy.allocation, strategy.delivery)
            assert strategy.r_avg > 0

    def test_idde_g_equilibrium_certified(self, instance):
        from repro.core.game import IddeUGame
        from repro.core.idde_g import IddeG

        strategy = IddeG().solve(instance, rng=0)
        assert strategy.game.is_nash
        assert IddeUGame(instance).is_nash(strategy.allocation)


class TestTrialPipeline:
    def test_trial_through_pool(self):
        """A trial spec evaluated through the process pool matches the
        in-process result (pickling and seed spawning are stable)."""
        from repro.parallel.pool import parallel_map

        spec = TrialSpec(
            n=8, m=20, k=3, seed=5, ip_time_budget_s=0.2,
            solver_names=("IDDE-G", "CDP"),
        )
        [remote] = parallel_map(
            run_trial, [spec], ParallelConfig(n_workers=2, min_parallel_items=1)
        )
        local = run_trial(spec)
        for name in ("IDDE-G", "CDP"):
            assert remote.metrics[name]["r_avg"] == pytest.approx(
                local.metrics[name]["r_avg"]
            )
            assert remote.metrics[name]["l_avg_ms"] == pytest.approx(
                local.metrics[name]["l_avg_ms"]
            )


class TestSweepPipeline:
    def test_sweep_end_to_end(self):
        settings = SweepSettings("it", "m", (15, 30))
        result = run_sweep(
            settings,
            reps=2,
            seed=0,
            ip_time_budget_s=0.2,
            solver_names=("IDDE-G", "SAA", "CDP", "DUP-G"),
            parallel=ParallelConfig(n_workers=1),
        )
        # More users => more interference => lower rates for all approaches.
        for name in result.solver_names:
            series = result.series(name, "r_avg")
            assert series[0] > 0 and series[1] > 0

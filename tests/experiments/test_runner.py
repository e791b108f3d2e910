"""Trial runner tests."""

import pytest

from repro.api import solve
from repro.baselines import build_solver
from repro.errors import ExperimentError, SolverLookupError
from repro.experiments.runner import (
    SOLVER_NAMES,
    TrialSpec,
    build_instance,
    run_trial,
)


FAST = TrialSpec(
    n=8, m=25, k=3, density=1.5, seed=0, ip_time_budget_s=0.2
)


class TestTrialSpec:
    def test_defaults_match_table2(self):
        spec = TrialSpec()
        assert (spec.n, spec.m, spec.k, spec.density) == (30, 200, 5, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"m": -1},
            {"k": 0},
            {"density": -0.5},
            {"solver_names": ("Oracle",)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ExperimentError):
            TrialSpec(**kwargs)

    def test_picklable(self):
        import pickle

        assert pickle.loads(pickle.dumps(FAST)) == FAST


class TestBuilders:
    def test_build_instance_deterministic(self):
        a = build_instance(FAST)
        b = build_instance(FAST)
        import numpy as np

        assert np.allclose(a.scenario.server_xy, b.scenario.server_xy)

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_build_each_solver(self, name):
        request = FAST.request_for(name)
        solver = build_solver(request.solver, **request.solver_options)
        assert solver.name == name

    def test_ip_budget_forwarded(self):
        """Only IDDE-IP takes the budget, as one of its solver_options."""
        assert FAST.request_for("IDDE-IP").solver_options == {"time_budget_s": 0.2}
        for name in set(SOLVER_NAMES) - {"IDDE-IP"}:
            assert FAST.request_for(name).solver_options == {}
        sol = solve(build_instance(FAST), FAST.request_for("IDDE-IP").with_runtime(rng=0))
        assert sol.config["time_budget_s"] == 0.2

    def test_unknown_solver(self):
        with pytest.raises(ExperimentError):
            TrialSpec(solver_names=("Oracle",))
        with pytest.raises(SolverLookupError):
            solve(build_instance(FAST), FAST.request_for("Oracle"))


class TestRunTrial:
    def test_all_metrics_present(self):
        result = run_trial(FAST)
        assert set(result.metrics) == set(SOLVER_NAMES)
        for name in SOLVER_NAMES:
            m = result.metrics[name]
            assert m["r_avg"] > 0
            assert m["l_avg_ms"] >= 0
            assert m["time_s"] > 0

    def test_metric_accessor(self):
        result = run_trial(FAST)
        assert result.metric("IDDE-G", "r_avg") == result.metrics["IDDE-G"]["r_avg"]

    def test_subset_of_solvers(self):
        spec = TrialSpec(
            n=8, m=25, k=3, seed=0, solver_names=("IDDE-G", "CDP")
        )
        result = run_trial(spec)
        assert set(result.metrics) == {"IDDE-G", "CDP"}

    def test_deterministic_heuristics(self):
        spec = TrialSpec(n=8, m=25, k=3, seed=3, solver_names=("IDDE-G", "CDP", "DUP-G"))
        a = run_trial(spec)
        b = run_trial(spec)
        for name in ("IDDE-G", "CDP", "DUP-G"):
            assert a.metrics[name]["r_avg"] == b.metrics[name]["r_avg"]
            assert a.metrics[name]["l_avg_ms"] == b.metrics[name]["l_avg_ms"]

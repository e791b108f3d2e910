"""User churn tests."""

import numpy as np
import pytest

from repro.core.game import IddeUGame
from repro.core.instance import IDDEInstance
from repro.datasets.melbourne import CBD_REGION
from repro.dynamics import DynamicSimulation, RandomWaypoint, mobility_batches
from repro.dynamics.churn import PoissonChurn
from repro.errors import ScenarioError
from repro.workload import WorkloadState


class TestPoissonChurn:
    def test_initial_all_active(self):
        churn = PoissonChurn(50, rng=0)
        assert churn.n_active == 50

    def test_stationary_fraction(self):
        churn = PoissonChurn(500, rng=1, p_depart=0.1, p_arrive=0.3)
        for _ in range(100):
            churn.step()
        expected = churn.stationary_fraction()
        assert expected == pytest.approx(0.75)
        assert abs(churn.n_active / 500 - expected) < 0.12

    def test_no_churn_is_static(self):
        churn = PoissonChurn(20, rng=2, p_depart=0.0, p_arrive=0.0)
        before = churn.active.copy()
        churn.step()
        assert np.array_equal(before, churn.active)

    def test_step_returns_copy(self):
        churn = PoissonChurn(10, rng=3, p_depart=0.5, p_arrive=0.5)
        mask = churn.step()
        mask[:] = False
        assert churn.n_active >= 0  # internal state untouched by caller

    def test_deterministic(self):
        a = PoissonChurn(30, rng=4, p_depart=0.2, p_arrive=0.2)
        b = PoissonChurn(30, rng=4, p_depart=0.2, p_arrive=0.2)
        for _ in range(5):
            assert np.array_equal(a.step(), b.step())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_depart": -0.1},
            {"p_arrive": 1.5},
            {"initial_active": 2.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ScenarioError):
            PoissonChurn(5, rng=0, **kwargs)


class TestMaskedScenario:
    """The churn mask reaches the solver through ``WorkloadState.scenario``."""

    def test_inactive_requests_zeroed(self, tiny_scenario):
        active = np.array([True, False, True, False, True, True])
        out = WorkloadState.from_scenario(tiny_scenario, active).scenario(tiny_scenario)
        assert out.requests[1].sum() == 0
        assert out.requests[3].sum() == 0
        assert np.array_equal(out.requests[0], tiny_scenario.requests[0])

    def test_shapes_and_dtypes_preserved(self, tiny_scenario):
        active = np.zeros(6, dtype=bool)
        out = WorkloadState.from_scenario(tiny_scenario, active).scenario(tiny_scenario)
        assert out.n_users == tiny_scenario.n_users
        assert out.requests.shape == tiny_scenario.requests.shape
        assert out.requests.dtype == tiny_scenario.requests.dtype
        assert out.user_xy.dtype == tiny_scenario.user_xy.dtype
        assert out.total_requests == 0

    def test_mask_shape_checked(self, tiny_scenario):
        with pytest.raises(ScenarioError):
            WorkloadState.from_scenario(tiny_scenario, np.array([True]))


class TestGameWithMask:
    def test_inactive_users_stay_unallocated(self, tiny_instance):
        active = np.array([True, True, False, True, False, True])
        result = IddeUGame(tiny_instance).run(rng=0, active=active)
        assert result.converged
        assert not result.profile.allocated[2]
        assert not result.profile.allocated[4]
        assert result.profile.allocated[active].all()

    def test_warm_start_must_respect_mask(self, tiny_instance):
        from repro.errors import ConvergenceError

        full = IddeUGame(tiny_instance).run(rng=0).profile
        active = np.zeros(6, dtype=bool)
        with pytest.raises(ConvergenceError):
            IddeUGame(tiny_instance).run(rng=0, initial=full, active=active)

    def test_mask_shape_checked(self, tiny_instance):
        from repro.errors import ConvergenceError

        with pytest.raises(ConvergenceError):
            IddeUGame(tiny_instance).run(rng=0, active=np.array([True]))


class TestTimelineWithChurn:
    @pytest.fixture(scope="class")
    def instance(self):
        return IDDEInstance.generate(n=10, m=40, k=3, density=1.5, seed=5)

    def test_active_users_recorded(self, instance):
        mob = RandomWaypoint(
            instance.scenario.user_xy, CBD_REGION, rng=1, speed_range=(2.0, 6.0)
        )
        churn = PoissonChurn(40, rng=2, p_depart=0.3, p_arrive=0.3, initial_active=0.6)
        sim = DynamicSimulation(instance, policy="warm", active=churn.active)
        records = sim.run_events(mobility_batches(mob, 4, 20.0, churn), rng=0)
        assert all(0 <= r.active_users <= 40 for r in records)
        assert any(r.active_users < 40 for r in records)

    def test_churn_size_checked(self, instance):
        from repro.errors import ExperimentError

        mob = RandomWaypoint(instance.scenario.user_xy, CBD_REGION, rng=1)
        with pytest.raises(ExperimentError):
            mobility_batches(mob, 4, 20.0, churn=PoissonChurn(3, rng=0))

    def test_without_churn_everyone_active(self, instance):
        mob = RandomWaypoint(
            instance.scenario.user_xy, CBD_REGION, rng=1, speed_range=(2.0, 6.0)
        )
        sim = DynamicSimulation(instance, policy="warm")
        records = sim.run_events(mobility_batches(mob, 3, 20.0), rng=0)
        assert all(r.active_users == 40 for r in records)

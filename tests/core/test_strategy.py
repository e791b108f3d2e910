"""Solver base-class behaviour tests."""

import numpy as np
import pytest

from repro.core.profiles import AllocationProfile, DeliveryProfile
from repro.core.strategy import Solver
from repro.errors import StorageViolation


class BrokenSolver(Solver):
    """Returns a storage-violating profile — must be caught by validation."""

    name = "Broken"

    def _solve(self, instance, rng):
        alloc = AllocationProfile.empty(instance.n_users)
        delivery = DeliveryProfile.empty(instance.n_servers, instance.n_data)
        delivery.placed[:, :] = True  # guaranteed overflow on small storage
        return alloc, delivery, {}


class NullSolver(Solver):
    """Does nothing: empty allocation, empty delivery."""

    name = "Null"

    def _solve(self, instance, rng):
        return (
            AllocationProfile.empty(instance.n_users),
            DeliveryProfile.empty(instance.n_servers, instance.n_data),
            {"marker": 7},
        )


class TestSolverBase:
    def test_validation_catches_bad_output(self, line_instance):
        with pytest.raises(StorageViolation):
            BrokenSolver().solve(line_instance, rng=0)

    def test_validation_has_no_off_switch(self, line_instance):
        with pytest.raises(TypeError, match="validate"):
            BrokenSolver().solve(line_instance, rng=0, validate=False)

    def test_null_solver_metrics(self, line_instance):
        s = NullSolver().solve(line_instance, rng=0)
        assert s.r_avg == 0.0
        assert s.l_avg_ms > 0  # everything from the cloud
        assert s.extras == {"marker": 7}

    def test_rng_coercion(self, line_instance):
        NullSolver().solve(line_instance)  # None
        NullSolver().solve(line_instance, rng=3)  # int
        NullSolver().solve(line_instance, rng=np.random.default_rng(0))

    def test_repr(self):
        assert "Null" in repr(NullSolver())

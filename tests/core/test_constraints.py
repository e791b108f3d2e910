"""Constraint checker tests (Eqs. 1, 6, 8)."""

import numpy as np
import pytest

from repro.core.constraints import check_latency_constraint, check_strategy
from repro.core.objectives import per_user_latencies
from repro.core.profiles import AllocationProfile, DeliveryProfile
from repro.errors import CoverageError, StorageViolation


class TestCheckers:
    def test_valid_strategy_passes(self, tiny_instance):
        alloc = AllocationProfile.empty(tiny_instance.n_users)
        for j in range(tiny_instance.n_users):
            alloc.server[j] = j % 3
            alloc.channel[j] = j % 2
        d = DeliveryProfile.empty(3, 2)
        d.placed[0, 0] = True
        check_strategy(tiny_instance, alloc, d)

    def test_coverage_violation(self, line_instance):
        alloc = AllocationProfile.empty(line_instance.n_users)
        alloc.server[0] = 3  # user 0 sits at server 0; radius 150 << 3000
        alloc.channel[0] = 0
        with pytest.raises(CoverageError):
            alloc.validate(line_instance.scenario)

    def test_storage_violation(self, line_instance):
        d = DeliveryProfile.empty(4, 3)
        d.placed[0, :] = True  # 30+60+90 = 180 > 100 MB
        with pytest.raises(StorageViolation):
            d.validate(line_instance.scenario)

    def test_latency_constraint_holds_for_any_profile(self, line_instance):
        # With the cloud-capped path costs, the constraint holds by
        # construction for every feasible profile.
        rng = np.random.default_rng(0)
        alloc = AllocationProfile.empty(line_instance.n_users)
        for j in range(line_instance.n_users):
            cov = line_instance.scenario.covering_servers[j]
            if len(cov):
                alloc.server[j] = int(cov[0])
                alloc.channel[j] = int(rng.integers(0, 2))
        d = DeliveryProfile.empty(4, 3)
        d.placed[1, 0] = True
        check_latency_constraint(line_instance, per_user_latencies(line_instance, alloc, d))

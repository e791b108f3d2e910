"""Theoretical bound tests (Theorems 4, 5, 7)."""

import math

import numpy as np
import pytest

from repro.core.bounds import (
    cloud_only_latency_ms,
    greedy_approximation_factor,
    theorem4_iteration_bound,
    theorem5_poa_interval,
    theorem7_latency_upper_bound_ms,
    theory_report,
    user_signal_strengths,
)
from repro.config import GameConfig, RadioConfig, TopologyConfig
from repro.core.game import IddeUGame
from repro.core.idde_g import IddeG
from repro.core.instance import IDDEInstance
from repro.topology.graph import build_topology
from repro.types import Scenario


def _one_cell(power, channels):
    """One server, one common gain: Theorem 3's exact-potential game."""
    m = len(power)
    scenario = Scenario(
        server_xy=np.zeros((1, 2)),
        radius=np.full(1, 500.0),
        storage=np.full(1, 100.0),
        channels=np.full(1, channels, dtype=np.int64),
        user_xy=np.column_stack([np.arange(m) * 10.0, np.zeros(m)]),
        power=np.asarray(power, dtype=float),
        rmax=np.full(m, 200.0),
        sizes=np.array([30.0]),
        requests=np.ones((m, 1), dtype=bool),
    )
    topo = build_topology(1, 0.0, 0, TopologyConfig())
    return IDDEInstance(scenario, topo, RadioConfig(), gain_override=np.ones((1, m)))


class TestTheorem4:
    def test_bound_positive_finite(self, small_instance):
        y = theorem4_iteration_bound(small_instance)
        assert y > 0 and math.isfinite(y)

    def test_bound_dominates_observed_moves(self, small_instance):
        result = IddeUGame(small_instance).run(rng=0)
        assert result.moves <= theorem4_iteration_bound(small_instance)

    @pytest.mark.parametrize("schedule", ["round-robin", "best-gain-winner"])
    def test_fractional_ratio_bounded(self, schedule):
        # Q = 4, 4, 5 on two channels: 4 moves.  Normalising by Q_min alone
        # would give 3 (1.25² − 1) / 2 + 3 = 3.84; the common measure is 1,
        # so the bound is 3 (25 − 16) / 8 + 3 = 6.375.
        instance = _one_cell([4.0, 4.0, 5.0], channels=2)
        result = IddeUGame(instance, GameConfig(schedule=schedule)).run(rng=0)
        assert result.moves == 4
        assert theorem4_iteration_bound(instance) == 6.375

    def test_whole_ratio_is_normalised_form(self):
        # Every Q_j a whole multiple of Q_min: M ((Q_max/Q_min)² − 1) / 2 + M.
        instance = _one_cell([1.5, 3.0, 4.5], channels=2)
        assert theorem4_iteration_bound(instance) == 3 * (9 - 1) / 2 + 3

    def test_signal_strengths_positive(self, small_instance):
        q = user_signal_strengths(small_instance)
        assert (q > 0).all()


class TestTheorem5:
    def test_interval_well_formed(self, small_instance):
        lo, hi = theorem5_poa_interval(small_instance)
        assert 0.0 <= lo <= hi == 1.0

    def test_equilibrium_rate_within_interval_of_cap(self, small_instance):
        """The realised PoA (equilibrium over best cap) sits in [lo, 1]
        when R_min is evaluated at the equilibrium, per the theorem."""
        from repro.core.objectives import average_data_rate

        result = IddeUGame(small_instance).run(rng=0)
        lo, _ = theorem5_poa_interval(small_instance, result.profile)
        r = average_data_rate(small_instance, result.profile)
        r_max = float(small_instance.scenario.rmax.max())
        assert lo - 1e-12 <= r / r_max <= 1.0 + 1e-12

    def test_profile_aware_bound_tighter_or_equal(self, small_instance):
        result = IddeUGame(small_instance).run(rng=0)
        lo_apriori, _ = theorem5_poa_interval(small_instance)
        lo_at_eq, _ = theorem5_poa_interval(small_instance, result.profile)
        assert lo_at_eq <= lo_apriori + 1e-12


class TestTheorem7:
    def test_factor_in_unit_interval(self, small_instance):
        f = greedy_approximation_factor(small_instance)
        assert 0.0 <= f <= (math.e - 1) / (2 * math.e)

    def test_cloud_only_latency(self, line_instance):
        phi = cloud_only_latency_ms(line_instance)
        # Request-weighted mean size over the j % 3 assignment, at 600 MB/s.
        zeta = line_instance.scenario.requests
        sizes = line_instance.scenario.sizes
        expected = 1000.0 * (zeta * sizes[None, :]).sum() / zeta.sum() / 600.0
        assert phi == pytest.approx(expected)

    def test_upper_bound_dominates_greedy(self, line_instance):
        """The Theorem 7 bound (with the optimum as input) holds for the
        greedy's measured latency."""
        from repro.core.brute_force import optimal_delivery
        from repro.core.objectives import average_delivery_latency_ms
        from repro.core.delivery import greedy_delivery
        from repro.core.profiles import AllocationProfile

        alloc = AllocationProfile.empty(line_instance.n_users)
        for j in range(line_instance.n_users):
            cov = line_instance.scenario.covering_servers[j]
            alloc.server[j] = int(cov[0])
            alloc.channel[j] = 0
        _, l_opt = optimal_delivery(line_instance, alloc)
        greedy = greedy_delivery(line_instance, alloc)
        l_greedy = average_delivery_latency_ms(line_instance, alloc, greedy.profile)
        bound = theorem7_latency_upper_bound_ms(line_instance, l_opt)
        assert l_greedy <= bound + 1e-9

    def test_report_bundle(self, small_instance):
        report = theory_report(small_instance)
        assert report.iteration_bound > 0
        assert report.greedy_factor >= 0
        assert report.cloud_only_latency_ms > 0
        lo, hi = report.poa_interval
        assert 0 <= lo <= hi == 1.0


class TestGreedyGuarantee:
    def test_greedy_reduction_meets_factor(self, line_instance):
        """ΔL(greedy) ≥ factor · ΔL(optimal) — the Theorem 6/7 guarantee,
        verified against the brute-force optimum."""
        from repro.core.brute_force import optimal_delivery
        from repro.core.delivery import greedy_delivery
        from repro.core.objectives import average_delivery_latency_ms
        from repro.core.profiles import AllocationProfile, DeliveryProfile

        alloc = AllocationProfile.empty(line_instance.n_users)
        for j in range(line_instance.n_users):
            cov = line_instance.scenario.covering_servers[j]
            alloc.server[j] = int(cov[0])
            alloc.channel[j] = 0
        empty = DeliveryProfile.empty(4, 3)
        phi = average_delivery_latency_ms(line_instance, alloc, empty)
        _, l_opt = optimal_delivery(line_instance, alloc)
        greedy = greedy_delivery(line_instance, alloc)
        l_greedy = average_delivery_latency_ms(line_instance, alloc, greedy.profile)
        factor = greedy_approximation_factor(line_instance)
        assert (phi - l_greedy) >= factor * (phi - l_opt) - 1e-9

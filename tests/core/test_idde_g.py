"""IDDE-G solver composition tests."""

import pytest

from repro.config import DeliveryConfig, GameConfig
from repro.core.idde_g import IddeG
from repro.core.objectives import average_data_rate, average_delivery_latency_ms


class TestIddeG:
    def test_solves_and_validates(self, small_instance):
        strategy = IddeG().solve(small_instance, rng=0)
        assert strategy.solver == "IDDE-G"
        assert strategy.r_avg > 0
        assert strategy.l_avg_ms >= 0
        assert strategy.wall_time_s > 0

    def test_extras(self, small_instance):
        """The phase results ride as typed fields; extras copy none of them."""
        strategy = IddeG().solve(small_instance, rng=0)
        assert strategy.game.converged
        assert strategy.game.is_nash
        assert strategy.game.profile is strategy.allocation
        assert strategy.delivery_result.profile is strategy.delivery
        assert strategy.evaluation.replicas == strategy.delivery.n_replicas
        assert strategy.extras == {}

    def test_objectives_consistent(self, small_instance):
        s = IddeG().solve(small_instance, rng=0)
        assert s.r_avg == pytest.approx(
            average_data_rate(small_instance, s.allocation)
        )
        assert s.l_avg_ms == pytest.approx(
            average_delivery_latency_ms(small_instance, s.allocation, s.delivery)
        )

    def test_deterministic_with_round_robin(self, small_instance):
        a = IddeG().solve(small_instance, rng=0)
        b = IddeG().solve(small_instance, rng=0)
        assert a.allocation == b.allocation
        assert a.delivery == b.delivery

    def test_custom_configs(self, small_instance):
        solver = IddeG(
            game=GameConfig(schedule="best-gain-winner"),
            delivery=DeliveryConfig(ratio_rule=False),
        )
        s = solver.solve(small_instance, rng=0)
        assert s.game.is_nash

    def test_potential_trace_opt_in(self, small_instance):
        s = IddeG(track_potential=True).solve(small_instance, rng=0)
        assert s.extras["potential_trace"] is s.game.potential_trace
        assert len(s.game.potential_trace) >= 1

    def test_no_trace_by_default(self, small_instance):
        s = IddeG().solve(small_instance, rng=0)
        assert "potential_trace" not in s.extras
        assert s.game.potential_trace == []

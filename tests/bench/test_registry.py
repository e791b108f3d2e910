"""Registry completeness and fixture determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import BenchRunConfig, all_benchmarks, get_benchmark, run_one, select_benchmarks
from repro.bench.fixtures import SCALES, clear_cache, equilibrium_profile, instance_for, scale_spec
from repro.errors import BenchError

#: The hot paths the registry must cover.
EXPECTED = {
    "sinr.candidates",
    "sinr.churn",
    "sinr.rates",
    "game.round.round-robin",
    "game.round.best-gain-winner",
    "game.round.random-winner",
    "game.converge",
    "delivery.greedy",
    "topology.all-pairs-dijkstra",
    "datasets.eua-sample",
    "analysis.selflint.cold",
    "analysis.selflint.warm",
}


class TestRegistry:
    def test_at_least_eight_benchmarks(self):
        assert len(all_benchmarks()) >= 8

    def test_expected_hot_paths_registered(self):
        names = {b.name for b in all_benchmarks()}
        assert EXPECTED <= names

    def test_names_sorted_and_unique(self):
        names = [b.name for b in all_benchmarks()]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_get_benchmark_unknown_raises(self):
        with pytest.raises(BenchError, match="unknown benchmark"):
            get_benchmark("no.such.bench")

    def test_filter_selects_substring(self):
        selected = select_benchmarks("game.round")
        assert {b.name for b in selected} == {
            "game.round.round-robin",
            "game.round.round-robin.traced",
            "game.round.best-gain-winner",
            "game.round.random-winner",
        }

    def test_no_kernel_twins(self):
        """Each phase has one kernel, so no benchmark name is registered
        twice under a kernel suffix."""
        names = {b.name for b in all_benchmarks()}
        assert not {n for n in names if ".batched" in n or ".reference" in n}

    def test_filter_with_no_match_raises(self):
        with pytest.raises(BenchError, match="matches no benchmark"):
            select_benchmarks("zzz-nothing")

    def test_every_benchmark_runs_at_scale_s(self):
        config = BenchRunConfig(scale="S", seed=0, repeats=1, warmup=0)
        for bench in all_benchmarks():
            stats = run_one(bench, config)
            assert stats.repeats == 1
            assert stats.min_s >= 0.0


class TestFixtures:
    def test_scales_defined(self):
        assert set(SCALES) == {"S", "M", "M_k64", "L", "XL"}
        small, medium = scale_spec("S"), scale_spec("M")
        assert small.m < medium.m and small.n < medium.n
        # M is the paper's Section 4.2 operating point.
        assert (medium.n, medium.m, medium.k) == (30, 200, 5)

    def test_k_heavy_scale_stresses_delivery(self):
        """M_k64 keeps the M topology but grows the catalogue and tightens
        storage, so the delivery phase dominates the solve."""
        heavy = scale_spec("M_k64")
        medium = scale_spec("M")
        assert (heavy.n, heavy.m) == (medium.n, medium.m)
        assert heavy.k == 64
        assert heavy.storage_range is not None
        assert heavy.storage_range[1] < 300.0  # tighter than the default draw

    def test_unknown_scale_raises(self):
        with pytest.raises(BenchError, match="unknown benchmark scale"):
            scale_spec("XXL")

    def test_instance_memoised_and_deterministic(self):
        clear_cache()
        a = instance_for("S", 0)
        assert instance_for("S", 0) is a  # memoised within a process
        clear_cache()
        b = instance_for("S", 0)
        assert b is not a
        np.testing.assert_array_equal(a.scenario.user_xy, b.scenario.user_xy)
        np.testing.assert_array_equal(a.topology.links, b.topology.links)

    def test_equilibrium_profile_matches_instance(self):
        profile = equilibrium_profile("S", 0)
        instance = instance_for("S", 0)
        profile.validate(instance.scenario)

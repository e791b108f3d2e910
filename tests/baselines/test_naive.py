"""Strawman solver tests."""

import numpy as np
import pytest

from repro.baselines import build_solver
from repro.baselines.naive import NearestNeighbor, RandomSolver


class TestRandomSolver:
    def test_valid(self, small_instance):
        s = RandomSolver().solve(small_instance, rng=0)
        s.allocation.validate(small_instance.scenario)
        s.delivery.validate(small_instance.scenario)

    def test_seed_matters(self, small_instance):
        a = RandomSolver().solve(small_instance, rng=np.random.default_rng(1))
        b = RandomSolver().solve(small_instance, rng=np.random.default_rng(2))
        assert a.allocation != b.allocation or a.delivery != b.delivery


class TestNearestNeighbor:
    def test_strongest_server_chosen(self, small_instance):
        s = NearestNeighbor().solve(small_instance, rng=0)
        engine = small_instance.new_engine()
        for j in range(small_instance.n_users):
            cov = small_instance.scenario.covering_servers[j]
            if len(cov) == 0:
                continue
            assert s.allocation.server[j] == int(
                cov[int(np.argmax(engine.gain[cov, j]))]
            )

    def test_channels_balanced_per_server(self, medium_instance):
        s = NearestNeighbor().solve(medium_instance, rng=0)
        for i in range(medium_instance.n_servers):
            users = s.allocation.users_of_server(i)
            if len(users) < 2:
                continue
            counts = np.bincount(
                s.allocation.channel[users],
                minlength=int(medium_instance.scenario.channels[i]),
            )
            assert counts.max() - counts.min() <= 1

    def test_popularity_packing(self, medium_instance):
        s = NearestNeighbor().solve(medium_instance, rng=0)
        s.delivery.validate(medium_instance.scenario)
        assert s.delivery.n_replicas > 0


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["idde-g", "idde-ip", "saa", "cdp", "dup-g", "random", "nearest"]
    )
    def test_lookup(self, name):
        solver = build_solver(name)
        assert solver.name

    def test_case_insensitive(self):
        assert build_solver("IDDE-G").name == "IDDE-G"

    def test_kwargs_forwarded(self):
        solver = build_solver("idde-ip", time_budget_s=1.5)
        assert solver.time_budget_s == 1.5

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            build_solver("oracle")

    def test_default_solvers_order(self):
        from repro.baselines import default_solvers

        names = [s.name for s in default_solvers()]
        assert names == ["IDDE-IP", "IDDE-G", "SAA", "CDP", "DUP-G"]

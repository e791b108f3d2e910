"""IDDEInstance tests."""

import numpy as np
import pytest

from repro.config import RadioConfig, ScenarioConfig, WorkloadConfig
from repro.core.game import IddeUGame
from repro.core.instance import IDDEInstance
from repro.datasets.eua import synthetic_eua
from repro.errors import ScenarioError
from repro.topology.graph import build_topology

from ..conftest import make_scenario


class TestConstruction:
    def test_topology_size_checked(self, tiny_scenario):
        topo = build_topology(5, 1.0, 0)  # wrong server count
        with pytest.raises(ScenarioError):
            IDDEInstance(tiny_scenario, topo)

    def test_properties(self, tiny_instance):
        assert tiny_instance.n_servers == 3
        assert tiny_instance.n_users == 6
        assert tiny_instance.n_data == 2

    def test_requests_per_item(self, tiny_instance):
        # conftest assigns item j % K: 3 users each.
        assert tiny_instance.requests_per_item.tolist() == [3, 3]

    def test_new_engine_fresh(self, tiny_instance):
        e1 = tiny_instance.new_engine()
        e1.assign(0, 0, 0)
        e2 = tiny_instance.new_engine()
        assert e2.channel_count.sum() == 0

    def test_latency_model_cached(self, tiny_instance):
        assert tiny_instance.latency_model is tiny_instance.latency_model


class TestSharedRadioTables:
    """Every engine of an instance shares one read-only radio build."""

    def test_engines_share_one_build(self, small_instance):
        a, b = small_instance.new_engine(), small_instance.new_engine()
        assert a.gain is b.gain is small_instance.radio_tables.gain
        assert a._tables is b._tables is small_instance.radio_tables
        assert a.channel_power is not b.channel_power

    def test_in_place_writes_raise(self, small_instance):
        engine = small_instance.new_engine()
        with pytest.raises(ValueError, match="read-only"):
            engine.gain[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            engine._tables.signal[0] *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            engine._tables.cov[0, 0] = 1

    def test_moves_on_one_engine_never_reach_another(self, small_instance):
        game = IddeUGame(small_instance)
        result = game.run(rng=0)
        watcher = small_instance.new_engine()
        watcher.load_profile(result.profile.server, result.profile.channel)
        before = watcher.batch_best_responses()
        # Scramble a second engine of the same instance.
        other = small_instance.new_engine()
        other.load_profile(result.profile.server, result.profile.channel)
        rng = np.random.default_rng(0)
        for j in rng.permutation(small_instance.n_users)[:10]:
            servers = small_instance.scenario.covering_servers[j]
            if len(servers):
                other.unassign(int(j))
                other.assign(int(j), int(servers[-1]), 0)
        after = watcher.batch_best_responses()
        for name in ("server", "channel", "benefit", "current_benefit"):
            assert getattr(after, name).tobytes() == getattr(before, name).tobytes()
        assert game.is_nash(result.profile, tol=result.effective_epsilon)

    def test_gain_override_shared(self, tiny_scenario):
        gain = np.full((3, 6), 2e-7)
        inst = IDDEInstance(
            tiny_scenario, build_topology(3, 2.0, 0), RadioConfig(), gain_override=gain
        )
        engine = inst.new_engine()
        assert engine.gain is inst.radio_tables.gain
        assert np.array_equal(engine.gain, gain) and engine.gain is not gain


class TestProject:
    def test_carries_the_gain_override(self, shadowed_instance):
        from repro.workload import PopularityShift, UserLeave, WorkloadState

        state = WorkloadState.from_scenario(shadowed_instance.scenario)
        k = shadowed_instance.n_data
        state.apply([PopularityShift(t=1.0, order=tuple(reversed(range(k)))),
                     UserLeave(t=2.0, user=3)])
        projected = shadowed_instance.project(state)
        assert projected.gain_override is shadowed_instance.gain_override
        assert projected.topology is shadowed_instance.topology
        assert np.array_equal(projected.scenario.requests[:, 0], state.requests[:, 0])
        assert not projected.scenario.requests[3].any()

    def test_move_under_an_override_names_the_users(self, shadowed_instance):
        from repro.workload import Move, WorkloadState

        state = WorkloadState.from_scenario(shadowed_instance.scenario)
        state.apply([Move(t=1.0, user=7, x=1.0, y=2.0), Move(t=2.0, user=2, x=3.0, y=4.0)])
        with pytest.raises(ScenarioError, match=r"users \[2, 7\] moved"):
            shadowed_instance.project(state)

    def test_moves_follow_without_an_override(self, small_instance):
        from repro.workload import Move, WorkloadState

        state = WorkloadState.from_scenario(small_instance.scenario)
        state.apply([Move(t=1.0, user=0, x=1.0, y=2.0)])
        projected = small_instance.project(state)
        assert projected.gain_override is None
        assert tuple(projected.scenario.user_xy[0]) == (1.0, 2.0)

    def test_static_structure_carries_unless_a_user_moved(self, small_instance):
        from repro.workload import Move, UserLeave, WorkloadState

        state = WorkloadState.from_scenario(small_instance.scenario)
        state.apply([UserLeave(t=1.0, user=0)])
        still = small_instance.project(state)
        assert still.latency_model.path_cost is small_instance.latency_model.path_cost
        assert still.scenario.coverage is small_instance.scenario.coverage
        assert still.radio_tables is small_instance.radio_tables
        state.apply([Move(t=2.0, user=1, x=1.0, y=2.0)])
        moved = still.project(state)
        assert moved.latency_model.path_cost is small_instance.latency_model.path_cost
        assert moved.scenario.coverage is not still.scenario.coverage
        assert moved.radio_tables is not still.radio_tables


class TestGenerate:
    def test_dimensions(self):
        inst = IDDEInstance.generate(n=12, m=40, k=3, density=1.5, seed=9)
        assert inst.n_servers == 12 and inst.n_users == 40 and inst.n_data == 3
        assert inst.topology.n_links == 18

    def test_deterministic(self):
        a = IDDEInstance.generate(n=10, m=20, k=2, seed=4)
        b = IDDEInstance.generate(n=10, m=20, k=2, seed=4)
        assert np.allclose(a.scenario.server_xy, b.scenario.server_xy)
        assert np.array_equal(a.topology.links, b.topology.links)
        assert np.array_equal(a.scenario.requests, b.scenario.requests)

    def test_seed_changes_instance(self):
        a = IDDEInstance.generate(n=10, m=20, k=2, seed=4)
        b = IDDEInstance.generate(n=10, m=20, k=2, seed=5)
        assert not np.allclose(a.scenario.server_xy, b.scenario.server_xy)

    def test_shared_pool(self):
        pool = synthetic_eua(0)
        inst = IDDEInstance.generate(n=10, m=20, k=2, seed=1, pool=pool)
        # Every chosen server position exists in the pool.
        for row in inst.scenario.server_xy:
            assert (np.isclose(pool.server_xy, row).all(axis=1)).any()

    def test_custom_config(self):
        cfg = ScenarioConfig(workload=WorkloadConfig(requests_per_user=2))
        inst = IDDEInstance.generate(n=8, m=15, k=4, seed=2, config=cfg)
        assert (inst.scenario.requests.sum(axis=1) == 2).all()

    def test_repr(self, small_instance):
        assert "IDDEInstance(N=8, M=30, K=4" in repr(small_instance)

"""The sharded solver: fallback bit-exactness, stitching, reconciliation,
extraction errors and the façade/extras contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import solve
from repro.config import GameConfig
from repro.core.game import IddeUGame
from repro.core.instance import IDDEInstance
from repro.errors import ConfigurationError, ShardingError
from repro.obs import RecordingTracer
from repro.radio.sinr import UNALLOCATED
from repro.sharding import (
    Domain,
    ShardConfig,
    ShardedIddeG,
    build_plan,
    extract_subinstance,
    solve_sharded_game,
)

from ..conftest import make_instance, make_scenario


@pytest.fixture(scope="module")
def two_cluster_instance() -> IDDEInstance:
    server_xy = [[0.0, 0.0], [200.0, 0.0], [3000.0, 0.0], [3200.0, 0.0]]
    user_xy = [[float(50 + 30 * i), 10.0] for i in range(6)] + [
        [float(3050 + 30 * i), -10.0] for i in range(6)
    ]
    return make_instance(make_scenario(server_xy, user_xy, radius=400.0), seed=0)


class TestTrivialFallback:
    @pytest.mark.parametrize(
        "schedule", ["round-robin", "best-gain-winner", "random-winner"]
    )
    def test_bit_identical_to_plain_game(self, tiny_instance, schedule):
        cfg = GameConfig(schedule=schedule)
        plain = IddeUGame(tiny_instance, cfg).run(rng=7)
        sharded, stats = solve_sharded_game(tiny_instance, cfg, rng=7)
        assert stats["fallback"]
        np.testing.assert_array_equal(sharded.profile.server, plain.profile.server)
        np.testing.assert_array_equal(sharded.profile.channel, plain.profile.channel)
        assert sharded.move_log == plain.move_log
        assert sharded.rounds == plain.rounds

    def test_fallback_event_traced(self, tiny_instance):
        tracer = RecordingTracer()
        solve_sharded_game(tiny_instance, rng=7, tracer=tracer)
        assert any(e.etype == "shard.fallback" for e in tracer.events)


class TestShardedSolve:
    def test_certifies_whole_instance(self, two_cluster_instance):
        result, stats = solve_sharded_game(
            two_cluster_instance, shard_cfg=ShardConfig(n_workers=0), rng=3
        )
        assert not stats["fallback"]
        assert stats["n_shards"] == 2
        assert result.is_nash
        assert result.converged
        result.profile.validate(two_cluster_instance.scenario)
        # Whole-instance certificate holds on the composed profile.
        game = IddeUGame(two_cluster_instance, GameConfig())
        assert game.is_nash(result.profile, tol=result.effective_epsilon)

    @pytest.mark.parametrize("schedule", ["round-robin", "best-gain-winner"])
    def test_clean_decomposition_matches_global_run(
        self, two_cluster_instance, schedule
    ):
        # Deterministic schedules on a clean (no-boundary) decomposition
        # stitch bit-identically to the unsharded run.
        cfg = GameConfig(schedule=schedule)
        plain = IddeUGame(two_cluster_instance, cfg).run(rng=5)
        sharded, stats = solve_sharded_game(
            two_cluster_instance, cfg, ShardConfig(n_workers=0), rng=5
        )
        assert stats["boundary_users"] == 0
        assert stats["reconcile_moves"] == 0
        np.testing.assert_array_equal(sharded.profile.server, plain.profile.server)
        np.testing.assert_array_equal(sharded.profile.channel, plain.profile.channel)

    def test_uncovered_users_stay_unallocated(self):
        server_xy = [[0.0, 0.0], [200.0, 0.0], [3000.0, 0.0], [3200.0, 0.0]]
        user_xy = [[50.0, 10.0], [150.0, 0.0], [3050.0, 10.0], [3150.0, 0.0],
                   [9999.0, 9999.0]]
        instance = make_instance(make_scenario(server_xy, user_xy, radius=400.0))
        result, stats = solve_sharded_game(
            instance, shard_cfg=ShardConfig(n_workers=0), rng=1
        )
        assert stats["uncovered_users"] == 1
        assert result.profile.server[4] == UNALLOCATED

    def test_all_boundary_plan_is_solved_by_reconciliation(self, tiny_instance):
        # max_users=2 on all-cover-all strands every user at the boundary:
        # the shard phase is empty and reconciliation plays the whole game,
        # honouring the per-user move cap machinery.
        cfg = GameConfig(max_moves_per_user=2)
        result, stats = solve_sharded_game(
            tiny_instance, cfg, ShardConfig(max_users=2, n_workers=0), rng=2
        )
        assert stats["n_shards"] == 0
        assert stats["boundary_users"] == 6
        assert result.moves == stats["reconcile_moves"]
        assert result.is_nash
        result.profile.validate(tiny_instance.scenario)

    def test_stats_contract(self, two_cluster_instance):
        _, stats = solve_sharded_game(
            two_cluster_instance, shard_cfg=ShardConfig(n_workers=0), rng=0
        )
        for key in (
            "fallback", "n_domains", "n_shards", "shard_users", "boundary_users",
            "uncovered_users", "shard_rounds", "shard_moves",
            "shard_effective_epsilon", "reconcile_rounds", "reconcile_moves",
        ):
            assert key in stats
        assert len(stats["shard_users"]) == stats["n_shards"]

    def test_spans_and_counters(self, two_cluster_instance):
        tracer = RecordingTracer()
        solve_sharded_game(
            two_cluster_instance, shard_cfg=ShardConfig(n_workers=0), rng=0,
            tracer=tracer,
        )
        names = [s.name for s in tracer.spans]
        for name in ("shard.build", "shard.solve", "shard.reconcile"):
            assert name in names
        assert sum(1 for e in tracer.events if e.etype == "shard.result") == 2
        assert "shard.reconcile_rounds" in tracer.counters

    def test_int_seed_reproducible(self, two_cluster_instance):
        a, _ = solve_sharded_game(
            two_cluster_instance,
            GameConfig(schedule="random-winner"),
            ShardConfig(n_workers=0),
            rng=11,
        )
        b, _ = solve_sharded_game(
            two_cluster_instance,
            GameConfig(schedule="random-winner"),
            ShardConfig(n_workers=0),
            rng=11,
        )
        np.testing.assert_array_equal(a.profile.server, b.profile.server)
        assert a.move_log == b.move_log


class TestExtract:
    def test_empty_domain_rejected(self, two_cluster_instance):
        empty = Domain(
            servers=np.empty(0, dtype=np.int64), users=np.empty(0, dtype=np.int64)
        )
        with pytest.raises(ShardingError, match="empty"):
            extract_subinstance(two_cluster_instance, empty)

    def test_unsorted_indices_rejected(self, two_cluster_instance):
        bad = Domain(
            servers=np.array([1, 0], dtype=np.int64),
            users=np.array([0, 1], dtype=np.int64),
        )
        with pytest.raises(ShardingError, match="sorted"):
            extract_subinstance(two_cluster_instance, bad)

    def test_out_of_range_rejected(self, two_cluster_instance):
        bad = Domain(
            servers=np.array([0, 99], dtype=np.int64),
            users=np.array([0], dtype=np.int64),
        )
        with pytest.raises(ShardingError, match="in"):
            extract_subinstance(two_cluster_instance, bad)

    def test_slice_is_faithful(self, two_cluster_instance):
        plan = build_plan(two_cluster_instance)
        sub = extract_subinstance(two_cluster_instance, plan.shards[0])
        sc, full = sub.instance.scenario, two_cluster_instance.scenario
        np.testing.assert_array_equal(sc.server_xy, full.server_xy[sub.server_map])
        np.testing.assert_array_equal(sc.user_xy, full.user_xy[sub.user_map])
        assert sub.instance.topology.n == sub.server_map.size


class TestFacade:
    def test_api_solve_with_sharding(self, two_cluster_instance):
        sol = solve(
            two_cluster_instance, "idde-g",
            sharding=ShardConfig(n_workers=0), rng=3,
        )
        assert sol.solver == "IDDE-G"
        assert sol.config["shards"] == "auto"
        assert sol.extras["sharding"]["n_shards"] == 2
        assert sol.game is not None and sol.game.is_nash

    def test_sharding_stats_survive_the_json_document(self, two_cluster_instance):
        import json

        sol = solve(
            two_cluster_instance, "idde-g",
            sharding=ShardConfig(n_workers=0), rng=3,
        )
        doc = json.loads(json.dumps(sol.to_dict()))
        assert doc["extras"]["sharding"]["n_shards"] == 2
        assert doc["config"]["shards"] == "auto"

    def test_sharding_rejected_for_baselines(self, two_cluster_instance):
        with pytest.raises(ConfigurationError, match="idde-g"):
            solve(two_cluster_instance, "cdp", sharding=ShardConfig(), rng=3)

    def test_sharded_solver_keeps_the_name(self):
        s = ShardedIddeG(sharding=ShardConfig(n_workers=0))
        assert s.name == "IDDE-G"

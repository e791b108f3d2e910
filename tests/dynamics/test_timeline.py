"""Dynamic simulation (epoch loop) tests."""

import numpy as np
import pytest

from repro.core.instance import IDDEInstance
from repro.datasets.melbourne import CBD_REGION
from repro.dynamics import (
    ConfinedRandomWalk,
    DynamicSimulation,
    RandomWaypoint,
    mobility_batches,
)
from repro.errors import ExperimentError, ScenarioError


@pytest.fixture(scope="module")
def instance():
    return IDDEInstance.generate(n=12, m=50, k=4, density=1.5, seed=5)


def waypoint(instance, speed=(5.0, 15.0), seed=1):
    return RandomWaypoint(
        instance.scenario.user_xy, CBD_REGION, rng=seed, speed_range=speed
    )


def run(instance, mobility, epochs, dt, policy="warm"):
    """``epochs`` epochs of ``mobility`` through the event loop."""
    sim = DynamicSimulation(instance, policy=policy)
    return sim.run_events(mobility_batches(mobility, epochs, dt), rng=0)


class TestBasics:
    def test_epoch_zero_is_initial_solve(self, instance):
        records = run(instance, waypoint(instance), epochs=1, dt=10.0)
        assert len(records) == 1
        rec = records[0]
        assert rec.epoch == 0
        assert rec.r_avg > 0
        assert rec.migration.cloud_seeded == rec.migration.n_added  # cold fill

    def test_record_count(self, instance):
        records = run(instance, waypoint(instance), epochs=5, dt=20.0)
        assert [r.epoch for r in records] == [0, 1, 2, 3, 4]

    def test_policy_validation(self, instance):
        with pytest.raises(ExperimentError):
            DynamicSimulation(instance, policy="oracle")

    def test_user_count_mismatch(self, instance):
        with pytest.raises(ExperimentError):
            DynamicSimulation(instance, active=np.ones(3, dtype=bool))

    def test_zero_epochs_rejected(self, instance):
        with pytest.raises(ExperimentError):
            mobility_batches(waypoint(instance), epochs=0, dt=1.0)


class TestPolicies:
    def test_static_never_resolves(self, instance):
        records = run(instance, waypoint(instance), epochs=4, dt=30.0, policy="static")
        assert all(r.game_moves == 0 for r in records[1:])
        assert all(r.migration_mb == 0.0 for r in records[1:])

    def test_static_decays_under_heavy_motion(self, instance):
        """A never-updated strategy loses rate as users walk away."""
        records = run(
            instance, waypoint(instance, speed=(20.0, 40.0)), 6, 60.0, policy="static"
        )
        assert records[-1].r_avg < records[0].r_avg * 0.8

    def test_warm_tracks_quality(self, instance):
        warm = run(
            instance, waypoint(instance, speed=(20.0, 40.0)), 6, 60.0, policy="warm"
        )
        static = run(
            instance, waypoint(instance, speed=(20.0, 40.0)), 6, 60.0, policy="static"
        )
        assert warm[-1].r_avg > static[-1].r_avg

    def test_warm_cheaper_than_cold_under_slow_motion(self, instance):
        """With gentle mobility, warm-started re-solves need far fewer
        best-response moves than solving from scratch."""
        slow = (0.3, 0.8)
        warm = run(instance, waypoint(instance, speed=slow), 5, 10.0, policy="warm")
        cold = run(instance, waypoint(instance, speed=slow), 5, 10.0, policy="cold")
        warm_moves = np.mean([r.game_moves for r in warm[1:]])
        cold_moves = np.mean([r.game_moves for r in cold[1:]])
        assert warm_moves < cold_moves * 0.5, (warm_moves, cold_moves)

    def test_cold_and_warm_maintain_rate(self, instance):
        for policy in ("warm", "cold"):
            records = run(
                instance, waypoint(instance, speed=(10.0, 20.0)), 5, 30.0, policy=policy
            )
            rates = [r.r_avg for r in records]
            assert min(rates) > 0.6 * rates[0], (policy, rates)


class TestWithRandomWalk:
    def test_runs_with_walk_model(self, instance):
        walk = ConfinedRandomWalk(
            instance.scenario.user_xy, CBD_REGION, rng=2, sigma=5.0
        )
        records = run(instance, walk, epochs=4, dt=20.0)
        assert len(records) == 4
        assert all(r.r_avg > 0 for r in records)


class TestSummary:
    def test_summary_keys(self, instance):
        records = run(instance, waypoint(instance), epochs=4, dt=20.0)
        summary = DynamicSimulation.summarize(records)
        assert set(summary) == {
            "mean_r_avg",
            "mean_l_avg_ms",
            "mean_realloc",
            "mean_moves",
            "mean_migration_mb",
            "mean_solve_time_s",
        }

    def test_empty_summary(self):
        assert DynamicSimulation.summarize([]) == {}

    def test_single_record_steady_metrics_are_nan(self, instance):
        """Epoch 0 is cold build-up, not churn: a 1-epoch run has no
        steady-state sample, so the churn statistics are NaN rather than
        the cold solve in disguise."""
        records = run(instance, waypoint(instance), epochs=1, dt=10.0)
        summary = DynamicSimulation.summarize(records)
        for key in (
            "mean_realloc",
            "mean_moves",
            "mean_migration_mb",
            "mean_solve_time_s",
        ):
            assert np.isnan(summary[key]), key
        assert summary["mean_r_avg"] == pytest.approx(records[0].r_avg)

    def test_multi_record_steady_metrics_exclude_epoch_zero(self, instance):
        records = run(instance, waypoint(instance), epochs=3, dt=10.0)
        summary = DynamicSimulation.summarize(records)
        assert summary["mean_realloc"] == pytest.approx(
            np.mean([r.reallocated_users for r in records[1:]])
        )
        # Epoch 0's reallocated_users is the cold fill (n_allocated), which
        # would otherwise swamp the epoch-over-epoch change statistic.
        assert records[0].reallocated_users > summary["mean_realloc"]


class TestEventDriven:
    """run_events: the streaming front-end of the same engine."""

    def _stream(self, instance, n_events=120, per_epoch=40, seed=0, **kw):
        from repro.workload import StreamConfig, batch_by_count, poisson_zipf_stream

        cfg = StreamConfig(move_sigma=20.0, **kw)
        return batch_by_count(
            poisson_zipf_stream(
                instance.scenario, rng=seed, config=cfg, n_events=n_events
            ),
            per_epoch,
        )

    def test_records_and_solutions(self, instance):
        sim = DynamicSimulation(instance, policy="warm")
        records = sim.run_events(self._stream(instance), rng=0)
        assert [r.epoch for r in records] == [0, 1, 2, 3]
        assert records[0].n_events == 0
        assert sum(r.n_events for r in records) == 120
        for r in records:
            assert r.solution is not None
            assert r.solution.game.is_nash
            assert r.active_users == r.solution.config.get(
                "active_users", instance.n_users
            )

    def test_warm_epochs_declare_warm_start(self, instance):
        records = DynamicSimulation(instance, policy="warm").run_events(
            self._stream(instance), rng=0
        )
        assert records[0].solution.config["warm_start"] is False
        assert all(r.solution.config["warm_start"] for r in records[1:])
        cold = DynamicSimulation(instance, policy="cold").run_events(
            self._stream(instance), rng=0
        )
        assert all(not r.solution.config["warm_start"] for r in cold)

    def test_static_policy_has_no_solutions_after_epoch_zero(self, instance):
        records = DynamicSimulation(instance, policy="static").run_events(
            self._stream(instance), rng=0
        )
        assert records[0].solution is not None
        assert all(r.solution is None for r in records[1:])
        assert all(r.game_moves == 0 for r in records[1:])

    def test_leave_events_shrink_active_count(self, instance):
        from repro.workload import EpochBatch, UserLeave

        batch = EpochBatch(
            0, 0.0, 1.0, tuple(UserLeave(t=1.0, user=j) for j in range(5))
        )
        records = DynamicSimulation(instance, policy="warm").run_events(
            [batch], rng=0
        )
        assert records[0].active_users == instance.n_users
        assert records[1].active_users == instance.n_users - 5
        # Departed users end the epoch unallocated.
        alloc = records[1].solution.allocation
        assert not alloc.allocated[:5].any()

    def test_mobility_and_event_frontends_share_engine(self, instance):
        """mobility_batches is an adapter: its records carry façade solutions too."""
        records = run(instance, waypoint(instance), epochs=2, dt=10.0, policy="cold")
        assert all(r.solution is not None for r in records)
        assert records[1].n_events >= instance.n_users  # a Move per user


class TestSessionLoop:
    """warm/cold replays run the IDDE-Serve session's epoch loop."""

    @staticmethod
    def _batches(instance, seed):
        from repro.dynamics import PoissonChurn

        churn = PoissonChurn(instance.n_users, rng=seed, p_depart=0.1, p_arrive=0.3)
        mobility = waypoint(instance, seed=seed)
        return churn.active.copy(), list(mobility_batches(mobility, 4, 20.0, churn))

    @pytest.mark.parametrize("schedule", ["round-robin", "best-gain-winner"])
    @pytest.mark.parametrize("policy", ["warm", "cold"])
    def test_run_equals_a_session_fed_the_same_batches(self, instance, policy, schedule):
        from repro.config import GameConfig
        from repro.request import SolveRequest
        from repro.serve import SolverSession

        active, batches = self._batches(instance, seed=3)
        game = GameConfig(schedule=schedule)
        records = DynamicSimulation(
            instance, policy=policy, active=active, game=game
        ).run_events(batches, rng=3)
        session = SolverSession(
            instance,
            SolveRequest(
                solver="idde-g",
                game_config=game,
                warm_start=True if policy == "warm" else None,
                active=active,
                rng=3,
            ),
        )
        expected = [session.solve()] + [session.apply_events(b) for b in batches]
        assert session.warm_solves == (len(batches) if policy == "warm" else 0)
        assert len(records) == len(expected)
        for record, sol in zip(records, expected):
            got = record.solution
            assert np.array_equal(got.allocation.server, sol.allocation.server)
            assert np.array_equal(got.allocation.channel, sol.allocation.channel)
            assert np.array_equal(got.delivery.placed, sol.delivery.placed)
            assert got.game.move_log == sol.game.move_log
            assert got.game.effective_epsilon == sol.game.effective_epsilon
            assert (record.r_avg, record.l_avg_ms) == (sol.r_avg, sol.l_avg_ms)
            assert record.game_moves == sol.game.moves

    def test_session_reports_to_the_simulation_tracer(self, instance, monkeypatch):
        from repro.serve import session as session_module

        def no_private_tracer():
            raise AssertionError("the session built its own RecordingTracer")

        monkeypatch.setattr(session_module, "RecordingTracer", no_private_tracer)
        records = run(instance, waypoint(instance), epochs=2, dt=10.0)
        assert all(r.solution is not None for r in records)

    @pytest.mark.parametrize("policy", ["warm", "cold", "static"])
    def test_every_solving_epoch_is_certified(self, instance, policy):
        from repro.obs import RecordingTracer

        tracer = RecordingTracer()
        records = DynamicSimulation(instance, policy=policy, tracer=tracer).run_events(
            mobility_batches(waypoint(instance), 4, 20.0), rng=0
        )
        names = [s.name for s in tracer.spans]
        solved = sum(r.solution is not None for r in records)
        assert solved == (1 if policy == "static" else len(records))
        assert names.count("game.certify") == solved
        assert "serve.certify" not in names
        assert names.count("workload.batch") == len(records) - 1
        assert names.count("timeline.epoch") == len(records)


class TestGainOverride:
    def test_epoch_zero_equals_direct_solve(self, shadowed_instance):
        from repro.api import solve

        [record] = DynamicSimulation(shadowed_instance).run_events([], rng=5)
        direct = solve(shadowed_instance, "idde-g", rng=5)
        assert np.array_equal(record.solution.allocation.server, direct.allocation.server)
        assert np.array_equal(record.solution.delivery.placed, direct.delivery.placed)
        assert (record.r_avg, record.l_avg_ms) == (direct.r_avg, direct.l_avg_ms)

    def test_move_is_a_structured_error(self, shadowed_instance):
        from repro.workload import EpochBatch, Move

        batch = EpochBatch(0, 0.0, 1.0, (Move(t=0.5, user=1, x=0.0, y=0.0),))
        with pytest.raises(ScenarioError, match="gain_override"):
            DynamicSimulation(shadowed_instance).run_events([batch], rng=5)

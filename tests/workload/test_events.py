"""Event vocabulary and WorkloadState folding tests."""

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.workload import (
    EpochBatch,
    Move,
    PopularityShift,
    UserJoin,
    UserLeave,
    WorkloadState,
)


class TestEvents:
    def test_to_dict_round_trips_fields(self):
        ev = Move(t=1.5, user=3, x=10.0, y=-2.0)
        assert ev.to_dict() == {
            "kind": "move",
            "t": 1.5,
            "user": 3,
            "x": 10.0,
            "y": -2.0,
        }

    def test_shift_order_serialises_as_list(self):
        ev = PopularityShift(t=0.1, order=(1, 0, 2))
        assert ev.to_dict()["order"] == [1, 0, 2]

    def test_batch_iterates_in_order(self):
        evs = (UserJoin(t=1.0, user=0), UserLeave(t=2.0, user=0))
        batch = EpochBatch(0, 0.0, 2.0, evs)
        assert batch.n_events == 2
        assert tuple(batch) == evs


class TestWorkloadState:
    def test_from_scenario_defaults_all_active(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        assert state.n_users == tiny_scenario.n_users
        assert state.n_active == tiny_scenario.n_users
        np.testing.assert_array_equal(state.positions, tiny_scenario.user_xy)

    def test_state_copies_do_not_alias(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        state.positions[0] = (999.0, 999.0)
        state.requests[:] = False
        assert tiny_scenario.user_xy[0, 0] != 999.0
        assert tiny_scenario.requests.any()

    def test_join_leave_flip_mask(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        state.apply((UserLeave(t=1.0, user=2),))
        assert not state.active[2]
        state.apply((UserJoin(t=2.0, user=2),))
        assert state.active[2]

    def test_move_sets_absolute_position(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        state.apply((Move(t=1.0, user=0, x=42.0, y=-7.0),))
        np.testing.assert_allclose(state.positions[0], (42.0, -7.0))

    def test_shift_permutes_request_columns(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        before = state.requests.copy()
        state.apply((PopularityShift(t=1.0, order=(1, 0)),))
        np.testing.assert_array_equal(state.requests, before[:, [1, 0]])

    def test_shift_rejects_non_permutation(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        with pytest.raises(ScenarioError, match="permutation"):
            state.apply((PopularityShift(t=1.0, order=(0, 0)),))

    def test_shift_rejects_overflowing_order(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        with pytest.raises(ScenarioError, match="permutation"):
            state.apply((PopularityShift(t=1.0, order=(2**70, 0)),))

    def test_user_out_of_range(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        with pytest.raises(ScenarioError, match="out of range"):
            state.apply((UserJoin(t=1.0, user=99),))

    @pytest.mark.parametrize("user", [1.5, True, "1", None])
    def test_non_integer_user_rejected(self, tiny_scenario, user):
        state = WorkloadState.from_scenario(tiny_scenario)
        with pytest.raises(ScenarioError, match="must be an integer"):
            state.apply((Move(t=0.0, user=user, x=0.0, y=0.0),))

    def test_numpy_integer_user_accepted(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        state.apply((UserLeave(t=0.0, user=np.int64(4)),))
        assert not state.active[4]

    @pytest.mark.parametrize(
        "bad",
        [
            Move(t=0.0, user=1.5, x=0.0, y=0.0),
            UserJoin(t=0.0, user=99),
            PopularityShift(t=0.0, order=(0, 0)),
        ],
    )
    def test_bad_event_folds_nothing(self, tiny_scenario, bad):
        """Every event is checked before any is folded: the valid events
        ahead of a bad one leave no trace."""
        state = WorkloadState.from_scenario(tiny_scenario)
        before = (state.positions.copy(), state.active.copy(), state.requests.copy())
        batch = (
            UserLeave(t=0.0, user=3),
            Move(t=0.0, user=0, x=1.0, y=2.0),
            PopularityShift(t=0.0, order=(1, 0)),
            bad,
        )
        with pytest.raises(ScenarioError):
            state.apply(batch)
        for got, want in zip((state.positions, state.active, state.requests), before):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_scenario_zeroes_inactive_rows_only(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        state.apply((UserLeave(t=1.0, user=1),))
        snap = state.scenario(tiny_scenario)
        assert not snap.requests[1].any()
        # Pristine demand survives inside the state: re-arrival restores it.
        state.apply((UserJoin(t=2.0, user=1),))
        snap2 = state.scenario(tiny_scenario)
        np.testing.assert_array_equal(snap2.requests[1], tiny_scenario.requests[1])

    def test_scenario_user_count_guard(self, tiny_scenario):
        state = WorkloadState.from_scenario(tiny_scenario)
        bad = WorkloadState(
            np.zeros((2, 2)), np.ones(2, dtype=bool), np.zeros((2, 2), dtype=bool)
        )
        with pytest.raises(ScenarioError, match="users"):
            bad.scenario(tiny_scenario)
        assert state.scenario(tiny_scenario).n_users == tiny_scenario.n_users

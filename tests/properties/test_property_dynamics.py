"""Property-based tests for the dynamics extension."""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.instance import IDDEInstance
from repro.core.profiles import DeliveryProfile
from repro.datasets.melbourne import CBD_REGION
from repro.dynamics.churn import PoissonChurn
from repro.dynamics.migration import plan_migration
from repro.dynamics.mobility import ConfinedRandomWalk, RandomWaypoint
from repro.geometry import coverage_matrix
from repro.radio.fading import lognormal_shadowing
from repro.topology.graph import EdgeTopology
from repro.workload import Move, PopularityShift, UserJoin, UserLeave, WorkloadState

from .strategies import instances

FAST = settings(max_examples=25, deadline=None)


@st.composite
def profile_pairs(draw):
    """An instance plus two random feasible delivery profiles."""
    instance = draw(instances())
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(2):
        placed = np.zeros((instance.n_servers, instance.n_data), dtype=bool)
        residual = instance.scenario.storage.astype(float).copy()
        cells = [(i, k) for i in range(instance.n_servers) for k in range(instance.n_data)]
        rng.shuffle(cells)
        for i, k in cells:
            if residual[i] >= instance.scenario.sizes[k] and rng.random() < 0.4:
                placed[i, k] = True
                residual[i] -= instance.scenario.sizes[k]
        profiles.append(DeliveryProfile(placed))
    return instance, profiles[0], profiles[1]


class TestMigrationProperties:
    @FAST
    @given(profile_pairs())
    def test_bytes_equal_added_sizes(self, triple):
        instance, old, new = triple
        plan = plan_migration(instance, old, new)
        expected = sum(instance.scenario.sizes[k] for _, k in plan.added)
        assert plan.bytes_moved == expected

    @FAST
    @given(profile_pairs())
    def test_delta_consistency(self, triple):
        instance, old, new = triple
        plan = plan_migration(instance, old, new)
        added = np.zeros_like(old.placed)
        for i, k in plan.added:
            added[i, k] = True
        removed = np.zeros_like(old.placed)
        for i, k in plan.removed:
            removed[i, k] = True
        assert np.array_equal((old.placed & ~removed) | added, new.placed)

    @FAST
    @given(profile_pairs())
    def test_transfer_times_bounded_by_cloud(self, triple):
        instance, old, new = triple
        plan = plan_migration(instance, old, new)
        cloud = instance.latency_model.cloud_cost
        for (_, k), t in zip(plan.added, plan.transfer_times_s):
            assert t <= instance.scenario.sizes[k] * cloud + 1e-12

    @FAST
    @given(profile_pairs())
    def test_self_migration_is_free(self, triple):
        instance, old, _ = triple
        plan = plan_migration(instance, old, old.copy())
        assert plan.bytes_moved == 0.0
        assert plan.n_added == plan.n_removed == 0


class TestChurnProperties:
    @FAST
    @given(
        st.integers(1, 100),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**16),
    )
    def test_mask_stays_boolean_of_right_shape(self, n, pd, pa, seed):
        churn = PoissonChurn(n, rng=seed, p_depart=pd, p_arrive=pa)
        for _ in range(5):
            mask = churn.step()
            assert mask.dtype == bool and mask.shape == (n,)

    @FAST
    @given(st.integers(0, 2**16))
    def test_masked_scenario_idempotent(self, seed):
        """Masking a masked scenario again with the same mask changes nothing."""
        from repro.datasets.eua import sample_scenario, synthetic_eua

        rng = np.random.default_rng(seed)
        pool = synthetic_eua(0, n_servers=10, n_users=30)
        sc = sample_scenario(pool, 5, 12, 3, rng)
        active = rng.random(12) < 0.5
        once = WorkloadState.from_scenario(sc, active).scenario(sc)
        twice = WorkloadState.from_scenario(once, active).scenario(once)
        assert np.array_equal(once.requests, twice.requests)

    @FAST
    @given(st.integers(0, 2**16), st.integers(1, 6))
    def test_masked_scenario_keeps_dtype_shape(self, seed, reps):
        from repro.datasets.eua import sample_scenario, synthetic_eua

        rng = np.random.default_rng(seed)
        pool = synthetic_eua(0, n_servers=10, n_users=30)
        sc = sample_scenario(pool, 5, 12, 3, rng)
        cur = sc
        for _ in range(reps):
            active = rng.random(12) < 0.7
            cur = WorkloadState.from_scenario(cur, active).scenario(cur)
            assert cur.requests.dtype == sc.requests.dtype
            assert cur.requests.shape == sc.requests.shape
            assert not cur.requests[~active].any()

    @FAST
    @given(instances(full_coverage=True), st.integers(0, 2**16))
    def test_departed_rearrived_user_reenters_unallocated(self, instance, seed):
        """The churn round trip leaves no stale state: a departed user is
        fully detached, and on re-arrival the game sees it unallocated —
        any new allocation is freshly feasible, never a resurrected pair."""
        from repro.core.game import IddeUGame
        from repro.core.profiles import UNALLOCATED
        from repro.core.repair import repair_allocation

        rng = np.random.default_rng(seed)
        alloc = IddeUGame(instance).run(rng=rng).profile
        m = instance.n_users
        user = int(rng.integers(m))
        active = np.ones(m, dtype=bool)
        active[user] = False
        departed, _ = repair_allocation(instance, alloc, active)
        assert departed.server[user] == UNALLOCATED
        assert departed.channel[user] == UNALLOCATED
        # Re-arrival: repairing again must not resurrect the old pair.
        active[user] = True
        back, _ = repair_allocation(instance, departed, active)
        assert back.server[user] == UNALLOCATED
        assert back.channel[user] == UNALLOCATED
        result = IddeUGame(instance).run(rng=rng, initial=back, active=active)
        if result.profile.server[user] != UNALLOCATED:
            s = int(result.profile.server[user])
            assert instance.scenario.coverage[s, user]
            assert 0 <= result.profile.channel[user] < instance.scenario.channels[s]


class TestMobilityProperties:
    @FAST
    @given(st.integers(0, 2**16), st.floats(0.1, 120.0))
    def test_waypoint_confined(self, seed, dt):
        rng = np.random.default_rng(seed)
        pts = rng.uniform([0, 0], [CBD_REGION.x1, CBD_REGION.y1], size=(15, 2))
        model = RandomWaypoint(pts, CBD_REGION, rng=seed)
        for _ in range(10):
            out = model.step(dt)
            assert CBD_REGION.contains(out).all()

    @FAST
    @given(st.integers(0, 2**16), st.floats(0.1, 60.0))
    def test_walk_confined(self, seed, dt):
        rng = np.random.default_rng(seed)
        pts = rng.uniform([0, 0], [CBD_REGION.x1, CBD_REGION.y1], size=(15, 2))
        model = ConfinedRandomWalk(pts, CBD_REGION, rng=seed, sigma=20.0)
        for _ in range(10):
            out = model.step(dt)
            assert CBD_REGION.contains(out).all()


@st.composite
def event_days(draw, resize: bool = False):
    """An instance (shadowed by a gain override one time in three) and a
    few epochs of random ``idde-events/1`` events over it.

    Under an override a real move is refused, so its moves only re-state a
    user's current position; otherwise a move goes anywhere in or around
    the server field, covered or not.

    With ``resize`` there is no override and the days move users only to
    grow and shrink the widest covering set ``Smax``: the first and third
    epochs move one user onto the most-covered of the server and starting
    user positions (``Smax`` becomes that point's count ``H``, at least 2),
    the second moves every user covered ``H`` times out of all coverage.
    Joins, leaves and shifts ride along.
    """
    instance = draw(instances())
    if not resize and draw(st.integers(0, 2)) == 0:
        scenario = instance.scenario
        gain = lognormal_shadowing(
            scenario.server_xy, scenario.user_xy, rng=draw(st.integers(0, 2**16)), sigma_db=8
        )
        instance = IDDEInstance(
            scenario, instance.topology, instance.radio, gain_override=gain
        )
    scenario = instance.scenario
    m, k = instance.n_users, instance.n_data
    positions = scenario.user_xy.copy()
    users = st.integers(0, m - 1)
    kinds = ("join", "leave", "shift") if resize else ("move", "join", "leave", "shift")
    if resize:
        spots = np.concatenate((scenario.server_xy, scenario.user_xy))
        spot_counts = coverage_matrix(scenario.server_xy, scenario.radius, spots).sum(axis=0)
        assume(spot_counts.max() >= 2)
    days = []
    for epoch in range(3 if resize else draw(st.integers(1, 4))):
        events = []
        if resize and epoch == 1:
            counts = coverage_matrix(scenario.server_xy, scenario.radius, positions).sum(axis=0)
            for j in np.flatnonzero(counts == spot_counts.max()).tolist():
                positions[j] = (-1e5, -1e5)
                events.append(Move(0.0, j, -1e5, -1e5))
        elif resize:
            j = draw(users)
            positions[j] = spots[int(np.argmax(spot_counts))]
            events.append(Move(0.0, j, float(positions[j, 0]), float(positions[j, 1])))
        for _ in range(draw(st.integers(0, 5))):
            kind = draw(st.sampled_from(kinds))
            if kind == "move":
                j = draw(users)
                if instance.gain_override is None and draw(st.booleans()):
                    positions[j] = draw(st.tuples(*[st.floats(-400.0, 1200.0)] * 2))
                events.append(Move(0.0, j, float(positions[j, 0]), float(positions[j, 1])))
            elif kind == "join":
                events.append(UserJoin(0.0, draw(users)))
            elif kind == "leave":
                events.append(UserLeave(0.0, draw(users)))
            else:
                events.append(PopularityShift(0.0, tuple(draw(st.permutations(range(k))))))
        days.append(tuple(events))
    return instance, days


def _bits(array):
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


class TestChainedProjection:
    """Projecting each epoch from the last one equals a fresh build, and so
    do the radio tables it patches for the users who moved."""

    @FAST
    @given(event_days())
    def test_chain_equals_fresh_instance(self, day):
        self._check_chain(*day)

    @FAST
    @given(event_days(resize=True))
    def test_chain_grows_and_shrinks_smax(self, day):
        widths = self._check_chain(*day)
        assert widths[2] < widths[1] and widths[3] > widths[2]

    @staticmethod
    def _check_chain(base, epochs):
        """Walk the chain, every parent with its ``rows`` built, comparing
        each link with a fresh build; returns the padded widths."""
        state = WorkloadState.from_scenario(base.scenario)
        chained = base
        widths = [chained.radio_tables.cov.shape[1]]
        for events in epochs:
            # The parent's derived structure, rows included, is what the
            # projection carries over or patches.
            chained.radio_tables.rows
            chained.scenario.covering_servers
            chained.scenario.covered_users
            state.apply(events)
            chained = chained.project(state)
            # A fresh topology recomputes the path cost on its own.
            topology = EdgeTopology(
                base.topology.n, base.topology.links, base.topology.speeds,
                base.topology.cloud_speed,
            )
            fresh = IDDEInstance(
                state.scenario(base.scenario), topology, base.radio,
                gain_override=base.gain_override,
            )
            assert _bits(chained.latency_model.path_cost) == _bits(fresh.latency_model.path_cost)
            assert _bits(chained.scenario.requests) == _bits(fresh.scenario.requests)
            assert _bits(chained.scenario.coverage) == _bits(fresh.scenario.coverage)
            assert _bits(chained.scenario.covered_users) == _bits(fresh.scenario.covered_users)
            assert [_bits(v) for v in chained.scenario.covering_servers] == [
                _bits(v) for v in fresh.scenario.covering_servers
            ]
            for field in dataclasses.fields(chained.radio_tables):
                assert _bits(getattr(chained.radio_tables, field.name)) == _bits(
                    getattr(fresh.radio_tables, field.name)
                ), field.name
            assert _row_bits(chained.radio_tables.rows) == _row_bits(fresh.radio_tables.rows)
            widths.append(chained.radio_tables.cov.shape[1])
        return widths


def _row_bits(rows):
    """``UserRow``s with every float as its exact hex form."""
    return [
        (row.servers, tuple(float.hex(v) for v in row.signal), row.channels) for row in rows
    ]

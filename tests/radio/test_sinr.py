"""SINR engine tests: incremental bookkeeping vs first-principles math."""

import numpy as np
import pytest

from repro.config import RadioConfig
from repro.errors import AllocationError, CoverageError
from repro.core.instance import IDDEInstance
from repro.radio.channel import gain_matrix
from repro.radio.sinr import UNALLOCATED, RadioTables, SinrEngine

from ..conftest import make_scenario, ragged_scenario, random_profile


def engine_state(engine):
    return tuple(
        a.copy()
        for a in (
            engine.channel_power,
            engine.channel_count,
            engine.alloc_server,
            engine.alloc_channel,
        )
    )


def assert_state_bitwise(a, b):
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.fixture
def engine(tiny_scenario):
    return SinrEngine(tiny_scenario, RadioConfig(channels_per_server=2))


class TestMutation:
    def test_assign_updates_power(self, engine):
        engine.assign(0, 1, 0)
        assert engine.channel_power[1, 0] == pytest.approx(engine.power[0])
        assert engine.channel_count[1, 0] == 1
        assert engine.alloc_server[0] == 1 and engine.alloc_channel[0] == 0

    def test_double_assign_rejected(self, engine):
        engine.assign(0, 1, 0)
        with pytest.raises(AllocationError):
            engine.assign(0, 2, 0)

    def test_move(self, engine):
        engine.assign(0, 1, 0)
        engine.move(0, 2, 1)
        assert engine.channel_power[1, 0] == 0.0
        assert engine.channel_count[2, 1] == 1

    def test_unassign_idempotent(self, engine):
        engine.unassign(0)
        engine.assign(0, 0, 0)
        engine.unassign(0)
        engine.unassign(0)
        assert engine.alloc_server[0] == UNALLOCATED
        assert engine.channel_power.sum() == 0.0

    def test_coverage_enforced(self):
        sc = make_scenario([[0.0, 0.0]], [[1.0, 1.0], [5000.0, 0.0]], radius=10.0)
        eng = SinrEngine(sc)
        with pytest.raises(CoverageError):
            eng.assign(1, 0, 0)

    def test_channel_range_enforced(self, engine):
        with pytest.raises(AllocationError):
            engine.assign(0, 1, 7)

    def test_user_range_enforced(self, engine):
        with pytest.raises(AllocationError):
            engine.assign(99, 0, 0)

    def test_reset(self, engine):
        engine.assign(0, 0, 0)
        engine.assign(1, 0, 1)
        engine.reset()
        assert (engine.alloc_server == UNALLOCATED).all()
        assert engine.channel_power.sum() == 0.0

    def test_load_profile(self, engine):
        server = np.array([0, 1, UNALLOCATED, 2, 0, 1])
        channel = np.array([0, 1, UNALLOCATED, 0, 1, 0])
        engine.load_profile(server, channel)
        assert engine.channel_count.sum() == 5
        assert engine.alloc_server[2] == UNALLOCATED

    def test_load_profile_shape_check(self, engine):
        with pytest.raises(AllocationError):
            engine.load_profile(np.array([0]), np.array([0]))


class TestLoadProfile:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_sequential_assign_bitwise(self, seed):
        sc = ragged_scenario(seed)
        rng = np.random.default_rng(seed)
        server, channel = random_profile(sc, rng, fill=rng.uniform(0.2, 1.0))
        loaded = SinrEngine(sc)
        loaded.load_profile(*random_profile(sc, rng))  # replaced wholesale
        loaded.load_profile(server, channel)
        looped = SinrEngine(sc)
        for j in np.flatnonzero(server != UNALLOCATED):
            looped.assign(int(j), int(server[j]), int(channel[j]))
        assert_state_bitwise(engine_state(loaded), engine_state(looped))

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            ("uncovered", CoverageError),
            ("channel", AllocationError),
            ("negative-channel", AllocationError),
            ("server", AllocationError),
        ],
    )
    def test_failed_load_leaves_engine_unchanged(self, corrupt, error):
        sc = ragged_scenario(3)
        rng = np.random.default_rng(3)
        engine = SinrEngine(sc)
        engine.load_profile(*random_profile(sc, rng))
        before = engine_state(engine)
        server, channel = random_profile(sc, rng, fill=1.0)
        # Corrupt the last allocated user, so every earlier user would load.
        j = int(np.flatnonzero(server != UNALLOCATED)[-1])
        if corrupt == "uncovered":
            server[j] = int(np.flatnonzero(~sc.coverage[:, j])[0])
            channel[j] = 0
        elif corrupt == "channel":
            channel[j] = sc.channels[server[j]]
        elif corrupt == "negative-channel":
            channel[j] = -2
        else:
            server[j] = sc.n_servers
        with pytest.raises(error, match=str(j)):
            engine.load_profile(server, channel)
        assert_state_bitwise(engine_state(engine), before)

    def test_lowest_offending_user_reported(self):
        sc = ragged_scenario(5)
        server, channel = random_profile(sc, np.random.default_rng(5), fill=1.0)
        allocated = np.flatnonzero(server != UNALLOCATED)
        first, last = int(allocated[1]), int(allocated[-1])
        channel[last] = -1  # an AllocationError at a later user ...
        server[first] = int(np.flatnonzero(~sc.coverage[:, first])[0])
        channel[first] = 0  # ... loses to the CoverageError at an earlier one
        with pytest.raises(CoverageError, match=f"cover user {first}$"):
            SinrEngine(sc).load_profile(server, channel)


class TestSinrMath:
    def test_solo_user_noise_limited(self, engine):
        engine.assign(0, 0, 0)
        sinr = engine.user_sinr(0)
        g = engine.gain[0, 0]
        expected = g * engine.power[0] / engine.noise
        assert sinr == pytest.approx(expected)

    def test_two_users_same_channel_interfere(self, engine):
        engine.assign(0, 0, 0)
        engine.assign(1, 0, 0)
        g0 = engine.gain[0, 0]
        # user 0's interference: own-server gain times user 1's power.
        expected = g0 * engine.power[0] / (g0 * engine.power[1] + engine.noise)
        assert engine.user_sinr(0) == pytest.approx(expected)

    def test_other_channel_no_interference(self, engine):
        engine.assign(0, 0, 0)
        engine.assign(1, 0, 1)
        assert engine.user_sinr(0) == pytest.approx(
            engine.gain[0, 0] * engine.power[0] / engine.noise
        )

    def test_cross_cell_interference(self, engine):
        # Users on the same channel index of different covering servers
        # interfere (the F term of Eq. 2).
        engine.assign(0, 0, 0)
        engine.assign(1, 1, 0)
        g0 = engine.gain[0, 0]
        g1_to_u0 = engine.gain[1, 0]
        expected = g0 * engine.power[0] / (g1_to_u0 * engine.power[1] + engine.noise)
        assert engine.user_sinr(0) == pytest.approx(expected)

    def test_unallocated_rate_zero(self, engine):
        assert engine.user_rate(0) == 0.0
        assert engine.user_sinr(0) == 0.0
        assert engine.user_benefit(0) == 0.0

    def test_rates_vector_matches_scalar(self, engine):
        rng = np.random.default_rng(0)
        for j in range(engine.scenario.n_users):
            i = int(rng.integers(0, 3))
            x = int(rng.integers(0, 2))
            engine.assign(j, i, x)
        vec = engine.rates()
        for j in range(engine.scenario.n_users):
            assert vec[j] == pytest.approx(engine.user_rate(j), rel=1e-10)

    def test_average_rate(self, engine):
        engine.assign(0, 0, 0)
        rates = engine.rates()
        assert engine.average_rate() == pytest.approx(rates.sum() / 6)

    def test_rate_cap_applied(self, engine):
        engine.assign(0, 0, 0)  # solo user => astronomically high SINR
        assert engine.user_rate(0) == pytest.approx(engine.scenario.rmax[0])

    def test_uncapped_rates_exceed_cap_for_solo(self, engine):
        engine.assign(0, 0, 0)
        assert engine.uncapped_rates()[0] > engine.scenario.rmax[0]


class TestCandidates:
    def test_view_shapes(self, engine):
        view = engine.candidates(0)
        assert view.servers.shape == (3,)
        assert view.sinr.shape == (3, 2)
        assert view.valid.all()

    def test_benefit_in_unit_interval(self, engine):
        engine.assign(1, 0, 0)
        view = engine.candidates(0)
        assert (view.benefit > 0).all() and (view.benefit <= 1).all()

    def test_best_avoids_loaded_channel(self, engine):
        # Load channel 0 of every server; channel 1 must win.
        for j in range(1, 6):
            engine.assign(j, j % 3, 0)
        _, channel, _ = engine.candidates(0).best("benefit")
        assert channel == 1

    def test_best_empty_raises(self):
        sc = make_scenario([[0.0, 0.0]], [[9999.0, 0.0]], radius=10.0)
        eng = SinrEngine(sc)
        view = eng.candidates(0)
        assert view.servers.size == 0
        with pytest.raises(CoverageError):
            view.best()

    def test_candidate_matches_realised_rate(self, engine):
        engine.assign(1, 0, 0)
        engine.assign(2, 1, 1)
        view = engine.candidates(0)
        s_idx = 2  # allocate to server 2, channel 0
        engine.assign(0, 2, 0)
        assert engine.user_rate(0) == pytest.approx(float(view.rate[s_idx, 0]))

    def test_heterogeneous_channel_mask(self):
        sc = make_scenario(
            [[0.0, 0.0], [50.0, 0.0]], [[10.0, 0.0]], channels=[1, 3], radius=500.0
        )
        eng = SinrEngine(sc, RadioConfig())
        view = eng.candidates(0)
        assert view.valid.tolist() == [[True, False, False], [True, True, True]]


class TestInterferenceProfile:
    def test_excludes_own_power(self, engine):
        engine.assign(0, 0, 0)
        _, w = engine.interference_profile(0)
        assert w[0] == pytest.approx(0.0, abs=1e-25)

    def test_includes_other_users(self, engine):
        engine.assign(1, 0, 0)
        _, w = engine.interference_profile(0)
        assert w[0] == pytest.approx(engine.gain[0, 0] * engine.power[1])
        assert w[1] == 0.0


def loop_built_tables(scenario, gain):
    """The padded covering tables built user by user (the reference)."""
    m = scenario.n_users
    covering = scenario.covering_servers
    smax = max(max((len(v) for v in covering), default=0), 1)
    cov = np.zeros((m, smax), dtype=np.int64)
    mask = np.zeros((m, smax), dtype=bool)
    for j, servers in enumerate(covering):
        cov[j, : len(servers)] = servers
        mask[j, : len(servers)] = True
    cov_gain = np.where(mask, gain[cov, np.arange(m)[:, None]], 0.0)
    x = max(scenario.max_channels, 1)
    return {
        "count": np.array([len(v) for v in covering], dtype=np.int64),
        "cov": cov,
        "mask": mask,
        "cov_gain": cov_gain,
        "signal": cov_gain * scenario.power[:, None],
        "valid": scenario.channel_mask[cov, :x] & mask[:, :, None],
    }


class TestRadioTables:
    @pytest.mark.parametrize("seed", range(6))
    def test_vectorised_build_equals_loop(self, seed):
        sc = ragged_scenario(seed)
        tables = RadioTables.build(sc, RadioConfig())
        assert tables.gain.tobytes() == gain_matrix(
            sc.server_xy, sc.user_xy, RadioConfig()
        ).tobytes()
        for name, expected in loop_built_tables(sc, tables.gain).items():
            got = getattr(tables, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name

    def test_generated_instance_equals_loop(self):
        inst = IDDEInstance.generate(n=12, m=80, k=3, density=1.5, seed=4)
        tables = inst.radio_tables
        for name, expected in loop_built_tables(inst.scenario, tables.gain).items():
            assert getattr(tables, name).tobytes() == expected.tobytes(), name

    def test_no_user_and_no_coverage_edges(self):
        lonely = make_scenario([[0.0, 0.0]], [[9999.0, 0.0]], radius=10.0)
        tables = RadioTables.build(lonely, RadioConfig())
        assert tables.count.tolist() == [0]
        assert tables.cov.shape == (1, 1) and not tables.mask.any()
        assert SinrEngine(lonely).best_response(0) is None

    def test_every_table_read_only(self, tiny_scenario):
        tables = RadioTables.build(tiny_scenario, RadioConfig())
        for name in ("gain", "count", "cov", "mask", "cov_gain", "signal", "valid"):
            array = getattr(tables, name)
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]

    def test_gain_override_copied_and_validated(self, tiny_scenario):
        cfg = RadioConfig()
        gain = np.full((3, 6), 1e-6)
        engine = SinrEngine(
            tiny_scenario, tables=RadioTables.build(tiny_scenario, cfg, gain)
        )
        gain[0, 0] = 1.0  # the caller's array stays writable and unshared
        assert engine.gain[0, 0] == 1e-6
        assert not engine.gain.flags.writeable
        with pytest.raises(AllocationError, match="must be"):
            RadioTables.build(tiny_scenario, cfg, np.ones((2, 6)))
        with pytest.raises(AllocationError, match="strictly positive"):
            RadioTables.build(tiny_scenario, cfg, np.zeros((3, 6)))

    def test_shared_tables_shape_checked(self, tiny_scenario):
        tables = RadioTables.build(tiny_scenario, RadioConfig())
        assert SinrEngine(tiny_scenario, tables=tables).gain is tables.gain
        other = make_scenario([[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(AllocationError, match="shared tables"):
            SinrEngine(other, tables=tables)

"""Alternative gain model tests (shadowing / fading / injection)."""

import numpy as np
import pytest

from repro.config import RadioConfig
from repro.errors import AllocationError, ConfigurationError
from repro.radio.channel import gain_matrix
from repro.radio.fading import composite_gain, lognormal_shadowing, rayleigh_expected
from repro.radio.sinr import RadioTables, SinrEngine

from ..conftest import make_scenario


@pytest.fixture
def points():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 500, size=(4, 2)), rng.uniform(0, 500, size=(12, 2))


class TestLognormalShadowing:
    def test_positive(self, points):
        servers, users = points
        g = lognormal_shadowing(servers, users, rng=0)
        assert (g > 0).all()
        assert g.shape == (4, 12)

    def test_zero_sigma_is_power_law(self, points):
        servers, users = points
        g = lognormal_shadowing(servers, users, rng=0, sigma_db=0.0)
        assert np.allclose(g, gain_matrix(servers, users))

    def test_median_unbiased(self, points):
        """Log-normal shadowing in dB has median 1 in linear scale."""
        servers, users = points
        base = gain_matrix(servers, users)
        samples = np.stack(
            [
                lognormal_shadowing(servers, users, rng=i, sigma_db=8.0) / base
                for i in range(300)
            ]
        )
        med = np.median(samples)
        assert 0.85 < med < 1.15

    def test_deterministic_given_seed(self, points):
        servers, users = points
        a = lognormal_shadowing(servers, users, rng=7)
        b = lognormal_shadowing(servers, users, rng=7)
        assert np.allclose(a, b)

    def test_negative_sigma_rejected(self, points):
        servers, users = points
        with pytest.raises(ConfigurationError):
            lognormal_shadowing(servers, users, rng=0, sigma_db=-1.0)


class TestRayleighExpected:
    def test_unit_backoff_is_power_law(self, points):
        servers, users = points
        assert np.allclose(
            rayleigh_expected(servers, users), gain_matrix(servers, users)
        )

    def test_backoff_scales(self, points):
        servers, users = points
        g = rayleigh_expected(servers, users, diversity_backoff=0.5)
        assert np.allclose(g, 0.5 * gain_matrix(servers, users))

    def test_bad_backoff(self, points):
        servers, users = points
        with pytest.raises(ConfigurationError):
            rayleigh_expected(servers, users, diversity_backoff=0.0)
        with pytest.raises(ConfigurationError):
            rayleigh_expected(servers, users, diversity_backoff=1.5)


class TestCompositeGain:
    def test_combines(self, points):
        servers, users = points
        g = composite_gain(servers, users, rng=0, sigma_db=4.0, diversity_backoff=0.8)
        assert (g > 0).all()
        shadowed = lognormal_shadowing(servers, users, rng=0, sigma_db=4.0)
        assert np.allclose(g, 0.8 * shadowed)


class TestEngineInjection:
    def test_engine_accepts_override(self):
        sc = make_scenario(
            [[0.0, 0.0], [100.0, 0.0]],
            [[10.0, 0.0], [90.0, 0.0], [50.0, 40.0]],
            radius=400.0,
        )
        gain = lognormal_shadowing(sc.server_xy, sc.user_xy, rng=0)
        tables = RadioTables.build(sc, RadioConfig(), gain)
        engine = SinrEngine(sc, RadioConfig(), tables=tables)
        assert np.allclose(engine.gain, gain)
        engine.assign(0, 0, 0)
        assert engine.user_rate(0) > 0

    def test_override_shape_checked(self):
        sc = make_scenario([[0.0, 0.0]], [[10.0, 0.0]])
        with pytest.raises(AllocationError):
            RadioTables.build(sc, RadioConfig(), np.ones((2, 2)))

    def test_override_must_be_positive(self):
        sc = make_scenario([[0.0, 0.0]], [[10.0, 0.0]])
        with pytest.raises(AllocationError):
            RadioTables.build(sc, RadioConfig(), np.zeros((1, 1)))

    def test_instance_level_override(self):
        from repro.core.game import IddeUGame
        from repro.core.instance import IDDEInstance
        from repro.topology.graph import build_topology

        sc = make_scenario(
            [[0.0, 0.0], [200.0, 0.0]],
            np.random.default_rng(0).uniform(0, 200, size=(8, 2)),
            radius=500.0,
        )
        gain = lognormal_shadowing(sc.server_xy, sc.user_xy, rng=3, sigma_db=8.0)
        instance = IDDEInstance(
            sc, build_topology(2, 2.0, 0), gain_override=gain
        )
        engine = instance.new_engine()
        assert np.allclose(engine.gain, gain)
        # The game still converges under the shadowed environment.
        result = IddeUGame(instance).run(rng=0)
        assert result.converged

"""Property-based tests for the SINR engine invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiles import AllocationProfile
from repro.radio.sinr import UNALLOCATED

from .strategies import allocated_engines

FAST = settings(max_examples=40, deadline=None)


class TestEngineInvariants:
    @FAST
    @given(allocated_engines())
    def test_power_table_matches_allocation(self, pair):
        """The incremental channel power table equals the from-scratch sum."""
        instance, engine = pair
        fresh = np.zeros_like(engine.channel_power)
        for j in range(instance.n_users):
            i, x = engine.alloc_server[j], engine.alloc_channel[j]
            if i >= 0:
                fresh[i, x] += engine.power[j]
        assert np.allclose(fresh, engine.channel_power, atol=1e-12)

    @FAST
    @given(allocated_engines())
    def test_counts_match_allocation(self, pair):
        instance, engine = pair
        assert engine.channel_count.sum() == (engine.alloc_server >= 0).sum()

    @FAST
    @given(allocated_engines())
    def test_rates_non_negative_and_capped(self, pair):
        instance, engine = pair
        rates = engine.rates()
        assert (rates >= 0).all()
        assert (rates <= instance.scenario.rmax + 1e-9).all()

    @FAST
    @given(allocated_engines())
    def test_vectorised_rates_match_scalar(self, pair):
        instance, engine = pair
        rates = engine.rates()
        for j in range(instance.n_users):
            assert np.isclose(rates[j], engine.user_rate(j), rtol=1e-9, atol=1e-12)

    @FAST
    @given(allocated_engines())
    def test_adding_interferer_never_raises_sinr(self, pair):
        """Monotonicity: allocating another user to my channel cannot
        improve my SINR."""
        instance, engine = pair
        allocated = np.flatnonzero(engine.alloc_server >= 0)
        free = np.flatnonzero(engine.alloc_server < 0)
        if len(allocated) == 0 or len(free) == 0:
            return
        victim = int(allocated[0])
        i, x = int(engine.alloc_server[victim]), int(engine.alloc_channel[victim])
        before = engine.user_sinr(victim)
        for j in free:
            if instance.scenario.coverage[i, j]:
                engine.assign(int(j), i, x)
                after = engine.user_sinr(victim)
                assert after <= before + 1e-18
                return

    @FAST
    @given(allocated_engines())
    def test_load_profile_round_trip(self, pair):
        instance, engine = pair
        profile = AllocationProfile(engine.alloc_server, engine.alloc_channel)
        other = instance.new_engine()
        other.load_profile(profile.server, profile.channel)
        assert np.allclose(other.channel_power, engine.channel_power)
        assert np.array_equal(other.alloc_server, engine.alloc_server)

    @FAST
    @given(allocated_engines())
    def test_benefit_in_unit_interval(self, pair):
        instance, engine = pair
        for j in range(instance.n_users):
            b = engine.user_benefit(j)
            assert 0.0 <= b <= 1.0

    @FAST
    @given(allocated_engines())
    def test_unassign_restores_state(self, pair):
        instance, engine = pair
        allocated = np.flatnonzero(engine.alloc_server >= 0)
        if len(allocated) == 0:
            return
        j = int(allocated[0])
        i, x = int(engine.alloc_server[j]), int(engine.alloc_channel[j])
        before = engine.channel_power.copy()
        engine.unassign(j)
        engine.assign(j, i, x)
        assert np.allclose(engine.channel_power, before, atol=1e-12)


def _churn(instance, engine, seed, steps=300):
    """Hammer the incremental bookkeeping with random moves/unassigns."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        j = int(rng.integers(0, instance.n_users))
        covering = instance.scenario.covering_servers[j]
        if len(covering) == 0 or rng.random() < 0.25:
            engine.unassign(j)
            continue
        i = int(covering[rng.integers(0, len(covering))])
        x = int(rng.integers(0, instance.scenario.channels[i]))
        engine.move(j, i, x)


class TestChurnConsistency:
    """Incremental state stays consistent with a from-scratch rebuild
    after long move churn (the regime where float drift and the
    negative-residue clamp in ``interference_profile`` matter)."""

    @FAST
    @given(allocated_engines(), st.integers(0, 2**16))
    def test_power_table_matches_rebuild_after_churn(self, pair, seed):
        instance, engine = pair
        _churn(instance, engine, seed)
        fresh = instance.new_engine()
        fresh.load_profile(engine.alloc_server, engine.alloc_channel)
        assert np.array_equal(fresh.channel_count, engine.channel_count)
        assert np.allclose(fresh.channel_power, engine.channel_power, atol=1e-12)
        # The unassign drift reset pins emptied channels to exactly zero.
        empty = engine.channel_count == 0
        assert not engine.channel_power[empty].any()

    @FAST
    @given(allocated_engines(), st.integers(0, 2**16))
    def test_interference_clamp_after_churn(self, pair, seed):
        """The own-power subtraction never leaves a negative residue."""
        instance, engine = pair
        _churn(instance, engine, seed)
        for j in range(instance.n_users):
            servers, w = engine.interference_profile(j)
            assert (w >= 0.0).all()
            assert w.shape == (engine.n_channels,)


class TestBatchScalarParity:
    """The batched kernels are bit-for-bit the per-user reference: both
    reduce interference over the same padded covering row, so every
    derived quantity must be the *identical* float, not merely close."""

    @FAST
    @given(allocated_engines())
    def test_batch_interference_bitwise(self, pair):
        instance, engine = pair
        w = engine.batch_interference()
        for j in range(instance.n_users):
            _, scalar_w = engine.interference_profile(j)
            assert np.array_equal(w[j], scalar_w)

    @FAST
    @given(allocated_engines())
    def test_batch_best_responses_bitwise(self, pair):
        instance, engine = pair
        batch = engine.batch_best_responses()
        for pos in range(instance.n_users):
            j = int(batch.users[pos])
            view = engine.candidates(j)
            if view.servers.size == 0:
                assert batch.server[pos] == UNALLOCATED
                assert batch.channel[pos] == UNALLOCATED
                continue
            server, channel, benefit = view.best("benefit")
            assert int(batch.server[pos]) == server
            assert int(batch.channel[pos]) == channel
            # Bitwise by construction — see the sinr module docstring.
            assert np.array_equal(batch.benefit[pos], benefit)
            assert np.array_equal(batch.current_benefit[pos], engine.user_benefit(j))

    @FAST
    @given(allocated_engines(), st.integers(0, 2**16))
    def test_batch_parity_survives_churn(self, pair, seed):
        """Parity is a state invariant, not a fresh-engine accident."""
        instance, engine = pair
        _churn(instance, engine, seed, steps=100)
        batch = engine.batch_best_responses()
        for pos in range(instance.n_users):
            j = int(batch.users[pos])
            view = engine.candidates(j)
            if view.servers.size == 0:
                continue
            server, channel, benefit = view.best("benefit")
            assert (int(batch.server[pos]), int(batch.channel[pos])) == (server, channel)
            assert np.array_equal(batch.benefit[pos], benefit)

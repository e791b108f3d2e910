"""Eq. (1) is one rule: the profile check, the engine load and the warm-start
repair read it from :func:`repro.radio.sinr.check_eq1` and agree on every
kind of violation."""

import numpy as np
import pytest

from repro.core.profiles import UNALLOCATED, AllocationProfile
from repro.core.repair import repair_allocation
from repro.errors import AllocationError, CoverageError
from repro.radio.sinr import SinrEngine

from ..conftest import make_instance, ragged_scenario, random_profile


def _uncovered(sc, server, channel, j):
    server[j], channel[j] = int(np.flatnonzero(~sc.coverage[:, j])[0]), 0


def _channel_past_count(sc, server, channel, j):
    channel[j] = sc.channels[server[j]]


def _server_past_n(sc, server, channel, j):
    server[j] = sc.n_servers


def _negative_server(sc, server, channel, j):
    server[j] = -3


def _negative_channel(sc, server, channel, j):
    channel[j] = -2


# Corruption of user j, the error Eq. (1) raises, what repair does. A
# changed scenario can leave a user uncovered or its channel gone, so
# repair detaches those; a server index outside [0, N) is a malformed
# profile, which repair refuses like the other two callers.
CASES = [
    pytest.param(_uncovered, CoverageError, "detach", id="uncovered"),
    pytest.param(_channel_past_count, AllocationError, "detach", id="channel-past-count"),
    pytest.param(_negative_channel, AllocationError, "detach", id="negative-channel"),
    pytest.param(_server_past_n, AllocationError, "refuse", id="server-past-n"),
    pytest.param(_negative_server, AllocationError, "refuse", id="negative-server"),
]


@pytest.fixture(scope="module")
def instance():
    return make_instance(ragged_scenario(4))


@pytest.mark.parametrize("corrupt, error, repair", CASES)
def test_every_caller_applies_the_same_rule(instance, corrupt, error, repair):
    sc = instance.scenario
    server, channel = random_profile(sc, np.random.default_rng(0), fill=1.0)
    profile = AllocationProfile(server, channel)
    # Corrupt a middle user in place, past the constructor's index check,
    # the way a mutated working copy reaches the three callers.
    allocated = np.flatnonzero(profile.allocated)
    j = int(allocated[len(allocated) // 2])
    corrupt(sc, profile.server, profile.channel, j)

    with pytest.raises(error, match=f"user {j}$") as by_profile:
        profile.validate(sc)
    engine = SinrEngine(sc)
    with pytest.raises(error) as by_engine:
        engine.load_profile(profile.server, profile.channel)
    assert type(by_engine.value) is type(by_profile.value)
    assert str(by_engine.value) == str(by_profile.value)
    assert (engine.alloc_server == UNALLOCATED).all()  # all or nothing

    if repair == "refuse":
        with pytest.raises(error) as by_repair:
            repair_allocation(instance, profile)
        assert str(by_repair.value) == str(by_profile.value)
        return
    repaired, detached = repair_allocation(instance, profile)
    assert detached == 1
    assert repaired.server[j] == repaired.channel[j] == UNALLOCATED
    others = np.arange(sc.n_users) != j
    np.testing.assert_array_equal(repaired.server[others], profile.server[others])
    repaired.validate(sc)
    engine.load_profile(repaired.server, repaired.channel)


def test_wrong_length_profile_is_refused_by_every_caller(instance):
    m = instance.scenario.n_users
    profile = AllocationProfile.empty(m + 2)
    for check in (
        lambda: profile.validate(instance.scenario),
        lambda: SinrEngine(instance.scenario).load_profile(profile.server, profile.channel),
        lambda: repair_allocation(instance, profile),
    ):
        with pytest.raises(AllocationError, match=rf"shape \(M,\) = \({m},\)"):
            check()


def test_a_feasible_profile_passes_every_caller(instance):
    sc = instance.scenario
    profile = AllocationProfile(*random_profile(sc, np.random.default_rng(1)))
    profile.validate(sc)
    SinrEngine(sc).load_profile(profile.server, profile.channel)
    repaired, detached = repair_allocation(instance, profile)
    assert detached == 0 and repaired == profile

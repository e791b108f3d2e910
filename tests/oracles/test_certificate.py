"""The production ε-Nash certificate against the per-user oracle certificate.

``IddeUGame.is_nash`` decides every player in one batched pass;
:func:`~tests.oracles.game.oracle_is_nash` asks each player's candidate
grid in turn.  On tiny random instances with random participant masks the
two must return the same verdict, at the ``effective_epsilon`` each answer
reports, along the three routes an answer can take: a cold solve, a warm
solve after random ``idde-events/1`` batches, and a ``SolverSession``
response.  Each route also checks a perturbed profile, so the verdicts are
compared on profiles that fail the certificate as well as ones that pass.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import solve
from repro.core.game import IddeUGame
from repro.core.instance import IDDEInstance
from repro.core.profiles import AllocationProfile
from repro.request import SolveRequest
from repro.serve import SolverSession
from repro.workload import (
    StreamConfig,
    WorkloadState,
    batch_by_count,
    parse_event,
    poisson_zipf_stream,
)

from ..properties.strategies import instances
from .game import oracle_is_nash

TINY = settings(max_examples=30, deadline=None)

#: A churn-heavy stream, so the batches flip the participant mask often.
CHURN = StreamConfig(arrival_rate=0.5, departure_rate=0.3, move_rate=0.5, shift_rate=0.2)


@st.composite
def masked(draw):
    """A tiny instance, a random active mask and a seed."""
    instance = draw(instances(max_servers=4, max_users=8, max_data=3))
    active = np.array(
        draw(st.lists(st.booleans(), min_size=instance.n_users, max_size=instance.n_users)),
        dtype=bool,
    )
    return instance, active, draw(st.integers(0, 2**16))


def _wire_batches(instance: IDDEInstance, active: np.ndarray, seed: int) -> list[list]:
    """Random event batches, round-tripped through their ``idde-events/1``
    wire form."""
    stream = poisson_zipf_stream(
        instance.scenario, seed, CHURN, n_events=12, initial_active=active
    )
    return [
        [parse_event(ev.to_dict()) for ev in batch.events]
        for batch in batch_by_count(stream, 4)
    ]


def _perturbed(
    instance: IDDEInstance, profile: AllocationProfile, active, seed
) -> AllocationProfile:
    """The profile with one active covered user moved to a random candidate."""
    rng = np.random.default_rng(seed)
    out = AllocationProfile(profile.server.copy(), profile.channel.copy())
    movable = [
        j for j in np.flatnonzero(active) if len(instance.scenario.covering_servers[j])
    ]
    if movable:
        j = int(rng.choice(movable))
        i = int(rng.choice(instance.scenario.covering_servers[j]))
        out.server[j] = i
        out.channel[j] = int(rng.integers(0, instance.scenario.channels[i]))
    return out


def _assert_agree(instance: IDDEInstance, profile: AllocationProfile, tol: float, active):
    fast = IddeUGame(instance).is_nash(profile, tol=tol, active=active)
    slow = oracle_is_nash(instance, profile, tol, np.flatnonzero(active))
    assert fast == slow
    return fast


def _check(instance: IDDEInstance, profile: AllocationProfile, tol: float, active, seed):
    """The served profile certifies under both; a perturbed one gets the
    same verdict from both."""
    assert _assert_agree(instance, profile, tol, active)
    _assert_agree(instance, _perturbed(instance, profile, active, seed), tol, active)


class TestCertificateAgreesWithOracle:
    @TINY
    @given(masked())
    def test_cold_solve(self, case):
        instance, active, seed = case
        sol = solve(instance, "idde-g", active=active, rng=seed)
        _check(instance, sol.allocation, sol.game.effective_epsilon, active, seed)

    @TINY
    @given(masked())
    def test_warm_solve_after_event_batches(self, case):
        instance, active, seed = case
        prior = solve(instance, "idde-g", active=active, rng=seed)
        state = WorkloadState.from_scenario(instance.scenario, active=active)
        for epoch, batch in enumerate(_wire_batches(instance, active, seed), start=1):
            state.apply(tuple(batch))
            projected = IDDEInstance(
                state.scenario(instance.scenario), instance.topology, instance.radio
            )
            mask = state.active.copy()
            prior = solve(projected, "idde-g", warm_start=prior, active=mask, rng=seed + epoch)
            _check(projected, prior.allocation, prior.game.effective_epsilon, mask, seed)

    @TINY
    @given(masked())
    def test_session_response(self, case):
        instance, active, seed = case
        session = SolverSession(
            instance, SolveRequest(solver="idde-g", warm_start=True, active=active, rng=seed)
        )
        session.solve()
        for batch in _wire_batches(instance, active, seed):
            sol = session.apply_events(batch)
            assert session.certified is True
            projected = IDDEInstance(
                session.state.scenario(instance.scenario), instance.topology, instance.radio
            )
            mask = session.state.active.copy()
            _check(projected, sol.allocation, sol.game.effective_epsilon, mask, seed)

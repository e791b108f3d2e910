"""The served ε-Nash certificate against two oracles.

``IddeUGame.is_nash`` decides every player in one batched pass, and its
verdict is the one an answer carries (``Solution.game.is_nash``, and
``SolverSession.certified`` for a served epoch).
:func:`~tests.oracles.game.oracle_is_nash` asks each player's candidate
grid on the same engine in turn;
:func:`~tests.oracles.certificate.formula_verdict` shares no code with the
engine at all and evaluates Eqs. 2 and 12 from the scenario arrays.  On
tiny random instances with random participant masks all three must return
the same verdict (the formula oracle wherever it does not abstain), at the
``effective_epsilon`` each answer reports, along the three routes an answer
can take: a cold solve, a warm solve after random ``idde-events/1``
batches, and a ``SolverSession`` response.  Each route also checks a
perturbed profile, so the verdicts are compared on profiles that fail the
certificate as well as ones that pass.
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
    PopularityShift,
    StreamConfig,
    UserJoin,
    UserLeave,
    WorkloadState,
    batch_by_count,
    parse_event,
    poisson_zipf_stream,
)

from ..properties.strategies import instances
from .certificate import formula_verdict
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
    players = np.flatnonzero(active)
    fast = IddeUGame(instance).is_nash(profile, tol=tol, active=active)
    assert oracle_is_nash(instance, profile, tol, players) == fast
    assert formula_verdict(instance, profile, tol, players) in (fast, None)
    return fast


def _check(
    instance: IDDEInstance, profile: AllocationProfile, tol: float, active, seed, served
):
    """The served verdict is True, the formula oracle does not contradict
    it, and every certificate agrees on the profile and on a perturbed one."""
    assert served is True
    assert formula_verdict(instance, profile, tol, np.flatnonzero(active)) in (True, None)
    assert _assert_agree(instance, profile, tol, active)
    _assert_agree(instance, _perturbed(instance, profile, active, seed), tol, active)


class TestCertificateAgreesWithOracle:
    @TINY
    @given(masked())
    def test_cold_solve(self, case):
        instance, active, seed = case
        sol = solve(instance, "idde-g", active=active, rng=seed)
        _check(
            instance, sol.allocation, sol.game.effective_epsilon, active, seed,
            sol.game.is_nash,
        )

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
            _check(
                projected, prior.allocation, prior.game.effective_epsilon, mask, seed,
                prior.game.is_nash,
            )

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
            projected = IDDEInstance(
                session.state.scenario(instance.scenario), instance.topology, instance.radio
            )
            mask = session.state.active.copy()
            _check(
                projected, sol.allocation, sol.game.effective_epsilon, mask, seed,
                session.certified,
            )


class TestFormulaOracle:
    """The from-formula oracle decides real answers and sees the override."""

    def test_decides_generated_equilibria(self):
        for seed in range(6):
            instance = IDDEInstance.generate(n=6, m=30, k=3, density=1.0, seed=seed)
            sol = solve(instance, "idde-g", rng=seed)
            assert formula_verdict(instance, sol.allocation, sol.game.effective_epsilon)

    def test_session_on_a_gain_override(self, shadowed_instance):
        """Served epochs on shadowed gains: the oracle reads the override
        array, never the engine built from it."""
        base = shadowed_instance
        session = SolverSession(base, SolveRequest(solver="idde-g", warm_start=True, rng=3))
        session.solve()
        k = base.n_data
        for batch in (
            [UserLeave(t=1.0, user=2), UserLeave(t=1.0, user=5)],
            [PopularityShift(t=2.0, order=tuple(reversed(range(k))))],
            [UserJoin(t=3.0, user=2)],
        ):
            sol = session.apply_events(batch)
            state = session.state
            rebuilt = IDDEInstance(
                state.scenario(base.scenario), base.topology, base.radio,
                gain_override=base.gain_override,
            )
            verdict = formula_verdict(
                rebuilt, sol.allocation, sol.game.effective_epsilon,
                np.flatnonzero(state.active),
            )
            assert verdict is session.certified is True
        # Priced on the power-law gains instead, the last answer is not an
        # equilibrium: the verdict above did read the override.
        assert formula_verdict(
            IDDEInstance(state.scenario(base.scenario), base.topology, base.radio),
            sol.allocation, sol.game.effective_epsilon, np.flatnonzero(state.active),
        ) is False

"""Property-based tests for the IDDE-U game."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GameConfig
from repro.core.bounds import theorem4_iteration_bound
from repro.core.game import IddeUGame

from .strategies import instances, potential_game_instances

FAST = settings(max_examples=25, deadline=None)


class TestGameProperties:
    @FAST
    @given(instances(), st.sampled_from(["round-robin", "best-gain-winner"]))
    def test_always_converges_to_nash(self, instance, schedule):
        """Theorem 3/4: the dynamics terminate at a Nash equilibrium on
        every randomly drawn instance."""
        game = IddeUGame(instance, GameConfig(schedule=schedule))
        result = game.run(rng=0)
        assert result.converged
        assert result.is_nash

    @FAST
    @given(instances())
    def test_profile_always_feasible(self, instance):
        result = IddeUGame(instance).run(rng=0)
        result.profile.validate(instance.scenario)

    @FAST
    @given(instances())
    def test_every_covered_user_allocated(self, instance):
        """With strictly positive benefits, no covered user stays out."""
        result = IddeUGame(instance).run(rng=0)
        covered = instance.scenario.covered_users
        assert (result.profile.allocated == covered).all()

    @FAST
    @given(instances())
    def test_no_profitable_deviation_detailed(self, instance):
        """Re-verify the (ε-)Nash certificate from first principles.

        The tolerance is the run's ``effective_epsilon``: on cycling
        instances the dynamics escalate the threshold, and the certificate
        must hold at exactly the tolerance the result reports — a rebuilt
        engine, not the one the game played on, so the check is
        independent of any incremental-update state.
        """
        result = IddeUGame(instance).run(rng=0)
        assert result.converged and result.is_nash
        tol = result.effective_epsilon
        engine = instance.new_engine()
        engine.load_profile(result.profile.server, result.profile.channel)
        for j in range(instance.n_users):
            view = engine.candidates(j)
            if view.servers.size == 0:
                continue
            current = engine.user_benefit(j)
            _, _, best = view.best("benefit")
            assert best <= current * (1 + tol) + tol * 1e-30 + 1e-30

    @FAST
    @given(
        potential_game_instances(),
        st.sampled_from(["round-robin", "best-gain-winner"]),
    )
    def test_moves_bounded_by_theorem4(self, instance, schedule):
        """Theorem 4's move bound, on the instances its premise covers.

        The bound rests on Theorem 3's exact potential, which holds on one
        server or under one common gain.  Outside that premise the game is
        only approximately potential and a run may take more moves than the
        bound (a drawn N=5, M=4 instance with physical gains took 7 against
        6.43), so those draws are held to convergence and the certificate
        alone, by the tests above.  Inside it, every run converges without
        escalating epsilon and stays within the bound.
        """
        cfg = GameConfig(schedule=schedule)
        result = IddeUGame(instance, cfg).run(rng=0)
        assert result.converged and result.is_nash
        assert result.effective_epsilon == cfg.epsilon
        assert result.moves <= theorem4_iteration_bound(instance)

"""The batched game kernel against the per-user oracle, and state hygiene.

The batched einsum kernel is only admissible because it replays the
per-user Algorithm 1 loop (``tests/oracles/game.py``) exactly — same
benefits, same tie-breaks, same RNG stream, hence the same ``move_log``.
``tests/oracles/test_parity.py`` checks the same contract on the bench
fixtures at S and M.
"""

import numpy as np
import pytest

from repro.config import GameConfig
from repro.core.game import IddeUGame
from repro.core.instance import IDDEInstance
from repro.errors import ConfigurationError, ConvergenceError
from repro.request import SolveRequest

from ..oracles.game import OracleGame
from ..oracles.parity import PairCase, game_cases, render

SCHEDULES = ("round-robin", "best-gain-winner", "random-winner")
SEEDS = (0, 1, 2, 3, 4)


def _run_pair(instance, cfg: GameConfig, seed: int, **kwargs):
    ref = OracleGame(instance, cfg).run(rng=seed, **kwargs)
    bat = IddeUGame(instance, cfg).run(rng=seed, **kwargs)
    return ref, bat


def _assert_identical(ref, bat):
    assert ref.move_log == bat.move_log
    assert np.array_equal(ref.profile.server, bat.profile.server)
    assert np.array_equal(ref.profile.channel, bat.profile.channel)
    assert (ref.rounds, ref.moves) == (bat.rounds, bat.moves)
    assert (ref.converged, ref.is_nash) == (bat.converged, bat.is_nash)


class TestKernelParity:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_run_parity(self, schedule, seed):
        """5 seeds x 3 schedules: identical move sequence and equilibrium."""
        instance = IDDEInstance.generate(n=8, m=30, k=3, density=1.5, seed=seed)
        ref, bat = _run_pair(instance, GameConfig(schedule=schedule), seed)
        _assert_identical(ref, bat)
        assert ref.converged and ref.is_nash

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_parity_under_active_mask(self, small_instance, schedule):
        """Inactive users are excluded identically by kernel and oracle."""
        rng = np.random.default_rng(7)
        active = rng.random(small_instance.n_users) < 0.6
        active[0] = True  # keep at least one player
        ref, bat = _run_pair(
            small_instance, GameConfig(schedule=schedule), 3, active=active
        )
        _assert_identical(ref, bat)
        assert not ref.profile.allocated[~active].any()

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_parity_on_partial_coverage(self, line_instance, schedule):
        """Disjoint coverage exercises the ragged/padded covering rows."""
        ref, bat = _run_pair(line_instance, GameConfig(schedule=schedule), 0)
        _assert_identical(ref, bat)

    def test_parity_under_move_cap(self, small_instance):
        """The per-user move cap freezes the same users in kernel and oracle."""
        cfg = GameConfig(schedule="round-robin", max_moves_per_user=1)
        ref, bat = _run_pair(small_instance, cfg, 0)
        _assert_identical(ref, bat)

    def test_move_log_matches_move_count(self, tiny_instance):
        for game in (OracleGame, IddeUGame):
            result = game(tiny_instance, GameConfig()).run(rng=0)
            assert len(result.move_log) == result.moves


class TestBatchedKernel:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_converges_to_nash(self, tiny_instance, schedule):
        game = IddeUGame(tiny_instance, GameConfig(schedule=schedule))
        result = game.run(rng=0)
        assert result.converged
        assert result.is_nash
        # The batched certificate agrees with the run's verdict and the oracle.
        assert game.is_nash(result.profile)
        assert OracleGame(tiny_instance).is_nash(result.profile)

    def test_batched_certificate_rejects_non_equilibrium(self, tiny_instance):
        from repro.core.profiles import AllocationProfile

        empty = AllocationProfile.empty(tiny_instance.n_users)
        assert not IddeUGame(tiny_instance).is_nash(empty)
        assert not OracleGame(tiny_instance).is_nash(empty)

    def test_unknown_kernel_rejected(self):
        """The game has one kernel: there is no field to select another."""
        with pytest.raises(TypeError):
            GameConfig(kernel="batched")
        doc = SolveRequest().to_dict()
        doc["game"] = {"kernel": "batched"}
        with pytest.raises(ConfigurationError, match="unknown game key"):
            SolveRequest.from_dict(doc)


class TestParityHarness:
    """The game half of the oracle parity harness (``tests/oracles/parity.py``)."""

    def test_verify_kernel_pair_ok(self):
        cases = [
            case
            for seed in (0, 1)
            for case in game_cases("S", seed, ("round-robin", "random-winner"))
        ]
        assert len(cases) == 4
        assert all(case.ok for case in cases)
        text = render(cases)
        assert "PARITY OK" in text
        assert "round-robin" in text

    def test_report_flags_broken_cases(self):
        good = PairCase(label="game S seed=0 round-robin", work=10)
        bad = PairCase(label="game S seed=1 round-robin", work=10, broken=("move-log",))
        assert good.ok and not bad.ok
        assert "move-log" in bad.describe()
        assert "PARITY BROKEN (1 cases)" in render([good, bad])


class TestActiveMaskHygiene:
    def test_failed_run_does_not_leak_active_mask(self, tiny_instance):
        """A run that raises mid-setup must not poison later runs.

        Regression: only ``is_nash`` used to clear ``_active`` in a
        ``finally``; a ``run()`` that raised (e.g. a warm start allocating
        inactive users) left the mask behind, silently shrinking the
        player set of every subsequent call on the same game object.
        """
        game = IddeUGame(tiny_instance)
        full = game.run(rng=0)
        active = np.ones(tiny_instance.n_users, dtype=bool)
        active[0] = False  # but the warm start allocates user 0
        with pytest.raises(ConvergenceError):
            game.run(rng=0, initial=full.profile, active=active)
        assert len(game._players()) == tiny_instance.n_users
        # And the next unmasked run behaves as if the failure never happened.
        again = game.run(rng=0)
        assert again.move_log == full.move_log

    def test_bad_mask_shape_does_not_leak(self, tiny_instance):
        game = IddeUGame(tiny_instance)
        with pytest.raises(ConvergenceError):
            game.run(rng=0, active=np.ones(tiny_instance.n_users + 1, dtype=bool))
        assert len(game._players()) == tiny_instance.n_users

"""The batched game kernel against the per-user oracle, and state hygiene.

The batched einsum kernel is only admissible because it replays the
per-user Algorithm 1 loop (``tests/oracles/game.py``) exactly — same
benefits, same tie-breaks, same RNG stream, hence the same ``move_log``.
``tests/oracles/test_parity.py`` checks the same contract on the bench
fixtures at S and M.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.config import GameConfig, RadioConfig
from repro.core.game import IddeUGame
from repro.core.instance import IDDEInstance
from repro.errors import ConfigurationError, ConvergenceError
from repro.request import SolveRequest

from ..conftest import make_instance, ragged_scenario, random_profile
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


@dataclass(frozen=True)
class _Impatient(GameConfig):
    """Escalates epsilon after every three moves without convergence."""

    def patience_for(self, n_users: int) -> int:
        return 3


def _assert_escalation_parity(cfg: GameConfig, seed: int, reason: str) -> None:
    """Kernel and oracle escalate at the same moves to the same epsilons."""
    from repro.bench.fixtures import instance_for
    from repro.obs.tracer import RecordingTracer

    instance = instance_for("S", seed)
    tracer = RecordingTracer()
    bat = IddeUGame(instance, cfg, tracer=tracer).run(rng=seed)
    oracle = OracleGame(instance, cfg)
    ref = oracle.run(rng=seed)
    _assert_identical(ref, bat)
    assert ref.effective_epsilon == bat.effective_epsilon > cfg.epsilon
    assert ref.capped_users == bat.capped_users
    escalations = [
        (e.fields["reason"], e.fields["epsilon"], e.fields["moves"])
        for e in tracer.events
        if e.etype == "game.epsilon_escalation"
    ]
    assert escalations == oracle.escalations
    assert tracer.counters["game.escalations"] == len(escalations)
    assert {r for r, _, _ in escalations} == {reason}
    assert bat.converged and bat.is_nash


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

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_parity_under_move_cap(self, schedule, seed):
        """One move per user forces the capped-player check to escalate
        epsilon, identically in kernel and oracle, on every schedule."""
        cfg = GameConfig(schedule=schedule, max_moves_per_user=1)
        _assert_escalation_parity(cfg, seed, "move-cap")

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_parity_under_patience_escalation(self, schedule, seed):
        """A patience of three moves forces the patience escalation,
        identically in kernel and oracle, on every schedule."""
        _assert_escalation_parity(_Impatient(schedule=schedule), seed, "patience")

    def test_move_log_matches_move_count(self, tiny_instance):
        for game in (OracleGame, IddeUGame):
            result = game(tiny_instance, GameConfig()).run(rng=0)
            assert len(result.move_log) == result.moves


def _literal_best_response(engine, j):
    """The oracle's path: full candidate grid, ``best``, then ``user_benefit``."""
    view = engine.candidates(j)
    if view.servers.size == 0:
        return None
    server, channel, benefit = view.best("benefit")
    return server, channel, benefit, engine.user_benefit(j)


def _bits(move):
    """A best response with its floats as exact bit patterns."""
    server, channel, benefit, current = move
    return (server, channel, float(benefit).hex(), float(current).hex())


class TestFusedBestResponse:
    """``SinrEngine.best_response``, the round-robin sweep's stale-user kernel."""

    @pytest.mark.parametrize("fill", (0.0, 0.4, 1.0))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_literal_path_bitwise(self, seed, fill):
        sc = ragged_scenario(seed)
        # The fixture must exercise both ragged shapes.
        assert not sc.covered_users.all()
        assert (sc.channels < sc.max_channels).any()
        engine = make_instance(sc).new_engine()
        engine.load_profile(*random_profile(sc, np.random.default_rng(seed), fill))
        batch = engine.batch_best_responses()
        for j in range(sc.n_users):
            literal = _literal_best_response(engine, j)
            fused = engine.best_response(j)
            if literal is None:
                assert fused is None
                assert batch.server[j] == -1
                continue
            assert isinstance(fused[0], int) and isinstance(fused[1], int)
            assert _bits(fused) == _bits(literal)
            row = (
                int(batch.server[j]),
                int(batch.channel[j]),
                batch.benefit[j],
                batch.current_benefit[j],
            )
            assert _bits(fused) == _bits(row)

    @pytest.mark.parametrize("gains", ((1.0,), (1.0, 2.0)))
    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_grid_bitwise(self, seed, gains):
        """Whole-number gains and powers make many candidates tie exactly,
        so the fused scan's first-occurrence pick must be ``np.argmax``'s."""
        from repro.radio.sinr import RadioTables, SinrEngine

        from ..conftest import make_scenario

        rng = np.random.default_rng(seed)
        sc = make_scenario(
            [[100.0 * i, 0.0] for i in range(5)],
            [[x, 0.0] for x in np.linspace(-50.0, 450.0, 40)],
            radius=[160.0, 110.0, 210.0, 110.0, 160.0],
            channels=[1, 3, 2, 4, 1],
            power=[1.0, 2.0] * 20,
        )
        gain = rng.choice(gains, (sc.n_servers, sc.n_users))
        tables = RadioTables.build(sc, RadioConfig(), gain)
        count = tables.count
        # Padded slots, and channel masks with holes under the widest server.
        assert count.min() >= 1 and count.min() < count.max()
        assert not tables.valid[tables.mask].all()
        engine = SinrEngine(sc, tables=tables)
        server = np.full(sc.n_users, -1)
        channel = np.full(sc.n_users, -1)
        slots = set()
        for j in range(sc.n_users):
            if j % 4:
                continue  # a sparse profile leaves equally loaded channels
            slot = (j // 4 + seed) % int(count[j])
            server[j] = tables.cov[j, slot]
            channel[j] = rng.integers(0, sc.channels[server[j]])
            slots.add(slot)
        assert slots == set(range(int(count.max())))
        engine.load_profile(server, channel)
        batch = engine.batch_best_responses()
        ties = 0
        for j in range(sc.n_users):
            view = engine.candidates(j)
            best = view.benefit[view.valid]
            ties += int((best == best.max()).sum() > 1)
            fused = engine.best_response(j)
            assert _bits(fused) == _bits(_literal_best_response(engine, j))
            row = (
                int(batch.server[j]),
                int(batch.channel[j]),
                batch.benefit[j],
                batch.current_benefit[j],
            )
            assert _bits(fused) == _bits(row)
        assert ties >= 2

    def test_counts_as_scalar_evaluation(self, small_instance, monkeypatch):
        """The game tallies its own fused calls (the engine holds no
        tracer) and reports them as one ``sinr.scalar_evals`` count; under
        a move cap that includes the quiescent re-check of capped users."""
        from repro.obs.tracer import RecordingTracer
        from repro.radio.sinr import SinrEngine

        calls = []
        fused = SinrEngine.best_response

        def spy(engine, j):
            calls.append(j)
            return fused(engine, j)

        monkeypatch.setattr(SinrEngine, "best_response", spy)
        for cap in (25, 1):
            calls.clear()
            tracer = RecordingTracer()
            cfg = GameConfig(schedule="round-robin", max_moves_per_user=cap)
            result = IddeUGame(small_instance, cfg, tracer=tracer).run(rng=0)
            assert calls and result.is_nash
            assert tracer.counters["sinr.scalar_evals"] == len(calls)
        assert not hasattr(small_instance.new_engine(), "tracer")

    def test_round_robin_uses_it_for_stale_users(self, small_instance, monkeypatch):
        """The sweep re-evaluates stale users with the fused kernel only."""
        from repro.radio.sinr import SinrEngine

        calls = []
        fused = SinrEngine.best_response

        def spy(engine, j):
            calls.append(j)
            return fused(engine, j)

        def refuse(engine, j):
            raise AssertionError("the sweep built a full candidate grid")

        monkeypatch.setattr(SinrEngine, "best_response", spy)
        monkeypatch.setattr(SinrEngine, "candidates", refuse)
        game = IddeUGame(small_instance, GameConfig(schedule="round-robin"))
        result = game.run(rng=0)
        assert calls and result.converged and result.is_nash


class TestResidentTable:
    """The runners' best-response table is refreshed only where moves
    dirtied it, yet every round, and the certificate after the final
    profile's reload, reads exactly what a full batch gives."""

    @pytest.mark.parametrize("cap", [25, 1])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_every_round_equals_a_full_batch(self, schedule, masked, cap, monkeypatch):
        from repro.bench.fixtures import instance_for

        refresh = IddeUGame._refresh
        rounds = []

        def checked(self, engine, table, dirty, eligible):
            view, evaluated = refresh(self, engine, table, dirty, eligible)
            full = engine.batch_best_responses(eligible)
            for name in ("users", "server", "channel", "benefit", "current_benefit"):
                assert getattr(view, name).tobytes() == getattr(full, name).tobytes()
            rounds.append(int(eligible.size))
            return view, evaluated

        monkeypatch.setattr(IddeUGame, "_refresh", checked)
        instance = instance_for("S", 1)
        active = None
        if masked:
            active = np.random.default_rng(1).random(instance.n_users) < 0.7
        cfg = GameConfig(schedule=schedule, max_moves_per_user=cap)
        result = IddeUGame(instance, cfg).run(rng=1, active=active)
        # One refresh per round, then the certificate's over every player.
        assert result.is_nash and len(rounds) == result.rounds + 1
        assert rounds[-1] == (instance.n_users if active is None else int(active.sum()))

    def test_winner_evaluates_only_dirty_rows(self):
        """At M a move dirties a small neighbourhood, so the winner schedule
        evaluates far fewer rows than one full batch per round."""
        from repro.bench.fixtures import instance_for
        from repro.obs.tracer import RecordingTracer

        instance = instance_for("M", 0)
        tracer = RecordingTracer()
        cfg = GameConfig(schedule="best-gain-winner")
        result = IddeUGame(instance, cfg, tracer=tracer).run(rng=0)
        assert result.is_nash
        rows = tracer.counters["sinr.batch_rows"]
        assert instance.n_users <= rows < 0.25 * result.rounds * instance.n_users

    def test_batch_rows_counts_evaluated_rows(self, small_instance, monkeypatch):
        """``sinr.batch_rounds`` / ``sinr.batch_rows`` count the dynamics'
        refresh passes and their rows, once per run; the certificate's
        pass re-evaluates only the rows its reload left dirty and counts
        them as ``game.certify_rows`` instead."""
        from repro.obs.tracer import RecordingTracer
        from repro.radio.sinr import SinrEngine

        calls = []
        batch = SinrEngine.batch_best_responses

        def spy(engine, users=None):
            calls.append(len(users))
            return batch(engine, users)

        monkeypatch.setattr(SinrEngine, "batch_best_responses", spy)
        for schedule in SCHEDULES:
            calls.clear()
            tracer = RecordingTracer()
            game = IddeUGame(small_instance, GameConfig(schedule=schedule), tracer=tracer)
            result = game.run(rng=0)
            assert result.is_nash
            # The certificate's pass, if it had dirty rows, is the last.
            certified = tracer.counters.get("game.certify_rows", 0)
            refreshes = calls[:-1] if certified else calls
            assert certified == (calls[-1] if certified else 0)
            assert certified < small_instance.n_users
            assert tracer.counters["sinr.batch_rounds"] == len(refreshes) > 0
            assert tracer.counters["sinr.batch_rows"] == sum(refreshes)


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

        Regression: the mask used to live on the game object between
        ``run()`` and its certificate, and a ``run()`` that raised (e.g. a
        warm start allocating inactive users) once left it behind,
        silently shrinking the player set of every subsequent call.  The
        game now keeps no per-run state at all.
        """
        game = IddeUGame(tiny_instance)
        full = game.run(rng=0)
        active = np.ones(tiny_instance.n_users, dtype=bool)
        active[0] = False  # but the warm start allocates user 0
        with pytest.raises(ConvergenceError):
            game.run(rng=0, initial=full.profile, active=active)
        assert set(vars(game)) == {"instance", "cfg", "tracer"}
        # And the next unmasked run behaves as if the failure never happened.
        again = game.run(rng=0)
        assert again.move_log == full.move_log

    def test_bad_mask_shape_does_not_leak(self, tiny_instance):
        game = IddeUGame(tiny_instance)
        full = game.run(rng=0)
        with pytest.raises(ConvergenceError):
            game.run(rng=0, active=np.ones(tiny_instance.n_users + 1, dtype=bool))
        assert set(vars(game)) == {"instance", "cfg", "tracer"}
        assert game.run(rng=0).move_log == full.move_log

    @pytest.mark.parametrize("length", (3, 25))
    def test_certificate_checks_mask_shape(self, length):
        """A mask of the wrong length is refused, not read as a shorter
        player set (a short mask once certified a non-equilibrium) or
        indexed out of range (a long one raised a bare ``IndexError``)."""
        from repro.core.profiles import AllocationProfile

        instance = IDDEInstance.generate(n=6, m=20, k=3, seed=0)
        game = IddeUGame(instance)
        empty = AllocationProfile.empty(instance.n_users)
        assert not game.is_nash(empty)
        with pytest.raises(ConvergenceError, match="active mask shape"):
            game.is_nash(empty, active=np.zeros(length, dtype=bool))

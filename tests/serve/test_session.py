"""The :class:`~repro.serve.SolverSession` lifecycle: fold, re-solve, certify."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import solve
from repro.config import GameConfig
from repro.core.instance import IDDEInstance
from repro.errors import ConfigurationError, ScenarioError, SolverError
from repro.obs import RecordingTracer
from repro.request import REQUEST_SCHEMA, SolveRequest
from repro.rng import spawn_rng
from repro.serve import SolverSession
from repro.serve import session as session_module
from repro.workload import Move, PopularityShift, UserJoin, UserLeave


@pytest.fixture(scope="module")
def instance() -> IDDEInstance:
    return IDDEInstance.generate(n=6, m=24, k=3, density=1.0, seed=3)


def _warm_request(seed: int = 7) -> SolveRequest:
    return SolveRequest(solver="idde-g", warm_start=True, rng=seed)


class TestLifecycle:
    def test_cold_solve_then_stats(self, instance):
        session = SolverSession(instance, _warm_request())
        assert session.epoch == -1
        sol = session.solve()
        assert sol is session.solution
        assert session.certified is True
        stats = session.stats()
        assert stats["epoch"] == 0
        assert stats["solves"] == 1
        assert stats["warm_solves"] == 0  # nothing resident to warm from
        assert stats["has_solution"] is True

    def test_events_fold_and_warm_resolve(self, instance):
        session = SolverSession(instance, _warm_request())
        session.solve()
        m = instance.scenario.n_users
        sol = session.apply_events(
            [UserLeave(t=1.0, user=0), Move(t=2.0, user=1, x=10.0, y=20.0)]
        )
        assert session.epoch == 1
        assert session.events_applied == 2
        assert session.warm_solves == 1
        assert session.certified is True
        assert session.state.n_active == m - 1
        assert sol.warm_detached is not None  # warm path went through repair
        rejoin = session.apply_events([UserJoin(t=3.0, user=0)])
        assert session.state.n_active == m
        assert rejoin.game.is_nash

    def test_events_resolve_cold_without_warm_start(self, instance):
        session = SolverSession(instance, SolveRequest(solver="idde-g", rng=7))
        session.solve()
        sol = session.apply_events([UserLeave(t=1.0, user=0)])
        assert session.epoch == 1 and session.certified is True
        assert session.warm_solves == 0
        assert sol.config["warm_start"] is False
        assert sol.warm_detached is None

    def test_fold_runs_under_batch_span(self, instance):
        tracer = RecordingTracer()
        session = SolverSession(instance, _warm_request(), tracer=tracer)
        session.solve()
        session.apply_events([UserLeave(t=1.0, user=0), UserLeave(t=1.0, user=1)])
        [span] = [s for s in tracer.spans if s.name == "workload.batch"]
        m = instance.scenario.n_users
        assert (span.attrs["events"], span.attrs["active_users"]) == (2, m - 2)

    def test_served_is_the_committed_instance(self, instance):
        session = SolverSession(instance, _warm_request())
        assert session.served is instance
        session.solve()
        served = session.served
        with pytest.raises(ScenarioError):
            session.apply_events([UserLeave(t=1.0, user=instance.n_users)])
        assert session.served is served
        session.apply_events([UserLeave(t=1.0, user=0)])
        assert session.served is not served
        assert not session.served.scenario.requests[0].any()

    def test_each_resolve_gets_fresh_epoch_stream(self, instance):
        session = SolverSession(instance, _warm_request(seed=7))
        session.solve()
        # The epoch-0 request carried the session's spawned stream, not
        # the raw integer: deterministic per-epoch provenance.
        assert session.seed == 7
        twin = SolverSession(instance, _warm_request(seed=7))
        twin.solve()
        events = [UserLeave(t=1.0, user=3), Move(t=1.5, user=5, x=50.0, y=60.0)]
        a = session.apply_events(list(events))
        b = twin.apply_events(list(events))
        assert a.r_avg == b.r_avg
        assert a.l_avg_ms == b.l_avg_ms
        assert np.array_equal(a.allocation.server, b.allocation.server)

    def test_session_solve_matches_direct_facade(self, instance):
        # A cold session solve is the same run a direct facade call does
        # with the identical projected request.
        session = SolverSession(instance, SolveRequest(solver="idde-g", rng=11))
        sol = session.solve()
        direct = solve(
            instance,
            SolveRequest(
                solver="idde-g",
                active=np.ones(instance.scenario.n_users, dtype=bool),
                rng=spawn_rng(11, "serve", 0),
            ),
        )
        assert sol.r_avg == direct.r_avg
        assert sol.l_avg_ms == direct.l_avg_ms

    def test_adopting_new_request_replaces_base(self, instance):
        session = SolverSession(instance, _warm_request())
        session.solve()
        mask = np.ones(instance.scenario.n_users, dtype=bool)
        mask[:4] = False
        sol = session.solve(
            SolveRequest(solver="idde-g", active=mask, rng=9, warm_start=True)
        )
        assert session.state.n_active == mask.sum()
        assert session.seed == 9
        assert sol.game.is_nash
        # the adopted base request keeps the description, not the mask
        assert session.request.active is None


class TestCertification:
    def test_baseline_has_no_certificate(self, instance):
        session = SolverSession(instance, SolveRequest(solver="cdp"))
        session.solve()
        assert session.certified is None
        assert session.solution.game is None

    def test_failed_certificate_keeps_resident(self, instance, monkeypatch):
        session = SolverSession(instance, _warm_request())
        first = session.solve()
        from repro.core.game import IddeUGame

        monkeypatch.setattr(IddeUGame, "_certify", lambda self, *a, **kw: (False, 0))
        with pytest.raises(SolverError, match="certificate failed"):
            session.apply_events([UserLeave(t=1.0, user=2)])
        assert session.solution is first  # resident survives
        assert session.tracer.counters.get("serve.certificate.failed") == 1

    def test_certifier_runs_under_span(self, instance):
        tracer = RecordingTracer()
        session = SolverSession(instance, _warm_request(), tracer=tracer)
        session.solve()
        session.apply_events([UserLeave(t=1.0, user=0)])
        names = [s.name for s in tracer.spans]
        # One certificate per solving epoch: the game's own, none after it.
        assert names.count("game.certify") == 2
        assert "serve.certify" not in names
        assert tracer.counters["serve.solves"] == 2

    def test_truncated_game_is_refused(self):
        # A cold game stopped after one round carries no certificate, so
        # the session must not serve it.  On this instance one sweep already
        # reaches an equilibrium, so a recheck of the profile would pass.
        instance = IDDEInstance.generate(n=6, m=4, k=3, density=1.0, seed=0)
        session = SolverSession(instance, _warm_request())
        first = session.solve()
        truncated = SolveRequest(solver="idde-g", game_config=GameConfig(max_rounds=1))
        with pytest.raises(SolverError, match="unconverged after 1 rounds"):
            session.solve(truncated)
        assert session.solution is first  # resident survives
        assert session.epoch == 0 and session.certified is True
        assert session.tracer.counters.get("serve.certificate.failed") == 1
        assert session.request.game_config is None  # adoption rolled back

    def test_served_document_states_one_verdict(self, instance):
        for request in (_warm_request(), SolveRequest(solver="cdp")):
            session = SolverSession(instance, request)
            session.solve()
            docs = [session.solution_document()]
            for user in range(3):
                session.apply_events([UserLeave(t=1.0 + user, user=user)])
                docs.append(session.solution_document())
            for doc in docs:
                game = doc.get("game")
                assert doc["session"]["certified"] == (
                    None if game is None else game["is_nash"]
                )

    def test_certifier_respects_game_config(self, instance):
        cfg = GameConfig(schedule="best-gain-winner")
        session = SolverSession(
            instance, SolveRequest(solver="idde-g", game_config=cfg, rng=5)
        )
        session.solve()
        assert session.certified is True


class TestRequestValidation:
    def test_live_generator_rejected(self, instance):
        with pytest.raises(ConfigurationError, match="integer seed"):
            SolverSession(
                instance, SolveRequest(solver="idde-g", rng=np.random.default_rng(0))
            )

    def test_live_warm_start_rejected(self, instance):
        prior = solve(instance, SolveRequest(solver="idde-g", rng=7))
        with pytest.raises(ConfigurationError, match="wire"):
            SolverSession(instance, SolveRequest(solver="idde-g", warm_start=prior))

    def test_wrong_shape_active_mask_rejected(self, instance):
        session = SolverSession(instance, _warm_request())
        with pytest.raises(ConfigurationError, match="mask covers"):
            session.solve(
                SolveRequest(solver="idde-g", active=np.ones(3, dtype=bool))
            )

    def test_failed_adoption_rolls_back(self, instance):
        from repro.errors import SolverLookupError

        session = SolverSession(instance, _warm_request(seed=7))
        session.solve()
        mask_before = session.state.active.copy()
        bad = SolveRequest.from_dict(
            {"schema": REQUEST_SCHEMA, "solver": "ide-g", "warm_start": True,
             "active": [0] * instance.scenario.n_users}
        )
        with pytest.raises(SolverLookupError):
            session.solve(bad)
        # the previous base request and churn mask both survive
        assert session.request.solver == "idde-g"
        assert session.seed == 7
        assert np.array_equal(session.state.active, mask_before)
        assert session.solve().game.is_nash  # session still serves


class TestSolutionDocument:
    def test_cold_session_raises(self, instance):
        session = SolverSession(instance, _warm_request())
        with pytest.raises(SolverError, match="no resident solution"):
            session.solution_document()

    def test_document_carries_session_context(self, instance):
        session = SolverSession(instance, _warm_request())
        session.solve()
        session.apply_events([UserLeave(t=1.0, user=0)])
        doc = session.solution_document()
        assert doc["schema"] == "idde-solution/5"
        assert doc["session"]["epoch"] == 1
        assert doc["session"]["events_applied"] == 1
        assert doc["session"]["certified"] is True
        assert doc["session"]["n_active"] == instance.scenario.n_users - 1
        assert doc["request"]["warm_start"] is True


class TestGainOverride:
    """Every epoch projects through IDDEInstance.project, override included."""

    def test_epoch_zero_equals_direct_solve(self, shadowed_instance):
        sol = SolverSession(shadowed_instance, SolveRequest(solver="idde-g", rng=11)).solve()
        direct = solve(
            shadowed_instance,
            SolveRequest(
                solver="idde-g",
                active=np.ones(shadowed_instance.n_users, dtype=bool),
                rng=spawn_rng(11, "serve", 0),
            ),
        )
        assert np.array_equal(sol.allocation.server, direct.allocation.server)
        assert np.array_equal(sol.allocation.channel, direct.allocation.channel)
        assert np.array_equal(sol.delivery.placed, direct.delivery.placed)
        assert (sol.r_avg, sol.l_avg_ms) == (direct.r_avg, direct.l_avg_ms)

    def test_move_is_structured_and_rolled_back(self, shadowed_instance):
        session = SolverSession(shadowed_instance, _warm_request())
        first = session.solve()
        positions = session.state.positions.copy()
        with pytest.raises(ScenarioError, match=r"users \[4\] moved"):
            session.apply_events([UserLeave(t=1.0, user=2), Move(t=2.0, user=4, x=0.0, y=0.0)])
        assert session.solution is first  # resident survives
        assert session.epoch == 0 and session.events_applied == 0
        assert np.array_equal(session.state.positions, positions)
        assert session.state.n_active == shadowed_instance.n_users
        # The session keeps serving, and a shift keeps the override.
        k = shadowed_instance.n_data
        after = session.apply_events([PopularityShift(t=3.0, order=tuple(reversed(range(k))))])
        assert session.epoch == 1 and session.certified is True
        assert after.game.is_nash


@pytest.fixture
def projections(monkeypatch) -> list[tuple[IDDEInstance, IDDEInstance]]:
    """Every ``IDDEInstance.project`` call that returned, as (parent, child)."""
    calls = []
    project = IDDEInstance.project

    def recording(self, state):
        child = project(self, state)
        calls.append((self, child))
        return child

    monkeypatch.setattr(IDDEInstance, "project", recording)
    return calls


class TestResidentProjection:
    """Each epoch projects from the instance of the last committed one."""

    @pytest.mark.parametrize(
        "base, rejected",
        [
            # The batch folds a move, then names a user outside the universe.
            (
                "instance",
                lambda m: [Move(t=3.0, user=2, x=0.0, y=0.0), UserLeave(t=3.0, user=m)],
            ),
            # The projection itself refuses the move.
            (
                "shadowed_instance",
                lambda m: [UserLeave(t=3.0, user=2), Move(t=3.0, user=4, x=0.0, y=0.0)],
            ),
        ],
    )
    def test_rejected_batch_leaves_the_committed_instance(
        self, base, rejected, request, projections
    ):
        instance = request.getfixturevalue(base)
        k = instance.n_data
        accepted = [
            (UserLeave(t=1.0, user=1),),
            (PopularityShift(t=4.0, order=tuple(reversed(range(k)))),),
        ]
        session = SolverSession(instance, _warm_request())
        session.solve()
        session.apply_events(accepted[0])
        committed = projections[-1][1]
        with pytest.raises(ScenarioError):
            session.apply_events(rejected(instance.n_users))
        served = session.apply_events(accepted[1])
        parent, child = projections[-1]
        assert parent is committed
        # Nobody moved in the epochs that committed, so the tables carried over.
        assert child.radio_tables is committed.radio_tables

        fresh = SolverSession(instance, _warm_request())
        fresh.solve()
        for batch in accepted:
            expected = fresh.apply_events(batch)
        assert session.epoch == fresh.epoch == 2
        assert np.array_equal(served.allocation.server, expected.allocation.server)
        assert np.array_equal(served.allocation.channel, expected.allocation.channel)
        assert np.array_equal(served.delivery.placed, expected.delivery.placed)
        assert (served.r_avg, served.l_avg_ms) == (expected.r_avg, expected.l_avg_ms)
        assert served.game.effective_epsilon == expected.game.effective_epsilon

    def test_batch_the_solve_rejects_leaves_the_committed_instance(
        self, instance, projections, monkeypatch
    ):
        session = SolverSession(instance, _warm_request())
        session.solve()
        committed = projections[-1][1]

        def refuse(*args, **kwargs):
            raise ScenarioError("refused")

        with monkeypatch.context() as patch:
            patch.setattr(session_module, "solve", refuse)
            with pytest.raises(ScenarioError, match="refused"):
                session.apply_events([Move(t=1.0, user=2, x=0.0, y=0.0)])
        session.apply_events([UserLeave(t=2.0, user=1)])
        assert projections[-1][0] is committed



def _same_answer(a, b) -> None:
    assert np.array_equal(a.allocation.server, b.allocation.server)
    assert np.array_equal(a.allocation.channel, b.allocation.channel)
    assert np.array_equal(a.delivery.placed, b.delivery.placed)
    assert (a.r_avg, a.l_avg_ms) == (b.r_avg, b.l_avg_ms)
    assert a.game.effective_epsilon == b.game.effective_epsilon
    assert a.game.move_log == b.game.move_log


class TestBatchAtomicity:
    """A batch commits with its certified solution or not at all."""

    GOOD = (
        (UserLeave(t=1.0, user=1), Move(t=1.5, user=4, x=30.0, y=40.0)),
        (UserJoin(t=4.0, user=1), UserLeave(t=4.5, user=5)),
    )

    def _check_rolled_back(self, session, first, positions, active) -> None:
        assert session.solution is first  # resident survives
        assert session.epoch == 1 and session.events_applied == 2
        assert np.array_equal(session.state.positions, positions)
        assert np.array_equal(session.state.active, active)

    def _check_next_batch_is_fresh(self, instance, session) -> None:
        served = session.apply_events(self.GOOD[1])
        fresh = SolverSession(instance, _warm_request())
        fresh.solve()
        for batch in self.GOOD:
            expected = fresh.apply_events(batch)
        assert session.epoch == fresh.epoch == 2
        assert session.events_applied == fresh.events_applied == 4
        _same_answer(served, expected)

    def _open(self, instance):
        session = SolverSession(instance, _warm_request())
        session.solve()
        first = session.apply_events(self.GOOD[0])
        return session, first, session.state.positions.copy(), session.state.active.copy()

    def test_bare_error_mid_batch_rolls_back(self, instance, monkeypatch):
        # The batch has folded when the solve raises a non-ReproError.
        from repro.serve import session as session_mod

        def broken_solve(*args, **kwargs):
            raise RuntimeError("solver crashed")

        session, first, positions, active = self._open(instance)
        with monkeypatch.context() as patch:
            patch.setattr(session_mod, "solve", broken_solve)
            with pytest.raises(RuntimeError, match="solver crashed"):
                session.apply_events(
                    [UserLeave(t=5.0, user=3), Move(t=5.5, user=2, x=0.0, y=0.0)]
                )
        assert session.state.active[3]
        self._check_rolled_back(session, first, positions, active)
        self._check_next_batch_is_fresh(instance, session)

    def test_failed_certificate_rolls_back(self, instance, monkeypatch):
        from repro.core.game import IddeUGame

        session, first, positions, active = self._open(instance)
        with monkeypatch.context() as patch:
            patch.setattr(IddeUGame, "_certify", lambda self, *a, **kw: (False, 0))
            with pytest.raises(SolverError, match="certificate failed"):
                session.apply_events(
                    [UserLeave(t=5.0, user=3), Move(t=5.5, user=2, x=0.0, y=0.0)]
                )
        self._check_rolled_back(session, first, positions, active)
        self._check_next_batch_is_fresh(instance, session)


class TestTheorem7OnServedEpochs:
    """Theorem 7 on every epoch of served days: the exact delivery optimum
    for the served allocation is no worse than the greedy's answer, and
    the greedy's answer stays under the theorem's bound on that optimum."""

    def test_greedy_between_optimum_and_bound(self):
        from repro.config import ScenarioConfig, WorkloadConfig
        from repro.core.bounds import theorem7_latency_upper_bound_ms
        from repro.core.objectives import average_delivery_latency_ms
        from repro.solvers import optimal_delivery_milp
        from repro.workload import StreamConfig, batch_by_count, poisson_zipf_stream

        # Storage tight enough that the optimum is not "replicate everything".
        tight = ScenarioConfig(workload=WorkloadConfig(storage_range=(30.0, 90.0)))
        churn = StreamConfig(
            arrival_rate=0.5, departure_rate=0.3, move_rate=0.5, shift_rate=1.0
        )
        gaps = 0
        for seed in range(3):
            base = IDDEInstance.generate(n=6, m=12, k=4, seed=seed, config=tight)
            session = SolverSession(base, _warm_request(seed))
            # Every answer is checked on the instance it was served on.
            answers = [(session.solve(), session.served)]
            stream = poisson_zipf_stream(base.scenario, seed, churn, n_events=40)
            for batch in batch_by_count(stream, 5):
                answers.append((session.apply_events(batch.events), session.served))
            assert session.epoch == len(answers) - 1 >= 8
            assert session.warm_solves == session.epoch
            for sol, served in answers:
                l_greedy = sol.l_avg_ms
                assert l_greedy == average_delivery_latency_ms(
                    served, sol.allocation, sol.delivery
                )
                l_opt = optimal_delivery_milp(served, sol.allocation).l_avg_ms
                assert l_opt <= l_greedy + 1e-9
                assert l_greedy <= theorem7_latency_upper_bound_ms(served, l_opt) + 1e-9
                gaps += l_opt < l_greedy - 1e-9
        assert gaps > 0, "the greedy matched the optimum on every epoch"


class TestBoundedTrace:
    """A served day's event log holds its decisions, not its steps: moves,
    placements and evaluations are counters, so a small log never fills
    and keeps every ε escalation the counters report."""

    def test_small_log_keeps_every_escalation(self):
        from repro.workload import StreamConfig, batch_by_count, poisson_zipf_stream

        base = IDDEInstance.generate(n=10, m=60, k=3, density=1.0, seed=0)
        stream = poisson_zipf_stream(
            base.scenario, spawn_rng(0, "t"), StreamConfig(), n_events=60 * 25
        )
        tracer = RecordingTracer(max_events=100)
        session = SolverSession(base, _warm_request(0), tracer=tracer)
        session.solve()
        for batch in batch_by_count(stream, 25):
            session.apply_events(batch.events)
        counters = tracer.counters
        # Thousands of moves and placements, a handful of escalations.
        assert counters["game.moves"] > 10 * tracer.max_events
        assert counters["delivery.placements"] > 10 * tracer.max_events
        assert counters["game.escalations"] > 0
        assert tracer.dropped_events == 0
        escalations = [e for e in tracer.events if e.etype == "game.epsilon_escalation"]
        assert len(escalations) == counters["game.escalations"]
        assert all(e.fields["moves"] >= 0 for e in escalations)


class TestWorkPerAnswer:
    """A served answer is checked and scored in one pass: one latency table,
    one engine (the game plays, certifies and reads the rates on it),
    Eq. (1) once per engine load, and no signature inspection once the
    solver builds."""

    def test_one_pass_per_served_epoch(self, instance, monkeypatch):
        import inspect

        from repro.core import constraints, objectives, profiles, repair
        from repro.radio import sinr

        calls: dict[str, int] = {}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (objectives, constraints):
            counted(module, "per_user_latencies", "latency table")
        for module in (sinr, profiles, repair):
            counted(module, "check_eq1", "eq1")
        counted(inspect, "signature", "signature")

        tracer = RecordingTracer()
        session = SolverSession(instance, _warm_request(), tracer=tracer)
        session.solve()
        # Eq. (1) once, in the certificate's reload of the final profile.
        assert calls == {"latency table": 1, "eq1": 1}
        names = [s.name for s in tracer.spans]
        assert names.count("game.certify") == 1
        assert names.count("solver.evaluate") == 1
        assert "solver.validate" not in names

    def test_one_engine_per_epoch_and_patched_tables(self, monkeypatch):
        """Over a cold epoch and warm mobility epochs at N=30, M=200: one
        engine per answer, no radio-table build on a projected epoch, and
        Eq. (1) checked once cold and at most three times warm (repair,
        warm load, certificate)."""
        from repro.core import profiles, repair
        from repro.radio import sinr
        from repro.workload import StreamConfig, batch_by_count, poisson_zipf_stream

        calls: dict[str, int] = {}

        def counted(owner, name, key, wrap=lambda f: f):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrap(wrapper))

        for module in (sinr, profiles, repair):
            counted(module, "check_eq1", "eq1")
        counted(sinr.RadioTables, "build", "build", staticmethod)
        new_engine = IDDEInstance.new_engine

        def counting_engine(self):
            calls["engine"] = calls.get("engine", 0) + 1
            return new_engine(self)

        monkeypatch.setattr(IDDEInstance, "new_engine", counting_engine)

        base = IDDEInstance.generate(n=30, m=200, k=5, seed=3)
        session = SolverSession(base, _warm_request(3))
        session.solve()
        assert calls == {"engine": 1, "eq1": 1, "build": 1}
        stream = poisson_zipf_stream(
            base.scenario, spawn_rng(3, "t"), StreamConfig(), n_events=6 * 25
        )
        moved_epochs = 0
        for batch in batch_by_count(stream, 25):
            calls.clear()
            before = session.served.scenario.user_xy
            session.apply_events(batch.events)
            moved = (session.served.scenario.user_xy != before).any(axis=1).sum()
            moved_epochs += moved > 0
            assert calls["engine"] == 1
            assert "build" not in calls
            assert calls["eq1"] <= 3
            assert session.certified is True
        assert moved_epochs >= 4

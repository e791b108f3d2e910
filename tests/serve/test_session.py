"""The :class:`~repro.serve.SolverSession` lifecycle: fold, re-solve, certify."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import solve
from repro.config import GameConfig
from repro.core.instance import IDDEInstance
from repro.errors import ConfigurationError, SolverError
from repro.obs import RecordingTracer
from repro.request import SolveRequest
from repro.rng import spawn_rng
from repro.serve import SolverSession
from repro.workload import Move, UserJoin, UserLeave


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

    def test_resident_warm_boot(self, instance):
        prior = solve(instance, SolveRequest(solver="idde-g", rng=7))
        session = SolverSession(instance, _warm_request(), resident=prior)
        sol = session.solve()
        assert session.warm_solves == 1
        assert sol.warm_detached is not None

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

        monkeypatch.setattr(IddeUGame, "is_nash", lambda self, *a, **kw: False)
        with pytest.raises(SolverError, match="certificate failed"):
            session.apply_events([UserLeave(t=1.0, user=2)])
        assert session.solution is first  # resident survives
        assert session.tracer.counters.get("serve.certificate.failed") == 1

    def test_certifier_runs_under_span(self, instance):
        tracer = RecordingTracer()
        session = SolverSession(instance, _warm_request(), tracer=tracer)
        session.solve()
        assert any(s.name == "serve.certify" for s in tracer.spans)
        assert tracer.counters["serve.solves"] == 1

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
            {"schema": "idde-request/2", "solver": "ide-g", "warm_start": True,
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
        assert doc["schema"] == "idde-solution/3"
        assert doc["session"]["epoch"] == 1
        assert doc["session"]["events_applied"] == 1
        assert doc["session"]["certified"] is True
        assert doc["session"]["n_active"] == instance.scenario.n_users - 1
        assert doc["request"]["warm_start"] is True

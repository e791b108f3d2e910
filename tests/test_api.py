"""The :mod:`repro.api` façade: solve(), Solution and the solver registry."""

from __future__ import annotations

import json

import pytest

from repro.api import SOLUTION_SCHEMA, Solution, solve
from repro.baselines import CANONICAL_SOLVERS, _FACTORIES, build_solver, resolve_solver_name
from repro.config import DeliveryConfig, GameConfig
from repro.core.idde_g import IddeG
from repro.core.instance import IDDEInstance
from repro.errors import ConfigurationError, SolverLookupError
from repro.obs import RecordingTracer


@pytest.fixture(scope="module")
def instance() -> IDDEInstance:
    return IDDEInstance.generate(n=6, m=24, k=3, density=1.0, seed=3)


class TestSolve:
    def test_matches_direct_solver(self, instance):
        sol = solve(instance, "idde-g", rng=3)
        direct = IddeG().solve(instance, rng=3)
        assert sol.r_avg == direct.r_avg
        assert sol.l_avg_ms == direct.l_avg_ms
        assert sol.solver == "IDDE-G"

    def test_game_and_delivery_results_attached(self, instance):
        sol = solve(instance, "idde-g", rng=3)
        assert sol.game is not None and sol.game.moves > 0
        assert sol.delivery_result is not None
        assert sol.evaluation.allocated_users > 0

    def test_baseline_has_no_game(self, instance):
        sol = solve(instance, "cdp", rng=3)
        assert sol.game is None and sol.delivery_result is None
        assert sol.r_avg > 0

    def test_name_is_case_insensitive(self, instance):
        sol = solve(instance, "IDDE-G", rng=3)
        assert sol.solver == "IDDE-G"

    def test_solution_matches_oracle_and_records_no_kernel(self, instance):
        from .oracles.delivery import oracle_delivery
        from .oracles.game import OracleGame

        sol = solve(instance, "idde-g", rng=3)
        game = OracleGame(instance).run(rng=3)
        delivery = oracle_delivery(instance, game.profile)
        assert sol.game.move_log == game.move_log
        assert sol.delivery_result.placements == delivery.placements
        assert sol.delivery_result.total_gain_s == delivery.total_gain_s
        for key in ("kernel", "delivery_kernel"):
            assert key not in sol.config and key not in sol.extras

    def test_game_config_rejected_for_baselines(self, instance):
        with pytest.raises(ConfigurationError, match="idde-g"):
            solve(instance, "cdp", game_config=GameConfig(), rng=3)
        with pytest.raises(ConfigurationError):
            solve(instance, "saa", delivery_config=DeliveryConfig(), rng=3)

    def test_tracer_observes_the_run(self, instance):
        tracer = RecordingTracer()
        solve(instance, "idde-g", tracer=tracer, rng=3)
        names = [s.name for s in tracer.spans]
        assert "api.solve" in names
        assert "game.run" in names
        assert "delivery.greedy" in names
        assert tracer.counters["game.moves"] > 0

    def test_tracer_does_not_perturb_results(self, instance):
        quiet = solve(instance, "idde-g", rng=3)
        traced = solve(instance, "idde-g", tracer=RecordingTracer(), rng=3)
        assert traced.game.move_log == quiet.game.move_log
        assert traced.r_avg == quiet.r_avg


class TestSolutionDocument:
    def test_to_dict_surfaces_certificate_fields(self, instance):
        doc = solve(instance, "idde-g", rng=3).to_dict()
        assert doc["schema"] == SOLUTION_SCHEMA
        assert doc["game"]["effective_epsilon"] > 0
        assert isinstance(doc["game"]["capped_users"], list)
        assert doc["config"]["schedule"] == "round-robin"
        assert doc["delivery"]["iterations"] == len(doc["delivery"]["placements"])
        json.dumps(doc)

    def test_baseline_document(self, instance):
        doc = solve(instance, "saa", rng=3).to_dict()
        assert doc["game"] is None and doc["delivery"] is None
        assert doc["solver"] == "SAA"
        json.dumps(doc)

    def test_summary_line(self, instance):
        line = solve(instance, "idde-g", rng=3).summary()
        assert "IDDE-G" in line and "R_avg" in line and "game=" in line


class TestRegistry:
    def test_canonical_names_resolve(self):
        for name in CANONICAL_SOLVERS:
            assert resolve_solver_name(name) == name
        assert resolve_solver_name("  IDDE-G ") == "idde-g"

    def test_unknown_name_did_you_mean(self):
        with pytest.raises(SolverLookupError) as err:
            resolve_solver_name("ide-g")
        assert "did you mean 'idde-g'" in err.value.args[0]
        # The lookup error is a KeyError for callers catching that.
        assert isinstance(err.value, KeyError)

    def test_unknown_kwargs_rejected(self, instance):
        for name in ("cdp", "idde-g"):
            with pytest.raises(ConfigurationError, match=f"{name}.*bogus_kw"):
                build_solver(name, bogus_kw=1)
            with pytest.raises(ConfigurationError, match="bogus_kw"):
                solve(instance, name, solver_options={"bogus_kw": 1}, rng=3)
        # A constructor keyword the request already sets is refused too.
        with pytest.raises(ConfigurationError, match="tracer"):
            solve(instance, "idde-g", solver_options={"tracer": None}, rng=3)

    def test_sharding_keyword_rejected(self, instance):
        """Sharding is gone: the global game is the only IDDE-U path."""
        from repro.request import REQUEST_SCHEMA, SolveRequest

        with pytest.raises(TypeError, match="sharding"):
            solve(instance, "idde-g", sharding={}, rng=3)
        doc = {"schema": REQUEST_SCHEMA, "sharding": None}
        with pytest.raises(ConfigurationError, match="sharding"):
            SolveRequest.from_dict(doc)
        with pytest.raises(ConfigurationError, match="sharding"):
            solve(instance, "idde-g", solver_options={"sharding": {}}, rng=3)

    def test_accepted_kwargs_pass_through(self):
        solver = build_solver("idde-ip", time_budget_s=0.5)
        assert solver.time_budget_s == 0.5

    @pytest.mark.parametrize("budget", [0, "x"])
    def test_rejected_option_values_are_configuration_errors(self, instance, budget):
        """A value the constructor rejects (ValueError/TypeError) is a
        structured ConfigurationError naming the solver and the options."""
        with pytest.raises(ConfigurationError, match=r"'idde-ip'.*time_budget_s"):
            build_solver("idde-ip", time_budget_s=budget)
        with pytest.raises(ConfigurationError, match=r"'idde-ip'.*time_budget_s"):
            solve(instance, "idde-ip", solver_options={"time_budget_s": budget})

    def test_ip_budget_config_reads_the_built_solver(self, instance):
        default = solve(instance, "idde-ip", rng=3)
        assert default.config["time_budget_s"] == build_solver("idde-ip").time_budget_s
        capped = solve(instance, "idde-ip", solver_options={"time_budget_s": 0.05}, rng=3)
        assert capped.config["time_budget_s"] == 0.05


class TestSolutionConstruction:
    def test_frozen(self, instance):
        sol = solve(instance, "idde-g", rng=3)
        with pytest.raises(AttributeError):
            sol.solver = "other"
        assert isinstance(sol, Solution)


class TestWarmStart:
    def test_warm_from_equilibrium_is_zero_moves(self, instance):
        cold = solve(instance, "idde-g", rng=0)
        warm = solve(instance, "idde-g", warm_start=cold, rng=1)
        assert warm.game.moves == 0
        assert warm.game.is_nash
        assert warm.config["warm_start"] is True
        assert warm.extras["warm_detached"] == 0

    def test_accepts_bare_allocation_profile(self, instance):
        cold = solve(instance, "idde-g", rng=0)
        warm = solve(instance, "idde-g", warm_start=cold.allocation, rng=1)
        assert warm.game.moves == 0

    def test_active_mask_detaches_and_excludes(self, instance):
        import numpy as np

        cold = solve(instance, "idde-g", rng=0)
        active = np.ones(instance.n_users, dtype=bool)
        inactive = [0, 1, 2]
        active[inactive] = False
        warm = solve(instance, "idde-g", warm_start=cold, active=active, rng=1)
        assert not warm.allocation.allocated[inactive].any()
        assert warm.config["active_users"] == instance.n_users - 3
        assert warm.extras["warm_detached"] == int(
            cold.allocation.allocated[inactive].sum()
        )
        assert warm.game.is_nash

    def test_warm_start_traced(self, instance):
        cold = solve(instance, "idde-g", rng=0)
        tracer = RecordingTracer()
        solve(instance, "idde-g", warm_start=cold, tracer=tracer, rng=1)
        spans = [s for s in tracer.spans if s.name == "api.warm_start"]
        assert len(spans) == 1
        assert spans[0].attrs["detached"] == 0
        assert spans[0].attrs["carried"] == cold.allocation.n_allocated

    def test_rejected_for_baselines(self, instance):
        cold = solve(instance, "idde-g", rng=0)
        with pytest.raises(ConfigurationError, match="warm_start"):
            solve(instance, "nearest", warm_start=cold)

    def test_active_rejected_for_baselines(self, instance):
        import numpy as np

        with pytest.raises(ConfigurationError, match="active"):
            solve(
                instance,
                "random",
                active=np.ones(instance.n_users, dtype=bool),
                rng=0,
            )


class TestSolutionSchemaVersions:
    """The idde-solution/5 loader (older tags are rejected) and typed extras."""

    def _doc(self, instance):
        from repro.request import SolveRequest

        return solve(instance, SolveRequest(solver="idde-g", rng=3)).to_dict()

    def test_loader_passes_current_schema_through(self, instance):
        from repro.api import load_solution_document

        doc = self._doc(instance)
        assert doc["schema"] == "idde-solution/5"
        loaded = load_solution_document(json.loads(json.dumps(doc)))
        assert loaded == doc
        assert loaded["request"]["schema"] == "idde-request/5"

    @pytest.mark.parametrize(
        "schema",
        ["idde-solution/1", "idde-solution/2", "idde-solution/3", "idde-solution/4"],
    )
    def test_loader_rejects_retired_schemas(self, instance, schema):
        """v1 to v4 are no longer read: they fail like any unknown tag and
        the error names the version this build reads."""
        from repro.api import load_solution_document

        doc = self._doc(instance)
        doc["schema"] = schema
        with pytest.raises(
            ConfigurationError, match="unsupported solution schema.*idde-solution/5"
        ):
            load_solution_document(doc)

    def test_loader_rejects_unknown_schema(self, instance):
        from repro.api import load_solution_document

        doc = self._doc(instance)
        doc["schema"] = "idde-solution/9"
        with pytest.raises(ConfigurationError, match="idde-solution"):
            load_solution_document(doc)

    def test_loader_rejects_missing_keys(self):
        from repro.api import load_solution_document

        with pytest.raises(ConfigurationError, match="r_avg"):
            load_solution_document({"schema": SOLUTION_SCHEMA, "solver": "x"})
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_solution_document([1])

    def test_typed_extras_accessors(self, instance):
        cold = solve(instance, "idde-g", rng=0)
        assert cold.warm_detached is None
        assert not hasattr(cold, "sharding_stats")

        warm = solve(instance, "idde-g", warm_start=cold, rng=1)
        assert warm.warm_detached == 0


class TestSolutionStatesEachFactOnce:
    """An ``idde-solution/5`` document repeats no fact under ``extras``."""

    @pytest.mark.parametrize("name", sorted(_FACTORIES))
    def test_extras_repeat_no_other_key(self, instance, name):
        options = {"time_budget_s": 0.05} if name == "idde-ip" else {}
        doc = solve(instance, name, solver_options=options, rng=3).to_dict()
        taken = set(doc) | set(doc["config"])
        for block in ("game", "delivery"):
            taken |= set(doc[block] or ())
        assert not set(doc["extras"]) & taken, doc["extras"]

    def test_idde_g_extras_hold_only_what_no_field_carries(self, instance):
        cold = solve(instance, "idde-g", rng=3)
        assert cold.to_dict()["extras"] == {}
        warm = solve(instance, "idde-g", warm_start=cold, rng=4)
        assert warm.to_dict()["extras"] == {"warm_detached": 0}
        traced = solve(
            instance, "idde-g", solver_options={"track_potential": True}, rng=3
        )
        assert set(traced.extras) == {"potential_trace"}
        assert traced.extras["potential_trace"] == traced.game.potential_trace

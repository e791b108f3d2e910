"""The :class:`~repro.request.SolveRequest` wire format and façade parity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import solve
from repro.config import DeliveryConfig, GameConfig
from repro.core.instance import IDDEInstance
from repro.errors import ConfigurationError
from repro.request import REQUEST_SCHEMA, SolveRequest
from repro.sharding import ShardConfig

#: A fully-populated idde-request/2 document, exactly as it travels the
#: wire — golden bytes for cross-version compatibility.
GOLDEN_DOC = {
    "schema": "idde-request/2",
    "solver": "idde-g",
    "game": None,
    "delivery": None,
    "sharding": None,
    "warm_start": True,
    "active": [1, 1, 0, 1],
    "rng": 42,
    "ip_time_budget_s": 2.5,
    "validate": False,
    "solver_options": {"note": "golden"},
}


@pytest.fixture(scope="module")
def instance() -> IDDEInstance:
    return IDDEInstance.generate(n=6, m=24, k=3, density=1.0, seed=3)


class TestWireRoundTrip:
    def test_golden_document_loads(self):
        req = SolveRequest.from_dict(GOLDEN_DOC)
        assert req.solver == "idde-g"
        assert req.warm_start is True
        assert req.active.dtype == bool
        assert list(req.active) == [True, True, False, True]
        assert req.rng == 42
        assert req.ip_time_budget_s == 2.5
        assert req.validate is False
        assert req.solver_options == {"note": "golden"}

    def test_golden_document_round_trips_bit_identical(self):
        req = SolveRequest.from_dict(GOLDEN_DOC)
        assert req.to_dict() == GOLDEN_DOC
        # and through actual JSON text, not just dicts
        rewired = SolveRequest.from_dict(json.loads(json.dumps(req.to_dict())))
        assert rewired.to_dict() == GOLDEN_DOC

    def test_nested_configs_round_trip(self):
        req = SolveRequest(
            solver="idde-g",
            game_config=GameConfig(schedule="best-gain-winner"),
            delivery_config=DeliveryConfig(ratio_rule=False),
            sharding=ShardConfig(n_shards=2, n_workers=0),
        )
        back = SolveRequest.from_dict(req.to_dict())
        assert back.game_config == req.game_config
        assert back.delivery_config == req.delivery_config
        assert back.sharding == req.sharding

    def test_defaults_round_trip(self):
        back = SolveRequest.from_dict(SolveRequest().to_dict())
        assert back.solver == "idde-g"
        assert back.warm_start is None
        assert back.active is None and back.rng is None

    def test_schema_tag_required(self):
        doc = dict(GOLDEN_DOC)
        doc["schema"] = "idde-request/9"
        with pytest.raises(ConfigurationError, match="idde-request/2"):
            SolveRequest.from_dict(doc)
        with pytest.raises(ConfigurationError, match="schema"):
            SolveRequest.from_dict({"solver": "idde-g"})

    def test_unknown_keys_rejected(self):
        doc = dict(GOLDEN_DOC)
        doc["warmstart"] = True  # typo must not pass silently
        with pytest.raises(ConfigurationError, match="warmstart"):
            SolveRequest.from_dict(doc)

    def test_unknown_nested_config_key_rejected(self):
        doc = dict(GOLDEN_DOC)
        doc["game"] = {"kernal": "batched"}
        with pytest.raises(ConfigurationError, match="kernal"):
            SolveRequest.from_dict(doc)

    def test_nested_config_range_checks_still_run(self):
        doc = dict(GOLDEN_DOC)
        doc["game"] = {"epsilon": -1.0}  # GameConfig's own validation
        with pytest.raises(ConfigurationError, match="epsilon"):
            SolveRequest.from_dict(doc)

    @pytest.mark.parametrize("section", ["game", "delivery"])
    def test_kernel_key_is_unknown(self, section):
        """v2 dropped the kernel switch: each phase has one kernel."""
        doc = dict(GOLDEN_DOC)
        doc[section] = {"kernel": "batched"}
        with pytest.raises(ConfigurationError, match=f"unknown {section} key"):
            SolveRequest.from_dict(doc)

    def test_v1_document_rejected(self):
        doc = dict(GOLDEN_DOC, schema="idde-request/1")
        with pytest.raises(ConfigurationError, match="idde-request/2"):
            SolveRequest.from_dict(doc)

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("warm_start", 1, "boolean"),
            ("rng", True, "integer seed"),
            ("rng", 3.5, "integer seed"),
            ("validate", "yes", "boolean"),
            ("active", "101", "0/1 list"),
            ("active", [[1], [0, 1]], "flat 0/1 mask"),  # ragged
            ("active", [[1, 0], [0, 1]], "flat 0/1 mask"),  # nested/2-D
            ("solver_options", [1], "JSON object"),
            ("game", "batched", "JSON object"),
        ],
    )
    def test_bad_wire_values_rejected(self, key, value, match):
        doc = dict(GOLDEN_DOC)
        doc[key] = value
        with pytest.raises(ConfigurationError, match=match):
            SolveRequest.from_dict(doc)

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            SolveRequest.from_dict([1, 2, 3])

    def test_constructor_rejects_non_flat_active(self):
        # The same validation guards direct construction, not just the wire.
        with pytest.raises(ConfigurationError, match="flat 0/1 mask"):
            SolveRequest(active=[[1], [0, 1]])
        with pytest.raises(ConfigurationError, match="flat 0/1 mask"):
            SolveRequest(active=np.zeros((2, 2)))


class TestRuntimeFields:
    def test_live_warm_start_cannot_go_on_the_wire(self, instance):
        prior = solve(instance, "idde-g", rng=3)
        req = SolveRequest(solver="idde-g", warm_start=prior)
        with pytest.raises(ConfigurationError, match="wire"):
            req.to_dict()
        assert req.to_dict(lenient=True)["warm_start"] is True

    def test_live_generator_cannot_go_on_the_wire(self):
        req = SolveRequest(rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="integer seed"):
            req.to_dict()
        assert req.to_dict(lenient=True)["rng"] is None

    def test_numpy_seed_serialises_as_int(self):
        doc = SolveRequest(rng=np.int64(17)).to_dict()
        assert doc["rng"] == 17 and type(doc["rng"]) is int

    def test_warm_start_false_normalises_to_none(self):
        assert SolveRequest(warm_start=False).warm_start is None

    def test_with_runtime_swaps_only_runtime_state(self):
        base = SolveRequest(
            solver="idde-g", game_config=GameConfig(schedule="random-winner"), rng=1
        )
        mask = np.ones(4, dtype=bool)
        stamped = base.with_runtime(warm_start=True, active=mask, rng=7)
        assert stamped.game_config == base.game_config
        assert stamped.warm_start is True
        assert stamped.rng == 7
        assert np.array_equal(stamped.active, mask)
        # the base request is frozen and untouched
        assert base.warm_start is None and base.rng == 1

    def test_sentinel_rejected_by_direct_execute(self, instance):
        with pytest.raises(ConfigurationError, match="resident"):
            solve(instance, SolveRequest(solver="idde-g", warm_start=True))

    def test_unserialisable_solver_options_rejected(self):
        req = SolveRequest(solver_options={"obj": object()})
        with pytest.raises(ConfigurationError, match="solver_options"):
            req.to_dict()


class TestFacadeParity:
    """solve(name, **fields) and solve(SolveRequest(...)) are one code path."""

    def test_kwargs_and_request_are_bit_identical(self, instance):
        by_kwargs = solve(
            instance,
            "idde-g",
            game_config=GameConfig(schedule="best-gain-winner"),
            delivery_config=DeliveryConfig(min_gain_s_per_mb=0.01),
            rng=3,
        )
        by_request = solve(
            instance,
            SolveRequest(
                solver="idde-g",
                game_config=GameConfig(schedule="best-gain-winner"),
                delivery_config=DeliveryConfig(min_gain_s_per_mb=0.01),
                rng=3,
            ),
        )
        assert by_kwargs.r_avg == by_request.r_avg
        assert by_kwargs.l_avg_ms == by_request.l_avg_ms
        assert by_kwargs.game.move_log == by_request.game.move_log
        assert np.array_equal(
            by_kwargs.allocation.server, by_request.allocation.server
        )

    def test_baseline_parity(self, instance):
        assert (
            solve(instance, "cdp", rng=3).r_avg
            == solve(instance, SolveRequest(solver="cdp", rng=3)).r_avg
        )

    def test_request_with_kwarg_overrides_rejected(self, instance):
        with pytest.raises(ConfigurationError, match="request"):
            solve(
                instance,
                SolveRequest(solver="idde-g"),
                game_config=GameConfig(),
            )
        with pytest.raises(ConfigurationError, match="request"):
            solve(instance, SolveRequest(solver="idde-g"), rng=3)

    def test_solution_document_embeds_request(self, instance):
        req = SolveRequest(solver="idde-g", rng=3)
        doc = solve(instance, req).to_dict()
        assert doc["request"]["schema"] == REQUEST_SCHEMA
        assert doc["request"]["solver"] == "idde-g"
        assert doc["request"]["rng"] == 3

"""The :class:`~repro.request.SolveRequest` wire format and façade parity."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import solve
from repro.config import DeliveryConfig, GameConfig
from repro.core.instance import IDDEInstance
from repro.errors import ConfigurationError
from repro.request import _WIRE_KEYS, REQUEST_SCHEMA, SolveRequest

#: A fully-populated idde-request/5 document, exactly as it travels the
#: wire — golden bytes for cross-version compatibility.
GOLDEN_DOC = {
    "schema": "idde-request/5",
    "solver": "idde-g",
    "game": None,
    "delivery": None,
    "warm_start": True,
    "active": [1, 1, 0, 1],
    "rng": 42,
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
        )
        back = SolveRequest.from_dict(req.to_dict())
        assert back.game_config == req.game_config
        assert back.delivery_config == req.delivery_config

    def test_defaults_round_trip(self):
        back = SolveRequest.from_dict(SolveRequest().to_dict())
        assert back.solver == "idde-g"
        assert back.warm_start is None
        assert back.active is None and back.rng is None

    def test_schema_tag_required(self):
        doc = dict(GOLDEN_DOC)
        doc["schema"] = "idde-request/9"
        with pytest.raises(ConfigurationError, match="idde-request/5"):
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
        with pytest.raises(ConfigurationError, match="idde-request/5"):
            SolveRequest.from_dict(doc)

    def test_v4_document_rejected(self):
        """v5 dropped ``validate``: a v4 document fails on its tag and the
        error names the version this build reads."""
        doc = dict(GOLDEN_DOC, schema="idde-request/4", validate=True)
        with pytest.raises(ConfigurationError, match="idde-request/5"):
            SolveRequest.from_dict(doc)

    @pytest.mark.parametrize("sharding", [None, {"n_shards": 2}])
    def test_sharding_key_is_unknown(self, sharding):
        """v3 dropped sharding: the global game is the only IDDE-U path."""
        doc = dict(GOLDEN_DOC, sharding=sharding)
        with pytest.raises(ConfigurationError, match=r"unknown request key.*sharding"):
            SolveRequest.from_dict(doc)
        with pytest.raises(ConfigurationError, match="idde-request/5"):
            SolveRequest.from_dict(dict(doc, schema="idde-request/2"))

    @pytest.mark.parametrize(
        "section, key",
        [
            (None, "ip_time_budget_s"),
            ("game", "allow_unallocated"),
            ("game", "patience_moves"),
            (None, "validate"),
        ],
    )
    def test_dropped_keys_are_unknown(self, section, key):
        """v4 dropped the IP budget field (it travels as solver_options)
        and two game keys no solver read; v5 dropped the switch that
        turned off the constraint check of an answer."""
        value = 2.5 if key == "ip_time_budget_s" else False
        doc = (
            dict(GOLDEN_DOC, **{key: value})
            if section is None
            else dict(GOLDEN_DOC, **{section: {key: value}})
        )
        where = "request" if section is None else section
        with pytest.raises(ConfigurationError, match=rf"unknown {where} key.*{key}"):
            SolveRequest.from_dict(doc)
        # An older document fails on its tag, before any key is looked at.
        with pytest.raises(ConfigurationError, match="idde-request/5"):
            SolveRequest.from_dict(dict(doc, schema="idde-request/4"))

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("game", {"max_rounds": 1.5}, "game.max_rounds"),
            ("game", {"max_rounds": True}, "game.max_rounds"),
            ("game", {"epsilon": "a"}, "game.epsilon"),
            ("game", {"epsilon": float("nan")}, "game.epsilon"),
            ("game", {"epsilon": 10**400}, "game.epsilon"),
            ("game", {"max_moves_per_user": 2.5}, "game.max_moves_per_user"),
            ("game", {"schedule": 3}, "game.schedule"),
            ("delivery", {"ratio_rule": 0}, "delivery.ratio_rule"),
            ("delivery", {"min_gain_s": float("inf")}, "delivery.min_gain_s"),
            ("game", {"epsilon_growth": True}, "game.epsilon_growth"),
            ("game", {"epsilon_max": float("inf")}, "game.epsilon_max"),
            ("delivery", {"min_gain_s_per_mb": "0"}, "delivery.min_gain_s_per_mb"),
            ("warm_start", 0, "boolean"),
            ("active", ["a", 0, 2], "0/1 list"),
            ("active", [1, 0, 2], "0/1 list"),
            ("active", [1.0, 0], "0/1 list"),
            ("rng", -1, "non-negative"),
            ("solver_options", False, "JSON object"),
        ],
    )
    def test_mistyped_values_rejected(self, key, value, match):
        """Each value must have its field's JSON type: none of these may
        parse and fail later (or solve as something else)."""
        doc = dict(GOLDEN_DOC, **{key: value})
        with pytest.raises(ConfigurationError, match=match):
            SolveRequest.from_dict(doc)

    def test_well_typed_values_accepted(self):
        doc = dict(
            GOLDEN_DOC,
            game={"epsilon": 0, "max_rounds": 7, "max_moves_per_user": 3},
            delivery={"min_gain_s": 1},
            active=[True, 0, 1, False],
            solver_options={"time_budget_s": 3},
        )
        req = SolveRequest.from_dict(doc)
        assert req.game_config == GameConfig(epsilon=0, max_rounds=7, max_moves_per_user=3)
        assert req.delivery_config == DeliveryConfig(min_gain_s=1)
        assert list(req.active) == [True, False, True, False]
        assert req.solver_options == {"time_budget_s": 3}

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("warm_start", 1, "boolean"),
            ("rng", True, "integer seed"),
            ("rng", 3.5, "integer seed"),
            ("warm_start", "yes", "boolean"),
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


#: Arbitrary JSON values, NaN and infinities included (``json.loads``
#: accepts them).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _config_docs(cls: type):
    """A nested config object with known keys and arbitrary values."""
    return st.fixed_dictionaries(
        {}, optional={f.name: _JSON for f in fields(cls)}
    ) | _JSON


#: Request documents with the right tag, known keys and arbitrary values,
#: so the fuzz reaches every field check rather than stopping at the tag.
_DOCS = st.fixed_dictionaries(
    {"schema": st.just(REQUEST_SCHEMA)},
    optional={
        **{key: _JSON for key in _WIRE_KEYS if key != "schema"},
        "game": _config_docs(GameConfig),
        "delivery": _config_docs(DeliveryConfig),
        "active": st.lists(_JSON, max_size=5) | _JSON,
    },
)


class TestWireFuzz:
    @settings(max_examples=300, deadline=None)
    @given(doc=_DOCS | _JSON)
    def test_parser_raises_only_configuration_errors(self, doc):
        """Whatever JSON arrives, the parser either builds a request or
        raises the structured :class:`ConfigurationError` (a 400)."""
        try:
            req = SolveRequest.from_dict(doc)
        except ConfigurationError:
            return
        # What parses re-serialises to a document that parses again.
        assert SolveRequest.from_dict(req.to_dict()).to_dict() == req.to_dict()

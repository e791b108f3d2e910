"""idde-events/1 JSONL round-trip and guard tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatasetError, ReproError
from repro.workload import (
    EVENTS_SCHEMA,
    Move,
    PopularityShift,
    UserJoin,
    UserLeave,
    load_events,
    parse_event,
    poisson_zipf_stream,
    save_events,
)

HEADER = json.dumps({"schema": EVENTS_SCHEMA, "n_users": 6, "n_data": 2})


@pytest.fixture
def sample_events():
    return [
        Move(t=1.5, user=2, x=10.0, y=20.0),
        UserLeave(t=2.0, user=0),
        UserJoin(t=3.25, user=0),
        PopularityShift(t=4.0, order=(1, 0)),
    ]


class TestRoundTrip:
    def test_exact(self, tmp_path, sample_events):
        path = tmp_path / "trace.jsonl"
        n = save_events(sample_events, path, n_users=6, n_data=2)
        assert n == 4
        assert list(load_events(path)) == sample_events

    def test_generated_stream_round_trips(self, tmp_path, tiny_scenario):
        path = tmp_path / "gen.jsonl"
        evs = list(poisson_zipf_stream(tiny_scenario, rng=0, n_events=200))
        save_events(
            evs, path, n_users=tiny_scenario.n_users, n_data=tiny_scenario.n_data
        )
        assert list(load_events(path)) == evs

    def test_save_is_streaming(self, tmp_path, tiny_scenario):
        # A lazy generator is consumed without materialisation.
        path = tmp_path / "lazy.jsonl"
        stream = poisson_zipf_stream(tiny_scenario, rng=1, n_events=50)
        assert save_events(stream, path, n_users=6, n_data=2) == 50

    def test_header_first_line(self, tmp_path, sample_events):
        path = tmp_path / "trace.jsonl"
        save_events(sample_events, path, n_users=6, n_data=2)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema": EVENTS_SCHEMA, "n_users": 6, "n_data": 2}


class TestGuards:
    def test_universe_mismatch(self, tmp_path, sample_events):
        path = tmp_path / "trace.jsonl"
        save_events(sample_events, path, n_users=6, n_data=2)
        with pytest.raises(DatasetError, match="users"):
            list(load_events(path, expect_users=7))
        with pytest.raises(DatasetError, match="items"):
            list(load_events(path, expect_data=3))
        assert len(list(load_events(path, expect_users=6, expect_data=2))) == 4

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "something-else/9"}\n')
        with pytest.raises(DatasetError, match="schema"):
            list(load_events(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="header"):
            list(load_events(path))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"schema": EVENTS_SCHEMA, "n_users": 1, "n_data": 1})
            + "\n"
            + json.dumps({"kind": "teleport", "t": 1.0})
            + "\n"
        )
        with pytest.raises(DatasetError, match="teleport"):
            list(load_events(path))

    def test_malformed_event(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"schema": EVENTS_SCHEMA, "n_users": 1, "n_data": 1})
            + "\n"
            + json.dumps({"kind": "move", "t": 1.0})
            + "\n"
        )
        with pytest.raises(DatasetError, match="malformed"):
            list(load_events(path))

    @pytest.mark.parametrize(
        "first, match",
        [
            ("not json\n", "line 1: not JSON"),
            ("[1, 2]\n", "line 1: header must be a JSON object"),
            ('"idde-events/1"\n', "line 1: header must be a JSON object"),
        ],
    )
    def test_bad_header_names_path_and_line(self, tmp_path, first, match):
        path = tmp_path / "bad.jsonl"
        path.write_text(first)
        with pytest.raises(DatasetError, match=match) as info:
            list(load_events(path))
        assert str(path) in str(info.value)

    def test_bad_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(UserJoin(t=1.0, user=0).to_dict())
        path.write_text(f"{HEADER}\n{good}\n\n{{oops\n")
        events = load_events(path)
        assert next(events) == UserJoin(t=1.0, user=0)
        with pytest.raises(DatasetError, match="line 4: not JSON") as info:
            next(events)
        assert str(path) in str(info.value)

    def test_bad_event_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{HEADER}\n{{"kind": "leave", "t": 1.0, "user": 1.5}}\n')
        with pytest.raises(DatasetError, match="line 2: 'leave' event field 'user'") as info:
            list(load_events(path))
        assert str(path) in str(info.value)

    def test_too_deeply_nested_line(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text(f"{HEADER}\n{'[' * 200_000}\n")
        with pytest.raises(DatasetError, match="line 2: not JSON"):
            list(load_events(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            list(load_events(tmp_path / "absent.jsonl"))


class TestParseEvent:
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "leave", "t": 1.0, "user": 1.5},
            {"kind": "leave", "t": 1.0, "user": "x"},
            {"kind": "leave", "t": 1.0, "user": True},
            {"kind": "join", "t": 1.0, "user": None},
            {"kind": "move", "t": 1.0, "user": 1, "x": "a", "y": 0.0},
            {"kind": "move", "t": 1.0, "user": 1, "x": 0.0, "y": float("nan")},
            {"kind": "move", "t": 1.0, "user": 1, "x": float("inf"), "y": 0.0},
            {"kind": "move", "t": 1.0, "user": 1, "x": 10**400, "y": 0.0},
            {"kind": "join", "t": "now", "user": 1},
            {"kind": "join", "t": False, "user": 1},
            {"kind": "shift", "t": 1.0, "order": "ab"},
            {"kind": "shift", "t": 1.0, "order": 5},
            {"kind": "shift", "t": 1.0, "order": [0, 1.0]},
            {"kind": "shift", "t": 1.0, "order": [True, False]},
            {"kind": ["move"], "t": 1.0},
        ],
    )
    def test_wrong_field_types_are_dataset_errors(self, doc):
        with pytest.raises(DatasetError):
            parse_event(doc)

    def test_integral_numbers_are_accepted(self):
        assert parse_event({"kind": "move", "t": 2, "user": 1, "x": 3, "y": -4}) == Move(
            t=2, user=1, x=3, y=-4
        )
        assert parse_event({"kind": "shift", "t": 0.5, "order": [1, 0]}) == (
            PopularityShift(t=0.5, order=(1, 0))
        )


#: Arbitrary JSON values, NaN and infinities included (``json.loads``
#: accepts them).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

#: Event documents with a real kind and the known field names, so the fuzz
#: reaches every field check rather than stopping at the kind.
_EVENT_DOCS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["join", "leave", "move", "shift"]) | _JSON},
    optional={
        name: _JSON | st.lists(st.integers() | _JSON, max_size=3)
        for name in ("t", "user", "x", "y", "order")
    },
)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(doc=_EVENT_DOCS | _JSON)
    def test_parse_event_raises_only_repro_errors(self, doc):
        try:
            event = parse_event(doc)
        except ReproError:
            return
        # What parses re-serialises to a document that parses again.
        assert parse_event(json.loads(json.dumps(event.to_dict()))) == event

    @settings(max_examples=100, deadline=None)
    @given(
        header=st.sampled_from([HEADER]) | st.text(max_size=20),
        lines=st.lists(
            st.builds(json.dumps, _EVENT_DOCS | _JSON) | st.text(max_size=20),
            max_size=4,
        ),
    )
    def test_load_events_raises_only_repro_errors(self, tmp_path_factory, header, lines):
        path = tmp_path_factory.mktemp("fuzz") / "events.jsonl"
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        try:
            list(load_events(path, expect_users=6, expect_data=2))
        except ReproError:
            pass

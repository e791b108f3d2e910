"""Trace-driven replay: stream events to and from ``idde-events/1`` JSONL.

One JSON object per line; the first line is a header carrying the schema
tag and the user/item universe the trace was generated for, so a replay
against a mismatched instance fails loudly instead of silently corrupting
indices.  Both directions are *streaming*: :func:`save_events` consumes
any event iterable line-by-line (a lazily generated million-event stream
never materialises), and :func:`load_events` yields events straight off
the file handle.

Wire format::

    {"schema": "idde-events/1", "n_users": 200, "n_data": 5}
    {"kind": "move", "t": 1.93, "user": 17, "x": 812.4, "y": 409.1}
    {"kind": "leave", "t": 4.02, "user": 3}
    {"kind": "join", "t": 9.77, "user": 3}
    {"kind": "shift", "t": 12.5, "order": [1, 0, 2, 3, 4]}
"""

from __future__ import annotations

import json
import math
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from ..errors import DatasetError
from .events import Event, Move, PopularityShift, UserJoin, UserLeave

__all__ = ["EVENTS_SCHEMA", "parse_event", "save_events", "load_events"]

EVENTS_SCHEMA = "idde-events/1"

_KINDS: dict[str, type[Event]] = {
    "join": UserJoin,
    "leave": UserLeave,
    "move": Move,
    "shift": PopularityShift,
}


def _is_int(value: Any) -> bool:
    if type(value) is int:  # the JSON case, without the ABC check
        return True
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    if type(value) is float:  # the JSON case, without the ABC check
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_int_list(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(_is_int(i) for i in value)


#: Event field -> (type check, what the field must hold).  Missing and
#: unknown fields are left to the dataclass constructor.
_FIELDS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "t": (_is_finite, "a finite number"),
    "x": (_is_finite, "a finite number"),
    "y": (_is_finite, "a finite number"),
    "user": (_is_int, "an integer"),
    "order": (_is_int_list, "a list of integers"),
}


def save_events(
    events: Iterable[Event],
    path: str | Path,
    *,
    n_users: int,
    n_data: int,
) -> int:
    """Write a header line plus one line per event; returns the event count.

    The iterable is consumed incrementally — safe to hand a lazy generator
    of arbitrary length.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        header = {"schema": EVENTS_SCHEMA, "n_users": n_users, "n_data": n_data}
        fh.write(json.dumps(header) + "\n")
        for ev in events:
            fh.write(json.dumps(ev.to_dict()) + "\n")
            count += 1
    return count


def parse_event(doc: dict[str, Any], *, where: str = "event") -> Event:
    """One ``idde-events/1`` JSON object → its :class:`Event` dataclass.

    The single decoder both the file replay loop and the IDDE-Serve
    ``POST /v1/events`` endpoint route through; ``where`` labels the error
    (``"<path>: line 7"`` for files, ``"events[3]"`` for request bodies).
    Every field is type-checked (``user`` an integer, ``t``/``x``/``y``
    finite numbers, ``order`` a list of integers), so a malformed event is
    a :class:`~repro.errors.DatasetError`, never a bare exception.  The
    input mapping is not mutated.
    """
    if not isinstance(doc, dict):
        raise DatasetError(f"{where}: event must be a JSON object, got {type(doc).__name__}")
    doc = dict(doc)
    kind = doc.pop("kind", None)
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DatasetError(f"{where}: unknown event kind {kind!r}")
    for name, value in doc.items():
        check, want = _FIELDS.get(name, (None, ""))
        if check is not None and not check(value):
            raise DatasetError(
                f"{where}: {kind!r} event field {name!r} must be {want}, "
                f"got {value!r}"
            )
    if "order" in doc:
        doc["order"] = tuple(int(i) for i in doc["order"])
    try:
        return cls(**doc)
    except TypeError as exc:
        raise DatasetError(f"{where}: malformed {kind!r} event: {exc}") from exc


def load_events(
    path: str | Path,
    *,
    expect_users: int | None = None,
    expect_data: int | None = None,
) -> Iterator[Event]:
    """Yield events from an ``idde-events/1`` file, lazily.

    ``expect_users`` / ``expect_data`` (pass the target instance's sizes)
    guard against replaying a trace onto the wrong universe.  Anything
    malformed — an unreadable file, a line that is not JSON, a header that
    is not an object, a bad event — raises
    :class:`~repro.errors.DatasetError` naming the path and the line.
    """
    path = Path(path)
    try:
        yield from _read_events(path, expect_users, expect_data)
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"{path}: cannot read event file: {exc}") from exc


def _json_line(line: str, path: Path, lineno: int) -> Any:
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: too deeply nested
        raise DatasetError(f"{path}: line {lineno}: not JSON: {exc}") from exc


def _read_events(
    path: Path, expect_users: int | None, expect_data: int | None
) -> Iterator[Event]:
    with path.open("r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise DatasetError(f"{path}: empty event file (missing header)")
        header = _json_line(first, path, 1)
        if not isinstance(header, dict):
            raise DatasetError(
                f"{path}: line 1: header must be a JSON object, "
                f"got {type(header).__name__}"
            )
        if header.get("schema") != EVENTS_SCHEMA:
            raise DatasetError(
                f"{path}: expected schema {EVENTS_SCHEMA!r}, "
                f"got {header.get('schema')!r}"
            )
        if expect_users is not None and header.get("n_users") != expect_users:
            raise DatasetError(
                f"{path}: trace covers {header.get('n_users')} users, "
                f"instance has {expect_users}"
            )
        if expect_data is not None and header.get("n_data") != expect_data:
            raise DatasetError(
                f"{path}: trace covers {header.get('n_data')} items, "
                f"instance has {expect_data}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            yield parse_event(
                _json_line(line, path, lineno), where=f"{path}: line {lineno}"
            )

"""A minimal HTTP/1.1 layer over ``asyncio`` streams — stdlib only.

IDDE-Serve deliberately avoids a web framework: the daemon needs six
endpoints, JSON bodies, and deterministic error mapping, so this module
implements exactly that — a strict request parser with hard size limits,
a response renderer, and the :class:`~repro.errors.ReproError` → HTTP
status table every handler funnels failures through.

Scope (and non-goals) are explicit:

* One request per connection (``Connection: close``).  The daemon's
  clients are replay tools and health probes, not browsers; keep-alive
  buys nothing and connection reuse bugs cost plenty.
* No chunked transfer encoding, no multipart, no compression.  Bodies are
  ``Content-Length``-framed JSON, capped at :data:`MAX_BODY_BYTES` —
  an oversized or unframed body is a :class:`~repro.errors.ProtocolError`
  (400), never an OOM.  Framing is unambiguous or refused: a
  ``Content-Length`` must be ``1*DIGIT`` (RFC 9110 §8.6), repeated ones
  must agree, and any ``Transfer-Encoding`` is refused, with or without a
  length.
* Responses always carry ``Content-Length`` and close the socket, so a
  client can never hang on a response boundary.

Error wire format (every non-2xx body)::

    {"error": {"type": "SolverLookupError", "status": 400,
               "message": "unknown solver 'ide-g'; did you mean 'idde-g'?"}}

``type`` is the :class:`~repro.errors.ReproError` subclass name, so a
client can discriminate failures exactly like an in-process caller's
``except`` clause would.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, urlsplit

from ..errors import (
    ConfigurationError,
    DatasetError,
    ProtocolError,
    QueueFullError,
    ReproError,
    RequestTimeoutError,
    ScenarioError,
    SolverError,
    SolverLookupError,
    TopologyError,
)

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "STATUS_BY_ERROR",
    "HttpRequest",
    "HttpResponse",
    "error_response",
    "json_response",
    "read_request",
    "status_for_error",
]

#: Hard cap on a request body — a 1k-event delta batch is ~100 KiB, so
#: 8 MiB leaves two orders of magnitude of headroom without risking memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Hard cap on the request line + headers block.
MAX_HEADER_BYTES = 16 * 1024

#: The only ``Content-Length`` grammar RFC 9110 allows (no sign, no ``_``).
_DIGITS = re.compile(r"[0-9]+")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Ordered (class, status) mapping — first match wins, so subclasses must
#: precede their bases.  Client-side faults (malformed requests, unknown
#: solvers, bad event universes) are 4xx; solver-side faults are 5xx.
STATUS_BY_ERROR: tuple[tuple[type[ReproError], int], ...] = (
    (QueueFullError, 429),
    (RequestTimeoutError, 504),
    (ProtocolError, 400),
    (SolverLookupError, 400),
    (ConfigurationError, 400),
    (DatasetError, 400),
    (ScenarioError, 400),
    (TopologyError, 400),
    (SolverError, 500),
    (ReproError, 500),
)


def status_for_error(exc: Exception) -> int:
    """The HTTP status an exception maps to.

    :class:`~repro.errors.ReproError` subclasses follow the table above;
    anything else is an internal fault and maps to 500.
    """
    for cls, status in STATUS_BY_ERROR:
        if isinstance(exc, cls):
            return status
    return 500


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request: method, split path, query and decoded body."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON; empty bodies decode to ``None``.

        Raises :class:`~repro.errors.ProtocolError` (→ 400) on anything
        that is not UTF-8 JSON, too deeply nested bodies included.
        """
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class HttpResponse:
    """One response: status + JSON-ready payload (rendered lazily).

    ``headers`` carries extra response headers as (name, value) pairs —
    e.g. the mandatory ``Allow`` on a 405.
    """

    status: int
    payload: Any
    headers: tuple[tuple[str, str], ...] = ()

    def render(self) -> bytes:
        body = json.dumps(self.payload, sort_keys=True).encode("utf-8") + b"\n"
        reason = _REASONS.get(self.status, "Unknown")
        extra = "".join(f"{name}: {value}\r\n" for name, value in self.headers)
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n"
            f"\r\n"
        )
        return head.encode("ascii") + body


def json_response(payload: Any, *, status: int = 200) -> HttpResponse:
    """A 200 (or chosen status) JSON response."""
    return HttpResponse(status=status, payload=payload)


def error_response(exc: Exception) -> HttpResponse:
    """The structured error body for an exception.

    ``KeyError``-derived exceptions (:class:`SolverLookupError`) repr-quote
    their message; unwrap ``args`` so the wire message reads clean.
    Non-:class:`~repro.errors.ReproError` exceptions render as 500s with
    their class name as ``type`` — the daemon's last-resort mapping.
    """
    status = status_for_error(exc)
    message = str(exc.args[0]) if exc.args else str(exc)
    return HttpResponse(
        status=status,
        payload={
            "error": {
                "type": type(exc).__name__,
                "status": status,
                "message": message,
            }
        },
    )


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request off a stream.

    Returns ``None`` when the peer closed the connection before sending a
    request line (a clean no-op).  Every malformed or oversized input
    raises :class:`~repro.errors.ProtocolError`, which the daemon renders
    as a structured 400 — the parser never lets a bad peer take the
    process down.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(
            f"request head exceeds {MAX_HEADER_BYTES} bytes"
        ) from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(f"request head exceeds {MAX_HEADER_BYTES} bytes")

    try:
        text = head.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ProtocolError("request head is not ASCII") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ProtocolError(
                f"conflicting Content-Length headers {headers[name]!r} and {value!r}"
            )
        headers[name] = value

    try:
        split = urlsplit(target)
        query = dict(parse_qsl(split.query))
    except ValueError as exc:
        raise ProtocolError(f"malformed request target {target!r}: {exc}") from exc

    if "transfer-encoding" in headers:
        raise ProtocolError(
            "Transfer-Encoding is not supported; frame the body with "
            "Content-Length alone"
        )
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        if not _DIGITS.fullmatch(length_header):
            raise ProtocolError(f"bad Content-Length {length_header!r}")
        # Compare digit counts before int(), which refuses very long strings.
        digits = length_header.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            raise ProtocolError(f"Content-Length exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(int(digits))
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("connection closed mid-body") from exc

    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )

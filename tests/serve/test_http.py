"""The stdlib HTTP layer: strict parsing, framing, error mapping."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    QueueFullError,
    ReproError,
    RequestTimeoutError,
    ScenarioError,
    SolverError,
    SolverLookupError,
)
from repro.serve import error_response, status_for_error
from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpRequest,
    HttpResponse,
    read_request,
)


def _parse(raw: bytes) -> HttpRequest | None:
    async def run():
        reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES)
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


#: Bytes that mostly look like a request: a request line built from URL
#: fragments, header lines with the framing names, and a body.
_TARGETS = st.tuples(
    st.sampled_from([b"/", b"//", b"http://"]),
    st.lists(
        st.sampled_from([b"/", b"[", b"]", b"?", b"=", b"&", b"%", b":", b"v1"])
        | st.binary(max_size=3),
        max_size=6,
    ),
).map(lambda parts: parts[0] + b"".join(parts[1]))
_HEADERS = st.lists(
    st.sampled_from([b"Content-Length:", b"Transfer-Encoding:", b"Host:", b"X"]).flatmap(
        lambda name: st.binary(max_size=8).map(lambda value: name + value)
    ),
    max_size=4,
).map(b"\r\n".join)
_REQUESTS = st.builds(
    lambda method, target, version, headers, body: (
        method + b" " + target + b" " + version + b"\r\n" + headers + b"\r\n\r\n" + body
    ),
    st.sampled_from([b"GET", b"POST"]) | st.binary(max_size=4),
    _TARGETS,
    st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]) | st.binary(max_size=8),
    _HEADERS,
    st.binary(max_size=40),
)


class TestReadRequest:
    def test_get_with_query(self):
        req = _parse(b"GET /v1/health?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/v1/health"
        assert req.query == {"verbose": "1"}
        assert req.body == b""

    def test_post_with_content_length_body(self):
        body = json.dumps({"schema": "idde-request/5"}).encode()
        raw = (
            b"POST /v1/solve HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        req = _parse(raw)
        assert req.method == "POST"
        assert req.json() == {"schema": "idde-request/5"}

    def test_clean_eof_is_none(self):
        assert _parse(b"") is None

    def test_lowercased_headers(self):
        req = _parse(b"GET / HTTP/1.1\r\nX-Thing:  padded \r\n\r\n")
        assert req.headers["x-thing"] == "padded"

    @pytest.mark.parametrize(
        "raw",
        [
            b"NOT-HTTP\r\n\r\n",  # malformed request line
            b"GET /x SPDY/3\r\n\r\n",  # wrong protocol
            b"GET / HTTP/1.1\r\nbroken header\r\n\r\n",  # no colon
            b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",  # bad length
            b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",  # negative
            b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",  # unsupported
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",  # truncated body
            b"GET / HTTP/1.1\r\nHost",  # closed mid-head
        ],
    )
    def test_malformed_requests_raise_protocol_error(self, raw):
        with pytest.raises(ProtocolError):
            _parse(raw)

    @pytest.mark.parametrize(
        "raw, match",
        [
            # urlsplit rejects the target (an unclosed IPv6 literal).
            (b"GET http://[x/v1/health HTTP/1.1\r\n\r\n", "request target"),
            (b"GET http://[not-an-ip]/ HTTP/1.1\r\n\r\n", "request target"),
            # RFC 9110 allows only 1*DIGIT; int() would take all of these.
            (b"POST / HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}", "Content-Length"),
            (b"POST / HTTP/1.1\r\nContent-Length: 0_2\r\n\r\n{}", "Content-Length"),
            (b"POST / HTTP/1.1\r\nContent-Length: \r\n\r\n", "Content-Length"),
            (
                b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
                "exceeds",
            ),
            # Ambiguous framing: two lengths that disagree, or a transfer
            # coding beside a length.
            (
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 1\r\n\r\n{}",
                "conflicting Content-Length",
            ),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                b"Content-Length: 2\r\n\r\n{}",
                "Transfer-Encoding",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Transfer-Encoding: identity\r\n\r\n{}",
                "Transfer-Encoding",
            ),
        ],
    )
    def test_ambiguous_target_and_framing_rejected(self, raw, match):
        with pytest.raises(ProtocolError, match=match):
            _parse(raw)

    @pytest.mark.parametrize(
        "lengths",
        [
            b"Content-Length: 2\r\nContent-Length: 2\r\n",  # repeated, agreeing
            b"Content-Length: 0002\r\n",  # leading zeros are still 1*DIGIT
        ],
    )
    def test_unambiguous_framing_accepted(self, lengths):
        raw = b"POST / HTTP/1.1\r\n" + lengths + b"\r\n{}"
        assert _parse(raw).body == b"{}"

    @settings(max_examples=400, deadline=None)
    @given(raw=st.binary(max_size=300) | _REQUESTS)
    def test_fuzzed_bytes_parse_or_raise_protocol_error(self, raw):
        """Whatever bytes arrive, the parser returns a request, returns
        ``None`` on a clean close, or raises :class:`ProtocolError`."""
        try:
            request = _parse(raw)
        except ProtocolError:
            return
        assert request is None or isinstance(request, HttpRequest)

    def test_oversized_body_rejected_before_read(self):
        raw = (
            b"POST / HTTP/1.1\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
        with pytest.raises(ProtocolError, match="Content-Length"):
            _parse(raw)

    def test_oversized_head_rejected(self):
        raw = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n\r\n"
        with pytest.raises(ProtocolError, match="exceeds"):
            _parse(raw)

    def test_body_not_json(self):
        req = HttpRequest(method="POST", path="/", body=b"{nope")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            req.json()

    def test_deeply_nested_body_is_protocol_error(self):
        req = HttpRequest(method="POST", path="/v1/events", body=b"[" * 200_000)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            req.json()

    def test_empty_body_decodes_to_none(self):
        assert HttpRequest(method="POST", path="/").json() is None


class TestResponseFraming:
    def test_render_is_length_framed_and_closes(self):
        raw = HttpResponse(status=200, payload={"b": 1, "a": 2}).render()
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Connection: close" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert json.loads(body) == {"a": 2, "b": 1}
        assert body.startswith(b'{"a"')  # sorted keys: deterministic wire bytes

    def test_status_reasons(self):
        assert b"429 Too Many Requests" in HttpResponse(429, {}).render()
        assert b"504 Gateway Timeout" in HttpResponse(504, {}).render()

    def test_extra_headers_rendered(self):
        raw = HttpResponse(405, {}, headers=(("Allow", "POST"),)).render()
        head, _, _ = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 405 Method Not Allowed" in head
        assert b"Allow: POST\r\n" in head


class TestErrorMapping:
    @pytest.mark.parametrize(
        "exc, status",
        [
            (QueueFullError("full"), 429),
            (RequestTimeoutError("slow"), 504),
            (ProtocolError("bad"), 400),
            (SolverLookupError("who"), 400),
            (ConfigurationError("bad cfg"), 400),
            (ScenarioError("bad scenario"), 400),
            (SolverError("diverged"), 500),
            (ReproError("anything"), 500),
        ],
    )
    def test_status_table(self, exc, status):
        assert status_for_error(exc) == status

    def test_structured_error_body(self):
        response = error_response(SolverLookupError("unknown solver 'ide-g'"))
        assert response.status == 400
        assert response.payload == {
            "error": {
                "type": "SolverLookupError",
                "status": 400,
                "message": "unknown solver 'ide-g'",
            }
        }

    def test_keyerror_message_is_unwrapped(self):
        # SolverLookupError derives from KeyError whose str() repr-quotes;
        # the wire message must read clean.
        message = error_response(SolverLookupError("no quotes")).payload["error"][
            "message"
        ]
        assert message == "no quotes"

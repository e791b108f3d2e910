"""The IDDE-Serve daemon: a long-lived async solver service.

One :class:`ServeDaemon` wraps one :class:`~repro.serve.session.SolverSession`
behind a schema-versioned HTTP/JSON API (``idde serve`` boots it).  The
concurrency model is deliberately simple and fully deterministic:

* **One serialized solver loop.**  Mutating requests (``/v1/solve``,
  ``/v1/events``) queue on an :class:`asyncio.Lock` and execute one at a
  time in a worker thread (:func:`asyncio.to_thread`), so the solver's
  warm-start chain — each re-solve starting from the previous certified
  solution — is a strict sequence even under concurrent clients.
* **Reads never queue.**  ``/v1/health``, ``/v1/metrics``, ``/v1/solution``
  and ``/v1/trace`` run on the event loop against locked snapshots, so a
  health probe answers in microseconds while a solve is mid-flight.
* **Bounded admission.**  At most ``queue_limit`` mutating requests may be
  queued or running; request ``queue_limit + 1`` is shed with a structured
  429 (:class:`~repro.errors.QueueFullError`) instead of building an
  unbounded backlog.
* **Per-request time budget.**  A mutating request that exceeds
  ``request_timeout_s`` is answered with a structured 504
  (:class:`~repro.errors.RequestTimeoutError`).  The solver thread itself
  cannot be interrupted mid-kernel; it finishes in the background and the
  session state stays consistent — only the *response* is abandoned.
* **Graceful drain.**  ``SIGTERM``/``SIGINT`` stop the listener, let every
  admitted request finish, then exit 0.  New connections during the drain
  are refused at accept; requests already queued still get answers.

Endpoints (all JSON; see docs/SERVING.md for the wire reference):

=======  =============  ====================================================
Method   Path           Semantics
=======  =============  ====================================================
POST     /v1/solve      Adopt an ``idde-request/5`` document (empty body =
                        re-run the current base request) and solve on the
                        current workload state; returns ``idde-solution/5``.
POST     /v1/events     Fold ``idde-events/1`` delta events into the
                        workload state and warm re-solve from the resident
                        solution; returns the new certified solution.
GET      /v1/solution   The resident solution document (409 when cold).
GET      /v1/health     Liveness + session counters; never queues.
GET      /v1/metrics    Tracer counters/gauges/histograms snapshot.
GET      /v1/trace      The full ``idde-trace/1`` record stream, one JSON
                        object per line (NDJSON).
=======  =============  ====================================================
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import (
    ConfigurationError,
    ProtocolError,
    QueueFullError,
    ReproError,
    RequestTimeoutError,
)
from ..obs.document import SCHEMA as TRACE_SCHEMA
from ..obs.document import trace_records
from ..request import SolveRequest
from ..workload import parse_event
from .http import (
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
    read_request,
)
from .session import SolverSession

__all__ = ["ServeConfig", "ServeDaemon"]

#: API version prefix every endpoint lives under.
API_PREFIX = "/v1"

#: Allowed methods per endpoint path — the routing table's dual, used to
#: answer known-path/wrong-method requests with 405 + ``Allow``.
_ALLOWED_METHODS: dict[str, tuple[str, ...]] = {
    f"{API_PREFIX}/solve": ("POST",),
    f"{API_PREFIX}/events": ("POST",),
    f"{API_PREFIX}/solution": ("GET",),
    f"{API_PREFIX}/health": ("GET",),
    f"{API_PREFIX}/metrics": ("GET",),
    f"{API_PREFIX}/trace": ("GET",),
}


@dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs (the ``idde serve`` flags map onto these 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Per-request wall-clock budget for mutating requests (seconds).
    request_timeout_s: float = 300.0
    #: Max mutating requests admitted (queued + running) at once.
    queue_limit: int = 8

    def __post_init__(self) -> None:
        if self.request_timeout_s <= 0:
            raise ConfigurationError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )


class ServeDaemon:
    """The asyncio server around one :class:`SolverSession`."""

    def __init__(
        self,
        session: SolverSession,
        config: ServeConfig | None = None,
    ) -> None:
        self.session = session
        self.config = config or ServeConfig()
        self.tracer = session.tracer
        self._solver_lock = asyncio.Lock()
        self._admitted = 0
        self._draining = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._jobs: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("daemon is not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal handlers call this)."""
        self._draining.set()

    async def run(self, *, install_signal_handlers: bool = True) -> int:
        """Serve until a drain is requested, then drain and return 0.

        The ``idde serve`` command awaits this; tests drive the same path
        by calling :meth:`request_shutdown` directly (signal handlers are
        process-global, so they are optional here).
        """
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # platform without signal support; rely on explicit shutdown
        try:
            await self._draining.wait()
            # Drain: stop accepting, then let admitted work finish.
            assert self._server is not None
            self._server.close()
            await self._server.wait_closed()
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)
            if self._jobs:
                # Jobs abandoned by a timeout still run; a clean drain
                # lets them finish so session state lands consistent.
                await asyncio.gather(*self._jobs, return_exceptions=True)
            return 0
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            await self._serve_one(reader, writer)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer reset
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await read_request(reader)
        except ProtocolError as exc:
            await self._write(writer, error_response(exc).render())
            return
        if request is None:
            return
        self.tracer.count("serve.requests")
        if request.method == "GET" and request.path == f"{API_PREFIX}/trace":
            await self._stream_trace(writer)
            return
        try:
            response = await self._dispatch(request)
        except Exception as exc:
            # ReproError subclasses follow the status table; anything
            # else is an internal fault rendered as a structured 500 —
            # a handler bug must never close the connection answerless.
            self.tracer.count("serve.errors")
            response = error_response(exc)
        await self._write(writer, response.render())

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, data: bytes) -> None:
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer reset
            pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        route = (request.method, request.path)
        if route == ("POST", f"{API_PREFIX}/solve"):
            return await self._post_solve(request)
        if route == ("POST", f"{API_PREFIX}/events"):
            return await self._post_events(request)
        if route == ("GET", f"{API_PREFIX}/solution"):
            return self._get_solution()
        if route == ("GET", f"{API_PREFIX}/health"):
            return self._get_health()
        if route == ("GET", f"{API_PREFIX}/metrics"):
            return self._get_metrics()
        allowed = _ALLOWED_METHODS.get(request.path)
        if allowed is not None:
            self.tracer.count("serve.errors")
            allow = ", ".join(allowed)
            return HttpResponse(
                status=405,
                payload={
                    "error": {
                        "type": "ProtocolError",
                        "status": 405,
                        "message": (
                            f"method {request.method} not allowed on "
                            f"{request.path}; allowed: {allow}"
                        ),
                    }
                },
                headers=(("Allow", allow),),
            )
        raise ProtocolError(f"unknown endpoint {request.path!r}")

    # ------------------------------------------------------------------
    # mutating endpoints: serialized, bounded, time-budgeted
    # ------------------------------------------------------------------
    async def _run_solver(self, fn: Callable[[], dict[str, Any]]) -> dict[str, Any]:
        """Admit, serialize, and time-budget one mutating job.

        Admission control counts queued *and* running jobs against
        ``queue_limit``; past it the request is shed with 429 before it
        can touch the solver lock.  The time budget covers queue wait plus
        execution; on expiry the response is abandoned with 504 while the
        already-running solver thread completes in the background (session
        state remains consistent — only this response is lost).
        """
        if self._draining.is_set():
            raise QueueFullError("daemon is draining; no new work admitted")
        if self._admitted >= self.config.queue_limit:
            self.tracer.count("serve.shed")
            raise QueueFullError(
                f"request queue is full ({self.config.queue_limit} admitted); "
                "retry with backoff"
            )
        self._admitted += 1

        async def _job() -> dict[str, Any]:
            async with self._solver_lock:
                return await asyncio.to_thread(fn)

        job_task = asyncio.ensure_future(_job())
        self._jobs.add(job_task)
        job_task.add_done_callback(self._on_job_done)
        try:
            return await asyncio.wait_for(
                asyncio.shield(job_task), timeout=self.config.request_timeout_s
            )
        except asyncio.TimeoutError:
            self.tracer.count("serve.timeouts")
            raise RequestTimeoutError(
                f"request exceeded the {self.config.request_timeout_s:.0f}s "
                "budget; the solve continues in the background — poll "
                "GET /v1/solution"
            ) from None

    def _on_job_done(self, task: asyncio.Task) -> None:
        """Release the admission slot and reap abandoned jobs' exceptions."""
        self._admitted -= 1
        self._jobs.discard(task)
        if not task.cancelled():
            task.exception()

    async def _post_solve(self, request: HttpRequest) -> HttpResponse:
        body = request.json()
        if body is None:
            solve_request: SolveRequest | None = None
        else:
            solve_request = SolveRequest.from_dict(body)

        def job() -> dict[str, Any]:
            self.session.solve(solve_request)
            return self.session.solution_document()

        return json_response(await self._run_solver(job))

    async def _post_events(self, request: HttpRequest) -> HttpResponse:
        body = request.json()
        if isinstance(body, dict):
            docs = body.get("events")
        else:
            docs = body
        if not isinstance(docs, list) or not docs:
            raise ProtocolError(
                'body must be {"events": [...]} (or a bare non-empty list) '
                "of idde-events/1 objects"
            )
        events = [
            parse_event(doc, where=f"events[{i}]") for i, doc in enumerate(docs)
        ]

        def job() -> dict[str, Any]:
            self.session.apply_events(events)
            return self.session.solution_document()

        return json_response(await self._run_solver(job))

    # ------------------------------------------------------------------
    # read endpoints: lock-free snapshots on the event loop
    # ------------------------------------------------------------------
    def _get_health(self) -> HttpResponse:
        return json_response(
            {
                "status": "draining" if self._draining.is_set() else "ok",
                "admitted": self._admitted,
                "queue_limit": self.config.queue_limit,
                "session": self.session.stats(),
            }
        )

    def _get_metrics(self) -> HttpResponse:
        metrics = getattr(self.tracer, "metrics_snapshot", None)
        if metrics is None:
            raise ProtocolError(
                "metrics require a recording tracer; session runs the no-op tracer"
            )
        return json_response(metrics())

    def _get_solution(self) -> HttpResponse:
        try:
            return json_response(self.session.solution_document())
        except ReproError as exc:
            response = error_response(exc)
            # "Nothing solved yet" is a state conflict, not a solver fault.
            if "no resident solution" in str(exc):
                return HttpResponse(status=409, payload=response.payload)
            raise

    async def _stream_trace(self, writer: asyncio.StreamWriter) -> None:
        """Stream the ``idde-trace/1`` records as NDJSON, one per line.

        No ``Content-Length`` — the connection close delimits the stream
        (the one endpoint that does this; traces can be large and are
        snapshotted record-by-record into lines, never one giant body).
        """
        records = trace_records(
            self.tracer,
            meta={"source": "idde-serve", "schema": TRACE_SCHEMA},
        )
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode("ascii"))
            for record in records:
                writer.write(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer reset
            pass

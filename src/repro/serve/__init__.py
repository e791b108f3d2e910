"""IDDE-Serve: the long-lived async solver service (``idde serve``).

The serving layer the ROADMAP asks for: a stateful
:class:`SolverSession` — resident instance, workload state, latest
certified solution — behind a schema-versioned HTTP/JSON API
(:class:`ServeDaemon`): ``idde-request/5`` in, ``idde-solution/5`` out,
``idde-events/1`` deltas folded into warm-started re-solves, every
response carrying the ε-Nash verdict of the game that produced it.  Stdlib ``asyncio`` only — see
docs/SERVING.md for the wire reference and operational model.
"""

from .daemon import ServeConfig, ServeDaemon
from .http import (
    STATUS_BY_ERROR,
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
    status_for_error,
)
from .session import SolverSession

__all__ = [
    "STATUS_BY_ERROR",
    "HttpRequest",
    "HttpResponse",
    "ServeConfig",
    "ServeDaemon",
    "SolverSession",
    "error_response",
    "json_response",
    "status_for_error",
]

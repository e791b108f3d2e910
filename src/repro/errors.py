"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate the failure class.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ScenarioError",
    "CoverageError",
    "TopologyError",
    "AllocationError",
    "DeliveryError",
    "StorageViolation",
    "SolverError",
    "ConvergenceError",
    "ExperimentError",
    "DatasetError",
    "BenchError",
    "TraceError",
    "SolverLookupError",
    "ServeError",
    "ProtocolError",
    "QueueFullError",
    "RequestTimeoutError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """A configuration object is internally inconsistent or out of range."""


class ScenarioError(ReproError, ValueError):
    """A scenario (servers/users/data) is malformed."""


class CoverageError(ScenarioError):
    """A user is allocated to a server that does not cover it (Eq. 1)."""


class TopologyError(ReproError, ValueError):
    """The edge-server graph is malformed (bad links, speeds, or shape)."""


class AllocationError(ReproError, ValueError):
    """A user allocation profile violates the problem constraints."""


class DeliveryError(ReproError, ValueError):
    """A data delivery profile violates the problem constraints."""


class StorageViolation(DeliveryError):
    """A delivery profile exceeds a server's reserved storage (Eq. 6)."""


class SolverError(ReproError, RuntimeError):
    """A solver failed to produce a valid IDDE strategy."""


class ConvergenceError(SolverError):
    """Best-response dynamics exhausted their round budget before a Nash
    equilibrium certificate could be issued."""


class ExperimentError(ReproError, RuntimeError):
    """The experiment harness was driven with inconsistent parameters."""


class DatasetError(ReproError, ValueError):
    """A dataset file or pool is malformed or unavailable."""


class BenchError(ReproError, ValueError):
    """The IDDE-Bench harness was driven with inconsistent parameters, or
    a benchmark document failed schema validation."""


class TraceError(ReproError, ValueError):
    """An IDDE-Trace tracer was misused (mis-nested spans, backwards
    clock) or a trace document failed schema validation."""


class SolverLookupError(ReproError, KeyError):
    """An unknown solver name was requested from the solver registry.

    Subclasses :class:`KeyError` so pre-façade callers that caught the old
    lookup failure keep working unchanged."""


class ServeError(ReproError, RuntimeError):
    """The IDDE-Serve daemon could not service a request.

    Subclasses carry the overload/timeout flavours; the daemon maps each
    :class:`ReproError` class to an HTTP status and a structured error
    body (see :data:`repro.serve.http.STATUS_BY_ERROR`)."""


class ProtocolError(ServeError):
    """A request violated the HTTP/JSON wire protocol (unparseable request
    line, oversized or non-JSON body, bad method) — mapped to 400."""


class QueueFullError(ServeError):
    """The daemon's bounded request queue is at capacity; the request was
    shed rather than enqueued — mapped to 429 (back off and retry)."""


class RequestTimeoutError(ServeError):
    """A request exceeded the daemon's per-request time budget and was
    abandoned — mapped to 504."""

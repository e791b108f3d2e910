"""Lint fixture: the radio layer reaching for the tracer (IDDE009).  Never imported."""

from repro.obs import RecordingTracer  # expect IDDE009

from ..obs.tracer import NULL_TRACER  # expect IDDE009

__all__ = ["RecordingTracer", "NULL_TRACER"]

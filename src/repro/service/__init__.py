"""Robustness-as-a-service: the HTTP query layer over the campaign stack.

``repro serve`` (CLI) → :func:`~repro.service.server.serve` runs a
long-lived, stdlib-only query service that answers case queries from the
artifact cache in O(1) by content-addressed path, dispatches misses onto
the campaign work-queue fleet, and degrades gracefully (structured 4xx /
5xx, never a hang or a torn response) under overload and injected
faults.  See ``docs/architecture.md`` for the request lifecycle, the
degradation ladder, and the cache invariants.
"""

from repro.service.admission import AdmissionConfig, AdmissionGate, ShedError
from repro.service.server import (
    RobustnessService,
    ServiceConfig,
    ServiceStats,
    SweepStream,
    make_server,
    serve,
)
from repro.service.spec import CaseSpecError, case_from_query
from repro.service.sweep import SweepRequest, sweep_from_query

__all__ = [
    "AdmissionConfig",
    "AdmissionGate",
    "CaseSpecError",
    "RobustnessService",
    "ServiceConfig",
    "ServiceStats",
    "ShedError",
    "SweepRequest",
    "SweepStream",
    "case_from_query",
    "make_server",
    "serve",
    "sweep_from_query",
]

"""Tuning-as-a-service: a long-lived layout-recommendation daemon.

The recipe's artifacts — swept configuration spaces and tuned schedules —
are reusable across processes (the L2 sweep store) but until now every
consumer was a batch process.  This package turns the engine into a
*service*:

* :mod:`repro.service.protocol` — the canonical JSON wire schema.  A
  request carries exactly the inputs of :func:`repro.engine.sweep_digest`
  (op signature, dim sizes, GPUSpec, sampling knobs), so the wire key and
  the store key are the same object: a request digested on the wire hits
  the same L2 entry a batch run would have written.
* :mod:`repro.service.coalesce` — single-flight request coalescing and the
  bounded in-memory payload cache (the service's L1).  N concurrent
  requests for one digest trigger exactly one evaluation.
* :mod:`repro.service.metrics` — per-tier hit counters and p50/p95/p99
  request latencies, served at ``GET /metrics``.
* :mod:`repro.service.server` — the ``ThreadingHTTPServer`` daemon, one
  handler dispatching through the service's route table
  (``TuningService.routes()``, which the fleet coordinator extends):
  ``POST /v1/sweep`` (best configurations + predicted times for one
  operator), ``POST /v1/optimize`` (whole-graph tuned schedule through
  the parallel scheduler), ``POST /v1/register`` / ``GET
  /v1/schedule/<digest>`` (the validate-then-store schedule registry,
  with a background revalidation loop surfaced in ``/metrics``),
  ``GET /healthz``, ``GET /metrics``.
* :mod:`repro.service.client` — a stdlib ``http.client`` client (one
  round trip per request), used by the ``repro query`` CLI and the fleet,
  with bounded exponential-backoff retry for transient transport failures
  on idempotent requests.
* :mod:`repro.service.fleet` — the fault-tolerant sharded fleet: a
  coordinator that consistent-hashes sweep digests across registered
  worker daemons (``POST /v1/optimize_batch``) with per-request
  deadlines, retry-with-exclusion and quarantine, degrading to the
  local engine when the fleet drains; plus the ``REPRO_FAULT_SPEC``
  fault-injection harness the chaos suite drives.

Responses are canonical JSON (sorted keys, fixed separators) built from
engine payloads, so every client of a warm digest receives byte-identical
bytes — and, because the engine is bit-identical to
:func:`repro.autotuner.tuner.sweep_op_reference`, those bytes equal a
response derived from a fresh scalar reference sweep.
"""

from .client import ServiceError, TuningClient
from .coalesce import BoundedCache, SingleFlight
from .metrics import ServiceMetrics
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_json_bytes,
    op_from_wire,
    op_to_wire,
    sweep_request_digest,
    sweep_response_from_sweep,
)
from .server import NotFoundError, RegistrationRejected, TuningService, make_server

__all__ = [
    "BoundedCache",
    "NotFoundError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RegistrationRejected",
    "ServiceError",
    "ServiceMetrics",
    "SingleFlight",
    "TuningClient",
    "TuningService",
    "canonical_json_bytes",
    "make_server",
    "op_from_wire",
    "op_to_wire",
    "sweep_request_digest",
    "sweep_response_from_sweep",
]

"""The fault-tolerant tuning fleet: coordinator/worker sharding, stdlib-only.

Layout:

* :mod:`.hashring` — consistent hashing of sweep digests (which are also
  the wire keys and the L2 store keys) onto workers, with deterministic
  rebalancing;
* :mod:`.registry` — coordinator-side worker leases: registration,
  heartbeats (live vs. ready), quarantine, per-worker counters;
* :mod:`.faults` — the env-gated fault-injection harness
  (``REPRO_FAULT_SPEC``: kill / hang / corrupt) the chaos suite drives;
* :mod:`.coordinator` — :class:`FleetService` and ``/v1/optimize_batch``
  (retry-with-exclusion, local-engine degradation);
* :mod:`.worker` — the worker-side registration/heartbeat agent.

``coordinator``/``worker`` are exported lazily: they import the service's
server/client modules, which themselves import :mod:`.faults` — eager
imports here would be circular.
"""

from .faults import (
    ENV_VAR,
    FAULT_KINDS,
    KILL_EXIT_CODE,
    FaultClause,
    FaultInjector,
    FaultSpecError,
    parse_fault_spec,
)
from .hashring import REPLICAS, HashRing
from .registry import DEFAULT_TTL_S, WORKER_EVENTS, WorkerInfo, WorkerRegistry

__all__ = [
    "DEFAULT_TTL_S",
    "ENV_VAR",
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "REPLICAS",
    "FaultClause",
    "FaultInjector",
    "FaultSpecError",
    "FleetService",
    "HashRing",
    "WORKER_EVENTS",
    "WorkerAgent",
    "WorkerInfo",
    "WorkerRegistry",
    "parse_fault_spec",
]

_LAZY = {
    "FleetService": ("repro.service.fleet.coordinator", "FleetService"),
    "WorkerAgent": ("repro.service.fleet.worker", "WorkerAgent"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)

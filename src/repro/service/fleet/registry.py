"""Coordinator-side worker registry: leases, readiness, quarantine.

Workers announce themselves (``POST /v1/fleet/register``) and then keep a
TTL lease alive with heartbeats (``POST /v1/fleet/heartbeat``).  The
registry distinguishes the two states the fleet's routing needs:

* **live** — the lease is unexpired: the process answered recently.  A
  worker that crashes simply stops heartbeating and ages out of the live
  set within one TTL; nothing has to detect the death synchronously.
* **ready** — the worker itself reports its ``/readyz`` state in each
  heartbeat (engine warm-up done, store reachable, not draining).  A live
  but unready worker is *up* but not *usable*, and receives no traffic.

Quarantine is the coordinator's own verdict, orthogonal to both: a worker
that timed out, errored, or returned a corrupt payload is benched (30 s,
the coordinator's ``QUARANTINE_S``) regardless of what its heartbeats claim.  Its ring keys
re-route to the next worker clockwise (see
:mod:`repro.service.fleet.hashring`); when the quarantine lapses — or the
worker re-registers, which clears it — the keys come home.

Every transition and per-worker counter is surfaced through
:meth:`WorkerRegistry.snapshot` into the coordinator's ``/metrics``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_TTL_S",
    "WORKER_EVENTS",
    "WorkerInfo",
    "WorkerRegistry",
]

#: Default heartbeat lease: a silent worker is dropped from the live set
#: after this long.  Workers heartbeat at ttl/3, so one lost heartbeat
#: does not flap the lease.
DEFAULT_TTL_S = 15.0

#: Per-worker dispatch-outcome counters kept by the coordinator.
WORKER_EVENTS = ("dispatched", "ok", "timeout", "error", "corrupt", "quarantines")

#: Leases this many TTLs cold are pruned from the registry entirely (the
#: worker is assumed permanently gone; re-registration resurrects it).
_PRUNE_AFTER_TTLS = 20.0


@dataclass
class WorkerInfo:
    """One registered worker daemon and its lifecycle state."""

    worker_id: str
    url: str
    registered_at: float
    last_heartbeat: float
    ready: bool = False
    #: The cost-model version the worker reports serving (register +
    #: every heartbeat) — a staged calibration promotion rolls through a
    #: fleet worker-by-worker, and the coordinator surfaces the skew.
    cost_model_version: int | str | None = None
    quarantined_until: float = 0.0
    quarantine_reason: str = ""
    counters: dict[str, int] = field(
        default_factory=lambda: {event: 0 for event in WORKER_EVENTS}
    )

    def live(self, now: float, ttl_s: float) -> bool:
        return (now - self.last_heartbeat) <= ttl_s

    def quarantined(self, now: float) -> bool:
        return now < self.quarantined_until


class WorkerRegistry:
    """Thread-safe registry of the fleet's workers (coordinator state).

    ``generation`` increments whenever ring-relevant membership changes
    (register, deregister, prune) — the coordinator rebuilds its hash
    ring only then.  Quarantine and readiness do *not* bump it: they are
    walk-time exclusions, so every other key keeps its home worker.
    """

    def __init__(self, *, ttl_s: float = DEFAULT_TTL_S) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.ttl_s = ttl_s
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerInfo] = {}
        self.generation = 0

    # -- lifecycle --------------------------------------------------------------
    def register(
        self,
        worker_id: str,
        url: str,
        *,
        ready: bool = False,
        cost_model_version: int | str | None = None,
    ) -> WorkerInfo:
        """Admit (or refresh) one worker; clears any standing quarantine.

        Re-registration is how a recovered worker rejoins after a crash:
        it gets a fresh lease and a clean slate, and — because ring
        membership is keyed by ``worker_id`` — exactly its old keys back.
        """
        if not worker_id:
            raise ValueError("worker_id must be a non-empty string")
        now = time.time()
        with self._lock:
            self._prune_locked(now)
            info = self._workers.get(worker_id)
            if info is None:
                info = WorkerInfo(
                    worker_id=worker_id,
                    url=url,
                    registered_at=now,
                    last_heartbeat=now,
                    ready=ready,
                    cost_model_version=cost_model_version,
                )
                self._workers[worker_id] = info
                self.generation += 1
            else:
                info.url = url
                info.registered_at = now
                info.last_heartbeat = now
                info.ready = ready
                info.cost_model_version = cost_model_version
                info.quarantined_until = 0.0
                info.quarantine_reason = ""
            return info

    def heartbeat(
        self,
        worker_id: str,
        *,
        ready: bool,
        cost_model_version: int | str | None = None,
    ) -> WorkerInfo | None:
        """Renew one lease; None for an unknown worker (re-register)."""
        now = time.time()
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None:
                return None
            info.last_heartbeat = now
            info.ready = ready
            if cost_model_version is not None:
                info.cost_model_version = cost_model_version
            return info

    def deregister(self, worker_id: str) -> bool:
        with self._lock:
            if self._workers.pop(worker_id, None) is None:
                return False
            self.generation += 1
            return True

    def _prune_locked(self, now: float) -> None:
        cutoff = now - _PRUNE_AFTER_TTLS * self.ttl_s
        dead = [
            wid
            for wid, info in self._workers.items()
            if info.last_heartbeat < cutoff
        ]
        for wid in dead:
            del self._workers[wid]
        if dead:
            self.generation += 1

    # -- routing views ------------------------------------------------------------
    def membership(self) -> tuple[int, tuple[str, ...]]:
        """(generation, every registered worker id) — the ring's input."""
        with self._lock:
            return self.generation, tuple(sorted(self._workers))

    def eligible(self, now: float | None = None) -> dict[str, WorkerInfo]:
        """Workers that may receive traffic: live + ready + unquarantined."""
        now = time.time() if now is None else now
        with self._lock:
            return {
                wid: info
                for wid, info in self._workers.items()
                if info.live(now, self.ttl_s)
                and info.ready
                and not info.quarantined(now)
            }

    def get(self, worker_id: str) -> WorkerInfo | None:
        with self._lock:
            return self._workers.get(worker_id)

    # -- verdicts and counters ------------------------------------------------------
    def record(self, worker_id: str, event: str) -> None:
        if event not in WORKER_EVENTS:
            raise ValueError(
                f"unknown worker event {event!r}; known: {WORKER_EVENTS}"
            )
        with self._lock:
            info = self._workers.get(worker_id)
            if info is not None:
                info.counters[event] += 1

    def quarantine(
        self, worker_id: str, duration_s: float, reason: str
    ) -> None:
        """Bench one worker for ``duration_s``; its keys re-route meanwhile."""
        now = time.time()
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None:
                return
            already = info.quarantined(now)
            info.quarantined_until = max(
                info.quarantined_until, now + duration_s
            )
            info.quarantine_reason = reason
            if not already:
                info.counters["quarantines"] += 1

    # -- observability ------------------------------------------------------------
    def counts(self, now: float | None = None) -> dict[str, int]:
        now = time.time() if now is None else now
        with self._lock:
            live = sum(
                1 for i in self._workers.values() if i.live(now, self.ttl_s)
            )
            ready = sum(
                1
                for i in self._workers.values()
                if i.live(now, self.ttl_s)
                and i.ready
                and not i.quarantined(now)
            )
            quarantined = sum(
                1 for i in self._workers.values() if i.quarantined(now)
            )
            return {
                "registered": len(self._workers),
                "live": live,
                "ready": ready,
                "quarantined": quarantined,
            }

    def snapshot(self, now: float | None = None) -> dict:
        """The ``/metrics`` view: per-worker state + counters."""
        now = time.time() if now is None else now
        with self._lock:
            return {
                wid: {
                    "url": info.url,
                    "live": info.live(now, self.ttl_s),
                    "ready": info.ready,
                    "cost_model_version": info.cost_model_version,
                    "quarantined": info.quarantined(now),
                    "quarantine_reason": info.quarantine_reason,
                    "quarantined_for_s": max(
                        0.0, info.quarantined_until - now
                    ),
                    "heartbeat_age_s": now - info.last_heartbeat,
                    "counters": dict(info.counters),
                }
                for wid, info in sorted(self._workers.items())
            }

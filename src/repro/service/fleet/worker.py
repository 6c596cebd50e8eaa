"""Worker-side fleet membership: register once, then heartbeat forever.

A fleet worker is an ordinary tuning daemon plus this agent — a daemon
thread that announces the worker's URL to the coordinator and keeps its
TTL lease alive, reporting the worker's own readiness (``/readyz``) with
each beat so the coordinator can tell "up" from "usable".

The agent is deliberately dumb and self-healing:

* heartbeats run at a third of the coordinator-granted TTL, so one lost
  beat cannot flap the lease;
* a 404 on heartbeat means the coordinator forgot us (it restarted, or
  pruned a long-silent lease) — the agent simply re-registers;
* an unreachable coordinator is retried on the same cadence forever; the
  worker keeps serving its own endpoints regardless.
"""

from __future__ import annotations

import threading
import uuid

__all__ = ["WorkerAgent"]


class WorkerAgent:
    """Keeps one worker registered with one coordinator."""

    def __init__(
        self,
        coordinator_url: str,
        worker_url: str,
        service,
        *,
        worker_id: str | None = None,
    ) -> None:
        self.coordinator_url = coordinator_url.rstrip("/")
        self.worker_url = worker_url.rstrip("/")
        self.worker_id = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        self.service = service
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _client(self):
        from repro.service.client import TuningClient

        # Short timeout and no client-level retries: the agent *is* the
        # retry loop, on the heartbeat cadence.
        return TuningClient(self.coordinator_url, timeout=5.0, retries=0)

    def _ready(self) -> bool:
        try:
            ok, _ = self.service.ready()
            return ok
        except Exception:  # noqa: BLE001 - report unready, never crash the loop
            return False

    def _register(self, client) -> float:
        """One registration round trip; returns the heartbeat interval."""
        reply = client.fleet_register(
            worker_id=self.worker_id, url=self.worker_url, ready=self._ready()
        )
        return float(reply.get("ttl_s", 15.0)) / 3.0

    def _loop(self) -> None:
        from repro.service.client import ServiceError

        client = self._client()
        interval = 1.0
        registered = False
        while not self._stop.is_set():
            try:
                if not registered:
                    interval = self._register(client)
                    registered = True
                else:
                    client.fleet_heartbeat(
                        worker_id=self.worker_id, ready=self._ready()
                    )
            except ServiceError as exc:
                if exc.status == 404:
                    # The coordinator no longer knows us: re-register on
                    # the next beat (fresh lease, quarantine cleared).
                    registered = False
                # Unreachable/5xx: keep beating; the coordinator's TTL
                # will bench us until it hears from us again.
            except Exception:  # noqa: BLE001 - the loop must survive
                pass
            self._stop.wait(interval)

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=f"fleet-agent-{self.worker_id}"
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop beating and deregister, so our keys re-route now instead of
        after a TTL expiry."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        try:
            self._client().fleet_deregister(worker_id=self.worker_id)
        except Exception:  # noqa: BLE001 - best-effort goodbye
            pass

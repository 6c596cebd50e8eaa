"""The fleet coordinator: shard sweeps across workers, survive their faults.

:class:`FleetService` extends the single-node :class:`TuningService` with
``POST /v1/optimize_batch``: ``/v1/optimize`` with one difference — the
request graph is swept by an ordinary :func:`sweep_graph` call whose
evaluator is remote.  The digests the coordinator's L1 and store miss (one
job per *distinct* store digest) are each routed by consistent-hashing the
digest — which is also the wire key and the L2 store key — onto the
registered workers.  Identical jobs land on the same worker's warm caches
no matter which request carried them.

Failure semantics (the point of this module):

* every remote fetch has a hard deadline (``REPRO_FLEET_DEADLINE_S``);
* a worker that times out, errors, resets the connection, or returns a
  payload failing digest verification is **quarantined** for
  :data:`QUARANTINE_S` and the job retried on the next worker in the
  ring's failover order, at most :data:`ATTEMPTS` workers per job —
  exponential backoff with jitter between attempts
  (``REPRO_FLEET_BACKOFF_S``, capped at :data:`BACKOFF_CAP_S`);
* when no eligible worker remains (all quarantined, dead, or unready) the
  job falls back to the coordinator's **local engine** — graceful
  degradation: a computable request is never answered with a 5xx.

Byte-identity: worker responses are the packed store payloads, validated
against the job digest on arrival; the response body comes from the same
tuning routine ``/v1/optimize`` uses (same request digest, same
selection, same canonical serialization).  The chaos suite pins that a
batch answered through any mix of remote, retried, and locally-recovered
jobs is byte-for-byte the single-node response.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from functools import partial

from repro import obs
from repro.engine.store import compute_payload
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    relabel_exposition,
    wants_prometheus,
)
from repro.wire import env_number

from ..protocol import (
    REQUEST,
    ProtocolError,
    parse_fleet_heartbeat,
    parse_fleet_register,
    payload_from_packed,
)
from ..server import NotFoundError, TuningService, WireReply
from .hashring import HashRing
from .registry import DEFAULT_TTL_S, WorkerRegistry

__all__ = ["FleetService"]

#: Workers tried per job before the local-engine fallback.
ATTEMPTS = 4
#: Ceiling, in seconds, of the jittered backoff between attempts.
BACKOFF_CAP_S = 1.0
#: Seconds a worker stays benched after a failed fetch.
QUARANTINE_S = 30.0
#: Concurrent remote fetches per batch request (not per daemon).
FAN_OUT = 8


class FleetService(TuningService):
    """A tuning daemon that also coordinates a worker fleet.

    Every single-node endpoint keeps working (the coordinator *is* a full
    daemon — that is what the local-engine fallback runs on); the fleet
    endpoints are layered on top.  Its three settings are ``REPRO_FLEET_*``
    variables, read here once.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.deadline_s = env_number("REPRO_FLEET_DEADLINE_S", 30.0)
        self.backoff_s = env_number("REPRO_FLEET_BACKOFF_S", 0.05)
        self.workers = WorkerRegistry(
            ttl_s=env_number("REPRO_FLEET_TTL_S", DEFAULT_TTL_S)
        )
        self.service_name = "coordinator"
        self._ring_lock = threading.Lock()
        self._ring: HashRing | None = None
        self._ring_generation = -1

    # -- routing ----------------------------------------------------------------
    def _current_ring(self) -> HashRing:
        """The ring over *registered* workers, rebuilt per membership change.

        Quarantine/readiness never rebuild: they are walk-time exclusions,
        so a benched worker's keys spill to its ring successors and come
        home the moment it is eligible again — no other key moves.
        """
        generation, ids = self.workers.membership()
        with self._ring_lock:
            if self._ring is None or self._ring_generation != generation:
                self._ring = HashRing(ids)
                self._ring_generation = generation
            return self._ring

    def _pick_worker(
        self, digest: str, excluded: set[str]
    ) -> tuple[str, str] | None:
        """The first eligible ``(worker_id, url)`` for a digest, or None."""
        ring = self._current_ring()
        eligible = self.workers.eligible()
        ineligible = {n for n in ring.nodes() if n not in eligible} | excluded
        worker_id = ring.node_for(digest, exclude=ineligible)
        if worker_id is None:
            return None
        return worker_id, eligible[worker_id].url

    # -- one sharded sweep job ---------------------------------------------------
    def _fleet_payload(self, digest: str, op, req, cost) -> dict:
        """One job's payload: remote with retry-with-exclusion, else local.

        A worker's bytes must carry ``digest`` and the version of the
        request's ``cost`` snapshot; the local fallback prices under it.

        ``excluded`` is per-job: a worker benched for this digest still
        serves other digests until its quarantine actually lands (which it
        does, immediately after, via the registry) — but within this job
        it is never asked twice.
        """
        from ..client import TuningClient, backoff_sleep

        excluded: set[str] = set()
        for attempt in range(1, ATTEMPTS + 1):
            picked = self._pick_worker(digest, excluded)
            if picked is None:
                break  # fleet drained for this key: degrade locally
            worker_id, url = picked
            self.workers.record(worker_id, "dispatched")
            try:
                # retries=0: the coordinator *is* the retry loop, and its
                # retries must move to the next worker, not hammer a dead one.
                client = TuningClient(url, timeout=self.deadline_s, retries=0)
                _, _, data = client.sweep_packed_raw(
                    op, req.env, req.gpu, cap=req.cap, seed=req.seed
                )
                payload = payload_from_packed(
                    data, digest=digest, version=cost.version
                )
            except TimeoutError:
                reason = "timeout"  # the deadline passed: connect or read
            except ProtocolError:
                # Transport said 200 but the bytes fail digest/structure
                # verification: the worker is lying or sick — bench it.
                reason = "corrupt"
            except Exception:  # noqa: BLE001 - an error reply, a reset, ...
                reason = "error"
            else:
                self.workers.record(worker_id, "ok")
                self.metrics.record_fleet("job_remote")
                obs.set_attr("fleet.worker", worker_id)
                obs.set_attr("fleet.attempts", attempt)
                return payload
            self.workers.record(worker_id, reason)
            self.workers.quarantine(worker_id, QUARANTINE_S, reason)
            self.metrics.record_fleet("quarantine")
            obs.add_event("quarantine", worker=worker_id, reason=reason)
            excluded.add(worker_id)
            if attempt < ATTEMPTS:
                self.metrics.record_fleet("retry")
                obs.add_event(
                    "retry", worker=worker_id, reason=reason, attempt=attempt
                )
                backoff_sleep(attempt, self.backoff_s, BACKOFF_CAP_S)
        # Graceful degradation: the coordinator's own engine computes the
        # identical payload (same digest, same deterministic evaluation).
        self.metrics.record_fleet("job_local_fallback")
        obs.add_event("local_fallback", excluded=",".join(sorted(excluded)))
        return compute_payload(op, req.env, cost, cap=req.cap, seed=req.seed)

    def _fleet_sweeps(self, req, cost, misses: dict):
        """The fleet's evaluator for one batch's :func:`sweep_graph` call.

        The batch resolves through the coordinator's L1 and store like any
        ``/v1/optimize``; each digest neither holds is fetched from its worker
        (:meth:`_fleet_payload`): L1 → L2 → remote worker → local cold
        fallback, so a warm store never touches the network.  Jobs run on
        :data:`FAN_OUT` threads and are yielded as they complete, so each
        payload is saved while the rest are in flight.

        The coordinator never delta-re-sweeps locally.  A delta needs only
        a structural twin in the coordinator's store, and after one batch
        at a base shape the store holds a twin of every job of every
        other shape: a local delta would then serve every job and the
        fleet would stop sharding.
        """
        # Contextvars don't cross executor threads: capture the ambient
        # span here and re-parent each job span onto it explicitly.
        parent = obs.current_span()

        def job(digest: str, op) -> tuple[str, tuple[dict, str]]:
            with obs.span("fleet.job", parent=parent, op=op.name, digest=digest):
                payload = self._fleet_payload(digest, op, req, cost)
            return digest, (payload, "computed")

        with ThreadPoolExecutor(max_workers=min(FAN_OUT, len(misses))) as pool:
            jobs = [pool.submit(job, *item) for item in misses.items()]
            for done in as_completed(jobs):
                yield done.result()

    # -- endpoints ----------------------------------------------------------------
    def _optimize_batch(self, d) -> bytes:
        """``/v1/optimize`` semantics, sharded: byte-identical replies.

        The same decision (parse, model snapshot, request digest), guard
        and reply assembly as ``/v1/optimize`` — only the sweep evaluation
        is distributed (and survives worker faults).
        """
        self.metrics.record_fleet("batch")
        return self._optimize(
            d, "optimize_batch", partial(self._fleet_sweeps, d.req, d.cost)
        )

    def handle_fleet_register(self, body: dict) -> dict:
        worker_id, url, ready, version = parse_fleet_register(body)
        self.workers.register(
            worker_id, url, ready=ready, cost_model_version=version
        )
        self._current_ring()  # fold the membership change in eagerly
        return {
            "worker_id": worker_id,
            "registered": True,
            "ttl_s": self.workers.ttl_s,
            "heartbeat_s": self.workers.ttl_s / 3.0,
            "workers": self.workers.counts(),
        }

    def handle_fleet_heartbeat(self, body: dict) -> dict:
        worker_id, ready, version = parse_fleet_heartbeat(body)
        info = self.workers.heartbeat(
            worker_id, ready=ready, cost_model_version=version
        )
        if info is None:
            # 404 tells the agent to re-register (coordinator restarted, or
            # the lease was pruned after a long silence).
            raise NotFoundError(f"unknown worker {worker_id!r}; re-register")
        return {
            "worker_id": worker_id,
            "ttl_s": self.workers.ttl_s,
            "ready": info.ready,
            "quarantined": info.quarantined(time.time()),
        }

    def handle_fleet_deregister(self, body: dict) -> dict:
        worker_id = REQUEST.string(REQUEST.object(body), "worker_id")
        return {
            "worker_id": worker_id,
            "deregistered": self.workers.deregister(worker_id),
        }

    def fleet_status(self) -> dict:
        """The ``/v1/fleet/status`` body (and ``repro fleet status``)."""
        from repro.hardware.params import active_cost_model_version

        snapshot = self.workers.snapshot()
        # Version skew: a staged calibration promotion rolls through a
        # fleet one member at a time, and the window where members serve
        # different cost models must be *visible*, not silent (payload
        # verification already keeps a skewed worker's bytes out).
        served = active_cost_model_version()
        versions = sorted(
            {
                str(info["cost_model_version"])
                for info in snapshot.values()
                if info["live"] and info["cost_model_version"] is not None
            }
            | {str(served)}
        )
        return {
            "role": "coordinator",
            "config": {
                "ttl_s": self.workers.ttl_s,
                "deadline_s": self.deadline_s,
                "attempts": ATTEMPTS,
                "backoff_s": self.backoff_s,
                "backoff_cap_s": BACKOFF_CAP_S,
                "quarantine_s": QUARANTINE_S,
                "fan_out": FAN_OUT,
            },
            "counts": self.workers.counts(),
            "cost_model_version": served,
            "cost_model_versions": versions,
            "version_skew": len(versions) > 1,
            "workers": snapshot,
        }

    def metrics_body(self) -> dict:
        body = super().metrics_body()
        body["fleet"]["counts"] = self.workers.counts()
        body["fleet"]["workers"] = self.workers.snapshot()
        return body

    # -- fleet-wide observability -------------------------------------------------
    def _worker_client(self, url: str):
        from ..client import TuningClient

        # Short deadline + no retries: one slow worker must not stall a
        # whole fleet scrape, and scrapes are repeated anyway.
        return TuningClient(url, timeout=min(self.deadline_s, 10.0), retries=0)

    def handle_fleet_metrics(self, accept: str | None = None):
        """``GET /v1/fleet_metrics``: every member's metrics in one body.

        JSON: the coordinator's full snapshot plus each worker's, keyed by
        worker id (``None`` for an unreachable member).  Prometheus text:
        the coordinator's own exposition (with HELP/TYPE metadata)
        followed by each worker's samples re-labeled ``worker="<id>"`` —
        comment lines are stripped so metadata appears exactly once.
        """
        members = sorted(self.workers.snapshot().items())
        if wants_prometheus(accept):
            own = self.metrics.prometheus()
            parts = [relabel_exposition(own, worker="coordinator")]
            # HELP/TYPE once, from the coordinator's registry (all members
            # run the same metric schema).
            meta = [
                line for line in own.splitlines() if line.startswith("#")
            ]
            for worker_id, info in members:
                try:
                    text = self._worker_client(info["url"]).metrics_prometheus()
                except Exception:  # noqa: BLE001 - scrape what answers
                    continue
                parts.append(relabel_exposition(text, worker=worker_id))
            body = "\n".join(meta) + "\n" + "".join(parts)
            return WireReply(
                status=200,
                headers={"Content-Type": PROMETHEUS_CONTENT_TYPE},
                body=body.encode("utf-8"),
            )
        workers: dict = {}
        for worker_id, info in members:
            try:
                workers[worker_id] = self._worker_client(info["url"]).metrics()
            except Exception:  # noqa: BLE001 - scrape what answers
                workers[worker_id] = None
        return {"coordinator": self.metrics_body(), "workers": workers}

    def member_spans(self, trace_id: str) -> list[dict]:
        """Every reachable worker's retained spans of one trace.

        This is what makes a traced ``/v1/optimize_batch`` export as one
        connected tree — the worker-side server/sweep spans live in the
        workers' ring buffers, not here.
        """
        spans: list[dict] = []
        for _, info in sorted(self.workers.snapshot().items()):
            try:
                spans += self._worker_client(info["url"]).trace(trace_id)["spans"]
            except Exception:  # noqa: BLE001 - a 404/dead worker has no spans
                continue
        return spans

    def routes(self) -> dict:
        """The single-node routes plus the coordinator's fleet endpoints."""
        return {
            **super().routes(),
            ("GET", "/v1/fleet/status"): lambda r: self.fleet_status(),
            ("GET", "/v1/fleet_metrics"): lambda r: self.handle_fleet_metrics(
                r.headers.get("Accept")
            ),
            ("POST", "/v1/optimize_batch"): lambda r: self._optimize_batch(
                self._decided(
                    "/v1/optimize_batch", r.raw_body(), self._optimize_decision
                )
            ),
            ("POST", "/v1/fleet/register"): lambda r: self.handle_fleet_register(
                r.body()
            ),
            ("POST", "/v1/fleet/heartbeat"): lambda r: self.handle_fleet_heartbeat(
                r.body()
            ),
            ("POST", "/v1/fleet/deregister"): lambda r: self.handle_fleet_deregister(
                r.body()
            ),
        }

"""A stdlib client for the tuning daemon (``http.client``, no dependencies).

Used by the ``repro query`` CLI, the fleet coordinator and worker agent,
the load-test harness and the quickstart example.
:meth:`TuningClient.sweep_raw` returns the exact response bytes, which is
what the byte-identity acceptance test compares; the convenience methods
parse JSON for human consumers, reading each reply through
``At(ServiceError, ...)``: a body that is not a JSON object raises
:class:`ServiceError`.
"""

from __future__ import annotations

import json
import random
import time
from functools import partial
from http.client import HTTPConnection, HTTPException, HTTPMessage, HTTPSConnection

from repro.hardware.spec import V100, GPUSpec
from repro.ir.dims import DimEnv
from repro.ir.operator import OpSpec
from repro.obs.trace import TRACEPARENT_HEADER, current_traceparent
from repro.wire import At

from .protocol import (
    BINARY_CONTENT_TYPE,
    canonical_json_bytes,
    fleet_heartbeat_wire,
    fleet_register_wire,
    optimize_request_wire,
    payload_from_packed,
    sweep_request_wire,
)

__all__ = ["ServiceError", "TuningClient", "backoff_sleep"]

#: Ceiling of the client's transport-retry backoff, in seconds.
BACKOFF_CAP_S = 2.0

#: POST paths that are safe to retry on a transient transport failure:
#: sweeps/optimizations are pure functions of the request (content-
#: addressed by design), and fleet register/heartbeat are idempotent
#: lease refreshes.  ``/v1/register`` is deliberately absent — retrying a
#: registration that may have landed double-counts registry lifecycle
#: metrics.  ``/v1/report`` is absent for the same reason: an append that
#: landed before the connection dropped would be double-counted into the
#: calibration corpus by a blind retry.
_IDEMPOTENT_POSTS = frozenset(
    {
        "/v1/sweep",
        "/v1/optimize",
        "/v1/optimize_batch",
        "/v1/fleet/register",
        "/v1/fleet/heartbeat",
    }
)


class ServiceError(RuntimeError):
    """A non-2xx response (or no response) from the daemon.

    ``body`` carries the parsed JSON error body when there was one —
    structured rejections (``/v1/register`` validation reports) arrive
    there, not just as a flattened message.
    """

    def __init__(
        self, message: str, *, status: int | None = None, body: dict | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.body = body


def backoff_sleep(retry: int, base_s: float, cap_s: float) -> None:
    """Wait before retry number ``retry`` (1 is the first): ``base_s``
    doubled per retry, capped at ``cap_s``, jittered by ×[0.5, 1.5)."""
    time.sleep(min(cap_s, base_s * 2 ** (retry - 1)) * (0.5 + random.random()))


def _json_object(at: At, raw: bytes) -> dict:
    """A daemon reply's bytes as a JSON object, or ``at``'s error."""
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also non-UTF-8 bytes
        at.fail(f"is not JSON: {exc}")
    return at.object(value)


class TuningClient:
    """Talk to one tuning daemon at ``base_url``.

    Each request is one ``http.client`` round trip on a connection of its
    own (the daemon speaks HTTP/1.0).  Transient transport failures
    (connection refused/reset while a daemon restarts, a half-open socket
    from a crashed peer) are retried with capped exponential backoff +
    jitter — but only for requests that are safe to repeat: GETs and the
    idempotent POSTs in :data:`_IDEMPOTENT_POSTS`.  HTTP error *responses*
    are never retried (the daemon answered; repeating won't change its
    mind), and ``retries=0`` disables the loop entirely — the fleet
    coordinator does that, because its retries must move to a different
    worker instead.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.1,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        scheme, _, rest = self.base_url.partition("://")
        netloc, slash, path = rest.partition("/")
        self._prefix = slash + path
        self._connection = partial(
            HTTPSConnection if scheme == "https" else HTTPConnection,
            netloc,
            timeout=timeout,
        )

    # -- transport -----------------------------------------------------------
    def _round_trip(self, method: str, path: str, data, headers) -> tuple:
        """One request on a fresh connection: ``(status, reason, headers,
        body bytes)``, whatever the status."""
        conn = self._connection()
        try:
            conn.request(method, self._prefix + path, body=data, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.reason, resp.headers, resp.read()
        finally:
            conn.close()

    def _raw(
        self,
        path: str,
        body: dict | None = None,
        *,
        headers: dict[str, str] | None = None,
        answers: tuple[int, ...] = (),
    ) -> tuple[int, HTTPMessage, bytes]:
        """``(status, response headers, body bytes)`` of a 2xx reply or of
        one whose status is in ``answers`` (a ``304`` revalidation, a
        ``503`` readiness verdict); any other status raises
        :class:`ServiceError`.

        ``Accept-Encoding: identity`` is always sent explicitly — the
        byte-identity and payload-size checks this client backs are
        meaningless if a transparent proxy re-compresses the body.  A
        transport failure is retried (idempotent requests only) and then
        raised as :class:`ServiceError`; a timeout is raised as
        ``TimeoutError`` at once — the work may still be running
        server-side, and the caller owns that policy.
        """
        data = None if body is None else canonical_json_bytes(body)
        merged = {"Accept-Encoding": "identity"}
        if data is not None:
            merged["Content-Type"] = "application/json"
        # Propagate the ambient trace span, if any: the daemon's server
        # span adopts this header, linking the hop into one trace tree.
        carrier = current_traceparent()
        if carrier is not None:
            merged[TRACEPARENT_HEADER] = carrier
        if headers:
            merged.update(headers)
        method = "GET" if data is None else "POST"
        retryable = body is None or path in _IDEMPOTENT_POSTS
        attempts = 1 + (self.retries if retryable else 0)
        for attempt in range(attempts):
            if attempt:
                backoff_sleep(attempt, self.backoff_s, BACKOFF_CAP_S)
            try:
                status, reason, resp_headers, raw = self._round_trip(
                    method, path, data, merged
                )
                break
            except TimeoutError:
                raise
            except (OSError, HTTPException) as exc:
                last = exc
        else:
            raise ServiceError(
                f"cannot reach {self.base_url}{path} "
                f"after {attempts} attempt(s): {last}"
            ) from last
        if 200 <= status < 300 or status in answers:
            return status, resp_headers, raw
        raise self._service_error(path, status, reason, raw)

    @staticmethod
    def _service_error(path: str, status: int, reason: str, raw: bytes) -> "ServiceError":
        """Surface as much of an HTTP error body as the daemon sent.

        Structured JSON errors contribute their ``error`` message and, for
        ``/v1/register`` rejections, a summary of the validation report;
        any other body is carried raw (truncated) instead of dropped.
        """
        at = At(ServiceError, f"{path} error reply")
        report = at.at("report")
        try:
            body = _json_object(at, raw)
            detail = at.string(body, "error", "")
            issues = report.array(
                at.mapping(body, "report", None, null=True) or {}, "issues", ()
            )
            if issues:
                rendered = "; ".join(
                    "{0[validator]}/{0[code]}: {0[message]}".format(
                        report.at("issues", i).object(issue)
                    )
                    for i, issue in enumerate(issues[:3])
                )
                detail = f"{detail} [{len(issues)} issue(s): {rendered}]"
        except (ServiceError, KeyError):
            body, detail = None, raw.decode("utf-8", "replace")[:500]
        return ServiceError(
            f"{path} failed with HTTP {status}: {detail or reason}",
            status=status,
            body=body,
        )

    def _request(
        self,
        path: str,
        body: dict | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> bytes:
        return self._raw(path, body, headers=headers)[2]

    def _request_json(self, path: str, body: dict | None = None) -> dict:
        return _json_object(At(ServiceError, f"{path} reply"), self._request(path, body))

    # -- endpoints -----------------------------------------------------------
    def healthz(self) -> dict:
        return self._request_json("/healthz")

    def readyz(self) -> tuple[bool, dict]:
        """Readiness: ``(ready, detail)``; a 503 is an answer, not an error."""
        status, _, data = self._raw("/readyz", answers=(503,))
        return status == 200, _json_object(At(ServiceError, "/readyz reply"), data)

    def metrics(self) -> dict:
        return self._request_json("/metrics")

    def metrics_prometheus(self) -> str:
        """The ``/metrics`` Prometheus text exposition (content-negotiated)."""
        return self._request("/metrics", headers={"Accept": "text/plain"}).decode(
            "utf-8"
        )

    def fleet_metrics_prometheus(self) -> str:
        """The coordinator's merged fleet exposition (per-worker labels)."""
        return self._request(
            "/v1/fleet_metrics", headers={"Accept": "text/plain"}
        ).decode("utf-8")

    def fleet_metrics(self) -> dict:
        """The coordinator's JSON fleet metrics: its own + per-worker."""
        return self._request_json("/v1/fleet_metrics")

    def trace(self, trace_id: str) -> dict:
        """Retained spans of one trace from this daemon (fleet-aggregated
        when the daemon is a coordinator)."""
        return self._request_json(f"/v1/trace/{trace_id}")

    # The sweep and optimize methods take the keyword arguments of the
    # protocol's request builders (sweep_request_wire: cap, seed, top_k;
    # optimize_request_wire: model, qkv_fusion, include_backward, fused,
    # env, gpu, cap, seed), with the same defaults.
    def sweep_raw(self, op: OpSpec, env: DimEnv, gpu: GPUSpec = V100, **request) -> bytes:
        """The exact ``/v1/sweep`` response bytes (for identity checks)."""
        return self._request("/v1/sweep", sweep_request_wire(op, env, gpu, **request))

    def sweep(self, op: OpSpec, env: DimEnv, gpu: GPUSpec = V100, **request) -> dict:
        """Ranked configurations + predicted times for one operator."""
        return self._request_json("/v1/sweep", sweep_request_wire(op, env, gpu, **request))

    def sweep_conditional(
        self,
        op: OpSpec,
        env: DimEnv,
        gpu: GPUSpec = V100,
        *,
        etag: str | None = None,
        **request,
    ) -> tuple[int, str | None, bytes]:
        """A revalidating sweep: ``(status, etag, body bytes)``.

        Pass the ``ETag`` of a previously fetched response; a ``304``
        status with an empty body means the held representation is still
        current.  Without ``etag`` this is a plain fetch that also returns
        the tag to revalidate with later.
        """
        return self._sweep_tagged({}, op, env, gpu, etag, request)

    def sweep_packed_raw(
        self,
        op: OpSpec,
        env: DimEnv,
        gpu: GPUSpec = V100,
        *,
        etag: str | None = None,
        **request,
    ) -> tuple[int, str | None, bytes]:
        """The packed binary ``/v1/sweep`` response: ``(status, etag, bytes)``.

        The bytes are the server's L2 store payload file verbatim;
        ``etag`` (from a previous call) turns this into a revalidation
        that answers ``304`` with no body when still current.
        """
        return self._sweep_tagged(
            {"Accept": BINARY_CONTENT_TYPE}, op, env, gpu, etag, request
        )

    def _sweep_tagged(self, headers, op, env, gpu, etag, request) -> tuple:
        """One ``/v1/sweep`` that may answer ``304``: ``(status, etag, body)``."""
        if etag:
            headers["If-None-Match"] = etag
        status, resp_headers, data = self._raw(
            "/v1/sweep",
            sweep_request_wire(op, env, gpu, **request),
            headers=headers,
            answers=(304,),
        )
        return status, resp_headers.get("ETag"), data

    def sweep_packed(
        self, op: OpSpec, env: DimEnv, gpu: GPUSpec = V100, **request
    ) -> dict:
        """The full measurement payload, decoded from the packed response.

        Unlike :meth:`sweep` this carries *every* sampled configuration's
        times (not a ``top_k`` truncation), validated by the store's own
        deserializer and checked against the response ``ETag`` digest.
        """
        _, etag, data = self.sweep_packed_raw(op, env, gpu, **request)
        digest = etag.strip('"') if etag else None
        return payload_from_packed(data, digest=digest)

    def optimize(self, **request) -> dict:
        """A whole-graph tuned schedule from ``/v1/optimize``."""
        return self._request_json("/v1/optimize", optimize_request_wire(**request))

    def optimize_raw(self, **request) -> bytes:
        """The exact ``/v1/optimize`` response bytes (for identity checks)."""
        return self._request("/v1/optimize", optimize_request_wire(**request))

    def optimize_batch_raw(self, **request) -> bytes:
        """The exact ``/v1/optimize_batch`` (coordinator) response bytes.

        The body schema — and, by the chaos suite's acceptance criterion,
        the exact bytes — match :meth:`optimize_raw` for the same request;
        only the evaluation is sharded across the fleet.
        """
        return self._request("/v1/optimize_batch", optimize_request_wire(**request))

    def optimize_batch(self, **request) -> dict:
        """A whole-graph tuned schedule from the fleet coordinator."""
        return self._request_json(
            "/v1/optimize_batch", optimize_request_wire(**request)
        )

    # -- fleet membership ------------------------------------------------------
    def fleet_register(
        self, *, worker_id: str, url: str, ready: bool = False
    ) -> dict:
        """Announce one worker to a coordinator; returns the lease terms."""
        return self._request_json(
            "/v1/fleet/register",
            fleet_register_wire(worker_id=worker_id, url=url, ready=ready),
        )

    def fleet_heartbeat(self, *, worker_id: str, ready: bool) -> dict:
        """Renew one worker lease (404 → the coordinator forgot us)."""
        return self._request_json(
            "/v1/fleet/heartbeat",
            fleet_heartbeat_wire(worker_id=worker_id, ready=ready),
        )

    def fleet_deregister(self, *, worker_id: str) -> dict:
        return self._request_json(
            "/v1/fleet/deregister", {"worker_id": worker_id}
        )

    def fleet_status(self) -> dict:
        """Coordinator fleet state: per-worker health, quarantines, knobs."""
        return self._request_json("/v1/fleet/status")

    def register(self, **request) -> dict:
        """Have the daemon tune a model and register the schedule."""
        return self._request_json("/v1/register", optimize_request_wire(**request))

    # -- calibration & rollout --------------------------------------------------
    def report(self, records: list[dict]) -> dict:
        """Submit measured timings to the daemon's feedback store.

        All-or-nothing server-side: one malformed record rejects the
        whole batch with a structured 400 and stores nothing.  Not
        retried on transport failure (an append is not idempotent).
        """
        return self._request_json("/v1/report", {"records": records})

    def calibrate_propose(
        self, *, params: dict | None = None, force: bool = False
    ) -> dict:
        """Fit (or inject) a candidate cost model and shadow-gate it.

        Without ``params`` the daemon fits from its retained feedback;
        with ``params`` the explicit wire is the candidate (the rollout
        smoke test's regression-injection knob, usually with ``force``).
        """
        body: dict = {"force": force}
        if params is not None:
            body["params"] = params
        return self._request_json("/v1/calibrate/propose", body)

    def rollout_status(self) -> dict:
        return self._request_json("/v1/rollout")

    def rollout_action(self, action: str, *, reason: str | None = None) -> dict:
        """Manually ``promote`` or ``rollback`` the canary candidate."""
        body: dict = {"action": action}
        if reason is not None:
            body["reason"] = reason
        return self._request_json("/v1/rollout", body)

    def register_entry(self, entry_wire: dict) -> dict:
        """Submit a pre-built schedule entry; the daemon validates first.

        A claim whose recomputed costs disagree with the stored ones is
        rejected with HTTP 400 and a structured ``report`` body (raised
        here as :class:`ServiceError`).
        """
        return self._request_json("/v1/register", {"entry": entry_wire})

    def schedule(self, digest: str) -> dict:
        """Fetch one registered schedule entry by content digest."""
        return self._request_json(f"/v1/schedule/{digest}")

    def wait_until_ready(
        self, *, timeout: float = 30.0, readiness: bool = False
    ) -> dict:
        """Poll until the daemon answers (or raise).

        ``readiness=False`` (the default) polls ``/healthz`` — liveness,
        the historical behavior.  ``readiness=True`` polls ``/readyz``
        and also waits for it to answer 200: store reachable, engine
        warm-up done, not draining.
        """
        deadline = time.monotonic() + timeout
        last: object = None
        while time.monotonic() < deadline:
            try:
                if readiness:
                    ok, detail = self.readyz()
                    if ok:
                        return detail
                    last = detail
                else:
                    return self.healthz()
            except ServiceError as exc:
                last = exc
            time.sleep(0.1)
        raise ServiceError(
            f"daemon at {self.base_url} not ready after {timeout}s: {last}"
        )

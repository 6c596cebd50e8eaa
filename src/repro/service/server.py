"""The tuning daemon: a threaded HTTP server over the sweep engine.

Endpoints (all JSON, canonical serialization):

* ``POST /v1/sweep`` — best configurations + predicted times for one
  operator, resolved by the engine's one tier chain
  (:func:`repro.engine.scheduler.resolve`): the daemon's payload L1 →
  in-flight coalescing (single-flight) → persistent store (L2) → delta
  re-sweep from a structural L2 twin → cold batched evaluation; every
  request is attributed to exactly one tier in ``/metrics``.
  Responses carry a strong ``ETag``; a request presenting it back via
  ``If-None-Match`` gets ``304 Not Modified`` with an empty body, before
  any resolution work.  ``Accept: application/x-repro-npz`` opts into the
  packed binary representation — the L2 store's own ``.npz`` payload,
  streamed zero-copy from the store file when one exists.
* ``POST /v1/optimize`` — a whole-graph tuned schedule through the
  parallel scheduler (:func:`repro.engine.scheduler.sweep_graph`), with
  the same coalescing over a request-level digest and a cache of whole
  responses.
* ``POST /v1/register`` — validate-then-store a schedule into the
  content-addressed registry: either a pre-built entry (``{"entry":
  ...}``, whose claimed costs are recomputed and must agree bit-exactly)
  or an optimize-style request the daemon tunes and registers itself.  A
  claim that fails validation is rejected with a structured report body,
  never stored.
* ``GET /v1/schedule/<digest>`` — one registered entry by content digest
  (404 on a miss).
* ``POST /v1/report`` — retain measured kernel timings in the crash-safe
  calibration feedback store (validate-all-before-append-any; a batch
  with one malformed record changes nothing).
* ``POST /v1/calibrate/propose`` — fit a candidate cost model from the
  retained feedback (or accept explicit parameters) and shadow-gate it
  into a canary rollout.
* ``GET/POST /v1/rollout`` — rollout status / manual promote-or-rollback
  of the canary candidate.  While a canary is live, a deterministic
  slice of ``/v1/sweep`` traffic is dual-scored against the candidate;
  the active model always serves.
* ``GET /healthz`` — liveness plus identity: package version, the
  *served* cost-model version, payload format, cache/store/registry
  occupancy.
* ``GET /metrics`` — tier hit counts, p50/p95/p99 latencies, registry
  lifecycle counters and the latest background-revalidation sweep; the
  same counters render as Prometheus text exposition under ``Accept:
  text/plain`` (content negotiation, JSON stays the default).
* ``GET /v1/trace/<trace_id>`` — every span this process retains for one
  trace (the ring buffer behind ``repro trace``).

Every request runs inside a trace span (``repro.obs``) that adopts the
client's ``traceparent`` header when present, so a traced request through
the fleet yields one connected cross-process tree.  With tracing off
(the default) the span machinery is a shared no-op object.

Each service holds one payload L1 of its own (byte-bounded, see
:mod:`repro.engine.memo`) and resolves its ``/v1/sweep``, its
``/v1/optimize`` graph sweeps and, on a coordinator, its fleet jobs
through it, so a digest one endpoint resolved is an L1 hit for the others
and services sharing a process stay isolated.  Whole ``/v1/optimize``
responses live in a second, entry-bounded LRU of the same class.
"""

from __future__ import annotations

import os
import shutil
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json import JSONDecodeError, loads
from time import monotonic, perf_counter, time
from typing import BinaryIO

from repro import __version__, obs
from repro.engine.memo import BoundedCache, new_payload_cache
from repro.engine.scheduler import (
    DISABLE_STORE,
    local_evaluator,
    resolve,
    sweep_graph,
)
from repro.engine.store import (
    PAYLOAD_FORMAT,
    SweepStore,
    compute_payload,
    get_sweep_store,
    pack_payload_bytes,
)
from repro.engine.sweep import sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.hardware.params import active_cost_model_version
from repro.obs.export import trace_tree
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, wants_prometheus

from .coalesce import SingleFlight
from .fleet.faults import FaultInjector
from .metrics import ServiceMetrics
from .protocol import (
    BINARY_CONTENT_TYPE,
    PROTOCOL_VERSION,
    ProtocolError,
    accepts_packed,
    build_request_graph,
    canonical_json_bytes,
    etag_matches,
    optimize_request_digest,
    optimize_response_from_sweeps,
    parse_optimize_request,
    parse_sweep_request,
    sweep_etag,
    sweep_request_digest,
    sweep_response_from_sweep,
)

__all__ = [
    "NotFoundError",
    "RegistrationRejected",
    "TuningService",
    "WireReply",
    "make_server",
    "serve_background",
]

#: Largest accepted request body; whole-transformer graphs are ~100 KB.
MAX_BODY_BYTES = 16 * 2**20

#: Largest single-op evaluation served cold.  Uncapped fused-kernel spaces
#: reach ~1e10 configurations — one such request would OOM the daemon, so
#: anything above this estimate is rejected with a 400, not attempted.
MAX_SWEEP_CONFIGS = 200_000

#: Largest per-op cap accepted by ``/v1/optimize`` (whole graphs contain
#: fused kernels whose uncapped spaces are ~1e10 configurations).
MAX_OPTIMIZE_CAP = 20_000

#: How long a coalesced follower waits on the leading evaluation before
#: failing its own request — a hung leader must not park waiters forever.
FLIGHT_TIMEOUT_S = 600.0

#: Entry bound of the cache of whole ``/v1/optimize`` responses.
RESPONSE_CACHE_ENTRIES = 1024

_UNSET = object()


class NotFoundError(KeyError):
    """A well-formed request for a resource that does not exist (HTTP 404)."""


@dataclass
class WireReply:
    """A fully-determined HTTP response below the JSON layer.

    ``body`` carries in-memory responses; ``stream`` (exclusive with a
    non-empty body) is an open binary file the handler copies straight to
    the socket — the zero-copy path for packed payloads already sitting in
    the L2 store.  Whoever sends the reply owns closing the stream.
    """

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    stream: BinaryIO | None = None
    stream_len: int = 0


class RegistrationRejected(ProtocolError):
    """A ``/v1/register`` claim that failed validation (HTTP 400 + report)."""

    def __init__(self, message: str, report: dict) -> None:
        super().__init__(message)
        self.report = report


class TuningService:
    """The daemon's state and request handlers, HTTP-free (unit-testable)."""

    def __init__(
        self,
        *,
        store: SweepStore | None | object = _UNSET,
        registry=_UNSET,
        jobs: int | None = None,
        faults: FaultInjector | None | object = _UNSET,
        warm: bool = True,
        calibration_dir=_UNSET,
    ) -> None:
        if store is _UNSET:
            store = get_sweep_store()
        self.store: SweepStore | None = store  # type: ignore[assignment]
        if registry is _UNSET:
            # Lazy import: the registry package is only needed by daemons
            # that serve it (and pulls validation along at call time).
            from repro.registry import get_schedule_registry

            registry = get_schedule_registry()
        self.registry = registry
        if faults is _UNSET:
            # Fault injection is opt-in per process via REPRO_FAULT_SPEC;
            # a clean environment yields None and the handler hooks no-op.
            faults = FaultInjector.from_env()
        self.faults: FaultInjector | None = faults  # type: ignore[assignment]
        self.jobs = jobs
        #: The payload L1 every sweep this service resolves goes through.
        self.cache = new_payload_cache()
        self.responses = BoundedCache(RESPONSE_CACHE_ENTRIES)
        self.flights = SingleFlight()
        self.metrics = ServiceMetrics()
        # How this process labels its spans/metrics in a fleet trace; the
        # CLI overwrites it per role ("coordinator", "worker:<id>").
        self.service_name = "tuningd"
        self.metrics.registry.gauge_callback(
            "repro_l1_cache_entries",
            "Entries currently held by the L1 payload cache.",
            lambda: self.cache.stats()["entries"],
        )
        self.metrics.registry.gauge_callback(
            "repro_coalesced_inflight",
            "Evaluations currently led through the single-flight layer.",
            lambda: self.flights.inflight(),
        )
        self._revalidator: threading.Thread | None = None
        self._revalidate_stop = threading.Event()
        # Readiness state: ``warm=True`` (the default, and every in-process
        # test harness) starts ready; daemons pass ``warm=False`` and flip
        # it via start_warmup() so /readyz distinguishes "up" from "usable".
        self._warmed = threading.Event()
        if warm:
            self._warmed.set()
        self._draining = threading.Event()
        self._warmup_thread: threading.Thread | None = None
        # Calibration: measurement feedback + the staged rollout manager.
        # The directory resolves like the registry's (explicit >
        # REPRO_CALIBRATION_DIR > alongside the store > in-memory); the
        # manager's recovery runs here, so a daemon restarted mid-promotion
        # comes up serving exactly one of {prior, promoted}.
        from repro.calibrate import (
            FeedbackStore,
            RolloutManager,
            resolve_calibration_root,
        )

        if calibration_dir is _UNSET:
            root = resolve_calibration_root(store=self.store)
        else:
            root = calibration_dir  # None = explicitly in-memory
        self.feedback = FeedbackStore(root)
        self.rollout = RolloutManager(
            root, metrics=self.metrics, faults=self.faults
        )

    # -- tiered resolution ---------------------------------------------------
    def _resolve(self, digest: str, rep, evaluate, *, l1, store):
        """One digest through the engine's tier chain, single-flighted.

        ``evaluate`` runs at most once across all concurrent callers of
        ``digest``; the tier that served this request is recorded in the
        metrics and on the current span.
        """
        value, tier = resolve(
            {digest: rep},
            l1=l1,
            store=store,
            evaluate=evaluate,
            single_flight=partial(self.flights.do, timeout=FLIGHT_TIMEOUT_S),
        )[digest]
        self.metrics.record_tier(tier)
        obs.set_attr("resolve.tier", tier)
        return value

    def _cached_response(self, digest: str, compute) -> dict:
        """A whole response body through the response cache, single-flighted.

        The value is a response, not a store payload, so there is no L2;
        the response's per-sweep work is shared with ``/v1/sweep`` through
        the payload L1 and the store inside the sweeps ``compute`` runs.
        """
        return self._resolve(
            digest,
            None,
            lambda _: {digest: (compute(), "computed")},
            l1=self.responses,
            store=None,
        )

    # -- endpoint bodies -----------------------------------------------------
    def _resolve_sweep(self, req, digest: str) -> dict:
        """One sweep request's payload through the full tier chain."""
        # The size estimate is the scheduler's own pool-threshold helper:
        # cheap (cached feasibility/space scans), and exact enough to keep
        # an uncapped wide-kernel request from OOM-killing the daemon.
        from repro.engine.scheduler import _estimated_configs

        obs.set_attr("store.digest", digest)
        estimated = _estimated_configs(req.op, req.env, req.cap)
        if estimated > MAX_SWEEP_CONFIGS:
            raise ProtocolError(
                f"sweep of ~{estimated} configurations exceeds the served "
                f"limit of {MAX_SWEEP_CONFIGS}; pass a smaller cap"
            )
        payload = self._resolve(
            digest,
            req.op,
            local_evaluator(
                req.env, req.gpu, cap=req.cap, seed=req.seed, store=self.store
            ),
            l1=self.cache,
            store=self.store,
        )
        self._maybe_canary(req, digest, payload)
        return payload

    def _maybe_canary(self, req, digest: str, payload: dict) -> None:
        """Dual-score one resolved sweep while a canary rollout is live.

        The slice is a deterministic function of the request digest, so
        the same traffic mix always canaries the same requests.  The
        candidate model re-predicts the *chosen best* configuration with
        an explicit-parameters :class:`CostModel` — the globally served
        parameters are never touched, and the response the caller is
        about to serve is entirely the active model's.  Divergence
        verdicts (including auto-rollback and auto-promotion) fold into
        the rollout manager.
        """
        rollout = self.rollout
        if not rollout.should_canary(digest):
            return
        candidate = rollout.candidate_params()
        if candidate is None:
            return
        try:
            from repro.engine.sweep import space_from_payload

            order = payload.get("order")
            totals = payload.get("sorted_totals")
            if order is None or totals is None or not len(totals):
                return
            active_best = float(totals[0])
            if active_best <= 0:
                return
            config = space_from_payload(req.op, payload).config_at(int(order[0]))
            kt = CostModel(req.gpu, params=candidate).time_op(
                req.op, config, req.env
            )
            if kt is None:
                return
            divergence = abs(kt.total_us - active_best) / active_best
        except Exception:  # noqa: BLE001 - scoring must never break serving
            self.metrics.record_error("canary")
            return
        self.metrics.record_calibration("canary_request")
        rollout.record_canary(divergence)

    def handle_sweep(self, body: dict) -> dict:
        req = parse_sweep_request(body)
        digest = sweep_request_digest(req)
        payload = self._resolve_sweep(req, digest)
        sweep = sweep_from_payload(req.op, payload)
        return sweep_response_from_sweep(sweep, digest=digest, top_k=req.top_k)

    def handle_sweep_wire(
        self, body: dict, *, accept: str | None = None, if_none_match: str | None = None
    ) -> WireReply:
        """``/v1/sweep`` below the JSON layer: ETag revalidation + packing.

        The ETag is revalidated *before* the size guard and any resolution
        work — a 304 costs one digest computation, nothing else.  That is
        sound because responses are pure functions of the request digest
        (and ``top_k``, which the JSON tag carries): a client holding a
        representation under a matching tag holds the current bytes.
        """
        req = parse_sweep_request(body)
        digest = sweep_request_digest(req)
        binary = accepts_packed(accept)
        etag = sweep_etag(digest, top_k=None if binary else req.top_k)
        if etag_matches(if_none_match, etag):
            self.metrics.record_response("not_modified")
            return WireReply(status=304, headers={"ETag": etag})
        payload = self._resolve_sweep(req, digest)
        if binary:
            reply = self._packed_reply(digest, payload, etag)
            self.metrics.record_response("binary")
            return reply
        sweep = sweep_from_payload(req.op, payload)
        response = sweep_response_from_sweep(sweep, digest=digest, top_k=req.top_k)
        self.metrics.record_response("json")
        return WireReply(
            status=200,
            headers={"Content-Type": "application/json", "ETag": etag},
            body=canonical_json_bytes(response),
        )

    def _packed_reply(self, digest: str, payload: dict, etag: str) -> WireReply:
        """The packed binary representation, streamed from L2 when possible.

        The wire bytes are exactly the store's ``.npz`` file, so a warm
        store serves an open file handle and the handler copies it to the
        socket without deserializing; a storeless daemon (or a just-evicted
        entry) packs the in-memory payload instead — byte-identical content
        either way, since the store writer is deterministic.
        """
        headers = {"Content-Type": BINARY_CONTENT_TYPE, "ETag": etag}
        if self.store is not None:
            try:
                fh = open(self.store.path_for(digest), "rb")
            except OSError:
                fh = None  # evicted or never persisted; fall through to pack
            if fh is not None:
                size = os.fstat(fh.fileno()).st_size
                return WireReply(
                    status=200, headers=headers, stream=fh, stream_len=size
                )
        return WireReply(
            status=200, headers=headers, body=pack_payload_bytes(digest, payload)
        )

    def handle_optimize(self, body: dict) -> dict:
        req = parse_optimize_request(body)
        if req.cap is None or req.cap > MAX_OPTIMIZE_CAP:
            raise ProtocolError(
                f"optimize requires a cap of at most {MAX_OPTIMIZE_CAP} "
                "(whole graphs contain kernels with ~1e10-config spaces)"
            )
        digest = optimize_request_digest(req)
        obs.set_attr("request.digest", digest)

        def _compute() -> dict:
            from repro.configsel.chain import ChainError
            from repro.configsel.selector import select_configurations
            from repro.configsel.sssp import SSSPError

            graph = build_request_graph(req)
            cost = CostModel(req.gpu)
            t0 = perf_counter()
            sweeps = sweep_graph(
                graph,
                req.env,
                cost,
                cap=req.cap,
                seed=req.seed,
                jobs=self.jobs,
                # A storeless service must stay storeless: store=None would
                # fall back to the process-active store inside sweep_graph.
                store=self.store if self.store is not None else DISABLE_STORE,
                l1=self.cache,
            )
            sweep_s = perf_counter() - t0
            # Global configuration selection on the swept graph.  Not
            # every requestable graph has a primary chain from "x"; those
            # responses simply carry no selection section.
            t0 = perf_counter()
            try:
                selection = select_configurations(
                    graph, req.env, cost, sweeps=sweeps, cap=req.cap
                )
            except (SSSPError, ChainError):
                selection = None
            select_s = perf_counter() - t0
            self.metrics.record_optimize_breakdown(sweep_s, select_s)
            return optimize_response_from_sweeps(
                graph, sweeps, digest=digest, selection=selection
            )

        return self._cached_response(digest, _compute)

    # -- schedule registry ---------------------------------------------------
    def handle_register(self, body: dict) -> dict:
        """Validate-then-store one schedule into the registry.

        Two body forms: ``{"entry": <entry wire>}`` registers a claim built
        elsewhere — its digest must hash from its own content and every
        validator must pass (the cost validator recomputes the claimed
        times bit-exactly), else the claim is rejected with the full
        report and nothing is stored.  An optimize-style body (``{"model":
        ...}``) makes the daemon tune the schedule itself and register the
        result.
        """
        from repro.registry import ScheduleEntry
        from repro.registry.entry import EntryError
        from repro.validation import validate_entry

        if self.registry is None:
            raise ProtocolError(
                "this daemon has no schedule registry configured "
                "(set REPRO_SCHEDULE_REGISTRY or attach a sweep store)"
            )
        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        if "entry" in body:
            try:
                entry = ScheduleEntry.from_wire(body["entry"], "entry")
                recomputed = entry.recompute_digest()
            except EntryError as exc:
                raise ProtocolError(str(exc)) from exc
            if recomputed != entry.digest:
                raise ProtocolError(
                    f"entry declares digest {entry.digest}, but its content "
                    f"hashes to {recomputed}"
                )
        else:
            entry = self._tune_entry(body)
        report = validate_entry(entry)
        if not report.ok:
            self.metrics.record_registry("rejected")
            raise RegistrationRejected(
                f"schedule {entry.digest} failed validation with "
                f"{len(report.errors())} error(s); nothing was stored",
                report.to_wire(),
            )
        self.registry.register(entry)
        self.metrics.record_registry("registered")
        return {
            "digest": entry.digest,
            "registered": True,
            "total_us": entry.total_us,
            "report": report.to_wire(),
        }

    def _tune_entry(self, body: dict):
        """Tune an optimize-style request and build its registry entry."""
        from repro.configsel.chain import ChainError
        from repro.configsel.selector import select_configurations
        from repro.configsel.sssp import SSSPError
        from repro.registry import build_entry

        req = parse_optimize_request(body)
        if req.cap is None or req.cap > MAX_OPTIMIZE_CAP:
            raise ProtocolError(
                f"register requires a cap of at most {MAX_OPTIMIZE_CAP} "
                "(whole graphs contain kernels with ~1e10-config spaces)"
            )
        graph = build_request_graph(req)
        cost = CostModel(req.gpu)
        sweeps = sweep_graph(
            graph,
            req.env,
            cost,
            cap=req.cap,
            seed=req.seed,
            jobs=self.jobs,
            store=self.store if self.store is not None else DISABLE_STORE,
            l1=self.cache,
        )
        try:
            selection = select_configurations(
                graph, req.env, cost, sweeps=sweeps, cap=req.cap, seed=req.seed
            )
        except (SSSPError, ChainError) as exc:
            raise ProtocolError(
                f"model {req.model!r} admits no global selection: {exc}"
            ) from exc
        return build_entry(
            graph,
            req.env,
            cost,
            selection,
            cap=req.cap,
            seed=req.seed,
            registrar="daemon",
        )

    def handle_schedule(self, digest: str) -> dict:
        """One registered entry by content digest (404 on a clean miss)."""
        if self.registry is None:
            raise ProtocolError(
                "this daemon has no schedule registry configured"
            )
        if not digest or "/" in digest or "." in digest:
            raise ProtocolError(f"malformed schedule digest {digest!r}")
        entry = self.registry.load(digest)  # RegistryError (corrupt) → 500
        if entry is None:
            raise NotFoundError(f"no registered schedule {digest}")
        self.metrics.record_registry("served")
        return entry.to_wire()

    # -- calibration & rollout ------------------------------------------------
    def handle_report(self, body: dict) -> dict:
        """``POST /v1/report``: retain measured timings, all-or-nothing.

        Every record is validated *before* any is appended — a batch with
        one malformed record (bad label, NaN/negative timing, a version
        that is not the served one, unknown fields) is rejected with a
        structured 400 and the feedback store's bytes are unchanged.
        """
        from repro.calibrate import FeedbackError, validate_record

        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        records = body.get("records")
        if not isinstance(records, list) or not records:
            raise ProtocolError("report requires a non-empty records list")
        served = active_cost_model_version()
        validated = []
        try:
            for i, wire in enumerate(records):
                validated.append(
                    validate_record(
                        wire, f"records[{i}]", served_version=served
                    )
                )
        except FeedbackError as exc:
            self.metrics.record_calibration("report_rejected")
            raise ProtocolError(str(exc)) from exc
        accepted = self.feedback.append(validated)
        self.metrics.record_calibration("report")
        return {
            "accepted": accepted,
            "total": self.feedback.count(),
            "corpus_digest": self.feedback.corpus_digest(),
            "cost_model_version": served,
        }

    def handle_calibrate_propose(self, body: dict) -> dict:
        """``POST /v1/calibrate/propose``: fit (or accept) a candidate and
        shadow-gate it into canary.

        Without ``params`` the candidate is fitted from the retained
        feedback corpus.  An explicit ``params`` wire is the injection
        knob the rollout smoke test uses to push a deliberately-regressing
        candidate (with ``force=true`` to skip the shadow gate — the
        canary guardrail still stands).
        """
        from repro.calibrate import CandidateModel, RolloutError, fit_candidate
        from repro.hardware.params import ParamsError, params_from_wire

        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        force = body.get("force", False)
        if not isinstance(force, bool):
            raise ProtocolError("force must be a boolean")
        records = self.feedback.records()
        try:
            if "params" in body:
                params = params_from_wire(body["params"], "params")
                candidate = CandidateModel.build(
                    params, {"source": "explicit-params"}
                )
            else:
                if not records:
                    raise ProtocolError(
                        "the feedback store is empty; POST /v1/report "
                        "(or run `repro report`) before proposing"
                    )
                candidate = fit_candidate(records)
        except ParamsError as exc:
            raise ProtocolError(str(exc)) from exc
        try:
            status = self.rollout.propose(candidate, records, force=force)
        except RolloutError as exc:
            raise ProtocolError(str(exc)) from exc
        return {
            "proposed": True,
            "candidate_version": candidate.version,
            "provenance": dict(candidate.provenance),
            "rollout": status,
        }

    def handle_rollout_status(self) -> dict:
        return {"rollout": self.rollout.status()}

    def handle_rollout_action(self, body: dict) -> dict:
        """``POST /v1/rollout``: manual ``promote`` / ``rollback``."""
        from repro.calibrate import RolloutError

        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        action = body.get("action")
        try:
            if action == "promote":
                status = self.rollout.promote()
            elif action == "rollback":
                status = self.rollout.rollback(
                    str(body.get("reason", "manual"))
                )
            else:
                raise ProtocolError(
                    f"unknown rollout action {action!r}; "
                    f"known: promote, rollback"
                )
        except RolloutError as exc:
            raise ProtocolError(str(exc)) from exc
        return {"action": action, "rollout": status}

    def revalidate_registry(self, *, deep: bool = False) -> dict:
        """Re-validate every registered entry; summarize into ``/metrics``.

        Corrupt entries count as failures (with the load error as the
        report) rather than aborting the sweep — one bad file must not
        hide the rest of the registry.
        """
        from repro.registry import RegistryError
        from repro.validation import validate_entry

        summary: dict = {
            "at": time(),
            "deep": deep,
            "checked": 0,
            "passed": 0,
            "failed": 0,
            "failures": {},
        }
        if self.registry is None:
            self.metrics.record_revalidation(summary)
            return summary
        for digest, item in self.registry.entries():
            summary["checked"] += 1
            if isinstance(item, RegistryError):
                summary["failed"] += 1
                summary["failures"][digest] = [f"error(registry/load): {item}"]
                self.metrics.record_registry("revalidate_fail")
                continue
            report = validate_entry(item, deep=deep)
            if report.ok:
                summary["passed"] += 1
                self.metrics.record_registry("revalidate_pass")
            else:
                summary["failed"] += 1
                summary["failures"][digest] = [
                    i.render() for i in report.errors()[:8]
                ]
                self.metrics.record_registry("revalidate_fail")
        self.metrics.record_revalidation(summary)
        return summary

    def start_revalidation(self, interval_s: float = 300.0) -> None:
        """Run :meth:`revalidate_registry` periodically on a daemon thread."""
        if self._revalidator is not None and self._revalidator.is_alive():
            return
        self._revalidate_stop.clear()

        def _loop() -> None:
            while not self._revalidate_stop.wait(interval_s):
                try:
                    self.revalidate_registry()
                except Exception:  # noqa: BLE001 - the loop must survive
                    self.metrics.record_error("revalidate")

        self._revalidator = threading.Thread(
            target=_loop, daemon=True, name="registry-revalidator"
        )
        self._revalidator.start()

    def stop_revalidation(self) -> None:
        self._revalidate_stop.set()
        if self._revalidator is not None:
            self._revalidator.join(timeout=5)
            self._revalidator = None

    # -- liveness vs. readiness ------------------------------------------------
    def ready(self) -> tuple[bool, dict]:
        """Readiness verdict plus the per-check detail ``/readyz`` serves.

        Liveness (``/healthz``) answers "is the process up"; this answers
        "should traffic be routed here": the engine warm-up has run, the
        store directory (if any) is reachable, and the daemon is not
        draining for shutdown.  The fleet registry keys worker
        *eligibility* off this distinction.
        """
        checks = {
            "warm": self._warmed.is_set(),
            "draining": self._draining.is_set(),
            "store": self.store is None or self._store_reachable(),
        }
        ok = checks["warm"] and checks["store"] and not checks["draining"]
        return ok, checks

    def _store_reachable(self) -> bool:
        """Can the store's root directory be used?

        The store itself creates its root lazily on first write, so a
        fresh daemon pointed at a not-yet-existing directory is healthy —
        do the same idempotent mkdir the first write would and check the
        result, which also proves the path is actually writable.
        """
        try:
            self.store.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        return self.store.root.is_dir()

    def handle_readyz(self) -> WireReply:
        ok, checks = self.ready()
        body = {"status": "ok" if ok else "unavailable", "checks": checks}
        return WireReply(
            status=200 if ok else 503,
            headers={"Content-Type": "application/json"},
            body=canonical_json_bytes(body),
        )

    def start_warmup(self) -> None:
        """Warm the engine on a background thread, then flip readiness.

        The warm-up sweeps one tiny operator end to end — importing numpy,
        building the feasibility caches, exercising the vectorized
        evaluator — so the first real request doesn't pay cold-start
        latency.  Failure still sets readiness (a degraded daemon beats an
        unreachable one) but is counted in the error metrics.
        """
        if self._warmed.is_set():
            return
        if self._warmup_thread is not None and self._warmup_thread.is_alive():
            return

        def _warm() -> None:
            try:
                from repro.ir.dims import bert_large_dims
                from repro.transformer.graph_builder import build_mha_graph

                graph = build_mha_graph(
                    qkv_fusion="unfused", include_backward=False
                )
                op = next(o for o in graph.ops if not o.is_view)
                env = bert_large_dims(batch=1, seq=16)
                from repro.hardware.spec import V100

                compute_payload(op, env, V100, cap=4, seed=0x5EED)
            except Exception:  # noqa: BLE001 - degraded beats unreachable
                self.metrics.record_error("warmup")
            finally:
                self._warmed.set()

        self._warmup_thread = threading.Thread(
            target=_warm, daemon=True, name="engine-warmup"
        )
        self._warmup_thread.start()

    def begin_drain(self) -> None:
        """Flip readiness off for shutdown; in-flight requests finish."""
        self._draining.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "service": "repro-tuningd",
            "ready": self.ready()[0],
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            # The *served* version: a promotion changes this atomically.
            "cost_model_version": active_cost_model_version(),
            "rollout_phase": self.rollout.status()["phase"],
            "payload_format": PAYLOAD_FORMAT,
            "store": None if self.store is None else self.store.stats(),
            "registry": None if self.registry is None else self.registry.stats(),
            "cache": self.cache.stats(),
            "inflight": self.flights.inflight(),
        }

    def metrics_body(self) -> dict:
        body = self.metrics.snapshot()
        body["coalescing"] = {
            "led": self.flights.led,
            "coalesced": self.flights.coalesced,
            "inflight": self.flights.inflight(),
        }
        body["cache"] = self.cache.stats()
        body["store"] = None if self.store is None else self.store.stats()
        body["registry"]["store"] = (
            None if self.registry is None else self.registry.stats()
        )
        return body

    def metrics_reply(self, accept: str | None = None):
        """``GET /metrics``: the JSON snapshot, or Prometheus text under
        ``Accept: text/plain`` (existing consumers send no Accept header
        and keep getting JSON)."""
        if wants_prometheus(accept):
            return WireReply(
                status=200,
                headers={"Content-Type": PROMETHEUS_CONTENT_TYPE},
                body=self.metrics.prometheus().encode("utf-8"),
            )
        return self.metrics_body()

    def handle_trace(self, trace_id: str) -> dict:
        """``GET /v1/trace/<id>``: this process's retained spans of a trace.

        404 distinguishes "never saw it / aged out" from an empty list —
        the coordinator's fleet aggregation skips 404ing members.
        """
        if not trace_id or "/" in trace_id:
            raise ProtocolError(f"malformed trace id {trace_id!r}")
        spans = obs.get_tracer().trace(trace_id)
        if not spans:
            raise NotFoundError(f"no spans retained for trace {trace_id}")
        tree = trace_tree(spans)
        return {
            "trace_id": trace_id,
            "span_count": tree["spans"],
            "connected": tree["connected"],
            "spans": spans,
        }


def _json_reply(status: int, obj: dict) -> WireReply:
    """A canonical-JSON :class:`WireReply` (the handler's default shape)."""
    return WireReply(
        status=status,
        headers={"Content-Type": "application/json"},
        body=canonical_json_bytes(obj),
    )


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP onto a :class:`TuningService` (set per server class)."""

    service: TuningService  # injected by make_server
    quiet = True
    server_version = f"repro-tuningd/{__version__}"
    # Socket timeout: a client that claims a Content-Length and then stalls
    # must not pin a handler thread of a weeks-lived daemon forever.
    timeout = 60

    # -- plumbing ------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(self, status: int, obj: dict) -> None:
        body = canonical_json_bytes(obj)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_reply(self, reply: WireReply) -> None:
        try:
            self.send_response(reply.status)
            for name, value in reply.headers.items():
                self.send_header(name, value)
            if reply.stream is not None:
                self.send_header("Content-Length", str(reply.stream_len))
                self.end_headers()
                shutil.copyfileobj(reply.stream, self.wfile)
            else:
                self.send_header("Content-Length", str(len(reply.body)))
                self.end_headers()
                if reply.body:
                    self.wfile.write(reply.body)
        finally:
            if reply.stream is not None:
                reply.stream.close()

    def _read_body(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ProtocolError("missing Content-Length")
        try:
            n = int(length)
        except ValueError:
            raise ProtocolError(f"malformed Content-Length {length!r}") from None
        if not 0 <= n <= MAX_BODY_BYTES:
            # Negative would turn rfile.read into read-until-close, pinning
            # this handler thread for as long as the client keeps the socket.
            raise ProtocolError(f"Content-Length outside [0, {MAX_BODY_BYTES}]")
        raw = self.rfile.read(n)
        try:
            return loads(raw)
        except JSONDecodeError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc

    def _run(self, endpoint: str, fn) -> None:
        # In-flight tracking lives here (not in handle_one_request) so an
        # idle keep-alive connection never counts against graceful drain.
        tracker = getattr(self.server, "track_request", None)
        if tracker is None:
            self._run_tracked(endpoint, fn)
        else:
            with tracker():
                self._run_tracked(endpoint, fn)

    def _run_tracked(self, endpoint: str, fn) -> None:
        # Latency from a monotonic clock (an NTP step must never yield a
        # negative sample), inside a server span that adopts the caller's
        # traceparent header — the cross-process link of a fleet trace.
        metrics = self.service.metrics
        metrics.request_started()
        start = perf_counter()
        try:
            with obs.span(
                f"server{endpoint}",
                parent=self.headers.get(obs.TRACEPARENT_HEADER),
                service=self.service.service_name,
                endpoint=endpoint,
            ):
                self._respond(endpoint, fn)
        finally:
            metrics.request_finished()
            metrics.record_request(endpoint, perf_counter() - start)

    def _respond(self, endpoint: str, fn) -> None:
        try:
            faults = self.service.faults
            if faults is not None:
                # kill/hang fire before any work: a killed worker leaves a
                # reset connection, a hung one blows the caller's deadline.
                faults.before(endpoint)
            # Compute the full body before sending anything: exactly one
            # response ever goes on the wire, so a handler failure cannot
            # corrupt a half-written 200 with a trailing 500.  ``fn`` may
            # return a plain dict (a 200 JSON body) or a WireReply carrying
            # its own status, headers and bytes/stream.
            try:
                result = fn()
                if isinstance(result, WireReply):
                    reply = result
                else:
                    reply = _json_reply(200, result)
            except RegistrationRejected as exc:
                self.service.metrics.record_error(endpoint)
                reply = _json_reply(
                    400, {"error": str(exc), "report": exc.report}
                )
            except ProtocolError as exc:
                self.service.metrics.record_error(endpoint)
                reply = _json_reply(400, {"error": str(exc)})
            except NotFoundError as exc:
                self.service.metrics.record_error(endpoint)
                reply = _json_reply(
                    404, {"error": str(exc.args[0] if exc.args else exc)}
                )
            except Exception as exc:  # noqa: BLE001 - the daemon must not die
                self.service.metrics.record_error(endpoint)
                reply = _json_reply(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            if faults is not None:
                reply = faults.mangle_reply(endpoint, reply)
            obs.set_attr("http.status", reply.status)
            self._send_reply(reply)
        except (ConnectionError, TimeoutError):
            # The client went away mid-send; nothing left to answer.
            pass

    def _not_found(self, method: str) -> None:
        self.service.metrics.record_error("404")
        try:
            self._send_json(
                404, {"error": f"no such endpoint: {method} {self.path}"}
            )
        except (ConnectionError, TimeoutError):
            pass  # scanner closed the socket mid-404; nothing to answer

    # -- routes --------------------------------------------------------------
    # Split into overridable ``_route_*`` predicates so subclasses (the
    # fleet coordinator's handler) can add endpoints without re-stating
    # the base routing table.
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if not self._route_get(self.path):
            self._not_found("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if not self._route_post(self.path):
            self._not_found("POST")

    def _route_get(self, path: str) -> bool:
        if path == "/healthz":
            self._run("/healthz", self.service.healthz)
        elif path == "/readyz":
            self._run("/readyz", self.service.handle_readyz)
        elif path == "/metrics":
            self._run(
                "/metrics",
                lambda: self.service.metrics_reply(self.headers.get("Accept")),
            )
        elif path.startswith("/v1/trace/"):
            trace_id = path[len("/v1/trace/"):]
            self._run("/v1/trace", lambda: self.service.handle_trace(trace_id))
        elif path.startswith("/v1/schedule/"):
            digest = path[len("/v1/schedule/"):]
            self._run(
                "/v1/schedule", lambda: self.service.handle_schedule(digest)
            )
        elif path == "/v1/rollout":
            self._run("/v1/rollout", self.service.handle_rollout_status)
        else:
            return False
        return True

    def _route_post(self, path: str) -> bool:
        if path == "/v1/sweep":
            self._run(
                "/v1/sweep",
                lambda: self.service.handle_sweep_wire(
                    self._read_body(),
                    accept=self.headers.get("Accept"),
                    if_none_match=self.headers.get("If-None-Match"),
                ),
            )
        elif path == "/v1/optimize":
            self._run(
                "/v1/optimize",
                lambda: self.service.handle_optimize(self._read_body()),
            )
        elif path == "/v1/register":
            self._run(
                "/v1/register",
                lambda: self.service.handle_register(self._read_body()),
            )
        elif path == "/v1/report":
            self._run(
                "/v1/report",
                lambda: self.service.handle_report(self._read_body()),
            )
        elif path == "/v1/calibrate/propose":
            self._run(
                "/v1/calibrate/propose",
                lambda: self.service.handle_calibrate_propose(self._read_body()),
            )
        elif path == "/v1/rollout":
            self._run(
                "/v1/rollout",
                lambda: self.service.handle_rollout_action(self._read_body()),
            )
        else:
            return False
        return True


class _ServiceHTTPServer(ThreadingHTTPServer):
    """A threading server that can count — and drain — in-flight requests.

    ``track_request`` wraps each handled request (entered by
    ``_Handler._run``, so idle keep-alive connections don't count);
    ``drain`` blocks until the in-flight count reaches zero or the
    deadline passes — the SIGTERM graceful-shutdown path.
    """

    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    @contextmanager
    def track_request(self):
        with self._inflight_cv:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    def inflight(self) -> int:
        with self._inflight_cv:
            return self._inflight

    def drain(self, deadline_s: float) -> bool:
        """Wait for in-flight requests to finish; False if any remained."""
        deadline = monotonic() + deadline_s
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
            return True


def make_server(
    service: TuningService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    handler_cls: type[_Handler] = _Handler,
) -> _ServiceHTTPServer:
    """Bind a threaded HTTP server for ``service``.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address[1]``.  One thread per connection: concurrent
    identical requests genuinely race into the single-flight layer.
    ``handler_cls`` lets the fleet coordinator extend the routing table.
    """
    handler = type("BoundHandler", (handler_cls,), {"service": service})
    return _ServiceHTTPServer((host, port), handler)


@contextmanager
def serve_background(
    service: TuningService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    factory=make_server,
):
    """Run a server on a background thread; yields its base URL.

    The in-process harness used by tests, benchmarks and the quickstart
    example — requests travel through real sockets and real threads.
    Pass ``factory=make_fleet_server`` to serve a coordinator.
    """
    server = factory(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{bound_host}:{bound_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

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
  packed binary representation — the L2 store's own payload file (a
  checksummed container of raw arrays), sent from the store file to the
  socket by ``sendfile`` (the bytes never pass through Python) when one
  exists.
* ``POST /v1/optimize`` — a whole-graph tuned schedule through the
  parallel scheduler (:func:`repro.engine.scheduler.sweep_graph`), with
  the same coalescing over a request-level digest and a cache of whole
  responses.  One routine (``TuningService._tune``) runs the paper's
  recipe for every whole-graph request — cap guard → graph → sweeps →
  global selection — for ``/v1/optimize``, ``/v1/register`` and, with
  the fleet's sweeps, the coordinator's ``/v1/optimize_batch``.
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
:mod:`repro.engine.memo`) and resolves its ``/v1/sweep`` and its graph
sweeps (local or, on a coordinator, fleet) through it, so a digest one
endpoint resolved is an L1 hit for the others and services sharing a
process stay isolated.  Two more byte-bounded LRUs of the same class sit
on the wire path.  The *decision map* remembers, per route, raw body
bytes and served cost-model version, what the body decides to: the
parsed request, its model snapshot, digest, size estimate and store
file — so a repeated body is not parsed, hashed or size-checked again.
The *response cache* holds encoded reply bodies (whole ``/v1/optimize``
replies, JSON ``/v1/sweep`` replies), so a warm reply is not encoded
again.  Resolution still runs on every request: tier metrics,
single-flight and the canary see every request.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json import loads
from pathlib import Path
from time import monotonic, perf_counter, time
from typing import BinaryIO

from repro import __version__, obs
from repro.engine.memo import BoundedCache, new_payload_cache
from repro.engine.scheduler import (
    DISABLE_STORE,
    _estimated_configs,
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
    REQUEST,
    OptimizeRequest,
    ProtocolError,
    SweepRequest,
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
    "Decision",
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

#: Byte bound of the cache of encoded reply bodies.  A fused encoder
#: ``/v1/optimize`` reply is ~25 KB, a JSON ``/v1/sweep`` reply ~2 KB.
RESPONSE_CACHE_BYTES = 32 * 2**20

#: Byte bound of the decision map.  An entry weighs its body's length plus
#: :data:`DECISION_ENTRY_BYTES`, so the bound holds for tiny bodies too
#: (``{}`` is a valid optimize body).  A fused encoder sweep entry weighs
#: ~5 KB, so this holds about eight hundred: every sweep of a few dozen
#: problem shapes.
DECISION_CACHE_BYTES = 4 * 2**20

#: What one remembered decision holds besides its body bytes, rounded up:
#: measured with ``tracemalloc`` at ~3.9 KB for a fused encoder sweep (its
#: ``OpSpec``, ``DimEnv`` and ``CostModel``) and ~1.1 KB for an optimize
#: body.
DECISION_ENTRY_BYTES = 4096

_UNSET = object()


class NotFoundError(KeyError):
    """A well-formed request for a resource that does not exist (HTTP 404)."""


@dataclass
class WireReply:
    """A fully-determined HTTP response below the JSON layer.

    ``body`` carries in-memory responses; ``stream`` (exclusive with a
    non-empty body) is an open binary file the handler hands to the
    socket's ``sendfile``, so a packed payload already sitting in the L2
    store goes from the page cache to the socket without a copy through
    Python.  Whoever sends the reply owns closing the stream.
    """

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    stream: BinaryIO | None = None
    stream_len: int = 0


@dataclass(frozen=True)
class Decision:
    """What one request body decides to before any resolution work.

    The parsed request, its cost-model snapshot and the digest under it;
    for a sweep also its size estimate and the store file of its payload
    (``None`` without a store).  ``refused`` marks a body its route's guard
    answers 400 (a sweep over the size guard, a whole graph over the cap).
    A pure function of the body and the served model, which is what lets
    :meth:`TuningService._decided` remember it by the body's bytes.
    """

    req: SweepRequest | OptimizeRequest
    cost: CostModel
    digest: str
    estimated: int = 0
    path: Path | None = None
    refused: bool = False


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
        #: Encoded reply bodies (see the module docstring).
        self.responses = BoundedCache(RESPONSE_CACHE_BYTES, weigh=len)
        #: ``(route, body bytes, model version) → (body bytes, Decision)``.
        self.decisions = BoundedCache(
            DECISION_CACHE_BYTES,
            weigh=lambda item: len(item[0]) + DECISION_ENTRY_BYTES,
        )
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
            "repro_decision_cache_entries",
            "Request bodies currently remembered by the decision map.",
            lambda: len(self.decisions),
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
        #: ``routes()``, built once: what the HTTP handler dispatches on.
        self.route_table = self.routes()

    # -- tiered resolution ---------------------------------------------------
    def _resolve(self, digest: str, rep, evaluate, *, version, l1, store):
        """One digest through the engine's tier chain, single-flighted.

        ``evaluate`` runs at most once across all concurrent callers of
        ``digest``; the tier that served this request is recorded in the
        metrics and on the current span.  ``version`` is that of the
        request's model snapshot, which ``store`` entries must carry.
        """
        value, tier = resolve(
            {digest: rep},
            version=version,
            l1=l1,
            store=store,
            evaluate=evaluate,
            single_flight=partial(self.flights.do, timeout=FLIGHT_TIMEOUT_S),
        )[digest]
        self.metrics.record_tier(tier)
        obs.set_attr("resolve.tier", tier)
        return value

    def _cached_response(self, digest: str, compute) -> bytes:
        """A whole reply body through the response cache, single-flighted.

        The value is a reply's encoded bytes, not a store payload, so there
        is no L2; the reply's per-sweep work is shared with ``/v1/sweep``
        through the payload L1 and the store inside the sweeps ``compute``
        runs.
        """
        return self._resolve(
            digest,
            None,
            lambda _: [(digest, (compute(), "computed"))],
            version=None,  # no store to check; the digest embeds it
            l1=self.responses,
            store=None,
        )

    # -- deciding a request ----------------------------------------------------
    def _decided(self, route: str, raw: bytes, decide) -> Decision:
        """``decide`` of one raw ``route`` body, remembered by its bytes.

        The key holds the served cost-model version, so after a promote
        the same bytes miss and decide under the new model (new snapshot,
        new digest).  Only bodies that are served are remembered: one that
        fails to parse raises anew each time, and a ``refused`` one is
        decided anew each time, so a flood of refused bodies cannot evict
        served ones.

        A miss pays the whole decision: for a fused encoder sweep body
        that is the JSON decode, parse and digest (170–250 µs in process on
        2 vCPUs) plus the size estimate (~30 µs) and, with a store, the
        store path (~20 µs).  So a 304 on a miss, or for a refused body,
        costs that much; a hit costs ~7 µs.
        """
        item = self.decisions.get((route, raw, active_cost_model_version()))
        if item is not None:
            return item[1]
        decision = decide(_json_body(raw))
        if not decision.refused:
            self.decisions.put((route, raw, decision.cost.version), (raw, decision))
        return decision

    def _sweep_decision(self, body) -> Decision:
        req = parse_sweep_request(body)
        cost = CostModel(req.gpu)
        digest = sweep_request_digest(req, cost)
        # The scheduler's own pool-threshold helper: cheap (cached
        # feasibility/space scans), and exact enough to keep an uncapped
        # wide-kernel request from OOM-killing the daemon.
        estimated = _estimated_configs(req.op, req.env, req.cap)
        return Decision(
            req,
            cost,
            digest,
            estimated=estimated,
            path=None if self.store is None else self.store.path_for(digest),
            refused=estimated > MAX_SWEEP_CONFIGS,
        )

    def _optimize_decision(self, body) -> Decision:
        req = parse_optimize_request(body)
        cost = CostModel(req.gpu)
        return Decision(
            req,
            cost,
            optimize_request_digest(req, cost),
            refused=_over_optimize_cap(req.cap),
        )

    # -- endpoint bodies -----------------------------------------------------
    def _resolve_sweep(self, d: Decision) -> dict:
        """One decided sweep's payload through the size guard and the full
        tier chain."""
        req = d.req
        obs.set_attr("store.digest", d.digest)
        if d.refused:
            raise ProtocolError(
                f"sweep of ~{d.estimated} configurations exceeds the served "
                f"limit of {MAX_SWEEP_CONFIGS}; pass a smaller cap"
            )
        payload = self._resolve(
            d.digest,
            req.op,
            local_evaluator(
                req.env, d.cost, cap=req.cap, seed=req.seed, store=self.store
            ),
            version=d.cost.version,
            l1=self.cache,
            store=self.store,
        )
        self._maybe_canary(req, d.digest, payload)
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
            sweep = sweep_from_payload(req.op, payload)
            if not sweep.num_configs:
                return
            best = sweep.best
            active_best = best.total_us
            if active_best <= 0:
                return
            kt = CostModel(req.gpu, params=candidate).time_op(
                req.op, best.config, req.env
            )
            if kt is None:
                return
            divergence = abs(kt.total_us - active_best) / active_best
        except Exception:  # noqa: BLE001 - scoring must never break serving
            self.metrics.record_error("canary")
            return
        self.metrics.record_calibration("canary_request")
        rollout.record_canary(divergence)

    def _sweep_response(self, d: Decision, payload: dict) -> dict:
        sweep = sweep_from_payload(d.req.op, payload)
        return sweep_response_from_sweep(
            sweep, d.cost, digest=d.digest, top_k=d.req.top_k
        )

    def handle_sweep(self, body: dict) -> dict:
        d = self._sweep_decision(body)
        return self._sweep_response(d, self._resolve_sweep(d))

    def handle_sweep_wire(
        self, raw: bytes, *, accept: str | None = None, if_none_match: str | None = None
    ) -> WireReply:
        """``/v1/sweep`` below the JSON layer: ETag revalidation + packing.

        The ETag is revalidated *before* the size guard and any resolution
        work — a 304 costs one decision (a lookup for a remembered body, see
        :meth:`_decided`), nothing else.  That is
        sound because responses are pure functions of the request digest
        (and ``top_k``, which the JSON tag carries): a client holding a
        representation under a matching tag holds the current bytes.
        """
        d = self._decided("/v1/sweep", raw, self._sweep_decision)
        binary = accepts_packed(accept)
        etag = sweep_etag(d.digest, top_k=None if binary else d.req.top_k)
        if etag_matches(if_none_match, etag):
            self.metrics.record_response("not_modified")
            return WireReply(status=304, headers={"ETag": etag})
        payload = self._resolve_sweep(d)
        if binary:
            self.metrics.record_response("binary")
            return self._packed_reply(d, payload, etag)
        # The JSON body is a function of the digest, top_k and the op's
        # name: a contraction's digest is name-free, but its reply names it.
        key = (d.digest, d.req.top_k, d.req.op.name)
        body = self.responses.get(key)
        if body is None:
            body = canonical_json_bytes(self._sweep_response(d, payload))
            self.responses.put(key, body)
        self.metrics.record_response("json")
        return WireReply(
            status=200,
            headers={"Content-Type": "application/json", "ETag": etag},
            body=body,
        )

    def _packed_reply(self, d: Decision, payload: dict, etag: str) -> WireReply:
        """The packed binary representation, streamed from L2 when possible.

        The wire bytes are exactly the store's payload file, so a warm
        store serves an open file handle that the handler ``sendfile``s to
        the socket; a storeless daemon (or a just-evicted entry) packs the
        in-memory payload instead — byte-identical content either way,
        since the store writer is deterministic.
        """
        headers = {"Content-Type": BINARY_CONTENT_TYPE, "ETag": etag}
        if d.path is not None:
            try:
                fh = open(d.path, "rb")
            except OSError:
                pass  # evicted or never persisted; fall through to pack
            else:
                size = os.fstat(fh.fileno()).st_size
                return WireReply(
                    status=200, headers=headers, stream=fh, stream_len=size
                )
        return WireReply(
            status=200, headers=headers, body=pack_payload_bytes(d.digest, payload)
        )

    def handle_optimize_wire(self, raw: bytes) -> bytes:
        """``/v1/optimize`` from its raw body: the encoded reply."""
        d = self._decided("/v1/optimize", raw, self._optimize_decision)
        return self._optimize(d, "optimize")

    def _optimize(self, d: Decision, endpoint: str, evaluate=None) -> bytes:
        """A whole-graph reply's bytes through the response cache.

        ``/v1/optimize`` sweeps on this daemon's engine; the coordinator's
        ``/v1/optimize_batch`` passes its fleet ``evaluate``, built for the
        decision's model snapshot — the only difference between the two,
        so they answer byte-identically.
        """
        obs.set_attr("request.digest", d.digest)

        def compute() -> bytes:
            graph, sweeps, selection = self._tune(d.req, d.cost, endpoint, evaluate)
            return canonical_json_bytes(
                optimize_response_from_sweeps(
                    graph, sweeps, d.cost, digest=d.digest, selection=selection
                )
            )

        return self._cached_response(d.digest, compute)

    def _tune(self, req, cost, endpoint: str, evaluate=None):
        """Tune one optimize-style request: the paper's recipe, once.

        Cap guard → request graph → per-op sweeps through this service's
        L1 and store (``evaluate`` produces the digests neither holds;
        default the local engine) → global configuration selection, all
        under the request's model snapshot ``cost``.  Returns ``(graph,
        sweeps, selection)``.  Not every requestable graph has a primary
        chain from ``"x"``; for those ``selection`` is None.
        """
        from repro.configsel.chain import ChainError
        from repro.configsel.selector import select_configurations
        from repro.configsel.sssp import SSSPError

        if _over_optimize_cap(req.cap):
            raise ProtocolError(
                f"{endpoint} requires a cap of at most {MAX_OPTIMIZE_CAP} "
                "(whole graphs contain kernels with ~1e10-config spaces)"
            )
        graph = build_request_graph(req)
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
            evaluate=evaluate,
        )
        sweep_s = perf_counter() - t0
        t0 = perf_counter()
        try:
            selection = select_configurations(
                graph, req.env, cost, sweeps=sweeps, cap=req.cap, seed=req.seed
            )
        except (SSSPError, ChainError):
            selection = None
        self.metrics.record_optimize_breakdown(sweep_s, perf_counter() - t0)
        return graph, sweeps, selection

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
        from repro.validation import validate_entry

        if self.registry is None:
            raise ProtocolError(
                "this daemon has no schedule registry configured "
                "(set REPRO_SCHEDULE_REGISTRY or attach a sweep store)"
            )
        body = REQUEST.object(body)
        if "entry" in body:
            at = REQUEST.at("entry")
            entry = ScheduleEntry.from_wire(body["entry"], at)
            recomputed = entry.recompute_digest(at=at)
            if recomputed != entry.digest:
                raise ProtocolError(
                    f"entry declares digest {entry.digest}, but its content "
                    f"hashes to {recomputed}"
                )
        else:
            entry = self._tune_entry(body)
        report = validate_entry(entry, store=self.store)
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
        from repro.registry import build_entry

        req = parse_optimize_request(body)
        cost = CostModel(req.gpu)
        graph, _, selection = self._tune(req, cost, "register")
        if selection is None:
            raise ProtocolError(
                f"model {req.model!r} admits no global selection"
            )
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
        from repro.calibrate import validate_record

        records = REQUEST.array(REQUEST.object(body), "records")
        if not records:
            REQUEST.fail("must hold at least one record", "records")
        served = active_cost_model_version()
        try:
            validated = [
                validate_record(
                    wire, REQUEST.at("records", i), served_version=served
                )
                for i, wire in enumerate(records)
            ]
        except ProtocolError:
            self.metrics.record_calibration("report_rejected")
            raise
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
        from repro.calibrate import CandidateModel, fit_candidate
        from repro.hardware.params import params_from_wire

        body = REQUEST.object(body)
        force = REQUEST.boolean(body, "force", False)
        records = self.feedback.records()
        if "params" in body:
            params = params_from_wire(body["params"], REQUEST.at("params"))
            candidate = CandidateModel.build(params, {"source": "explicit-params"})
        elif records:
            candidate = fit_candidate(records)
        else:
            raise ProtocolError(
                "the feedback store is empty; POST /v1/report "
                "(or run `repro report`) before proposing"
            )
        status = self.rollout.propose(candidate, records, force=force)
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
        body = REQUEST.object(body)
        action = REQUEST.choice(body, "action", ("promote", "rollback"))
        if action == "promote":
            status = self.rollout.promote()
        else:
            status = self.rollout.rollback(REQUEST.string(body, "reason", "manual"))
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
            report = validate_entry(item, store=self.store, deep=deep)
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
                compute_payload(op, env, CostModel(), cap=4, seed=0x5EED)
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
        body["response_cache"] = self.responses.stats()
        body["decisions"] = self.decisions.stats()
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
        """``GET /v1/trace/<id>``: the retained spans of a trace, this
        process's and its members' (:meth:`member_spans`), by span id.

        404 distinguishes "never saw it / aged out" from an empty list —
        the coordinator's fleet aggregation skips 404ing members.
        """
        if not trace_id or "/" in trace_id:
            raise ProtocolError(f"malformed trace id {trace_id!r}")
        spans = list(obs.get_tracer().trace(trace_id))
        seen = {s["span_id"] for s in spans}
        for rec in self.member_spans(trace_id):
            if isinstance(rec, dict) and rec.get("span_id") not in seen:
                seen.add(rec.get("span_id"))
                spans.append(rec)
        if not spans:
            raise NotFoundError(f"no spans retained for trace {trace_id}")
        tree = trace_tree(spans)
        return {
            "trace_id": trace_id,
            "span_count": tree["spans"],
            "connected": tree["connected"],
            "spans": spans,
        }

    def member_spans(self, trace_id: str) -> list[dict]:
        """Spans of ``trace_id`` held by other processes this one answers
        for; a single daemon has none (a coordinator has its workers')."""
        return []

    # -- HTTP routes -----------------------------------------------------------
    def routes(self) -> dict:
        """The route table: ``(method, path) → fn(request)``.

        A path ending in ``/`` is a prefix, and ``request.tail`` holds the
        rest of the requested path; every other path matches exactly.  The
        endpoint label (``/metrics``, the ``server<label>`` span, fault
        specs) is the path without a prefix's trailing slash.  ``fn``
        returns a dict or its canonical bytes (a 200 JSON body) or a
        :class:`WireReply`; it reads a POST body with ``request.body()``
        (decoded) or ``request.raw_body()`` (bytes, for a route that decides
        its request through :meth:`_decided`) and headers with
        ``request.headers``.  Subclasses extend the table with
        ``{**super().routes(), ...}``.
        """
        return {
            ("GET", "/healthz"): lambda r: self.healthz(),
            ("GET", "/readyz"): lambda r: self.handle_readyz(),
            ("GET", "/metrics"): lambda r: self.metrics_reply(r.headers.get("Accept")),
            ("GET", "/v1/trace/"): lambda r: self.handle_trace(r.tail),
            ("GET", "/v1/schedule/"): lambda r: self.handle_schedule(r.tail),
            ("GET", "/v1/rollout"): lambda r: self.handle_rollout_status(),
            ("POST", "/v1/sweep"): lambda r: self.handle_sweep_wire(
                r.raw_body(),
                accept=r.headers.get("Accept"),
                if_none_match=r.headers.get("If-None-Match"),
            ),
            ("POST", "/v1/optimize"): lambda r: self.handle_optimize_wire(
                r.raw_body()
            ),
            ("POST", "/v1/register"): lambda r: self.handle_register(r.body()),
            ("POST", "/v1/report"): lambda r: self.handle_report(r.body()),
            ("POST", "/v1/calibrate/propose"): lambda r: self.handle_calibrate_propose(
                r.body()
            ),
            ("POST", "/v1/rollout"): lambda r: self.handle_rollout_action(r.body()),
        }


def _json_reply(status: int, obj: dict | bytes) -> WireReply:
    """A canonical-JSON :class:`WireReply` (the handler's default shape) of
    ``obj`` or of its already encoded bytes."""
    return WireReply(
        status=status,
        headers={"Content-Type": "application/json"},
        body=obj if isinstance(obj, bytes) else canonical_json_bytes(obj),
    )


def _over_optimize_cap(cap: int | None) -> bool:
    """Whether a whole-graph request's cap is one ``_tune`` refuses."""
    return cap is None or cap > MAX_OPTIMIZE_CAP


def _json_body(raw: bytes):
    """A request body's JSON value; undecodable bytes are a 400."""
    try:
        return loads(raw)
    except (ValueError, RecursionError) as exc:  # also non-UTF-8 bytes
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc


class _Handler(BaseHTTPRequestHandler):
    """Serves HTTP through its server's service's route table."""

    quiet = True
    server_version = f"repro-tuningd/{__version__}"
    # Socket timeout: a client that claims a Content-Length and then stalls
    # must not pin a handler thread of a weeks-lived daemon forever.
    timeout = 60
    #: The requested path past a prefix route's ``/`` (see ``routes()``).
    tail = ""

    @property
    def service(self) -> TuningService:
        return self.server.service

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        """Find the route: the exact path, else the prefix it starts with."""
        routes = self.service.route_table
        key = (method, self.path)
        if key not in routes:
            key = next(
                (
                    (m, p)
                    for m, p in routes
                    if m == method and p.endswith("/") and self.path.startswith(p)
                ),
                None,
            )
        if key is None:
            self.service.metrics.record_error("404")
            reply = _json_reply(
                404, {"error": f"no such endpoint: {method} {self.path}"}
            )
            try:
                self._send_reply(reply)
            except (ConnectionError, TimeoutError):
                pass  # scanner closed the socket mid-404; nothing to answer
            return
        self.tail = self.path[len(key[1]):]
        self._run(key[1].rstrip("/"), routes[key])

    def _send_reply(self, reply: WireReply) -> None:
        try:
            self.send_response(reply.status)
            for name, value in reply.headers.items():
                self.send_header(name, value)
            if reply.stream is not None:
                self.send_header("Content-Length", str(reply.stream_len))
                self.end_headers()
                self.connection.sendfile(reply.stream, count=reply.stream_len)
            else:
                self.send_header("Content-Length", str(len(reply.body)))
                self.end_headers()
                if reply.body:
                    self.wfile.write(reply.body)
        finally:
            if reply.stream is not None:
                reply.stream.close()

    def body(self):
        """The request's JSON body (a route's ``request.body()``)."""
        return _json_body(self.raw_body())

    def raw_body(self) -> bytes:
        """The request's body bytes (a route's ``request.raw_body()``)."""
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
        return self.rfile.read(n)

    def _run(self, endpoint: str, fn) -> None:
        # In-flight tracking lives here (not in handle_one_request) so an
        # idle keep-alive connection never counts against graceful drain.
        # Latency from a monotonic clock (an NTP step must never yield a
        # negative sample), inside a server span that adopts the caller's
        # traceparent header — the cross-process link of a fleet trace.
        # The span closes and the latency is recorded before the reply is
        # written: a caller that asks for its trace or for /metrics right
        # after its reply finds its own request there.
        metrics = self.service.metrics
        with self.server.track_request():
            metrics.request_started()
            start = perf_counter()
            reply = None
            try:
                with obs.span(
                    f"server{endpoint}",
                    parent=self.headers.get(obs.TRACEPARENT_HEADER),
                    service=self.service.service_name,
                    endpoint=endpoint,
                ):
                    reply = self._respond(endpoint, fn)
            finally:
                metrics.request_finished()
                metrics.record_request(endpoint, perf_counter() - start)
            if reply is not None:
                try:
                    self._send_reply(reply)
                except (ConnectionError, TimeoutError):
                    pass  # the client went away mid-send

    def _respond(self, endpoint: str, fn) -> WireReply | None:
        """The one reply to this request (``None``: the client is gone)."""
        try:
            faults = self.service.faults
            if faults is not None:
                # kill/hang fire before any work: a killed worker leaves a
                # reset connection, a hung one blows the caller's deadline.
                faults.before(endpoint)
            # Compute the full body before sending anything: exactly one
            # response ever goes on the wire, so a handler failure cannot
            # corrupt a half-written 200 with a trailing 500.  ``fn`` may
            # return a plain dict or its bytes (a 200 JSON body) or a
            # WireReply carrying its own status, headers and bytes/stream.
            try:
                result = fn(self)
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
            return reply
        except (ConnectionError, TimeoutError):
            # The client went away before its reply; nothing left to answer.
            return None


class _ServiceHTTPServer(ThreadingHTTPServer):
    """A threading server that can count — and drain — in-flight requests.

    ``track_request`` wraps each handled request (entered by
    ``_Handler._run``, so idle keep-alive connections don't count);
    ``drain`` blocks until the in-flight count reaches zero or the
    deadline passes — the SIGTERM graceful-shutdown path.
    """

    daemon_threads = True
    #: Listen backlog.  Every request opens a connection of its own, so a
    #: burst of clients reconnects at once; past the backlog the kernel
    #: drops their SYNs and each waits out a 1 s retransmit.  The
    #: socketserver default of 5 did that with 8 closed-loop clients.
    request_queue_size = 128

    def __init__(self, service: TuningService, address) -> None:
        self.service = service
        super().__init__(address, _Handler)
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
    service: TuningService, host: str = "127.0.0.1", port: int = 0
) -> _ServiceHTTPServer:
    """Bind a threaded HTTP server for ``service`` and its route table.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address[1]``.  One thread per connection: concurrent
    identical requests genuinely race into the single-flight layer.
    """
    return _ServiceHTTPServer(service, (host, port))


@contextmanager
def serve_background(service: TuningService, host: str = "127.0.0.1", port: int = 0):
    """Run a server on a background thread; yields its base URL.

    The in-process harness used by tests, benchmarks and the quickstart
    example — requests travel through real sockets and real threads.
    """
    server = make_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{bound_host}:{bound_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

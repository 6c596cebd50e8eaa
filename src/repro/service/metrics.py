"""Service observability: typed counters, latency windows, Prometheus text.

The daemon resolves every sweep through a tier chain — bounded in-memory
cache, in-flight coalescing, persistent L2 store, delta reconstruction,
cold evaluation — and each request is attributed to exactly one tier.
``GET /metrics`` serves a snapshot of these counters plus p50/p95/p99
request latencies per endpoint, which is how the load harness asserts "N
concurrent identical requests cost one evaluation".

Counters live in a typed :class:`repro.obs.metrics.MetricsRegistry`, so
the same recording path feeds two renderings: the JSON snapshot every
existing consumer reads, and the Prometheus text exposition served under
``Accept: text/plain`` (see ``repro.obs.metrics.wants_prometheus``).
Alongside the counters, each endpoint gets a fixed-bucket latency
*histogram* (aggregatable across a fleet, unlike percentiles) and an
in-flight-requests gauge.

Latencies are kept in a bounded ring (last :data:`WINDOW` samples per
endpoint): a long-lived daemon must not grow memory with request count,
and recent-window percentiles are the operationally useful ones anyway.
Windows are *copied* under the lock and sorted outside it — sorting 4096
samples per endpoint inside the global lock measurably stalled the
recording path whenever ``/metrics`` was scraped under load.  All
durations come from monotonic clocks (``time.perf_counter``): an NTP
step must never produce a negative latency sample or a jumped uptime.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry

__all__ = [
    "ServiceMetrics",
    "CALIBRATION_EVENTS",
    "FLEET_EVENTS",
    "RESOLVE_TIERS",
    "RESPONSE_KINDS",
    "REGISTRY_EVENTS",
]

#: Where a request's sweep was resolved, cheapest tier first.  ``delta``
#: counts requests whose exact digest missed L2 but whose payload was
#: rebuilt from a structural twin (a stored sweep of the same op shape at
#: different dim sizes) instead of a cold evaluation.
RESOLVE_TIERS = ("l1", "coalesced", "l2", "delta", "computed")

#: How a ``/v1/sweep`` response left the daemon: canonical JSON (the
#: default), the packed binary payload representation, or a 304 Not Modified
#: revalidation that carried no body at all.
RESPONSE_KINDS = ("json", "binary", "not_modified")

#: Schedule-registry lifecycle events the daemon counts: entries accepted
#: by ``/v1/register``, registrations rejected by validation, entries
#: served from ``/v1/schedule/<digest>``, and background-revalidation
#: verdicts per entry.
REGISTRY_EVENTS = (
    "registered",
    "rejected",
    "served",
    "revalidate_pass",
    "revalidate_fail",
)

#: Fleet coordination events: whole ``/v1/optimize_batch`` requests,
#: per-job outcomes (served by a worker vs. recovered on the local
#: engine), dispatch retries, and quarantine verdicts.  The chaos suite
#: asserts on these — a killed worker must show up as quarantine +
#: retry, never as a changed response body.
FLEET_EVENTS = (
    "batch",
    "job_remote",
    "job_local_fallback",
    "retry",
    "quarantine",
)

#: Calibration/rollout lifecycle events: accepted and rejected
#: ``/v1/report`` batches, shadow-gate verdicts, canary dual-scores and
#: the regression verdicts they produce, promotions and rollbacks.  The
#: rollout smoke suite asserts on these — a regressing candidate must
#: show up as ``canary_regression`` + ``rollback`` and *zero* changed
#: responses.
CALIBRATION_EVENTS = (
    "report",
    "report_rejected",
    "shadow_pass",
    "shadow_reject",
    "canary_request",
    "canary_regression",
    "promote",
    "rollback",
)

#: Latency samples retained per endpoint.
WINDOW = 4096


def _percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list."""
    if not sorted_samples:
        return 0.0
    idx = round(q * (len(sorted_samples) - 1))
    return sorted_samples[idx]


class ServiceMetrics:
    """Thread-safe counters and latency windows for one daemon.

    The JSON ``snapshot()`` shape is load-bearing (clients, the load
    harness, and the chaos suite all parse it); the typed registry
    underneath additionally renders the whole set as Prometheus text via
    :meth:`prometheus`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_mono = time.perf_counter()
        self._latency: dict[str, deque[float]] = {}
        self._last_revalidation: dict | None = None
        self._last_rollout: dict | None = None

        reg = self.registry = MetricsRegistry()
        self._requests = reg.counter(
            "repro_requests_total", "Requests served, by endpoint.",
            ("endpoint",),
        )
        self._errors = reg.counter(
            "repro_errors_total", "Error responses, by endpoint.",
            ("endpoint",),
        )
        self._tiers = reg.counter(
            "repro_resolve_tier_total",
            "Sweep resolutions, by tier (each request hits exactly one).",
            ("tier",),
        )
        self._responses = reg.counter(
            "repro_responses_total",
            "Sweep responses, by wire representation.",
            ("kind",),
        )
        self._registry_events = reg.counter(
            "repro_registry_events_total",
            "Schedule-registry lifecycle events.",
            ("event",),
        )
        self._fleet_events = reg.counter(
            "repro_fleet_events_total",
            "Fleet coordination events.",
            ("event",),
        )
        self._calibration_events = reg.counter(
            "repro_calibration_events_total",
            "Calibration feedback and rollout lifecycle events.",
            ("event",),
        )
        self._optimize_runs = reg.counter(
            "repro_optimize_runs_total",
            "Cold /v1/optimize computations.",
        )
        self._optimize_phase_ms = reg.counter(
            "repro_optimize_phase_ms_total",
            "Cold /v1/optimize time, by phase (sweep vs. selection), ms.",
            ("phase",),
        )
        self._latency_hist = reg.histogram(
            "repro_request_latency_seconds",
            "Request latency, by endpoint.",
            ("endpoint",),
            buckets=DEFAULT_LATENCY_BUCKETS_S,
        )
        self._inflight = reg.gauge(
            "repro_inflight_requests",
            "Requests currently being handled.",
        )
        self._inflight.set(0)  # render from the first scrape, not first request
        reg.gauge_callback(
            "repro_uptime_seconds",
            "Seconds since the daemon started (monotonic).",
            lambda: time.perf_counter() - self._started_mono,
        )
        # Fixed vocabularies render at zero from the first scrape: a
        # dashboard must distinguish "no quarantines" from "not exported".
        for tier in RESOLVE_TIERS:
            self._tiers.preset(tier)
        for kind in RESPONSE_KINDS:
            self._responses.preset(kind)
        for event in REGISTRY_EVENTS:
            self._registry_events.preset(event)
        for event in FLEET_EVENTS:
            self._fleet_events.preset(event)
        for event in CALIBRATION_EVENTS:
            self._calibration_events.preset(event)
        self._optimize_runs.preset()
        self._optimize_phase_ms.preset("sweep")
        self._optimize_phase_ms.preset("select")

    # -- recording -----------------------------------------------------------
    def record_request(self, endpoint: str, latency_s: float) -> None:
        self._requests.inc(endpoint=endpoint)
        self._latency_hist.observe(latency_s, endpoint=endpoint)
        with self._lock:
            window = self._latency.get(endpoint)
            if window is None:
                window = self._latency[endpoint] = deque(maxlen=WINDOW)
            window.append(latency_s * 1e3)

    def record_error(self, endpoint: str) -> None:
        self._errors.inc(endpoint=endpoint)

    @staticmethod
    def _count(counter, known: tuple[str, ...], what: str, **label: str) -> None:
        """Increment ``counter`` for one label value of a fixed vocabulary."""
        (value,) = label.values()
        if value not in known:
            raise ValueError(f"unknown {what} {value!r}; known: {known}")
        counter.inc(**label)

    def record_tier(self, tier: str) -> None:
        self._count(self._tiers, RESOLVE_TIERS, "resolve tier", tier=tier)

    def record_response(self, kind: str) -> None:
        self._count(self._responses, RESPONSE_KINDS, "response kind", kind=kind)

    def record_optimize_breakdown(self, sweep_s: float, select_s: float) -> None:
        """Attribute one cold ``/v1/optimize`` computation to its phases."""
        self._optimize_runs.inc()
        self._optimize_phase_ms.inc(sweep_s * 1e3, phase="sweep")
        self._optimize_phase_ms.inc(select_s * 1e3, phase="select")

    def record_registry(self, event: str) -> None:
        self._count(
            self._registry_events, REGISTRY_EVENTS, "registry event", event=event
        )

    def record_fleet(self, event: str) -> None:
        self._count(self._fleet_events, FLEET_EVENTS, "fleet event", event=event)

    def record_revalidation(self, summary: dict) -> None:
        """Remember the latest background-revalidation sweep's outcome."""
        with self._lock:
            self._last_revalidation = dict(summary)

    def record_calibration(self, event: str) -> None:
        self._count(
            self._calibration_events, CALIBRATION_EVENTS, "calibration event",
            event=event,
        )

    def record_rollout(self, status: dict) -> None:
        """Remember the rollout state machine's latest status snapshot."""
        with self._lock:
            self._last_rollout = dict(status)

    def request_started(self) -> None:
        self._inflight.inc()

    def request_finished(self) -> None:
        self._inflight.dec()

    # -- reading -------------------------------------------------------------
    @staticmethod
    def _by_label(counter) -> dict[str, int | float]:
        return {key[0]: value for key, value in counter.items()}

    @classmethod
    def _counts(cls, counter, known: tuple[str, ...]) -> dict[str, int]:
        """Every value of a fixed vocabulary with its count, zeros included."""
        counts = cls._by_label(counter)
        return {value: counts.get(value, 0) for value in known}

    def registry_counts(self) -> dict[str, int]:
        return self._counts(self._registry_events, REGISTRY_EVENTS)

    def fleet_counts(self) -> dict[str, int]:
        return self._counts(self._fleet_events, FLEET_EVENTS)

    def calibration_counts(self) -> dict[str, int]:
        return self._counts(self._calibration_events, CALIBRATION_EVENTS)

    def tier_counts(self) -> dict[str, int]:
        return self._counts(self._tiers, RESOLVE_TIERS)

    def inflight(self) -> int | float:
        return self._inflight.value()

    def prometheus(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        return self.registry.render()

    def snapshot(self) -> dict:
        """One JSON-able view of everything (the ``/metrics`` body)."""
        # Copy each ring under the lock; sort outside it.  Sorting 4096
        # floats per endpoint while holding the recording lock stalls
        # every handler thread for the duration of the scrape.
        with self._lock:
            windows = {
                endpoint: list(window)
                for endpoint, window in self._latency.items()
            }
            last_revalidation = self._last_revalidation
            last_rollout = self._last_rollout
        latency = {}
        for endpoint, samples in windows.items():
            samples.sort()
            latency[endpoint] = {
                "count": len(samples),
                "p50_ms": _percentile(samples, 0.50),
                "p95_ms": _percentile(samples, 0.95),
                "p99_ms": _percentile(samples, 0.99),
                "max_ms": samples[-1] if samples else 0.0,
            }
        runs = self._optimize_runs.value()
        phase_ms = self._by_label(self._optimize_phase_ms)
        sweep_ms = phase_ms.get("sweep", 0.0) or 0.0
        select_ms = phase_ms.get("select", 0.0) or 0.0
        return {
            "uptime_s": time.perf_counter() - self._started_mono,
            "inflight": self.inflight(),
            "requests": self._by_label(self._requests),
            "errors": self._by_label(self._errors),
            "resolve_tiers": self.tier_counts(),
            "responses": self._counts(self._responses, RESPONSE_KINDS),
            "latency_ms": latency,
            # Where cold /v1/optimize time goes: the sweep phase (engine
            # evaluation through the scheduler) vs. the
            # configuration-selection phase.
            "optimize_breakdown": {
                "computed": runs,
                "sweep_ms_total": float(sweep_ms),
                "select_ms_total": float(select_ms),
                "sweep_ms_avg": sweep_ms / runs if runs else 0.0,
                "select_ms_avg": select_ms / runs if runs else 0.0,
            },
            "registry": {
                "events": self.registry_counts(),
                "last_revalidation": last_revalidation,
            },
            "fleet": {"events": self.fleet_counts()},
            "calibration": {
                "events": self.calibration_counts(),
                "rollout": last_rollout,
            },
        }

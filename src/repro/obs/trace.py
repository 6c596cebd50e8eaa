"""Distributed trace spans: contextvar nesting, ``traceparent``, ring buffer.

One ``/v1/optimize_batch`` crosses five tiers and three processes — the
client, the coordinator, and whichever workers its jobs hash onto — and a
p99 regression is unattributable without a record of where each request
actually spent its time.  This module is the span layer every tier hooks
into:

* a :class:`Span` carries ``trace_id``/``span_id``/``parent_id``, a wall
  start timestamp (display only), a *monotonic* duration (so clock jumps
  can never produce negative spans), free-form key-value attributes, and
  point-in-time events (``retry``, ``quarantine``, ``store.hit``, ...);
* nesting is implicit through a :data:`contextvars.ContextVar`, so a span
  opened anywhere below a request handler parents onto that request
  without plumbing arguments through every call;
* crossing a process boundary is explicit: HTTP hops carry a
  W3C-``traceparent``-style header (``00-<trace32>-<span16>-01``), and
  scheduler worker processes receive the serialized parent context and
  ship their finished spans back with their payloads;
* finished spans land in a bounded in-process ring buffer
  (:meth:`Tracer.trace` backs ``GET /v1/trace/<trace_id>``) and — when
  ``REPRO_TRACE_LOG`` names a file — as one structured JSON line per span
  close.

**Zero-cost-when-off is a hard requirement** (the warm path serves L1
hits in microseconds): with tracing disabled, :func:`span` returns a
single shared no-op object, no contextvar is ever set, and
:func:`add_event`/:func:`set_attr` reduce to one ``ContextVar.get``
returning ``None``.  ``benchmarks/test_obs_overhead.py`` pins the warm
path within noise of the uninstrumented baseline.

Tracing is enabled by ``REPRO_TRACE=1`` (daemons inherit it into their
scheduler worker processes) or programmatically via :func:`set_tracing`.
Everything here is stdlib-only and import-light: the engine's hottest
modules import this one, so it must never pull numpy or the service
stack.
"""

from __future__ import annotations

import contextvars
import json
import os
import re
import threading
import time
from collections import deque

__all__ = [
    "BUFFER_SPANS",
    "TRACE_ENV_VAR",
    "TRACE_LOG_ENV_VAR",
    "TRACEPARENT_HEADER",
    "NullSpan",
    "NullTracer",
    "Span",
    "Tracer",
    "add_event",
    "current_span",
    "current_traceparent",
    "format_traceparent",
    "get_tracer",
    "parse_traceparent",
    "set_tracing",
    "span",
    "tracing_enabled",
]

#: Environment variable enabling tracing ("1"/"true"/... — anything but
#: empty/"0"/"false"/"no"/"off").
TRACE_ENV_VAR = "REPRO_TRACE"

#: Environment variable naming the structured span log file (one JSON
#: line per span close); unset disables the log.
TRACE_LOG_ENV_VAR = "REPRO_TRACE_LOG"

#: The propagation header carried on every traced HTTP hop.
TRACEPARENT_HEADER = "traceparent"

#: Finished spans retained per process (a ring: old traces age out).
BUFFER_SPANS = 8192

#: Sentinel distinguishing "no parent argument" (use the ambient span)
#: from an explicit ``parent=None`` (start a new root).
_AMBIENT = object()

_SPAN_VAR: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_current_span", default=None
)


def _now_unix_us() -> int:
    """Wall-clock microseconds — display/alignment only, never durations."""
    return time.time_ns() // 1000


def format_traceparent(trace_id: str, span_id: str) -> str:
    """The header value for a hop whose parent is ``span_id``."""
    return f"00-{trace_id}-{span_id}-01"


#: W3C traceparent: ``version-trace_id-parent_id-flags``, lowercase hex.
_TRACEPARENT = re.compile(r"([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}")


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a traceparent header, else None.

    Malformed headers are treated as absent rather than an error: a trace
    context is advisory — it must never fail a request that would
    otherwise succeed.
    """
    if not header:
        return None
    match = _TRACEPARENT.fullmatch(header.strip())
    if match is None:
        return None
    version, trace_id, span_id = match.groups()
    if version == "ff" or trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id


class Span:
    """One timed operation in a trace; also its own context manager.

    Entering the span makes it the ambient parent for everything below it
    on this thread/task (via contextvar); exiting records the monotonic
    duration and hands the finished record to the owning tracer.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "events",
        "start_unix_us",
        "dur_us",
        "status",
        "_t0",
        "_token",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        *,
        trace_id: str,
        parent_id: str | None,
        attrs: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = os.urandom(8).hex()
        self.parent_id = parent_id
        self.attrs = attrs
        self.events: list[dict] = []
        self.start_unix_us = _now_unix_us()
        self.dur_us = 0.0
        self.status = "ok"
        self._t0 = time.perf_counter()
        self._token: contextvars.Token | None = None

    # -- recording -----------------------------------------------------------
    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def event(self, name: str, **attrs) -> None:
        """A point-in-time annotation (retry, quarantine, store.hit, ...)."""
        self.events.append(
            {"name": name, "t_us": _now_unix_us(), "attrs": attrs}
        )

    def traceparent(self) -> str:
        """The header value that parents a downstream hop onto this span."""
        return format_traceparent(self.trace_id, self.span_id)

    def to_dict(self) -> dict:
        """The wire/export form (what the ring buffer and log hold)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": self.start_unix_us,
            "dur_us": self.dur_us,
            "status": self.status,
            "attrs": dict(self.attrs),
            "events": list(self.events),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "thread": threading.current_thread().name,
        }

    # -- context management --------------------------------------------------
    def __enter__(self) -> "Span":
        self._token = _SPAN_VAR.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur_us = (time.perf_counter() - self._t0) * 1e6
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        if self._token is not None:
            _SPAN_VAR.reset(self._token)
            self._token = None
        self._tracer._finish(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Span {self.name!r} trace={self.trace_id[:8]}… "
            f"span={self.span_id}>"
        )


class NullSpan:
    """The shared do-nothing span returned when tracing is off.

    It never touches the contextvar, so with tracing disabled there is no
    ambient span anywhere and :func:`add_event`/:func:`set_attr` stay one
    ``ContextVar.get`` each.
    """

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, key: str, value) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass

    def traceparent(self) -> None:
        return None


_NULL_SPAN = NullSpan()


class Tracer:
    """Creates spans and collects the finished ones in a bounded ring.

    One global instance serves the whole process (see :func:`get_tracer`);
    scheduler worker processes build private throwaway instances so their
    spans can be shipped back to the parent with the job result.
    """

    enabled = True

    def __init__(
        self,
        *,
        buffer_spans: int = BUFFER_SPANS,
        log_path: str | None = None,
    ) -> None:
        self._spans: deque[dict] = deque(maxlen=buffer_spans)
        self._lock = threading.Lock()
        self._log_path = log_path
        self._log_fh = None
        self._log_lock = threading.Lock()

    # -- span creation -------------------------------------------------------
    def span(self, name: str, *, parent=_AMBIENT, **attrs) -> Span:
        """Open one span.  ``parent`` may be:

        * omitted — nest under the ambient (contextvar) span, or start a
          root when there is none;
        * ``None`` — force a new root trace;
        * a :class:`Span` — explicit parent (how thread pools re-parent,
          since contextvars don't cross executor threads);
        * a ``traceparent`` header string — the cross-process case.
        """
        if parent is _AMBIENT:
            parent = _SPAN_VAR.get()
        if isinstance(parent, str):
            parsed = parse_traceparent(parent)
            if parsed is None:
                trace_id, parent_id = os.urandom(16).hex(), None
            else:
                trace_id, parent_id = parsed
        elif isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = os.urandom(16).hex(), None
        return Span(
            self, name, trace_id=trace_id, parent_id=parent_id, attrs=attrs
        )

    # -- collection ----------------------------------------------------------
    def _finish(self, span: Span) -> None:
        record = span.to_dict()
        with self._lock:
            self._spans.append(record)
        if self._log_path is not None:
            self._log_line(record)

    def _log_line(self, record: dict) -> None:
        with self._log_lock:
            if self._log_fh is None:
                try:
                    self._log_fh = open(  # noqa: SIM115 - held for process life
                        self._log_path, "a", encoding="utf-8"
                    )
                except OSError:
                    self._log_path = None  # bad path: disable, don't crash
                    return
            try:
                self._log_fh.write(
                    json.dumps(record, sort_keys=True, default=str) + "\n"
                )
                self._log_fh.flush()
            except (OSError, ValueError):
                self._log_path = None

    def finished(self) -> list[dict]:
        """Every span currently in the ring, oldest first."""
        with self._lock:
            return list(self._spans)

    def trace(self, trace_id: str) -> list[dict]:
        """All retained spans of one trace, oldest first."""
        with self._lock:
            return [s for s in self._spans if s["trace_id"] == trace_id]

    def ingest(self, records: list[dict]) -> None:
        """Adopt finished spans from elsewhere (worker processes)."""
        cleaned = [
            r
            for r in records
            if isinstance(r, dict) and r.get("trace_id") and r.get("span_id")
        ]
        with self._lock:
            self._spans.extend(cleaned)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


class NullTracer:
    """The no-op tracer a disabled process runs on."""

    enabled = False

    def span(self, name: str, *, parent=_AMBIENT, **attrs) -> NullSpan:
        return _NULL_SPAN

    def finished(self) -> list[dict]:
        return []

    def trace(self, trace_id: str) -> list[dict]:
        return []

    def ingest(self, records: list[dict]) -> None:
        pass

    def clear(self) -> None:
        pass


_NULL_TRACER = NullTracer()
_TRACER: Tracer | NullTracer | None = None
_TRACER_LOCK = threading.Lock()


def _env_enabled() -> bool:
    raw = os.environ.get(TRACE_ENV_VAR, "").strip().lower()
    return bool(raw) and raw not in ("0", "false", "no", "off")


def get_tracer() -> Tracer | NullTracer:
    """The process tracer: resolved from ``REPRO_TRACE`` on first use."""
    tracer = _TRACER
    if tracer is None:
        with _TRACER_LOCK:
            tracer = _TRACER
            if tracer is None:
                tracer = _install(_env_enabled())
    return tracer


def _install(enabled: bool, *, log_path: str | None = None) -> Tracer | NullTracer:
    global _TRACER
    if enabled:
        if log_path is None:
            log_path = os.environ.get(TRACE_LOG_ENV_VAR, "").strip() or None
        _TRACER = Tracer(log_path=log_path)
    else:
        _TRACER = _NULL_TRACER
    return _TRACER


def set_tracing(
    enabled: bool | None, *, log_path: str | None = None
) -> Tracer | NullTracer:
    """Enable/disable tracing for this process.

    ``None`` re-resolves from the environment (how tests restore the
    default).  Returns the installed tracer.
    """
    with _TRACER_LOCK:
        return _install(
            _env_enabled() if enabled is None else enabled, log_path=log_path
        )


def tracing_enabled() -> bool:
    return get_tracer().enabled


# -- ambient-span conveniences (the instrumentation hot path) ----------------

def span(name: str, *, parent=_AMBIENT, **attrs):
    """``get_tracer().span(...)`` — the one-liner instrumentation uses."""
    return get_tracer().span(name, parent=parent, **attrs)


def current_span() -> Span | None:
    return _SPAN_VAR.get()


def current_traceparent() -> str | None:
    """The header value propagating the ambient span, or ``None``."""
    sp = _SPAN_VAR.get()
    return None if sp is None else sp.traceparent()


def add_event(name: str, **attrs) -> None:
    """Annotate the ambient span, if any (no-op when tracing is off)."""
    sp = _SPAN_VAR.get()
    if sp is not None:
        sp.event(name, **attrs)


def set_attr(key: str, value) -> None:
    """Set an attribute on the ambient span, if any."""
    sp = _SPAN_VAR.get()
    if sp is not None:
        sp.attrs[key] = value

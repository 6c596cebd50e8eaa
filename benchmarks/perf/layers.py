"""The traced run: per-layer metrics measured from outside the program.

Layers are named after the modules that implement them.  For the
in-process workloads the benchmark wraps each layer's entry point at the
site it is imported from (``repro.engine.scheduler.compute_payload``, not
``repro.engine.store.compute_payload``: the scheduler calls the name it
imported), turns on ``repro.obs`` tracing so the scheduler's pool workers
ship their ``engine.sweep_job`` spans back, and collects each operation's
spans in memory.  The daemon workloads read the daemons' public
``/metrics``, ``/v1/trace/<id>`` and ``/v1/fleet/status`` instead (see
``daemons.py``).

Every layer metric is printed for every workload; a layer the workload
never enters reads 0.  Times are *self* times per operation: the wall time
during which a layer's span is the innermost one open.  Where spans of
parallel pool workers overlap, that interval is split evenly between them,
so the layer times and ``unattributed_ms`` add up to the operation's wall
time exactly.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager

from bench import Outcome, timed_loop

#: Every per-layer metric, in report order: name -> unit.
LAYER_UNITS = {
    "trace_overhead": "ratio",
    "unattributed_ms": "ms",
    "transformer.graph_builder.ms": "ms",
    "fusion.ms": "ms",
    "engine.scheduler.self_ms": "ms",
    "engine.scheduler.dedup_ratio": "ratio",
    "engine.memo.hit_ratio": "ratio",
    "engine.store.digest_ms": "ms",
    "engine.store.compute_ms": "ms",
    "engine.store.configs": "count",
    "engine.sweep.delta_ms": "ms",
    "engine.sweep.delta_hit_ratio": "ratio",
    "engine.sweep.materialize_ms": "ms",
    "engine.store.load_ms": "ms",
    "engine.store.load_structural_ms": "ms",
    "engine.store.hit_ratio": "ratio",
    "engine.store.save_ms": "ms",
    "engine.store.bytes_written": "bytes",
    "configsel.select_ms": "ms",
    "configsel.matrices_ms": "ms",
    "configsel.sssp_ms": "ms",
    "service.server.handler_ms.p50.sweep": "ms",
    "service.server.handler_ms.p50.optimize": "ms",
    "service.server.handler_ms.p50.optimize_batch": "ms",
    "service.transport_ms.p50": "ms",
    "service.coalesce.l1_hit_ratio": "ratio",
    "service.responses.binary": "count",
    "service.protocol.parse_us": "us",
    "engine.store.pack_us": "us",
    "service.fleet.job_ms": "ms",
    "service.fleet.sweep_ms": "ms",
    "service.fleet.select_ms": "ms",
    "service.fleet.job_remote": "count",
    "service.fleet.retry": "count",
    "service.fleet.quarantine": "count",
    "service.fleet.local_fallback": "count",
    "service.fleet.worker_tier.computed": "count",
    "service.fleet.worker_tier.delta": "count",
    "service.fleet.worker_tier.l2": "count",
    "service.fleet.worker_tier.l1": "count",
}

#: Span name -> the layer metric its self time counts towards.  The first
#: three are spans the program already records; the rest come from the
#: benchmark's own spans and wrappers.
SPAN_LAYER = {
    "engine.sweep_graph": "engine.scheduler.self_ms",
    "engine.sweep_job": "engine.scheduler.self_ms",
    "configsel.select": "configsel.select_ms",
    "transformer.graph_builder": "transformer.graph_builder.ms",
    "fusion": "fusion.ms",
    "engine.store.digest": "engine.store.digest_ms",
    "engine.store.compute": "engine.store.compute_ms",
    "engine.sweep.delta": "engine.sweep.delta_ms",
    "engine.sweep.materialize": "engine.sweep.materialize_ms",
    "engine.store.load": "engine.store.load_ms",
    "engine.store.load_structural": "engine.store.load_structural_ms",
    "engine.store.save": "engine.store.save_ms",
    "configsel.matrices": "configsel.matrices_ms",
    "configsel.sssp": "configsel.sssp_ms",
}

ROOT_SPAN = "bench.op"


def _wrappers():
    """``(owner, attribute, span name, result hook)`` of every wrapper."""
    import repro.configsel.selector as selector
    import repro.engine.scheduler as scheduler
    from repro.engine.store import SweepStore

    def configs(span, payload):
        span.set_attr("configs", int(len(payload["order"])))

    def hit(span, result):
        span.set_attr("hit", result is not None)

    def written(span, path):
        span.set_attr("bytes", path.stat().st_size)

    return [
        (scheduler, "sweep_digest", "engine.store.digest", None),
        (scheduler, "compute_payload", "engine.store.compute", configs),
        (scheduler, "delta_payload_from_store", "engine.sweep.delta", hit),
        (scheduler, "sweep_from_payload", "engine.sweep.materialize", None),
        (SweepStore, "load", "engine.store.load", hit),
        (SweepStore, "load_structural", "engine.store.load_structural", None),
        (SweepStore, "save", "engine.store.save", written),
        (selector, "build_chain_matrices", "configsel.matrices", None),
        (selector, "shortest_path_layered", "configsel.sssp", None),
    ]


def _wrap(fn, name: str, hook):
    from repro import obs

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name) as span:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(span, result)
            return result

    return wrapper


@contextmanager
def wrappers_installed():
    """Install every layer wrapper at its import site; restore on exit."""
    saved = []
    try:
        for owner, attr, name, hook in _wrappers():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, hook))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Split the root span's wall time (ms) among the innermost open spans.

    Each elementary interval between span boundaries goes to the spans
    open during it that have no open descendant, evenly; a span's share
    counts towards its own layer or, for a span name outside
    ``SPAN_LAYER``, its nearest mapped ancestor's.  The root's own share
    is ``unattributed_ms``.
    """
    by_id = {s["span_id"]: s for s in spans}
    root = next(s for s in spans if s["name"] == ROOT_SPAN)

    def layer_of(span: dict) -> str:
        while span is not root:
            layer = SPAN_LAYER.get(span["name"])
            if layer is not None:
                return layer
            span = by_id.get(span["parent_id"], root)
        return "unattributed_ms"

    def in_tree(span: dict) -> bool:
        seen = 0
        while span is not root and seen < 64:
            span = by_id.get(span["parent_id"])
            if span is None:
                return False
            seen += 1
        return span is root

    tree = [s for s in spans if in_tree(s)]
    intervals = [(s["start_us"], s["start_us"] + s["dur_us"], s) for s in tree]
    points = sorted({p for a, b, _ in intervals for p in (a, b)})
    parents = {s["span_id"]: s["parent_id"] for s in tree}
    out: dict[str, float] = defaultdict(float)
    for a, b in zip(points, points[1:]):
        open_ids = {s["span_id"] for lo, hi, s in intervals if lo <= a and hi >= b}
        if not open_ids:
            continue
        has_open_child = {parents[i] for i in open_ids}
        innermost = [i for i in open_ids if i not in has_open_child]
        share = (b - a) / 1e3 / len(innermost)
        for i in innermost:
            out[layer_of(by_id[i])] += share
    return out


class SpanTotals:
    """Per-layer totals over the traced operations."""

    def __init__(self) -> None:
        self.ops = 0
        self.ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.fired: set[str] = set()

    def add(self, spans: list[dict]) -> None:
        self.ops += 1
        for layer, ms in self_times(spans).items():
            self.ms[layer] += ms
        c = self.counts
        for s in spans:
            name, attrs = s["name"], s.get("attrs") or {}
            self.fired.add(name)
            if name == "engine.store.compute":
                c["configs"] += attrs.get("configs", 0)
            elif name == "engine.sweep_graph":
                c["graph_ops"] += attrs.get("ops", 0)
                c["memo_hits"] += attrs.get("memo_hits", 0)
                c["digests"] += attrs.get("distinct_digests", 0)
            elif name == "engine.sweep.delta":
                c["delta_calls"] += 1
                c["delta_hits"] += bool(attrs.get("hit"))
            elif name == "engine.store.load":
                c["load_calls"] += 1
                c["load_hits"] += bool(attrs.get("hit"))
            elif name == "engine.store.save":
                c["bytes"] += attrs.get("bytes", 0)

    def metrics(self) -> dict[str, float]:
        n, c = self.ops, self.counts
        out = {layer: ms / n for layer, ms in self.ms.items()}
        out["engine.store.configs"] = c["configs"] / n
        out["engine.store.bytes_written"] = c["bytes"] / n
        resolved = c["graph_ops"] - c["memo_hits"]
        out["engine.scheduler.dedup_ratio"] = c["digests"] / resolved if resolved else 0.0
        out["engine.memo.hit_ratio"] = c["memo_hits"] / c["graph_ops"] if c["graph_ops"] else 0.0
        out["engine.sweep.delta_hit_ratio"] = (
            c["delta_hits"] / c["delta_calls"] if c["delta_calls"] else 0.0
        )
        out["engine.store.hit_ratio"] = (
            c["load_hits"] / c["load_calls"] if c["load_calls"] else 0.0
        )
        return out


def inproc_traced_pass(wl, check, seconds: float, first: int, outcome: Outcome, spans_out):
    """Traced operations ``first, first+1, ...`` of an in-process workload."""
    from repro import obs

    totals = SpanTotals()
    tracer = obs.set_tracing(True)
    tracer.clear()
    try:
        with wrappers_installed():

            def op(i):
                with obs.span(ROOT_SPAN, op=i):
                    return wl.op(i)

            def traced_check(i, result):
                spans = tracer.finished()
                tracer.clear()
                totals.add(spans)
                spans_out.extend(spans)
                check(i, result)

            timed_loop(op, traced_check, seconds, 1, outcome, first)
    finally:
        obs.set_tracing(False)
    # The self-test checks that every layer's span shows up in some
    # workload, so a renamed entry point cannot silently zero a layer.
    print("layer_spans_seen " + ",".join(sorted(totals.fired & set(SPAN_LAYER))))
    return totals.metrics()


def traced_run(wl, cfg, outcome: Outcome, check) -> dict[str, float]:
    """Half the run untraced, half traced; per-layer metrics of the latter."""
    half = cfg.seconds / 2
    wl.run_timed(check, half, cfg.min_ops, 0, outcome)
    untraced_ms = 1e3 * outcome.elapsed_s / outcome.attempted
    traced = Outcome()
    spans: list[dict] = []
    layer = wl.traced_pass(check, half, outcome.attempted, traced, spans)
    outcome.latencies_s.extend(traced.latencies_s)
    outcome.ref_ms.extend(traced.ref_ms)
    outcome.failed += traced.failed
    outcome.errors.extend(traced.errors)
    metrics = {name: 0.0 for name in LAYER_UNITS}
    metrics.update(layer)
    metrics["trace_overhead"] = (1e3 * traced.elapsed_s / traced.attempted) / untraced_ms
    if cfg.trace_out:
        from repro.obs import to_chrome_trace

        with open(cfg.trace_out, "w", encoding="utf-8") as fh:
            json.dump(to_chrome_trace(spans), fh)
    return metrics

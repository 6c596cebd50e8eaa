"""The observability layer: spans, propagation, exporters, Prometheus.

Covers the tentpole contracts end to end at tier-1 scale:

* traceparent format/parse round trips, with malformed headers treated
  as absent (propagation is advisory — it must never fail a request);
* span-tree reconstruction across contextvar nesting, explicit thread
  re-parenting, and real worker *subprocesses* shipping spans back;
* the traceparent header riding a real client→daemon HTTP hop so both
  sides land in one connected tree;
* Prometheus text exposition parsed line by line, histogram bucket
  boundary semantics (``le`` inclusive), and ``Accept`` negotiation on
  ``GET /metrics``;
* zero-cost-when-off invariants: no contextvar is ever set, the same
  shared ``NullSpan`` is returned everywhere.
"""

from __future__ import annotations

import json
import multiprocessing
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.obs.export import slowest_spans, to_chrome_trace, trace_tree
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    MetricsRegistry,
    relabel_exposition,
    wants_prometheus,
)
from repro.obs.trace import (
    BUFFER_SPANS,
    NullSpan,
    NullTracer,
    Tracer,
    format_traceparent,
    parse_traceparent,
)
from repro.service import TuningClient, TuningService
from repro.service.metrics import ServiceMetrics
from repro.service.server import serve_background


@pytest.fixture
def tracer():
    """A fresh enabled process tracer; the env default is restored after."""
    installed = obs.set_tracing(True)
    installed.clear()
    yield installed
    obs.set_tracing(None)


@pytest.fixture
def no_tracing():
    """Tracing explicitly off (whatever the ambient environment says)."""
    obs.set_tracing(False)
    yield
    obs.set_tracing(None)


# ---------------------------------------------------------------------------
# traceparent
# ---------------------------------------------------------------------------

class TestTraceparent:
    def test_round_trip(self):
        trace_id, span_id = "0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"
        header = format_traceparent(trace_id, span_id)
        assert header == f"00-{trace_id}-{span_id}-01"
        assert parse_traceparent(header) == (trace_id, span_id)
        assert parse_traceparent("  " + header + " \n") == (trace_id, span_id)

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "00-abc-def-01",  # wrong field lengths
            "00-" + "0" * 32 + "-b7ad6b7169203331-01",  # all-zero trace id
            "00-0af7651916cd43dd8448eb211c80319c-" + "0" * 16 + "-01",
            "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319z-b7ad6b7169203331-01",  # hex
            "0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  # 3 parts
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-xx",
        ],
    )
    def test_malformed_is_absent_not_an_error(self, header):
        assert parse_traceparent(header) is None

    def test_span_on_malformed_parent_starts_a_fresh_root(self, tracer):
        with tracer.span("root", parent="garbage") as sp:
            assert sp.parent_id is None
            assert len(sp.trace_id) == 32


# ---------------------------------------------------------------------------
# span nesting and tree reconstruction
# ---------------------------------------------------------------------------

class TestSpanTree:
    def test_contextvar_nesting(self, tracer):
        with obs.span("root") as root:
            assert obs.current_span() is root
            assert obs.current_traceparent() == root.traceparent()
            with obs.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                with obs.span("grandchild") as grand:
                    assert grand.parent_id == child.span_id
            assert obs.current_span() is root
        assert obs.current_span() is None

        records = tracer.trace(root.trace_id)
        assert [r["name"] for r in records] == ["grandchild", "child", "root"]
        tree = trace_tree(records)
        assert tree["connected"] is True
        assert tree["roots"][0]["name"] == "root"
        assert tree["roots"][0]["children"][0]["name"] == "child"

    def test_explicit_none_parent_forces_new_root(self, tracer):
        with obs.span("outer") as outer:
            with obs.span("detached", parent=None) as detached:
                assert detached.trace_id != outer.trace_id
                assert detached.parent_id is None

    def test_attrs_events_and_error_status(self, tracer):
        with pytest.raises(RuntimeError):
            with obs.span("failing", endpoint="/x") as sp:
                obs.set_attr("resolve.tier", "l1")
                obs.add_event("retry", worker="w1", attempt=2)
                raise RuntimeError("boom")
        (rec,) = tracer.trace(sp.trace_id)
        assert rec["status"] == "error"
        assert rec["attrs"]["endpoint"] == "/x"
        assert rec["attrs"]["resolve.tier"] == "l1"
        assert "RuntimeError" in rec["attrs"]["error"]
        (event,) = rec["events"]
        assert event["name"] == "retry"
        assert event["attrs"] == {"worker": "w1", "attempt": 2}

    def test_thread_pool_reparenting(self, tracer):
        """Contextvars don't cross executors; explicit parents do."""
        with obs.span("batch") as batch:
            def job(i: int) -> None:
                # No ambient span in the pool thread …
                assert obs.current_span() is None
                # … so re-parent explicitly, the way the coordinator does.
                with obs.span("job", parent=batch, idx=i):
                    pass

            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(job, range(8)))
        records = tracer.trace(batch.trace_id)
        tree = trace_tree(records)
        assert tree["connected"] is True
        assert tree["spans"] == 9
        assert len(tree["roots"][0]["children"]) == 8

    def test_subprocess_spans_ship_back_and_reconnect(self, tracer):
        """The scheduler contract: worker processes run a private tracer
        whose finished spans the parent ingests into one tree."""
        with obs.span("parent") as parent:
            ctx = obs.current_traceparent()
            mp = multiprocessing.get_context("fork")
            with mp.Pool(2) as pool:
                shipped = pool.map(_subprocess_job, [(ctx, i) for i in range(3)])
        for records in shipped:
            tracer.ingest(records)
        records = tracer.trace(parent.trace_id)
        tree = trace_tree(records)
        assert tree["connected"] is True
        assert tree["spans"] == 1 + 2 * 3  # parent + (job + nested) * 3
        jobs = tree["roots"][0]["children"]
        assert {j["name"] for j in jobs} == {"job"}
        assert all(j["pid"] != tree["roots"][0]["pid"] for j in jobs)
        assert all(j["children"][0]["name"] == "nested" for j in jobs)

    def test_ring_buffer_ages_out_oldest(self):
        small = Tracer(buffer_spans=4)
        for i in range(10):
            with small.span(f"s{i}", parent=None):
                pass
        names = [r["name"] for r in small.finished()]
        assert names == ["s6", "s7", "s8", "s9"]
        assert BUFFER_SPANS >= 1024  # the real ring holds whole batches

    def test_ingest_filters_malformed_records(self, tracer):
        tracer.ingest(
            [
                {"trace_id": "t", "span_id": "s", "name": "ok"},
                {"trace_id": "t"},  # no span id
                "not a dict",
                None,
            ]
        )
        assert [r["name"] for r in tracer.trace("t")] == ["ok"]


def _subprocess_job(args: tuple) -> list[dict]:
    """Pool target for the subprocess shipping test (module-level: picklable)."""
    ctx, idx = args
    from repro.obs import trace as _trace

    tracer = _trace.Tracer()
    previous = _trace.get_tracer()
    _trace._TRACER = tracer
    try:
        with tracer.span("job", parent=ctx, idx=idx):
            with _trace.get_tracer().span("nested"):
                pass
    finally:
        _trace._TRACER = previous
    return tracer.finished()


# ---------------------------------------------------------------------------
# zero-cost-when-off
# ---------------------------------------------------------------------------

class TestDisabled:
    def test_null_singletons_and_no_ambient_span(self, no_tracing):
        assert isinstance(obs.get_tracer(), NullTracer)
        assert obs.tracing_enabled() is False
        sp = obs.span("anything", key="value")
        assert isinstance(sp, NullSpan)
        assert sp is obs.span("something else")  # one shared instance
        with sp:
            # The contextvar is never set: ambient helpers see nothing.
            assert obs.current_span() is None
            assert obs.current_traceparent() is None
            obs.add_event("ignored")
            obs.set_attr("ignored", 1)
        assert sp.traceparent() is None
        assert obs.get_tracer().finished() == []

    def test_reenabling_installs_a_live_tracer(self, no_tracing):
        obs.set_tracing(True)
        try:
            with obs.span("live") as sp:
                pass
            assert obs.get_tracer().trace(sp.trace_id)
        finally:
            obs.set_tracing(False)


# ---------------------------------------------------------------------------
# structured span log
# ---------------------------------------------------------------------------

def test_span_log_writes_one_json_line_per_close(tmp_path):
    log = tmp_path / "spans.jsonl"
    obs.set_tracing(True, log_path=str(log))
    try:
        with obs.span("logged", endpoint="/x") as sp:
            obs.add_event("marker")
    finally:
        obs.set_tracing(None)
    lines = log.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["name"] == "logged"
    assert rec["span_id"] == sp.span_id
    assert rec["attrs"] == {"endpoint": "/x"}
    assert rec["events"][0]["name"] == "marker"


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

class TestExport:
    def _records(self, tracer):
        with obs.span("root", service="tuningd") as root:
            with obs.span("child"):
                obs.add_event("store.hit", digest="d1")
        return root.trace_id, tracer.trace(root.trace_id)

    def test_trace_tree_flags_orphans_and_dedups(self, tracer):
        trace_id, records = self._records(tracer)
        # A duplicate of the child with a shorter duration: collapsed away.
        dup = dict(records[0], dur_us=0.0)
        tree = trace_tree(records + [dup])
        assert tree["trace_id"] == trace_id
        assert tree["connected"] is True and tree["spans"] == 2

        # Drop the root: the child's parent never arrives -> disconnected.
        orphan_tree = trace_tree([r for r in records if r["name"] == "child"])
        assert orphan_tree["connected"] is False
        assert orphan_tree["orphans"]

    def test_chrome_trace_events(self, tracer):
        _, records = self._records(tracer)
        doc = to_chrome_trace(records)
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"root", "child"}
        assert all(e["dur"] >= 1 for e in complete)
        assert [i["name"] for i in instants] == ["store.hit"]
        assert any(
            m["name"] == "process_name" and m["args"]["name"] == "tuningd"
            for m in meta
        )
        json.dumps(doc)  # must serialize cleanly for Perfetto

    def test_slowest_spans_ranked_by_duration(self):
        records = [
            {"name": "fast", "dur_us": 10.0, "span_id": "a"},
            {"name": "slow", "dur_us": 5000.0, "span_id": "b"},
            {"name": "mid", "dur_us": 100.0, "span_id": "c"},
        ]
        top = slowest_spans(records, n=2)
        assert [s["name"] for s in top] == ["slow", "mid"]


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
)


def _parse_exposition(text: str) -> dict[str, float]:
    """Parse line by line, asserting 0.0.4 format shape; name{labels} -> value."""
    samples: dict[str, float] = {}
    typed: set[str] = set()
    for line in text.splitlines():
        assert line == line.strip() and line, f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in ("counter", "gauge", "histogram"), line
            typed.add(name)
            continue
        assert _SAMPLE.match(line), f"unparseable sample line: {line!r}"
        key, raw = line.rsplit(" ", 1)
        value = float(raw.replace("+Inf", "inf"))
        assert key not in samples, f"duplicate sample {key!r}"
        samples[key] = value
        base = key.split("{", 1)[0]
        stripped = re.sub(r"_(bucket|sum|count)$", "", base)
        assert base in typed or stripped in typed, f"untyped sample {key!r}"
    return samples


class TestPrometheus:
    def test_registry_renders_all_types(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs", ("kind",))
        c.inc(3, kind="remote")
        c.preset("local")
        g = reg.gauge("inflight", "in-flight requests")
        g.inc(2)
        g.dec()
        h = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(99.0)
        reg.gauge_callback("uptime_seconds", "uptime", lambda: 12.5)

        samples = _parse_exposition(reg.render())
        assert samples['jobs_total{kind="remote"}'] == 3
        assert samples['jobs_total{kind="local"}'] == 0
        assert samples["inflight"] == 1
        assert samples['lat_seconds_bucket{le="0.1"}'] == 1
        assert samples['lat_seconds_bucket{le="1.0"}'] == 2
        assert samples['lat_seconds_bucket{le="+Inf"}'] == 3
        assert samples["lat_seconds_count"] == 3
        assert samples["lat_seconds_sum"] == pytest.approx(99.55)
        assert samples["uptime_seconds"] == 12.5

    def test_histogram_bucket_boundaries_are_le_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "boundaries", buckets=(1.0, 2.0, 4.0))
        for v in (1.0, 2.0, 4.0):  # exactly on each bound
            h.observe(v)
        snap = h.snapshot_child()
        assert snap["counts"] == [1, 2, 3]  # cumulative; bound-inclusive
        assert snap["inf"] == 3
        h.observe(4.0000001)
        assert h.snapshot_child()["inf"] == 4
        assert h.snapshot_child()["counts"] == [1, 2, 3]

    def test_histogram_rejects_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("a", "x", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("b", "x", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("c", "x", buckets=(1.0, 1.0))

    def test_counter_invariants(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total", "n")
        with pytest.raises(ValueError):
            c.inc(-1)
        c.inc()
        assert c.value() == 1 and isinstance(c.value(), int)
        labeled = reg.counter("m_total", "m", ("tier",))
        with pytest.raises(ValueError):
            labeled.inc(1, wrong="l1")
        with pytest.raises(ValueError):  # type/label conflicts are errors
            reg.gauge("n_total", "not a counter")
        with pytest.raises(ValueError):
            reg.counter("m_total", "m", ("other",))
        with pytest.raises(ValueError):
            reg.counter("bad name", "x")

    @pytest.mark.parametrize(
        ("accept", "expected"),
        [
            (None, False),
            ("", False),
            ("*/*", False),
            ("application/json", False),
            ("text/plain", True),
            ("text/plain; version=0.0.4", True),
            ("application/openmetrics-text; version=1.0.0, */*", True),
            ("application/json, text/plain;q=0.5", True),
            ("TEXT/PLAIN", True),
        ],
    )
    def test_accept_negotiation(self, accept, expected):
        assert wants_prometheus(accept) is expected

    def test_relabel_exposition(self):
        body = (
            "# HELP a_total help\n# TYPE a_total counter\n"
            'a_total{x="1"} 5\nb 2\ngarbage line with spaces only\n'
        )
        out = relabel_exposition(body, worker="w1")
        assert out == 'a_total{worker="w1",x="1"} 5\nb{worker="w1"} 2\n'

    def test_service_metrics_exposition_covers_every_counter(self):
        m = ServiceMetrics()
        m.record_request("/v1/optimize", 0.02)
        m.record_error("/v1/optimize")
        m.record_tier("l1")
        m.record_response("binary")
        m.record_registry("registered")
        m.record_fleet("quarantine")
        m.record_optimize_breakdown(sweep_s=0.1, select_s=0.02)
        samples = _parse_exposition(m.prometheus())

        snap = m.snapshot()
        # Every JSON tier/kind/event count is present in the text form —
        # including untouched vocabulary entries, preset to zero.
        for tier, n in snap["resolve_tiers"].items():
            assert samples[f'repro_resolve_tier_total{{tier="{tier}"}}'] == n
        for kind, n in snap["responses"].items():
            assert samples[f'repro_responses_total{{kind="{kind}"}}'] == n
        for event, n in snap["registry"]["events"].items():
            assert samples[f'repro_registry_events_total{{event="{event}"}}'] == n
        for event, n in snap["fleet"]["events"].items():
            assert samples[f'repro_fleet_events_total{{event="{event}"}}'] == n
        assert (
            samples['repro_requests_total{endpoint="/v1/optimize"}']
            == snap["requests"]["/v1/optimize"]
        )
        assert samples['repro_errors_total{endpoint="/v1/optimize"}'] == 1
        assert samples["repro_optimize_runs_total"] == 1
        assert samples['repro_optimize_phase_ms_total{phase="sweep"}'] == (
            pytest.approx(snap["optimize_breakdown"]["sweep_ms_total"])
        )
        assert samples[
            'repro_request_latency_seconds_bucket{endpoint="/v1/optimize",le="0.025"}'
        ] == 1
        assert samples["repro_inflight_requests"] == 0
        assert samples["repro_uptime_seconds"] >= 0


# ---------------------------------------------------------------------------
# one real HTTP hop: client -> daemon
# ---------------------------------------------------------------------------

class TestTracedHop:
    def test_traceparent_rides_the_wire_and_connects(self, tracer):
        with serve_background(TuningService(store=None, registry=None)) as url:
            client = TuningClient(url)
            with obs.span("client.request", service="test") as root:
                client.healthz()
            served = client.trace(root.trace_id)

        assert served["trace_id"] == root.trace_id
        assert served["connected"] is True
        spans = served["spans"]
        server_span = next(s for s in spans if s["name"] == "server/healthz")
        assert server_span["parent_id"] == root.span_id
        assert server_span["attrs"]["service"] == "tuningd"
        assert server_span["attrs"]["http.status"] == 200

    def test_request_is_recorded_before_its_reply_is_written(
        self, tracer, monkeypatch
    ):
        """By the time a reply's bytes go out, its server span is closed and
        its latency sampled, so a caller that asks for its trace or for
        /metrics right after its reply finds its own request."""
        from repro.service.server import _Handler

        seen = []
        send = _Handler._send_reply

        def observing_send(handler, reply):
            names = [s["name"] for s in tracer.finished()]
            latency = handler.service.metrics.snapshot()["latency_ms"]
            seen.append(
                ("server/healthz" in names, latency.get("/healthz", {}).get("count"))
            )
            send(handler, reply)

        monkeypatch.setattr(_Handler, "_send_reply", observing_send)
        with serve_background(TuningService(store=None, registry=None)) as url:
            TuningClient(url).healthz()
        assert seen == [(True, 1)]

    def test_unknown_trace_is_404(self, tracer):
        from repro.service import ServiceError

        with serve_background(TuningService(store=None, registry=None)) as url:
            client = TuningClient(url)
            with pytest.raises(ServiceError) as excinfo:
                client.trace("f" * 32)
            assert excinfo.value.status == 404

    def test_metrics_accept_negotiation_over_http(self):
        healthz = 'repro_requests_total{endpoint="/healthz"}'
        with serve_background(TuningService(store=None, registry=None)) as url:
            client = TuningClient(url)
            client.healthz()
            as_json = client.metrics()
            samples = _parse_exposition(client.metrics_prometheus())
        assert isinstance(as_json, dict) and "requests" in as_json
        assert samples[healthz] >= 1

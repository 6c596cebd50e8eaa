"""Hypothesis property tests: concurrent metric recording never loses
counts, and only W3C-shaped traceparent headers are adopted.

The daemon's handler threads race into the same ``Counter``/``Gauge``/
``Histogram`` children constantly; the whole point of the per-metric lock
is that a scrape always sees exactly the recorded totals, no matter how
the increments interleave.  These tests drive randomized concurrent
workloads through real threads and assert exact conservation — counts in
equals counts rendered, for the JSON values, the Prometheus text, and the
trace ring alike.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, format_traceparent, parse_traceparent

_PER_THREAD = st.lists(st.integers(1, 50), min_size=1, max_size=8)


def _run_threads(workers) -> None:
    threads = [threading.Thread(target=fn) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


@settings(deadline=None, max_examples=25)
@given(plan=_PER_THREAD)
def test_concurrent_counter_conserves_every_increment(plan):
    reg = MetricsRegistry()
    counter = reg.counter("hits_total", "hits", ("tier",))

    def worker(n: int):
        def run():
            for i in range(n):
                counter.inc(tier="l1" if i % 2 else "l2")
        return run

    _run_threads([worker(n) for n in plan])
    total = sum(plan)
    assert counter.value(tier="l1") + counter.value(tier="l2") == total
    rendered = {
        line.rsplit(" ", 1)[0]: int(line.rsplit(" ", 1)[1])
        for line in reg.render().splitlines()
        if not line.startswith("#")
    }
    assert (
        rendered.get('hits_total{tier="l1"}', 0)
        + rendered.get('hits_total{tier="l2"}', 0)
        == total
    )


@settings(deadline=None, max_examples=25)
@given(plan=_PER_THREAD, delta=st.integers(1, 5))
def test_concurrent_gauge_inc_dec_balances_to_zero(plan, delta):
    reg = MetricsRegistry()
    gauge = reg.gauge("inflight", "in-flight")

    def worker(n: int):
        def run():
            for _ in range(n):
                gauge.inc(delta)
                gauge.dec(delta)
        return run

    _run_threads([worker(n) for n in plan])
    assert gauge.value() == 0


@settings(deadline=None, max_examples=25)
@given(
    plan=_PER_THREAD,
    values=st.lists(
        st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=6
    ),
)
def test_concurrent_histogram_observations_all_land(plan, values):
    reg = MetricsRegistry()
    hist = reg.histogram("lat", "latency", buckets=(0.5, 5.0, 50.0))

    def worker(n: int):
        def run():
            for i in range(n):
                hist.observe(values[i % len(values)])
        return run

    _run_threads([worker(n) for n in plan])
    snap = hist.snapshot_child()
    total = sum(plan)
    assert snap["count"] == total
    assert snap["inf"] == total  # the cumulative +Inf bucket sees everything
    # Cumulative bucket counts are monotone and bounded by the total.
    assert snap["counts"] == sorted(snap["counts"])
    assert all(0 <= c <= total for c in snap["counts"])


@settings(deadline=None, max_examples=15)
@given(plan=st.lists(st.integers(1, 20), min_size=1, max_size=6))
def test_concurrent_span_finishes_all_reach_the_ring(plan):
    tracer = Tracer(buffer_spans=10_000)

    def worker(n: int):
        def run():
            for _ in range(n):
                with tracer.span("op", parent=None):
                    pass
        return run

    _run_threads([worker(n) for n in plan])
    assert len(tracer.finished()) == sum(plan)


_HEX = "0123456789abcdef"


@settings(deadline=None, max_examples=50)
@given(
    trace_id=st.text(_HEX, min_size=32, max_size=32),
    span_id=st.text(_HEX, min_size=16, max_size=16),
)
def test_traceparent_round_trips_lowercase_hex(trace_id, span_id):
    header = format_traceparent(trace_id, span_id)
    zero = trace_id == "0" * 32 or span_id == "0" * 16
    assert parse_traceparent(header) == (None if zero else (trace_id, span_id))


@pytest.mark.parametrize(
    "header",
    [
        # ``int(x, 16)`` accepts each of these; W3C trace context does not.
        "00-1_1_1_1_1_1_1_1_1_1_1_1_1_1_1_11-00000000000000_1-01",  # "_"
        "00-+0af7651916cd43dd8448eb211c80319-b7ad6b7169203331-01",  # sign
        "00- 0af7651916cd43dd8448eb211c8031 -b7ad6b7169203331-01",  # spaces
        "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",  # uppercase
    ],
)
def test_traceparent_outside_w3c_is_absent(header):
    assert parse_traceparent(header) is None

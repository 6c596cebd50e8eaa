"""Service load harness: warm-path throughput, coalescing, byte identity.

A closed-loop load generator drives the real daemon (real sockets, one
server thread per connection) and pins the acceptance criteria of the
tuning service:

* **byte identity** — every response any concurrent client receives is
  byte-identical to a payload derived from a fresh scalar
  ``sweep_op_reference`` sweep (the engine's correctness anchor);
* **coalescing** — N concurrent identical cold requests trigger exactly
  one evaluation, asserted via ``/metrics``;
* **throughput** — the warm path (L1-served) sustains at least 20x the
  request rate of the cold single-request path that computes a sweep.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.autotuner.tuner import sweep_op_reference
from repro.engine import clear_sweep_memo, sweep_from_payload
from repro.engine.store import SweepStore
from repro.ir.dims import bert_large_dims
from repro.service import TuningClient, TuningService, canonical_json_bytes
from repro.service.protocol import (
    parse_sweep_request,
    payload_from_packed,
    sweep_request_digest,
    sweep_request_wire,
    sweep_response_from_sweep,
)
from repro.service.server import serve_background
from repro.fusion import apply_paper_fusion
from repro.transformer.graph_builder import build_mha_graph

# Deselected from tier-1: the dedicated CI service-smoke job (and the
# nightly run) are the sole runners, so pushes don't pay for the 200-request
# load harness twice.
pytestmark = pytest.mark.slow

#: Cold-path sweep size.  The AIB fused kernel's full space has ~9e9
#: configurations; a 20k sample is the kind of wide sweep the daemon
#: exists to amortize (and is still sub-second through the engine).
CAP = 20_000
SEED = 0x5EED
#: Closed-loop load shape: CLIENTS workers, REQUESTS_PER_CLIENT each.
CLIENTS = 8
REQUESTS_PER_CLIENT = 25
#: Binary-wire shape: with ``cap == top_k`` (at the protocol's MAX_TOP_K)
#: the JSON body and the packed payload carry the same information — every
#: sampled configuration's predicted times — so the size comparison below
#: is between two honest encodings of one result, not truncation levels.
PACKED_CAP = 50
#: Round trips per latency arm (median taken).
REVALIDATIONS = 30


def _ops():
    """(cold/warm op, herd op): two wide fused kernels, distinct digests."""
    env = bert_large_dims()
    g = apply_paper_fusion(
        build_mha_graph(qkv_fusion="qkv", include_backward=False), env
    )
    return g.op("AIB"), g.op("SM")


def _reference_bytes(op, env, cost) -> bytes:
    """The expected body, derived from a fresh scalar reference sweep."""
    req = parse_sweep_request(sweep_request_wire(op, env, cap=CAP, seed=SEED))
    sweep = sweep_op_reference(op, env, cost, cap=CAP, seed=SEED)
    return canonical_json_bytes(
        sweep_response_from_sweep(
            sweep, cost, digest=sweep_request_digest(req, cost), top_k=3
        )
    )


def test_service_load(env, cost):
    op, herd_op = _ops()
    expected = _reference_bytes(op, env, cost)
    clear_sweep_memo()  # the daemon must do its own cold work

    service = TuningService(store=None, jobs=1)
    with serve_background(service) as url:
        client = TuningClient(url)

        # --- cold single-request path: first request computes the sweep.
        t0 = time.perf_counter()
        first = client.sweep_raw(op, env, cap=CAP, seed=SEED)
        t_cold = time.perf_counter() - t0
        assert first == expected
        assert service.metrics.tier_counts()["computed"] == 1

        # --- thundering herd on a *different* digest (the softmax kernel):
        # all concurrent identical requests coalesce into one evaluation.
        with ThreadPoolExecutor(CLIENTS) as pool:
            herd = list(
                pool.map(
                    lambda _: client.sweep_raw(herd_op, env, cap=CAP, seed=SEED),
                    range(CLIENTS),
                )
            )
        assert len(set(herd)) == 1  # byte-identical across clients
        tiers = client.metrics()["resolve_tiers"]
        assert tiers["computed"] == 2  # one per distinct digest, ever
        assert tiers["coalesced"] + tiers["l1"] == CLIENTS - 1

        # --- closed-loop warm load: every request is L1-served.
        def closed_loop(_worker: int) -> list[bytes]:
            mine = TuningClient(url)  # per-worker connection state
            return [
                mine.sweep_raw(op, env, cap=CAP, seed=SEED)
                for _ in range(REQUESTS_PER_CLIENT)
            ]

        t0 = time.perf_counter()
        with ThreadPoolExecutor(CLIENTS) as pool:
            batches = list(pool.map(closed_loop, range(CLIENTS)))
        t_warm = time.perf_counter() - t0

        total = CLIENTS * REQUESTS_PER_CLIENT
        warm_rps = total / t_warm
        cold_rps = 1.0 / t_cold
        speedup = warm_rps / cold_rps

        bodies = {b for batch in batches for b in batch}
        assert bodies == {expected}  # every warm response: reference bytes

        tiers = client.metrics()["resolve_tiers"]
        assert tiers["computed"] == 2  # the warm storm computed nothing
        latency = client.metrics()["latency_ms"]["/v1/sweep"]

        print(
            f"\n=== Service load (AIB, cap={CAP}, {CLIENTS} clients x "
            f"{REQUESTS_PER_CLIENT} requests) ===\n"
            f"  cold single request:  {t_cold * 1e3:8.1f} ms "
            f"({cold_rps:8.1f} req/s)\n"
            f"  warm closed loop:     {t_warm * 1e3:8.1f} ms total "
            f"({warm_rps:8.1f} req/s, {speedup:.0f}x cold)\n"
            f"  /v1/sweep latency:    p50 {latency['p50_ms']:.2f} ms  "
            f"p95 {latency['p95_ms']:.2f} ms  p99 {latency['p99_ms']:.2f} ms\n"
            f"  resolve tiers:        {tiers}"
        )
        assert speedup >= 20.0, (
            f"warm service path only {speedup:.1f}x the cold single-request "
            f"path (cold {t_cold * 1e3:.1f} ms, warm {1e3 / warm_rps:.2f} "
            "ms/req)"
        )


def _median_rtt(fn, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[rounds // 2]


def test_binary_wire_size_and_revalidation_latency(env, cost, tmp_path):
    """Packed body < information-equal JSON; 304 round trip < full body."""
    op, _ = _ops()
    clear_sweep_memo()

    service = TuningService(store=SweepStore(tmp_path / "store"), jobs=1)
    with serve_background(service) as url:
        client = TuningClient(url)

        # --- size: the packed payload vs the JSON body carrying every config.
        status, etag, packed = client.sweep_packed_raw(
            op, env, cap=PACKED_CAP, seed=SEED
        )
        assert status == 200 and etag
        json_body = client.sweep_raw(
            op, env, cap=PACKED_CAP, seed=SEED, top_k=PACKED_CAP
        )
        assert len(packed) < len(json_body), (
            f"packed body ({len(packed)} B) not smaller than the "
            f"information-equal JSON body ({len(json_body)} B)"
        )

        # The packed bytes decode (through the store's own validating
        # deserializer) to the engine's exact reference measurements.
        payload = payload_from_packed(packed, digest=etag.strip('"'))
        decoded = sweep_from_payload(op, payload)
        reference = sweep_op_reference(op, env, cost, cap=PACKED_CAP, seed=SEED)
        assert decoded.times_us() == [m.total_us for m in reference.measurements]

        # --- latency: warm full-body fetches vs ETag revalidations, on the
        # wide cap=20k sweep where the 304 saves a real transfer (the
        # packed body there is hundreds of KB of measurement arrays).
        s, wide_etag, wide_packed = client.sweep_packed_raw(op, env, cap=CAP, seed=SEED)
        assert s == 200 and wide_etag

        def full_body():
            s, _, body = client.sweep_packed_raw(op, env, cap=CAP, seed=SEED)
            assert s == 200 and body == wide_packed

        def revalidate():
            s, _, body = client.sweep_packed_raw(
                op, env, cap=CAP, seed=SEED, etag=wide_etag
            )
            assert s == 304 and body == b""

        t_full = _median_rtt(full_body, REVALIDATIONS)
        t_304 = _median_rtt(revalidate, REVALIDATIONS)

        kinds = client.metrics()["responses"]
        print(
            f"\n=== Binary wire (fused kernel) ===\n"
            f"  cap={PACKED_CAP}: packed body {len(packed)} B   "
            f"json body (top_k={PACKED_CAP}) {len(json_body)} B\n"
            f"  cap={CAP}: packed body {len(wide_packed)} B\n"
            f"  full-body rtt: {t_full * 1e3:6.2f} ms   "
            f"304 rtt: {t_304 * 1e3:6.2f} ms   (median of {REVALIDATIONS})\n"
            f"  response kinds: {kinds}"
        )
        assert kinds["binary"] == 2 + REVALIDATIONS
        assert kinds["not_modified"] == REVALIDATIONS
        assert t_304 < t_full, (
            f"304 revalidation ({t_304 * 1e3:.2f} ms) not faster than the "
            f"full packed body ({t_full * 1e3:.2f} ms)"
        )

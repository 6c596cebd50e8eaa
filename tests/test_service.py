"""Unit and integration tests for the tuning service (:mod:`repro.service`).

Protocol round trips (the wire key *is* the store key), single-flight
coalescing, the bounded L1 cache, metrics, and the HTTP daemon end to end —
including the acceptance property that a served response is byte-identical
to one derived from a fresh scalar ``sweep_op_reference`` sweep.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import __version__
from repro.autotuner.tuner import sweep_op_reference
from repro.engine import clear_sweep_memo, sweep_digest, sweep_memo_stats
from repro.engine.memo import PAYLOAD_L1_BYTES, new_payload_cache, payload_nbytes
from repro.engine.store import SweepStore, compute_payload
from repro.fusion import apply_paper_fusion
from repro.hardware.cost_model import COST_MODEL_VERSION, CostModel
from repro.hardware.spec import A100, V100
from repro.ir.dims import bert_large_dims
from repro.service import (
    BoundedCache,
    ProtocolError,
    ServiceError,
    SingleFlight,
    TuningClient,
    TuningService,
    canonical_json_bytes,
    op_from_wire,
    op_to_wire,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    gpu_from_wire,
    gpu_to_wire,
    parse_optimize_request,
    parse_sweep_request,
    sweep_request_digest,
    sweep_request_wire,
    sweep_response_from_sweep,
)
from repro.service.server import make_server, serve_background
from repro.transformer.graph_builder import build_mha_graph

ENV = bert_large_dims()
COST = CostModel()
CAP = 60


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_sweep_memo()
    yield
    clear_sweep_memo()


def _ops():
    g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
    return g.op("q_proj"), g.op("softmax")


def _optimize(svc, body: dict) -> dict:
    """``/v1/optimize`` of ``body`` through the service's wire path."""
    return json.loads(svc.handle_optimize_wire(canonical_json_bytes(body)))


def _fused_op():
    g = apply_paper_fusion(
        build_mha_graph(qkv_fusion="qkv", include_backward=False), ENV
    )
    op = g.op("SM")
    assert op.members  # a real fusion product, with member sub-operators
    return op


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestWireRoundTrip:
    @pytest.mark.parametrize("pick", [0, 1])
    def test_digest_survives_the_wire(self, pick):
        """The protocol's central invariant: wire key == store key."""
        op = _ops()[pick]
        rebuilt = op_from_wire(op_to_wire(op))
        assert sweep_digest(rebuilt, ENV, COST, cap=CAP, seed=1) == sweep_digest(
            op, ENV, COST, cap=CAP, seed=1
        )

    def test_fused_op_with_members_survives_the_wire(self):
        op = _fused_op()
        rebuilt = op_from_wire(op_to_wire(op))
        assert len(rebuilt.members) == len(op.members)
        assert sweep_digest(rebuilt, ENV, COST, cap=CAP, seed=1) == sweep_digest(
            op, ENV, COST, cap=CAP, seed=1
        )

    def test_round_trip_preserves_structure(self):
        op, _ = _ops()
        rebuilt = op_from_wire(op_to_wire(op))
        assert rebuilt.name == op.name
        assert rebuilt.op_class is op.op_class
        assert rebuilt.einsum == op.einsum
        assert [t.dims for t in rebuilt.inputs] == [t.dims for t in op.inputs]
        assert rebuilt.ispace.independent == op.ispace.independent
        assert rebuilt.ispace.reduction == op.ispace.reduction

    def test_gpu_round_trip_and_names(self):
        assert gpu_from_wire(gpu_to_wire(A100)) == A100
        assert gpu_from_wire("V100") == V100
        assert gpu_from_wire(None) == V100
        with pytest.raises(ProtocolError, match="unknown GPU name"):
            gpu_from_wire("H100")

    def test_unknown_op_class_rejected(self):
        wire = op_to_wire(_ops()[0])
        wire["class"] = "quantum annealing"
        with pytest.raises(ProtocolError, match="unknown operator class"):
            op_from_wire(wire)

    def test_unknown_dtype_rejected(self):
        wire = op_to_wire(_ops()[0])
        wire["inputs"][0]["dtype"] = "int4"
        with pytest.raises(ProtocolError, match="unknown dtype"):
            op_from_wire(wire)

    def test_missing_field_names_the_path(self):
        wire = op_to_wire(_ops()[0])
        del wire["inputs"][1]["dims"]
        with pytest.raises(ProtocolError, match=r"op\.inputs\[1\]"):
            op_from_wire(wire)


class TestSweepRequestParsing:
    def _body(self, **overrides):
        body = sweep_request_wire(_ops()[0], ENV, cap=CAP, seed=3, top_k=5)
        body.update(overrides)
        return body

    def test_parse_round_trip(self):
        req = parse_sweep_request(self._body())
        assert req.cap == CAP and req.seed == 3 and req.top_k == 5
        assert req.gpu == V100
        assert sweep_request_digest(req, COST) == sweep_digest(
            req.op, req.env, COST, cap=CAP, seed=3
        )

    def test_protocol_version_checked(self):
        with pytest.raises(ProtocolError, match="unsupported protocol"):
            parse_sweep_request(self._body(protocol=99))

    def test_missing_dim_sizes_rejected(self):
        with pytest.raises(ProtocolError, match="missing sizes"):
            parse_sweep_request(self._body(dims={"b": 8}))

    def test_view_op_rejected(self):
        import dataclasses

        view = dataclasses.replace(_ops()[0], is_view=True)
        with pytest.raises(ProtocolError, match="view operators"):
            parse_sweep_request(self._body(op=op_to_wire(view)))

    @pytest.mark.parametrize("cap", [0, -3, 1.5, "many", True])
    def test_bad_cap_rejected(self, cap):
        with pytest.raises(ProtocolError, match="cap must be"):
            parse_sweep_request(self._body(cap=cap))

    def test_uncapped_sweep_allowed(self):
        assert parse_sweep_request(self._body(cap=None)).cap is None

    @pytest.mark.parametrize("top_k", [0, -1, "all", False])
    def test_bad_top_k_rejected(self, top_k):
        with pytest.raises(ProtocolError, match="top_k must be"):
            parse_sweep_request(self._body(top_k=top_k))

    def test_optimize_request_validation(self):
        assert parse_optimize_request({"model": "mha"}).model == "mha"
        with pytest.raises(ProtocolError, match="unknown model"):
            parse_optimize_request({"model": "resnet"})
        with pytest.raises(ProtocolError, match="unknown qkv_fusion"):
            parse_optimize_request({"qkv_fusion": "qkvqkv"})

    def test_named_and_full_spec_gpus_are_one_request(self):
        # The builders name a preset GPU; spelled out in full it is the same
        # request: the same spec, sweep digest and optimize digest.
        from dataclasses import replace

        from repro.service.protocol import optimize_request_digest, optimize_request_wire

        for gpu, name in ((V100, "V100"), (A100, "A100")):
            named = self._body(gpu=name)
            assert sweep_request_wire(_ops()[0], ENV, gpu)["gpu"] == name
            full = parse_sweep_request(self._body(gpu=gpu_to_wire(gpu)))
            req = parse_sweep_request(named)
            assert req == full and req.gpu == gpu
            cost = CostModel(gpu)
            assert sweep_request_digest(req, cost) == sweep_request_digest(full, cost)
            body = optimize_request_wire(model="mha", gpu=gpu, cap=CAP)
            assert body["gpu"] == name
            by_name = parse_optimize_request(body)
            by_spec = parse_optimize_request({**body, "gpu": gpu_to_wire(gpu)})
            assert by_name == by_spec
            assert optimize_request_digest(by_name, cost) == optimize_request_digest(
                by_spec, cost
            )
        custom = replace(V100, sm_count=40)
        assert sweep_request_wire(_ops()[0], ENV, custom)["gpu"] == gpu_to_wire(custom)

    def test_omitted_caps_match_the_client_defaults(self):
        # A hand-written body must land on the same cache keys as a
        # client-built one, so the server-side defaults are the client's.
        from repro.service.protocol import (
            DEFAULT_OPTIMIZE_CAP,
            DEFAULT_SWEEP_CAP,
            optimize_request_wire,
        )

        assert parse_sweep_request(self._body()).cap == CAP
        bare = dict(self._body())
        del bare["cap"]
        assert parse_sweep_request(bare).cap == DEFAULT_SWEEP_CAP
        assert DEFAULT_SWEEP_CAP == sweep_request_wire(_ops()[0], ENV)["cap"]
        assert parse_optimize_request({}).cap == DEFAULT_OPTIMIZE_CAP
        assert DEFAULT_OPTIMIZE_CAP == optimize_request_wire()["cap"]


class TestResponseIdentity:
    def test_engine_and_reference_responses_are_byte_identical(self):
        """Engine-derived and scalar-reference-derived bodies: equal bytes."""
        op, _ = _ops()
        digest = sweep_digest(op, ENV, COST, cap=CAP, seed=5)
        from repro.engine.sweep import sweep_from_payload

        engine_sweep = sweep_from_payload(
            op, compute_payload(op, ENV, COST, cap=CAP, seed=5)
        )
        ref_sweep = sweep_op_reference(op, ENV, COST, cap=CAP, seed=5)
        a = canonical_json_bytes(
            sweep_response_from_sweep(engine_sweep, COST, digest=digest, top_k=3)
        )
        b = canonical_json_bytes(
            sweep_response_from_sweep(ref_sweep, COST, digest=digest, top_k=3)
        )
        assert a == b

    def test_response_shape(self):
        op, _ = _ops()
        sweep = sweep_op_reference(op, ENV, COST, cap=CAP, seed=5)
        resp = sweep_response_from_sweep(sweep, COST, digest="d" * 64, top_k=4)
        assert resp["cost_model_version"] == COST_MODEL_VERSION
        assert resp["num_configs"] == sweep.num_configs
        assert len(resp["top"]) == min(4, sweep.num_configs)
        assert resp["best"] == resp["top"][0]
        assert resp["best"]["total_us"] == sweep.best.total_us


# ---------------------------------------------------------------------------
# Coalescing primitives
# ---------------------------------------------------------------------------

class TestSingleFlight:
    def test_concurrent_callers_coalesce_to_one_evaluation(self):
        sf = SingleFlight()
        started, release = threading.Event(), threading.Event()
        calls = []

        def slow():
            calls.append(1)
            started.set()
            release.wait(10)
            return "payload"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(sf.do("k", slow)))
        ]
        threads[0].start()
        assert started.wait(10)  # the leader is inside fn
        for _ in range(4):
            t = threading.Thread(target=lambda: results.append(sf.do("k", slow)))
            t.start()
            threads.append(t)
        deadline = time.monotonic() + 10
        while sf.coalesced < 4 and time.monotonic() < deadline:
            time.sleep(0.001)  # followers must be parked before release
        release.set()
        for t in threads:
            t.join(10)
        assert len(calls) == 1
        assert sf.led == 1 and sf.coalesced == 4
        assert [v for v, _ in results] == ["payload"] * 5
        assert sum(leader for _, leader in results) == 1
        assert sf.inflight() == 0

    def test_leader_exception_propagates_to_every_waiter(self):
        sf = SingleFlight()
        started, release = threading.Event(), threading.Event()

        def boom():
            started.set()
            release.wait(10)
            raise RuntimeError("sweep failed")

        errors = []

        def call():
            try:
                sf.do("k", boom)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=call)]
        threads[0].start()
        assert started.wait(10)
        t = threading.Thread(target=call)
        t.start()
        threads.append(t)
        deadline = time.monotonic() + 10
        while sf.coalesced < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(10)
        assert errors == ["sweep failed"] * 2
        # The failed flight is retired: the next caller re-evaluates.
        value, leader = sf.do("k", lambda: "recovered")
        assert value == "recovered" and leader

    def test_sequential_callers_each_lead(self):
        sf = SingleFlight()
        assert sf.do("k", lambda: 1) == (1, True)
        assert sf.do("k", lambda: 2) == (2, True)
        assert sf.led == 2 and sf.coalesced == 0

    def test_follower_wait_times_out_instead_of_parking_forever(self):
        sf = SingleFlight()
        started, release = threading.Event(), threading.Event()

        def hung_leader():
            started.set()
            release.wait(10)
            return "late"

        t = threading.Thread(target=lambda: sf.do("k", hung_leader))
        t.start()
        assert started.wait(10)
        with pytest.raises(TimeoutError, match="in-flight evaluation"):
            sf.do("k", lambda: "n/a", timeout=0.05)
        release.set()
        t.join(10)


class TestBoundedCache:
    def test_lru_eviction_order(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: "b" is now the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_put_overwrite_does_not_evict(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2 and cache.evictions == 0
        assert cache.get("a") == 10

    def test_stats_and_validation(self):
        with pytest.raises(ValueError):
            BoundedCache(0)
        cache = BoundedCache(8)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        assert cache.stats() == {
            "entries": 1, "size": 1, "capacity": 8, "hits": 1, "misses": 1,
            "evictions": 0,
        }

    def test_byte_bound_evicts_lru_first_and_is_never_exceeded(self):
        cache = BoundedCache(100, weigh=len)
        cache.put("a", b"x" * 40)
        cache.put("b", b"x" * 40)
        assert cache.get("a") is not None  # "b" is now the LRU entry
        cache.put("c", b"x" * 40)  # 120 bytes: evicting "b" alone fits
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert cache.stats()["size"] == 80
        cache.put("d", b"x" * 90)  # evicts "a", then "c"
        assert len(cache) == 1 and cache.stats()["size"] == 90
        assert cache.evictions == 3
        cache.put("huge", b"x" * 101)  # heavier than the bound: not cached
        assert cache.get("huge") is None
        assert cache.get("d") is not None and cache.stats()["size"] == 90
        cache.put("d", b"x" * 101)  # a too-heavy overwrite drops the key
        assert cache.get("d") is None and cache.stats()["size"] == 0

    def test_payload_l1_is_bounded_in_array_bytes(self):
        op, _ = _ops()
        payload = compute_payload(op, ENV, COST, cap=CAP, seed=0)
        cache = new_payload_cache()
        cache.put("p", payload)
        stats = cache.stats()
        assert stats["capacity"] == PAYLOAD_L1_BYTES
        assert stats["size"] == payload_nbytes(payload) == sum(
            v.nbytes for v in payload.values() if hasattr(v, "nbytes")
        )

    def test_concurrent_get_and_put(self):
        keys = [f"k{i}" for i in range(40)]
        value = {k: k.encode() * (i % 7 + 1) for i, k in enumerate(keys)}
        cache = BoundedCache(60, weigh=len)
        rounds, threads = 2000, 8

        def worker(t: int) -> None:
            rng = random.Random(t)
            for _ in range(rounds):
                k = rng.choice(keys)
                got = cache.get(k)
                if got is None:
                    cache.put(k, value[k])
                else:
                    assert got == value[k]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(worker, t) for t in range(threads)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == rounds * threads
        held = [cache.get(k, record=False) for k in keys]
        assert stats["entries"] == sum(v is not None for v in held)
        assert stats["size"] == sum(len(v) for v in held if v is not None)
        assert stats["size"] <= stats["capacity"]


class TestServiceMetrics:
    def test_latency_percentiles(self):
        m = ServiceMetrics()
        for ms in range(1, 101):  # 1..100 ms
            m.record_request("/v1/sweep", ms / 1e3)
        snap = m.snapshot()["latency_ms"]["/v1/sweep"]
        assert snap["count"] == 100
        assert snap["p50_ms"] == pytest.approx(51.0)
        assert snap["p95_ms"] == pytest.approx(95.0)
        assert snap["p99_ms"] == pytest.approx(99.0)
        assert snap["max_ms"] == pytest.approx(100.0)

    def test_tier_counting_and_validation(self):
        m = ServiceMetrics()
        m.record_tier("l1")
        m.record_tier("computed")
        m.record_tier("l1")
        assert m.tier_counts() == {
            "l1": 2, "coalesced": 0, "l2": 0, "delta": 0, "computed": 1,
        }
        with pytest.raises(ValueError, match="unknown resolve tier"):
            m.record_tier("l7")

    def test_response_kind_counting_and_validation(self):
        m = ServiceMetrics()
        m.record_response("json")
        m.record_response("binary")
        m.record_response("not_modified")
        m.record_response("json")
        assert m.snapshot()["responses"] == {
            "json": 2, "binary": 1, "not_modified": 1,
        }
        with pytest.raises(ValueError, match="unknown response kind"):
            m.record_response("xml")

    def test_window_is_bounded(self):
        from repro.service import metrics as metrics_mod

        m = ServiceMetrics()
        for _ in range(metrics_mod.WINDOW + 50):
            m.record_request("/healthz", 0.001)
        snap = m.snapshot()
        assert snap["latency_ms"]["/healthz"]["count"] == metrics_mod.WINDOW
        assert snap["requests"]["/healthz"] == metrics_mod.WINDOW + 50

    def test_optimize_breakdown_accumulates(self):
        m = ServiceMetrics()
        assert m.snapshot()["optimize_breakdown"] == {
            "computed": 0, "sweep_ms_total": 0.0, "select_ms_total": 0.0,
            "sweep_ms_avg": 0.0, "select_ms_avg": 0.0,
        }
        m.record_optimize_breakdown(0.200, 0.010)
        m.record_optimize_breakdown(0.100, 0.030)
        snap = m.snapshot()["optimize_breakdown"]
        assert snap["computed"] == 2
        assert snap["sweep_ms_total"] == pytest.approx(300.0)
        assert snap["select_ms_total"] == pytest.approx(40.0)
        assert snap["sweep_ms_avg"] == pytest.approx(150.0)
        assert snap["select_ms_avg"] == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# Tiered resolution (service core, HTTP-free)
# ---------------------------------------------------------------------------

class TestTieredResolution:
    def test_computed_then_l1_attribution(self):
        svc = TuningService(store=None)
        calls = []

        def compute():
            calls.append(1)
            return {"x": 1}

        assert svc._cached_response("d1", compute) == {"x": 1}
        assert svc.metrics.tier_counts()["computed"] == 1
        assert svc._cached_response("d1", compute) == {"x": 1}
        assert svc.metrics.tier_counts()["l1"] == 1
        assert len(calls) == 1

    def test_sweep_resolves_from_l2_across_services(self, tmp_path):
        op, _ = _ops()
        body = sweep_request_wire(op, ENV, cap=CAP, seed=2)
        store = SweepStore(tmp_path)
        svc1 = TuningService(store=store)
        first = svc1.handle_sweep(body)
        assert svc1.metrics.tier_counts()["computed"] == 1
        assert store.stats()["saves"] == 1

        clear_sweep_memo()
        svc2 = TuningService(store=SweepStore(tmp_path))
        second = svc2.handle_sweep(body)
        assert svc2.metrics.tier_counts() == {
            "l1": 0, "coalesced": 0, "l2": 1, "delta": 0, "computed": 0,
        }
        assert canonical_json_bytes(first) == canonical_json_bytes(second)

    def test_storeless_service_ignores_the_active_store(self, tmp_path):
        # An explicitly storeless daemon must not fall back to the
        # process-active store inside sweep_graph.
        from repro.engine import get_sweep_store, set_sweep_store

        old = get_sweep_store()
        global_store = set_sweep_store(tmp_path / "global")
        try:
            svc = TuningService(store=None)
            _optimize(svc, {"model": "mha", "include_backward": False, "cap": CAP})
            assert global_store.stats()["saves"] == 0
            assert global_store.stats()["entries"] == 0
        finally:
            set_sweep_store(old)

    def test_optimize_response_carries_selection_and_breakdown(self):
        from repro.configsel.selector import select_configurations
        from repro.service.protocol import build_request_graph, parse_optimize_request

        svc = TuningService(store=None)
        body = {"model": "mha", "include_backward": False, "cap": CAP}
        resp = _optimize(svc, body)
        sel = resp["selection"]
        assert sel is not None
        assert len(sel["chain"]) > 0
        assert sel["total_us"] > 0
        assert sel["chain_cost_us"] > 0
        assert len(sel["chosen"]) == resp["num_kernels"]
        # The wire selection matches an offline run of the same request.
        req = parse_optimize_request(body)
        graph = build_request_graph(req)
        offline = select_configurations(
            graph, req.env, CostModel(req.gpu), cap=req.cap
        )
        assert sel["chain"] == [s.op_name for s in offline.chain]
        assert sel["chain_cost_us"] == offline.chain_cost_us
        assert sel["total_us"] == offline.total_us
        # Exactly one cold computation was attributed to the two phases.
        breakdown = svc.metrics.snapshot()["optimize_breakdown"]
        assert breakdown["computed"] == 1
        assert breakdown["sweep_ms_total"] > 0
        assert breakdown["select_ms_total"] > 0
        # A warm (L1) replay serves the same body without recomputing.
        assert _optimize(svc, body) == resp
        assert svc.metrics.snapshot()["optimize_breakdown"]["computed"] == 1

    def test_engine_memo_stays_bounded(self):
        # The daemon resolves through its own byte-bounded payload L1 and
        # leaves the engine's empty; a bound that binds evicts instead of
        # growing, and the response is unchanged.
        body = {"model": "mha", "include_backward": False, "cap": CAP}
        svc = TuningService(store=None)
        resp = _optimize(svc, body)
        assert sweep_memo_stats()["entries"] == 0
        full = svc.cache.stats()
        assert full["capacity"] == PAYLOAD_L1_BYTES
        assert 0 < full["size"] <= full["capacity"]
        small = TuningService(store=None)
        small.cache = BoundedCache(full["size"] // 2, weigh=payload_nbytes)
        assert _optimize(small, body) == resp
        stats = small.cache.stats()
        assert stats["evictions"] > 0
        assert stats["size"] <= full["size"] // 2

    def test_oversized_sweep_request_rejected_not_attempted(self):
        # The AIB fused kernel's uncapped space is ~1e10 configurations;
        # serving it cold would OOM the daemon.
        svc = TuningService(store=None)
        aib = apply_paper_fusion(
            build_mha_graph(qkv_fusion="qkv", include_backward=False), ENV
        ).op("AIB")
        body = sweep_request_wire(aib, ENV, cap=None)
        with pytest.raises(ProtocolError, match="exceeds the served limit"):
            svc.handle_sweep(body)

    def test_uncapped_or_oversized_optimize_rejected(self):
        svc = TuningService(store=None)
        for cap in (None, 10**6):
            with pytest.raises(ProtocolError, match="cap of at most"):
                _optimize(svc, {"model": "mha", "include_backward": False, "cap": cap})


# ---------------------------------------------------------------------------
# The HTTP daemon, end to end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def live_service(tmp_path_factory):
    """One daemon (with a real on-disk store) shared by a test class."""
    clear_sweep_memo()
    store = SweepStore(tmp_path_factory.mktemp("svc-store"))
    svc = TuningService(store=store, jobs=1)
    with serve_background(svc) as url:
        yield svc, TuningClient(url)
    clear_sweep_memo()


class TestHTTPServer:
    def test_healthz_identity(self, live_service):
        _, client = live_service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["cost_model_version"] == COST_MODEL_VERSION
        assert "store" in health and "cache" in health

    def test_sweep_bytes_equal_reference_derived_bytes(self, live_service):
        _, client = live_service
        op, _ = _ops()
        served = client.sweep_raw(op, ENV, cap=CAP, seed=9)
        req = parse_sweep_request(sweep_request_wire(op, ENV, cap=CAP, seed=9))
        expected = canonical_json_bytes(
            sweep_response_from_sweep(
                sweep_op_reference(op, ENV, COST, cap=CAP, seed=9),
                COST,
                digest=sweep_request_digest(req, COST),
                top_k=3,
            )
        )
        assert served == expected

    def test_concurrent_identical_requests_compute_once(self, live_service):
        svc, client = live_service
        _, op = _ops()  # the kernel op: not shared with other tests
        before = svc.metrics.tier_counts()
        with ThreadPoolExecutor(8) as pool:
            bodies = list(
                pool.map(
                    lambda _: client.sweep_raw(op, ENV, cap=CAP, seed=11),
                    range(8),
                )
            )
        assert len(set(bodies)) == 1  # byte-identical across clients
        after = svc.metrics.tier_counts()
        assert after["computed"] - before["computed"] == 1
        delta = sum(after.values()) - sum(before.values())
        assert delta == 8  # every request attributed to exactly one tier

    def test_optimize_and_repeat_hits_l1(self, live_service):
        svc, client = live_service
        first = client.optimize(model="mha", include_backward=False, cap=CAP)
        assert first["num_kernels"] > 0
        assert first["total_us"] == pytest.approx(
            first["forward_us"] + first["backward_us"]
        )
        before = svc.metrics.tier_counts()["l1"]
        second = client.optimize(model="mha", include_backward=False, cap=CAP)
        assert svc.metrics.tier_counts()["l1"] == before + 1
        assert canonical_json_bytes(first) == canonical_json_bytes(second)

    def test_malformed_body_is_400(self, live_service):
        _, client = live_service
        import urllib.request

        req = urllib.request.Request(
            f"{client.base_url}/v1/sweep",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(Exception) as exc_info:
            urllib.request.urlopen(req)
        assert exc_info.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-1", str(10**9)])
    def test_bad_content_length_is_400(self, live_service, length):
        # A negative length would otherwise turn rfile.read into
        # read-until-close and pin the handler thread.
        import http.client

        host, port = live_service[1].base_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/sweep")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    def test_protocol_error_is_400_with_detail(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as exc_info:
            client.optimize(model="mha", env=bert_large_dims(), cap=-1)
        assert exc_info.value.status == 400
        assert "cap must be" in str(exc_info.value)

    def test_a_burst_of_connections_waits_in_the_backlog(self):
        # Each request opens its own connection, so clients reconnect in
        # bursts; past the listen backlog the kernel drops their SYNs and
        # each waits out a 1 s retransmit.  Nothing accepts here: only the
        # backlog holds the burst.
        import socket

        server = make_server(
            TuningService(store=None, registry=None, calibration_dir=None)
        )
        socks = []
        try:
            for _ in range(32):
                socks.append(
                    socket.create_connection(server.server_address[:2], timeout=0.5)
                )
        finally:
            for sock in socks:
                sock.close()
            server.server_close()

    def test_unknown_route_is_404(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as exc_info:
            client._request_json("/v2/everything")
        assert exc_info.value.status == 404

    def test_metrics_endpoint_shape(self, live_service):
        _, client = live_service
        body = client.metrics()
        assert set(body["resolve_tiers"]) == {
            "l1", "coalesced", "l2", "delta", "computed",
        }
        assert set(body["responses"]) == {"json", "binary", "not_modified"}
        assert {"led", "coalesced", "inflight"} <= set(body["coalescing"])
        assert body["requests"]  # at least the requests this class issued

# ---------------------------------------------------------------------------
# ETag revalidation and the packed binary wire path
# ---------------------------------------------------------------------------

class TestEtagHelpers:
    def test_json_tag_carries_top_k_binary_tag_does_not(self):
        from repro.service.protocol import sweep_etag

        assert sweep_etag("abc") == '"abc"'
        assert sweep_etag("abc", top_k=7) == '"abc.k7"'
        # Different truncations are different representations.
        assert sweep_etag("abc", top_k=3) != sweep_etag("abc", top_k=5)

    @pytest.mark.parametrize(
        "header,matches",
        [
            (None, False),
            ("", False),
            ('"abc.k3"', True),
            ('W/"abc.k3"', True),
            ('"other", "abc.k3"', True),
            ("*", True),
            ('"abc.k5"', False),
            ('"abc"', False),
        ],
    )
    def test_if_none_match_evaluation(self, header, matches):
        from repro.service.protocol import etag_matches

        assert etag_matches(header, '"abc.k3"') is matches

    @pytest.mark.parametrize(
        "accept,packed",
        [
            (None, False),
            ("application/json", False),
            ("application/x-repro-npz", True),
            ("Application/X-Repro-NPZ", True),
            ("application/json, application/x-repro-npz;q=0.9", True),
            ("*/*", False),  # packing is strictly opt-in by exact type
        ],
    )
    def test_accept_negotiation(self, accept, packed):
        from repro.service.protocol import accepts_packed

        assert accepts_packed(accept) is packed


class TestWirePath:
    def test_revalidation_is_304_with_empty_body(self, live_service):
        _, client = live_service
        op, _ = _ops()
        status, etag, body = client.sweep_conditional(op, ENV, cap=CAP, seed=21)
        assert status == 200 and etag and body
        status2, etag2, body2 = client.sweep_conditional(
            op, ENV, cap=CAP, seed=21, etag=etag
        )
        assert (status2, etag2, body2) == (304, etag, b"")

    def test_304_short_circuits_before_resolution(self, live_service):
        svc, client = live_service
        op, _ = _ops()
        _, etag, _ = client.sweep_conditional(op, ENV, cap=CAP, seed=22)
        before = svc.metrics.tier_counts()
        status, _, _ = client.sweep_conditional(op, ENV, cap=CAP, seed=22, etag=etag)
        assert status == 304
        # No tier was consulted: the revalidation never touched resolution.
        assert svc.metrics.tier_counts() == before

    def test_stale_etag_gets_a_full_body(self, live_service):
        _, client = live_service
        op, _ = _ops()
        status, _, body = client.sweep_conditional(
            op, ENV, cap=CAP, seed=23, etag='"not-the-current-tag"'
        )
        assert status == 200 and body

    def test_top_k_is_part_of_the_json_representation(self, live_service):
        _, client = live_service
        op, _ = _ops()
        _, etag3, _ = client.sweep_conditional(op, ENV, cap=CAP, seed=24, top_k=3)
        status, etag5, _ = client.sweep_conditional(
            op, ENV, cap=CAP, seed=24, top_k=5, etag=etag3
        )
        # A tag held for the top-3 body must not validate the top-5 body.
        assert status == 200 and etag5 != etag3

    def test_packed_decodes_to_the_exact_json_measurements(self, live_service):
        from repro.engine.sweep import sweep_from_payload

        _, client = live_service
        op, _ = _ops()
        served = json.loads(client.sweep_raw(op, ENV, cap=CAP, seed=25))
        payload = client.sweep_packed(op, ENV, cap=CAP, seed=25)
        rebuilt = sweep_response_from_sweep(
            sweep_from_payload(op, payload), COST, digest=served["digest"], top_k=3
        )
        assert canonical_json_bytes(rebuilt) == canonical_json_bytes(served)

    def test_packed_bytes_are_the_store_file(self, live_service):
        svc, client = live_service
        op, _ = _ops()
        status, etag, data = client.sweep_packed_raw(op, ENV, cap=CAP, seed=26)
        assert status == 200
        digest = etag.strip('"')
        assert data == svc.store.path_for(digest).read_bytes()

    def test_storeless_pack_matches_streamed_bytes(self, live_service, tmp_path):
        # The in-memory fallback of a storeless daemon produces the same
        # bytes the store-streaming daemon serves (deterministic writer).
        _, client = live_service
        op, _ = _ops()
        _, _, streamed = client.sweep_packed_raw(op, ENV, cap=CAP, seed=27)
        clear_sweep_memo()
        storeless = TuningService(store=None)
        with serve_background(storeless) as url:
            _, _, packed = TuningClient(url).sweep_packed_raw(
                op, ENV, cap=CAP, seed=27
            )
        assert packed == streamed

    def test_corrupt_packed_body_is_rejected_at_decode(self):
        from repro.service.protocol import payload_from_packed

        with pytest.raises(ProtocolError, match="packed sweep response"):
            payload_from_packed(b"RPSW definitely not a sweep payload")

    def test_packed_digest_mismatch_is_rejected(self, live_service):
        _, client = live_service
        op, _ = _ops()
        from repro.service.protocol import payload_from_packed

        _, _, data = client.sweep_packed_raw(op, ENV, cap=CAP, seed=28)
        with pytest.raises(ProtocolError, match="failed validation"):
            payload_from_packed(data, digest="0" * 64)

    def test_a_default_client_decodes_a_promoted_daemons_packed_sweep(
        self, monkeypatch
    ):
        """A client serves no model: it checks the digest, not the version."""
        from repro.engine.store import pack_payload_bytes
        from repro.hardware.params import DEFAULT_PARAMS, params_from_wire
        from repro.service.protocol import payload_from_packed, sweep_etag

        op, _ = _ops()
        promoted = CostModel(
            params=params_from_wire({**DEFAULT_PARAMS.to_wire(), "jitter": 0.2})
        )
        digest = sweep_digest(op, ENV, promoted, cap=CAP, seed=30)
        data = pack_payload_bytes(
            digest, compute_payload(op, ENV, promoted, cap=CAP, seed=30)
        )
        client = TuningClient("http://127.0.0.1:9")
        monkeypatch.setattr(
            client, "sweep_packed_raw", lambda *a, **k: (200, sweep_etag(digest), data)
        )
        payload = client.sweep_packed(op, ENV, cap=CAP, seed=30)
        assert payload["version"] == promoted.version != COST.version
        # A coordinator pricing under the default model keeps the bytes out.
        with pytest.raises(ProtocolError, match="cost model version"):
            payload_from_packed(data, digest=digest, version=COST.version)

    def test_response_kinds_are_counted(self, live_service):
        svc, client = live_service
        op, _ = _ops()
        before = svc.metrics.snapshot()["responses"]
        client.sweep(op, ENV, cap=CAP, seed=29)
        _, etag, _ = client.sweep_packed_raw(op, ENV, cap=CAP, seed=29)
        client.sweep_packed_raw(op, ENV, cap=CAP, seed=29, etag=etag)
        after = svc.metrics.snapshot()["responses"]
        assert after["json"] - before["json"] == 1
        assert after["binary"] - before["binary"] == 1
        assert after["not_modified"] - before["not_modified"] == 1


# ---------------------------------------------------------------------------
# Decide once, encode once, send without copying
# ---------------------------------------------------------------------------

def _post_raw(url: str, path: str, data: bytes, headers=None):
    """One POST of raw bytes: ``(status, headers, body)``."""
    import http.client

    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        conn.request("POST", path, body=data, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _aib_uncapped_body() -> bytes:
    """A sweep body over the size guard (~1e10 configurations)."""
    aib = apply_paper_fusion(
        build_mha_graph(qkv_fusion="qkv", include_backward=False), ENV
    ).op("AIB")
    return canonical_json_bytes(sweep_request_wire(aib, ENV, cap=None))


class TestDecideOnce:
    def test_a_promote_between_identical_bodies_serves_the_new_version(self):
        from repro.hardware.params import (
            DEFAULT_PARAMS,
            install_params,
            params_from_wire,
            reset_active_params,
        )
        from repro.service.protocol import optimize_request_wire, sweep_etag

        op, _ = _ops()
        raw = canonical_json_bytes(sweep_request_wire(op, ENV, cap=CAP, seed=41))
        opt = canonical_json_bytes(
            optimize_request_wire(model="mha", include_backward=False, cap=CAP)
        )
        svc = TuningService(store=None, registry=None, calibration_dir=None)
        before = svc.handle_sweep_wire(raw)
        before_opt = json.loads(svc.handle_optimize_wire(opt))
        candidate = params_from_wire({**DEFAULT_PARAMS.to_wire(), "jitter": 0.2})
        install_params(candidate)
        try:
            after = svc.handle_sweep_wire(raw)
            after_opt = json.loads(svc.handle_optimize_wire(opt))
        finally:
            reset_active_params()
        promoted = CostModel(params=candidate)
        digest = sweep_digest(op, ENV, promoted, cap=CAP, seed=41)
        assert after.headers["ETag"] == sweep_etag(digest, top_k=3)
        assert after.headers["ETag"] != before.headers["ETag"]
        assert json.loads(after.body)["cost_model_version"] == promoted.version
        assert after_opt["cost_model_version"] == promoted.version
        assert after_opt["digest"] != before_opt["digest"]
        # Rolled back: the same bytes decide under the default model again.
        assert svc.handle_sweep_wire(raw).headers == before.headers
        assert svc.decisions.stats()["hits"] == 1

    def test_a_promoted_version_is_never_rehashed(self, monkeypatch):
        """The installed params carry their version: after a promote no
        model snapshot and no decision hit hashes the params again."""
        from repro.hardware import params as params_mod
        from repro.hardware.params import (
            DEFAULT_PARAMS,
            install_params,
            params_from_wire,
            reset_active_params,
        )

        op, _ = _ops()
        raw = canonical_json_bytes(sweep_request_wire(op, ENV, cap=CAP, seed=44))
        svc = TuningService(store=None, registry=None, calibration_dir=None)
        install_params(params_from_wire({**DEFAULT_PARAMS.to_wire(), "jitter": 0.2}))
        try:
            first = svc._decided("/v1/sweep", raw, svc._sweep_decision)
            hashed = []
            digest = params_mod.params_digest
            monkeypatch.setattr(
                params_mod, "params_digest", lambda p: hashed.append(p) or digest(p)
            )
            models = [CostModel() for _ in range(5)]
            hits = [
                svc._decided("/v1/sweep", raw, svc._sweep_decision) for _ in range(5)
            ]
        finally:
            reset_active_params()
        assert hashed == []
        assert {m.version for m in models} == {first.cost.version}
        assert first.cost.version != COST.version
        assert all(hit is first for hit in hits)

    @pytest.mark.parametrize("kind", ["bad_json", "view_op", "over_cap"])
    def test_a_refused_body_is_400_every_time_and_never_remembered(self, kind):
        import dataclasses

        view = dataclasses.replace(_ops()[0], is_view=True)
        raw = {
            "bad_json": b"{not json",
            "view_op": canonical_json_bytes(
                sweep_request_wire(_ops()[0], ENV, cap=CAP) | {"op": op_to_wire(view)}
            ),
            "over_cap": _aib_uncapped_body(),
        }[kind]
        svc = TuningService(store=None, registry=None, calibration_dir=None)
        with serve_background(svc) as url:
            replies = [_post_raw(url, "/v1/sweep", raw) for _ in range(3)]
        assert [status for status, _, _ in replies] == [400] * 3
        assert len({body for _, _, body in replies}) == 1
        assert svc.decisions.stats()["entries"] == 0
        assert not any(svc.metrics.tier_counts().values())  # never resolved

    def test_a_304_for_an_over_cap_body_stays_a_304(self):
        from repro.service.protocol import sweep_etag

        raw = _aib_uncapped_body()
        digest = sweep_request_digest(parse_sweep_request(json.loads(raw)), COST)
        etag = sweep_etag(digest, top_k=3)
        svc = TuningService(store=None, registry=None, calibration_dir=None)
        with serve_background(svc) as url:
            revalidated = [
                _post_raw(url, "/v1/sweep", raw, {"If-None-Match": etag})
                for _ in range(2)
            ]
            refused = _post_raw(url, "/v1/sweep", raw)
        assert [(s, h["ETag"], b) for s, h, b in revalidated] == [
            (304, etag, b""),
        ] * 2
        assert refused[0] == 400
        assert "exceeds the served limit" in json.loads(refused[2])["error"]

    def test_a_flood_of_distinct_bodies_stays_within_the_byte_bound(self):
        from repro.service.server import DECISION_CACHE_BYTES, DECISION_ENTRY_BYTES

        op, _ = _ops()
        svc = TuningService(store=None, registry=None, calibration_dir=None)
        bodies = (
            canonical_json_bytes(sweep_request_wire(op, ENV, cap=CAP, seed=seed))
            for seed in itertools.count()
        )
        sent = DECISION_CACHE_BYTES // DECISION_ENTRY_BYTES + 100
        for raw in itertools.islice(bodies, sent):
            # "*" revalidates every tag: decided, never resolved.
            assert svc.handle_sweep_wire(raw, if_none_match="*").status == 304
        stats = svc.decisions.stats()
        assert stats["capacity"] == DECISION_CACHE_BYTES
        assert 0 < stats["size"] <= DECISION_CACHE_BYTES
        assert stats["evictions"] > 0 and stats["entries"] < sent

    def test_tiny_bodies_are_weighed_and_refused_graphs_kept_out(self):
        from repro.service.server import DECISION_CACHE_BYTES, DECISION_ENTRY_BYTES

        svc = TuningService(store=None, registry=None, calibration_dir=None)

        def decide(raw: bytes):
            # Decided only: tuning a whole graph per body would take minutes.
            return svc._decided("/v1/optimize", raw, svc._optimize_decision)

        decide(b"{}")  # a served body: every field defaults
        for seed in range(200):
            # Over the whole-graph cap: refused every time, never remembered.
            with pytest.raises(ProtocolError, match="cap of at most"):
                svc.handle_optimize_wire(b'{"cap":20001,"seed":%d}' % seed)
        assert len(svc.decisions) == 1
        decide(b"{}")
        assert svc.decisions.stats()["hits"] == 1  # the flood evicted nothing
        # ~12-byte bodies: the per-entry weight, not the body, bounds the count.
        limit = DECISION_CACHE_BYTES // DECISION_ENTRY_BYTES
        for seed in range(limit + 100):
            decide(b'{"seed":%d}' % seed)
        assert limit // 2 < len(svc.decisions) <= limit

    @pytest.mark.parametrize("stored", [True, False])
    def test_streamed_packed_bytes_are_the_packed_payload(self, stored, tmp_path):
        from repro.engine.store import pack_payload_bytes

        op, _ = _ops()
        digest = sweep_digest(op, ENV, COST, cap=CAP, seed=42)
        expected = pack_payload_bytes(
            digest, compute_payload(op, ENV, COST, cap=CAP, seed=42)
        )
        svc = TuningService(
            store=SweepStore(tmp_path) if stored else None,
            registry=None,
            calibration_dir=None,
        )
        with serve_background(svc) as url:
            client = TuningClient(url)
            # Cold, then warm: a decided body answers from the L1 (and, with
            # a store, from the store file).
            served = [
                client.sweep_packed_raw(op, ENV, cap=CAP, seed=42) for _ in range(2)
            ]
        assert [data for _, _, data in served] == [expected] * 2
        assert svc.decisions.stats()["hits"] == 1

    def test_a_corrupt_fault_still_mangles_a_streamed_reply(self, tmp_path):
        from repro.engine.store import pack_payload_bytes
        from repro.service.fleet.faults import FaultInjector

        op, _ = _ops()
        digest = sweep_digest(op, ENV, COST, cap=CAP, seed=43)
        expected = pack_payload_bytes(
            digest, compute_payload(op, ENV, COST, cap=CAP, seed=43)
        )
        svc = TuningService(
            store=SweepStore(tmp_path),
            registry=None,
            calibration_dir=None,
            faults=FaultInjector.from_spec("corrupt:path=/v1/sweep:after=2"),
        )
        with serve_background(svc) as url:
            client = TuningClient(url)
            _, _, clean = client.sweep_packed_raw(op, ENV, cap=CAP, seed=43)
            _, _, mangled = client.sweep_packed_raw(op, ENV, cap=CAP, seed=43)
        assert svc.store.path_for(digest).read_bytes() == clean == expected
        assert len(mangled) == len(clean) and mangled != clean

    def test_metrics_report_the_decision_map(self):
        op, _ = _ops()
        svc = TuningService(store=None, registry=None, calibration_dir=None)
        with serve_background(svc) as url:
            client = TuningClient(url)
            for _ in range(3):
                client.sweep_raw(op, ENV, cap=CAP, seed=45)
            body = client.metrics()
            text = client.metrics_prometheus()
        decisions = body["decisions"]
        assert (decisions["hits"], decisions["misses"], decisions["entries"]) == (
            2, 1, 1,
        )
        assert body["response_cache"]["entries"] == 1
        assert "repro_decision_cache_entries 1" in text.splitlines()

    def test_warm_replies_are_encoded_once(self):
        op, _ = _ops()
        raw = canonical_json_bytes(sweep_request_wire(op, ENV, cap=CAP, seed=44))
        svc = TuningService(store=None, registry=None, calibration_dir=None)
        first, second = (svc.handle_sweep_wire(raw).body for _ in range(2))
        assert second is first  # the cached bytes themselves
        assert json.loads(first) == svc.handle_sweep(json.loads(raw))
        assert svc.metrics.tier_counts()["l1"] == 2  # still resolved each time


class TestDeltaTier:
    def test_structural_twin_resolves_via_delta(self, tmp_path):
        from repro.engine.store import structural_sweep_digest

        op, _ = _ops()
        store = SweepStore(tmp_path)
        svc = TuningService(store=store, registry=None)
        warm = bert_large_dims()
        perturbed = bert_large_dims(seq=513)
        svc.handle_sweep(sweep_request_wire(op, warm, cap=CAP, seed=31))
        assert svc.metrics.tier_counts()["computed"] == 1
        # Same op structure, different sizes: one structural digest.
        assert structural_sweep_digest(
            op, warm, COST, cap=CAP, seed=31
        ) == structural_sweep_digest(op, perturbed, COST, cap=CAP, seed=31)
        served = svc.handle_sweep(sweep_request_wire(op, perturbed, cap=CAP, seed=31))
        tiers = svc.metrics.tier_counts()
        assert tiers["delta"] == 1 and tiers["computed"] == 1
        assert store.stats()["delta_hits"] == 1
        # The delta-resolved body is byte-identical to a cold reference.
        req = parse_sweep_request(sweep_request_wire(op, perturbed, cap=CAP, seed=31))
        expected = sweep_response_from_sweep(
            sweep_op_reference(op, perturbed, COST, cap=CAP, seed=31),
            COST,
            digest=sweep_request_digest(req, COST),
            top_k=3,
        )
        assert canonical_json_bytes(served) == canonical_json_bytes(expected)
        # The delta result persisted under its exact digest: a rerun in a
        # fresh service is a plain L2 hit.
        clear_sweep_memo()
        svc2 = TuningService(store=SweepStore(tmp_path), registry=None)
        svc2.handle_sweep(sweep_request_wire(op, perturbed, cap=CAP, seed=31))
        assert svc2.metrics.tier_counts()["l2"] == 1


@contextmanager
def _canned_daemon(status: int, body: bytes):
    """A client of a server that answers every request with ``status`` and
    ``body``: the daemon's replies, good or garbage, over a real socket."""

    class Canned(BaseHTTPRequestHandler):
        def _answer(self) -> None:
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_GET = do_POST = _answer

        def log_message(self, format, *args) -> None:  # noqa: A002
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Canned)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield TuningClient(f"http://127.0.0.1:{server.server_address[1]}", retries=0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestClientErrorSurfacing:
    def test_json_error_detail_is_surfaced(self):
        with _canned_daemon(400, b'{"error": "cap must be positive"}') as client:
            with pytest.raises(ServiceError) as info:
                client.rollout_status()
        exc = info.value
        assert "cap must be positive" in str(exc)
        assert exc.status == 400 and exc.body == {"error": "cap must be positive"}

    def test_validation_report_issues_are_summarized(self):
        body = canonical_json_bytes(
            {
                "error": "schedule x failed validation with 2 error(s)",
                "report": {
                    "ok": False,
                    "issues": [
                        {
                            "severity": "error",
                            "validator": "costs",
                            "code": "total-us",
                            "message": "claimed 1.0us, recomputed 2.0us",
                            "op": None,
                        },
                        {
                            "severity": "error",
                            "validator": "costs",
                            "code": "chain-us",
                            "message": "chain cost disagrees",
                            "op": None,
                        },
                    ],
                },
            }
        )
        with _canned_daemon(400, body) as client:
            with pytest.raises(ServiceError) as info:
                client.register_entry({"digest": "x"})
        exc = info.value
        msg = str(exc)
        assert "2 issue(s)" in msg
        assert "costs/total-us: claimed 1.0us, recomputed 2.0us" in msg
        assert exc.body["report"]["issues"]  # full report still attached

    def test_non_json_error_body_is_carried_truncated(self):
        body = b"<html>bad gateway" + b"x" * 1000
        with _canned_daemon(502, body) as client:
            with pytest.raises(ServiceError) as info:
                client.healthz()
        exc = info.value
        assert "<html>bad gateway" in str(exc)
        assert len(str(exc)) < 600
        assert exc.status == 502 and exc.body is None

    def test_empty_error_body_names_the_status_reason(self):
        with _canned_daemon(500, b"") as client:
            with pytest.raises(ServiceError, match="HTTP 500: Internal Server Error"):
                client.metrics()


class TestClientReadsRepliesTyped:
    """A 2xx reply that is not a JSON object is the daemon's fault, raised
    as ``ServiceError`` (not ``JSONDecodeError`` or ``AttributeError``)."""

    @pytest.mark.parametrize("body", [b"garbage", b"", b"\xff\xfe", b"[1, 2]", b'"ok"'])
    def test_garbage_2xx_body_is_a_service_error(self, body):
        with _canned_daemon(200, body) as client:
            with pytest.raises(ServiceError, match="/healthz reply"):
                client.healthz()
            with pytest.raises(ServiceError, match="/v1/optimize reply"):
                client.optimize(model="mha", cap=8)

    def test_garbage_503_readiness_is_a_service_error(self):
        with _canned_daemon(503, b"<html>") as client:
            with pytest.raises(ServiceError, match="/readyz reply"):
                client.readyz()

    def test_304_and_503_are_answers(self):
        op = build_mha_graph(qkv_fusion="unfused", include_backward=False).op("q_proj")
        with _canned_daemon(304, b"") as client:
            assert client.sweep_packed_raw(op, ENV, etag='"x"') == (304, None, b"")
        with _canned_daemon(503, b'{"status": "unavailable"}') as client:
            assert client.readyz() == (False, {"status": "unavailable"})


# ---------------------------------------------------------------------------
# The schedule registry endpoints
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def registry_service(tmp_path_factory):
    """A daemon with a sweep store AND a schedule registry attached."""
    from repro.registry import ScheduleRegistry

    clear_sweep_memo()
    store = SweepStore(tmp_path_factory.mktemp("reg-store"))
    registry = ScheduleRegistry(tmp_path_factory.mktemp("reg") / "registry")
    svc = TuningService(store=store, registry=registry, jobs=1)
    with serve_background(svc) as url:
        yield svc, TuningClient(url)
    svc.stop_revalidation()
    clear_sweep_memo()


class TestRegistryEndpoints:
    def _registered(self, client):
        return client.register(
            model="mha", include_backward=False, env=ENV, cap=CAP
        )

    def test_register_then_fetch_round_trip(self, registry_service):
        svc, client = registry_service
        resp = self._registered(client)
        assert resp["registered"] is True
        assert resp["report"]["ok"] is True

        entry_wire = client.schedule(resp["digest"])
        assert entry_wire["digest"] == resp["digest"]
        assert entry_wire["selection"]["total_us"] == resp["total_us"]
        assert entry_wire["provenance"]["registrar"] == "daemon"
        assert resp["digest"] in svc.registry.digests()
        assert svc.metrics.registry_counts()["served"] >= 1
        assert client.healthz()["registry"]["entries"] >= 1

    def test_resubmitting_a_served_entry_verbatim_is_accepted(
        self, registry_service
    ):
        _, client = registry_service
        entry_wire = client.schedule(self._registered(client)["digest"])
        resp = client.register_entry(entry_wire)
        assert resp["registered"] is True
        assert resp["digest"] == entry_wire["digest"]

    def test_adversarial_claimed_cost_is_rejected_with_report(
        self, registry_service
    ):
        """An entry whose claimed cost disagrees with recomputation gets a
        structured 400 — full validation report in the body — and nothing
        is stored; ``/metrics`` counts the rejection."""
        svc, client = registry_service
        clean = self._registered(client)
        entry_wire = client.schedule(clean["digest"])
        tampered = json.loads(json.dumps(entry_wire))
        tampered["selection"]["total_us"] += 3.0

        before = svc.metrics.registry_counts()["rejected"]
        with pytest.raises(ServiceError) as exc_info:
            client.register_entry(tampered)
        err = exc_info.value
        assert err.status == 400
        assert err.body is not None and "report" in err.body

        report = err.body["report"]
        assert report["ok"] is False
        errors = [i for i in report["issues"] if i["severity"] == "error"]
        assert errors, report
        assert all(i["validator"] == "cost" for i in errors)
        assert any(i["code"] == "total-drift" for i in errors)

        # The rejection is counted, and the stored entry is untouched.
        assert svc.metrics.registry_counts()["rejected"] == before + 1
        assert client.metrics()["registry"]["events"]["rejected"] == before + 1
        served = client.schedule(clean["digest"])
        assert served["selection"]["total_us"] == clean["total_us"]

    def test_tampered_problem_tuple_is_rejected_as_digest_mismatch(
        self, registry_service
    ):
        _, client = registry_service
        entry_wire = client.schedule(self._registered(client)["digest"])
        tampered = json.loads(json.dumps(entry_wire))
        tampered["knobs"]["seed"] = 424242
        with pytest.raises(ServiceError) as exc_info:
            client.register_entry(tampered)
        assert exc_info.value.status == 400
        assert "hashes to" in str(exc_info.value)

    def test_unknown_digest_is_404(self, registry_service):
        _, client = registry_service
        with pytest.raises(ServiceError) as exc_info:
            client.schedule("0" * 64)
        assert exc_info.value.status == 404

    def test_malformed_digest_is_400(self, registry_service):
        _, client = registry_service
        with pytest.raises(ServiceError) as exc_info:
            client._request_json("/v1/schedule/..%2Fescape")
        assert exc_info.value.status == 400

    def test_register_cap_guard(self, registry_service):
        _, client = registry_service
        with pytest.raises(ServiceError) as exc_info:
            client.register(
                model="mha", include_backward=False, env=ENV, cap=None
            )
        assert exc_info.value.status == 400
        assert "cap" in str(exc_info.value)

    def test_revalidation_sweep_and_metrics(self, registry_service):
        svc, client = registry_service
        digest = self._registered(client)["digest"]
        summary = svc.revalidate_registry()
        assert summary["checked"] >= 1
        assert summary["failed"] == 0
        last = client.metrics()["registry"]["last_revalidation"]
        assert last["checked"] == summary["checked"]
        assert last["at"] == summary["at"]

        # Corrupt the stored entry on disk: the sweep reports, not crashes.
        path = svc.registry.path_for(digest)
        original = path.read_bytes()
        tampered = json.loads(original)
        tampered["selection"]["total_us"] += 1.0
        path.write_bytes(json.dumps(tampered).encode())
        try:
            summary = svc.revalidate_registry()
            assert summary["failed"] == 1
            assert digest in summary["failures"]
            assert any(
                "total-drift" in line for line in summary["failures"][digest]
            )
            assert svc.metrics.registry_counts()["revalidate_fail"] >= 1
        finally:
            path.write_bytes(original)

    def test_background_revalidation_thread(self, registry_service):
        svc, client = registry_service
        self._registered(client)
        before = svc.metrics.registry_counts()["revalidate_pass"]
        svc.start_revalidation(interval_s=0.05)
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if svc.metrics.registry_counts()["revalidate_pass"] > before:
                    break
                time.sleep(0.02)
            assert svc.metrics.registry_counts()["revalidate_pass"] > before
            assert client.metrics()["registry"]["last_revalidation"] is not None
        finally:
            svc.stop_revalidation()


class TestRegistryUnconfigured:
    def test_endpoints_refuse_without_a_registry(self):
        svc = TuningService(store=None, registry=None)
        with serve_background(svc) as url:
            client = TuningClient(url)
            with pytest.raises(ServiceError) as exc_info:
                client.schedule("0" * 64)
            assert exc_info.value.status == 400
            with pytest.raises(ServiceError) as exc_info:
                client.register(
                    model="mha", include_backward=False, env=ENV, cap=CAP
                )
            assert exc_info.value.status == 400
            assert "no schedule registry" in str(exc_info.value)
            assert client.healthz()["registry"] is None

"""In-process fleet tests: hash ring, faults, registry, retry, coordinator.

The chaos suite (``tests/test_fleet_faults.py``, slow) proves the same
failure semantics against real subprocesses; this file pins the mechanics
fast enough for tier-1: ring determinism and minimal rebalancing, the
``REPRO_FAULT_SPEC`` grammar, worker leases and quarantine, client-side
transport retry, and the coordinator's byte-identity + graceful
degradation with in-process workers behind real sockets.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.engine.scheduler import graph_sweep_jobs
from repro.engine.store import SweepStore, structural_sweep_digest
from repro.hardware.cost_model import CostModel
from repro.ir.dims import bert_large_dims
from repro.service.client import ServiceError, TuningClient
from repro.service.fleet.coordinator import FleetService
from repro.service.fleet.faults import (
    KILL_EXIT_CODE,
    FaultInjector,
    FaultSpecError,
    parse_fault_spec,
)
from repro.service.fleet.hashring import HashRing
from repro.service.fleet.registry import WorkerRegistry
from repro.service.protocol import (
    ProtocolError,
    build_request_graph,
    fleet_register_wire,
    optimize_request_wire,
    parse_fleet_heartbeat,
    parse_fleet_register,
    parse_optimize_request,
)
from repro.service.server import TuningService, make_server, serve_background

ENV = bert_large_dims()
CAP = 60

KEYS = [f"{i:064x}" for i in range(200)]  # digest-shaped ring keys


def _storeless(**kwargs) -> TuningService:
    return TuningService(store=None, registry=None, **kwargs)


def _fleet(env: dict[str, str] | None = None, **kwargs) -> FleetService:
    """A storeless coordinator under fast ``REPRO_FLEET_<NAME>`` settings
    (``env`` overrides them), read as a daemon reads them."""
    kwargs.setdefault("store", None)
    kwargs.setdefault("registry", None)
    env = {"TTL_S": "10", "BACKOFF_S": "0.01", **(env or {})}
    with pytest.MonkeyPatch.context() as mp:
        for name, value in env.items():
            mp.setenv(f"REPRO_FLEET_{name}", value)
        return FleetService(**kwargs)


def _batch_raw(client: TuningClient) -> bytes:
    return client.optimize_batch_raw(
        model="mha", include_backward=False, env=ENV, cap=CAP
    )


@pytest.fixture(scope="module")
def single_node_bytes() -> bytes:
    """The ``/v1/optimize`` response every fleet answer must equal."""
    with serve_background(_storeless()) as url:
        return TuningClient(url).optimize_raw(
            model="mha", include_backward=False, env=ENV, cap=CAP
        )


# ---------------------------------------------------------------------------
# hash ring
# ---------------------------------------------------------------------------

class TestHashRing:
    def test_membership_order_never_matters(self):
        a = HashRing(["w1", "w2", "w3"])
        b = HashRing(["w3", "w1", "w2"])
        assert [a.node_for(k) for k in KEYS] == [b.node_for(k) for k in KEYS]

    def test_every_node_owns_keys(self):
        ring = HashRing(["w1", "w2", "w3"])
        owners = {ring.node_for(k) for k in KEYS}
        assert owners == {"w1", "w2", "w3"}

    def test_removal_only_remaps_the_removed_nodes_keys(self):
        ring = HashRing(["w1", "w2", "w3"])
        before = {k: ring.node_for(k) for k in KEYS}
        ring.remove("w2")
        for k, owner in before.items():
            if owner == "w2":
                assert ring.node_for(k) != "w2"
            else:
                assert ring.node_for(k) == owner

    def test_exclusion_equals_removal(self):
        """Walk-time exclusion == rebuilding the ring without the node —
        the property quarantine re-routing depends on."""
        full = HashRing(["w1", "w2", "w3"])
        rebuilt = HashRing(["w1", "w3"])
        for k in KEYS:
            assert full.node_for(k, exclude={"w2"}) == rebuilt.node_for(k)

    def test_preference_is_distinct_and_complete(self):
        ring = HashRing(["w1", "w2", "w3"])
        for k in KEYS[:20]:
            pref = ring.preference(k)
            assert sorted(pref) == ["w1", "w2", "w3"]
            assert ring.node_for(k, exclude={pref[0]}) == pref[1]

    def test_add_remove_roundtrip_restores_ownership(self):
        ring = HashRing(["w1", "w2", "w3"])
        before = {k: ring.node_for(k) for k in KEYS}
        ring.remove("w2")
        ring.add("w2")
        assert {k: ring.node_for(k) for k in KEYS} == before

    def test_empty_and_exhausted_ring(self):
        assert HashRing().node_for("k") is None
        ring = HashRing(["w1"])
        assert ring.node_for("k", exclude={"w1"}) is None

    def test_distribution_is_roughly_even(self):
        ring = HashRing(["w1", "w2", "w3"])
        counts = {"w1": 0, "w2": 0, "w3": 0}
        for k in KEYS:
            counts[ring.node_for(k)] += 1
        # 64 vnodes/worker: no worker should own a wildly lopsided share.
        assert all(c >= len(KEYS) * 0.15 for c in counts.values()), counts


# ---------------------------------------------------------------------------
# fault-injection harness
# ---------------------------------------------------------------------------

class TestFaultSpec:
    def test_grammar(self):
        clauses = parse_fault_spec(
            "kill:path=/v1/sweep:after=2, hang:delay=1.5:count=0, corrupt"
        )
        kill, hang, corrupt = clauses
        assert (kill.kind, kill.path, kill.after, kill.count) == (
            "kill", "/v1/sweep", 2, 1,
        )
        assert (hang.kind, hang.delay, hang.count) == ("hang", 1.5, 0)
        assert (corrupt.kind, corrupt.path) == ("corrupt", "/v1/")

    @pytest.mark.parametrize(
        "spec",
        [
            "explode",
            "kill:after=zero",
            "kill:after=0",
            "hang:delay=-1",
            "kill:path",
            "kill:nonsense=1",
        ],
    )
    def test_malformed_specs_fail_loud(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(spec)

    def test_empty_spec_means_no_injector(self):
        assert FaultInjector.from_spec(None) is None
        assert FaultInjector.from_spec("") is None
        assert FaultInjector.from_spec("  , ") is None
        assert KILL_EXIT_CODE != 0

    def test_after_and_count_windows(self):
        inj = FaultInjector(parse_fault_spec("hang:after=2:count=2:delay=0"))
        clause = inj.clauses[0]
        fired = []
        for _ in range(5):
            inj.before("/v1/sweep")
            fired.append(clause.fired)
        # Fires on matches 2 and 3, then exhausted.
        assert fired == [0, 1, 2, 2, 2]
        assert clause.matched == 5

    def test_path_filter(self):
        inj = FaultInjector(parse_fault_spec("corrupt:path=/v1/sweep"))
        inj.before("/healthz")  # no kill/hang clause: no-op
        assert inj.clauses[0].matched == 0

        class Reply:
            body = b"0123456789abcdef"
            stream = None
            stream_len = 0

        reply = Reply()
        inj.mangle_reply("/metrics", reply)
        assert reply.body == b"0123456789abcdef"  # path filter spared it
        inj.mangle_reply("/v1/sweep", reply)
        assert reply.body != b"0123456789abcdef"
        assert len(reply.body) == 16  # Content-Length stays true


# ---------------------------------------------------------------------------
# worker registry
# ---------------------------------------------------------------------------

class TestWorkerRegistry:
    def test_lease_expiry_distinguishes_live_from_registered(self):
        reg = WorkerRegistry(ttl_s=0.2)
        reg.register("w1", "http://h:1", ready=True)
        assert set(reg.eligible()) == {"w1"}
        time.sleep(0.3)
        assert reg.eligible() == {}  # lease expired: live=False
        assert reg.counts()["registered"] == 1  # still registered
        reg.heartbeat("w1", ready=True)
        assert set(reg.eligible()) == {"w1"}  # one beat revives it

    def test_ready_flag_gates_eligibility(self):
        reg = WorkerRegistry(ttl_s=10)
        reg.register("w1", "http://h:1", ready=False)
        assert reg.eligible() == {}
        reg.heartbeat("w1", ready=True)
        assert set(reg.eligible()) == {"w1"}

    def test_unknown_heartbeat_returns_none(self):
        reg = WorkerRegistry(ttl_s=10)
        assert reg.heartbeat("ghost", ready=True) is None

    def test_quarantine_and_reregistration_clears_it(self):
        reg = WorkerRegistry(ttl_s=10)
        reg.register("w1", "http://h:1", ready=True)
        reg.quarantine("w1", 60, "corrupt")
        assert reg.eligible() == {}
        snap = reg.snapshot()["w1"]
        assert snap["quarantined"] and snap["quarantine_reason"] == "corrupt"
        assert snap["counters"]["quarantines"] == 1
        # Overlapping quarantine extends, but counts once.
        reg.quarantine("w1", 120, "timeout")
        assert reg.snapshot()["w1"]["counters"]["quarantines"] == 1
        reg.register("w1", "http://h:1", ready=True)  # recovery path
        assert set(reg.eligible()) == {"w1"}

    def test_generation_tracks_membership_not_health(self):
        reg = WorkerRegistry(ttl_s=10)
        g0 = reg.membership()[0]
        reg.register("w1", "http://h:1")
        g1 = reg.membership()[0]
        assert g1 != g0
        reg.quarantine("w1", 60, "error")
        reg.heartbeat("w1", ready=True)
        assert reg.membership()[0] == g1  # health never rebuilds the ring
        reg.deregister("w1")
        assert reg.membership()[0] != g1

    def test_counters_and_unknown_event(self):
        reg = WorkerRegistry(ttl_s=10)
        reg.register("w1", "http://h:1")
        reg.record("w1", "dispatched")
        reg.record("w1", "timeout")
        counters = reg.snapshot()["w1"]["counters"]
        assert counters["dispatched"] == 1 and counters["timeout"] == 1
        with pytest.raises(ValueError):
            reg.record("w1", "exploded")


# ---------------------------------------------------------------------------
# protocol: fleet membership wire forms
# ---------------------------------------------------------------------------

class TestFleetProtocol:
    def test_register_roundtrip_and_validation(self):
        wid, url, ready, version = parse_fleet_register(
            {"worker_id": "w1", "url": "http://h:1/", "ready": True}
        )
        assert (wid, url, ready, version) == ("w1", "http://h:1", True, None)
        wire = fleet_register_wire(worker_id="w1", url="http://h:1")
        assert parse_fleet_register(wire)[3] == wire["cost_model_version"]
        with pytest.raises(ProtocolError):
            parse_fleet_register({"worker_id": "", "url": "http://h:1"})
        with pytest.raises(ProtocolError):
            parse_fleet_register({"worker_id": "w1", "url": "ftp://h:1"})
        with pytest.raises(ProtocolError):
            parse_fleet_register({"url": "http://h:1"})

    def test_heartbeat_roundtrip(self):
        assert parse_fleet_heartbeat({"worker_id": "w1"}) == ("w1", False, None)
        with pytest.raises(ProtocolError):
            parse_fleet_heartbeat({"ready": True})


# ---------------------------------------------------------------------------
# client transport retry
# ---------------------------------------------------------------------------

class _FlakyServer:
    """Accepts TCP connections, kills the first ``failures``, then serves
    a canned HTTP response — a daemon restarting under the client."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.connections = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        body = b'{"status":"ok"}'
        response = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
            % (len(body), body)
        )
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            if self.connections <= self.failures:
                # RST instead of FIN: the client sees a reset connection.
                conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )
                conn.close()
                continue
            try:
                conn.recv(65536)
                conn.sendall(response)
            finally:
                conn.close()

    def close(self) -> None:
        self._sock.close()


class TestClientRetry:
    def test_transient_failures_are_retried_on_gets(self):
        server = _FlakyServer(failures=2)
        try:
            client = TuningClient(
                f"http://127.0.0.1:{server.port}", retries=3, backoff_s=0.01
            )
            assert client.healthz() == {"status": "ok"}
            assert server.connections == 3  # 2 resets + 1 success
        finally:
            server.close()

    def test_retries_exhausted_raises_service_error(self):
        server = _FlakyServer(failures=100)
        try:
            client = TuningClient(
                f"http://127.0.0.1:{server.port}", retries=2, backoff_s=0.01
            )
            with pytest.raises(ServiceError, match="3 attempt"):
                client.healthz()
        finally:
            server.close()

    def test_non_idempotent_posts_are_never_retried(self):
        server = _FlakyServer(failures=100)
        try:
            client = TuningClient(
                f"http://127.0.0.1:{server.port}", retries=3, backoff_s=0.01
            )
            with pytest.raises(ServiceError, match="1 attempt"):
                client.register_entry({"anything": 1})
            assert server.connections == 1  # /v1/register: one shot only
        finally:
            server.close()

    def test_retries_zero_disables_the_loop(self):
        server = _FlakyServer(failures=100)
        try:
            client = TuningClient(
                f"http://127.0.0.1:{server.port}", retries=0
            )
            with pytest.raises(ServiceError, match="1 attempt"):
                client.healthz()
            assert server.connections == 1
        finally:
            server.close()


# ---------------------------------------------------------------------------
# liveness vs. readiness
# ---------------------------------------------------------------------------

class TestReadiness:
    def test_cold_daemon_is_live_but_not_ready(self):
        service = _storeless(warm=False)
        with serve_background(service) as url:
            client = TuningClient(url)
            assert client.healthz()["status"] == "ok"  # liveness
            assert client.healthz()["ready"] is False
            ok, checks = client.readyz()
            assert not ok and checks["checks"]["warm"] is False
            service.start_warmup()
            detail = client.wait_until_ready(timeout=60, readiness=True)
            assert detail["checks"]["warm"] is True
            assert client.healthz()["ready"] is True

    def test_draining_daemon_flips_unready(self):
        service = _storeless()
        with serve_background(service) as url:
            client = TuningClient(url)
            assert client.readyz()[0]
            service.begin_drain()
            ok, detail = client.readyz()
            assert not ok and detail["checks"]["draining"] is True
            assert client.healthz()["status"] == "ok"  # still live


# ---------------------------------------------------------------------------
# the coordinator, end to end (in-process daemons, real sockets)
# ---------------------------------------------------------------------------

class TestCoordinator:
    def _register(self, client, **workers):
        for wid, url in workers.items():
            client.fleet_register(worker_id=wid, url=url, ready=True)

    def test_fault_free_batch_is_byte_identical(self, single_node_bytes):
        coord = _fleet()
        with serve_background(_storeless()) as u1, \
                serve_background(_storeless()) as u2, \
                serve_background(coord) as cu:
            client = TuningClient(cu)
            self._register(client, w1=u1, w2=u2)
            assert _batch_raw(client) == single_node_bytes
            events = client.metrics()["fleet"]["events"]
            assert events["batch"] == 1
            assert events["job_remote"] > 0
            assert events["job_local_fallback"] == 0
            assert events["quarantine"] == 0
            # Both workers actually served jobs (the ring spread them).
            status = client.fleet_status()
            served = {
                wid: info["counters"]["ok"]
                for wid, info in status["workers"].items()
            }
            assert all(n > 0 for n in served.values()), served

    def test_corrupt_worker_is_quarantined_and_bytes_survive(
        self, single_node_bytes
    ):
        bad = _storeless(
            faults=FaultInjector.from_spec("corrupt:path=/v1/sweep:count=0")
        )
        coord = _fleet()
        with serve_background(bad) as u1, \
                serve_background(_storeless()) as u2, \
                serve_background(coord) as cu:
            client = TuningClient(cu)
            self._register(client, bad=u1, good=u2)
            assert _batch_raw(client) == single_node_bytes
            status = client.fleet_status()
            bad_info = status["workers"]["bad"]
            assert bad_info["quarantined"] is True
            assert bad_info["quarantine_reason"] == "corrupt"
            assert bad_info["counters"]["corrupt"] > 0
            assert bad_info["counters"]["ok"] == 0
            assert bad_info["counters"]["quarantines"] == 1
            events = client.metrics()["fleet"]["events"]
            assert events["quarantine"] > 0
            assert events["job_local_fallback"] == 0  # 'good' covered it

    def test_hung_worker_times_out_and_bytes_survive(self, single_node_bytes):
        hang = _storeless(
            faults=FaultInjector.from_spec(
                "hang:path=/v1/sweep:delay=5:count=0"
            )
        )
        coord = _fleet(env={"DEADLINE_S": "0.8"})
        with serve_background(hang) as u1, \
                serve_background(_storeless()) as u2, \
                serve_background(coord) as cu:
            client = TuningClient(cu)
            self._register(client, hang=u1, good=u2)
            assert _batch_raw(client) == single_node_bytes
            info = client.fleet_status()["workers"]["hang"]
            assert info["counters"]["timeout"] > 0
            assert info["quarantine_reason"] == "timeout"

    def test_structural_twins_in_the_store_still_shard(
        self, tmp_path, single_node_bytes
    ):
        # The coordinator's tier chain has no delta tier: a store holding a
        # structural twin of every job (the same graph at another shape)
        # must not turn the jobs into local delta re-sweeps.
        twin_env = bert_large_dims(seq=513)
        store = SweepStore(tmp_path)
        coord = _fleet(store=store)
        with serve_background(_storeless()) as u1, \
                serve_background(_storeless()) as u2, \
                serve_background(coord) as cu:
            client = TuningClient(cu)
            self._register(client, w1=u1, w2=u2)
            client.optimize_batch_raw(
                model="mha", include_backward=False, env=twin_env, cap=CAP
            )
            req = parse_optimize_request(optimize_request_wire(
                model="mha", include_backward=False, env=ENV, cap=CAP
            ))
            _, reps = graph_sweep_jobs(
                build_request_graph(req), ENV, req.gpu, cap=CAP, seed=req.seed
            )
            cost = CostModel(req.gpu)
            assert all(
                store.load_structural(structural_sweep_digest(
                    op, ENV, cost, cap=CAP, seed=req.seed
                ), cost.version) is not None
                for op in reps.values()
            )
            remote = client.metrics()["fleet"]["events"]["job_remote"]
            assert _batch_raw(client) == single_node_bytes
            metrics = client.metrics()
            assert metrics["fleet"]["events"]["job_remote"] - remote == len(reps)
            assert metrics["resolve_tiers"]["delta"] == 0
            assert store.stats()["delta_hits"] == 0

    def test_zero_workers_degrades_to_local_engine(self, single_node_bytes):
        coord = _fleet()
        with serve_background(coord) as cu:
            client = TuningClient(cu)
            assert _batch_raw(client) == single_node_bytes  # never a 5xx
            events = client.metrics()["fleet"]["events"]
            assert events["job_remote"] == 0
            assert events["job_local_fallback"] > 0

    def test_unready_workers_receive_no_traffic(self, single_node_bytes):
        coord = _fleet()
        with serve_background(_storeless()) as u1, \
                serve_background(coord) as cu:
            client = TuningClient(cu)
            client.fleet_register(worker_id="cold", url=u1, ready=False)
            assert _batch_raw(client) == single_node_bytes
            status = client.fleet_status()
            assert status["workers"]["cold"]["counters"]["dispatched"] == 0
            assert client.metrics()["fleet"]["events"]["job_local_fallback"] > 0

    def test_heartbeat_lifecycle_over_http(self):
        coord = _fleet(env={"TTL_S": "5"})
        with serve_background(coord) as cu:
            client = TuningClient(cu)
            reply = client.fleet_register(
                worker_id="w1", url="http://127.0.0.1:1", ready=True
            )
            assert reply["ttl_s"] == 5.0
            assert reply["heartbeat_s"] == pytest.approx(5.0 / 3.0)
            beat = client.fleet_heartbeat(worker_id="w1", ready=True)
            assert beat["ready"] is True
            with pytest.raises(ServiceError) as err:
                client.fleet_heartbeat(worker_id="ghost", ready=True)
            assert err.value.status == 404  # the re-register signal
            assert client.fleet_deregister(worker_id="w1")["deregistered"]
            counts = client.fleet_status()["counts"]
            assert counts["registered"] == 0


# ---------------------------------------------------------------------------
# one route table per role
# ---------------------------------------------------------------------------

#: Every route a coordinator serves, and the endpoint label its /metrics
#: latency, its ``server<label>`` span and its fault specs use.  A prefix
#: route ends in "/".  A single daemon serves all but the fleet rows.
ROUTES = {
    ("GET", "/healthz"): "/healthz",
    ("GET", "/readyz"): "/readyz",
    ("GET", "/metrics"): "/metrics",
    ("GET", "/v1/trace/"): "/v1/trace",
    ("GET", "/v1/schedule/"): "/v1/schedule",
    ("GET", "/v1/rollout"): "/v1/rollout",
    ("POST", "/v1/sweep"): "/v1/sweep",
    ("POST", "/v1/optimize"): "/v1/optimize",
    ("POST", "/v1/register"): "/v1/register",
    ("POST", "/v1/report"): "/v1/report",
    ("POST", "/v1/calibrate/propose"): "/v1/calibrate/propose",
    ("POST", "/v1/rollout"): "/v1/rollout",
    ("GET", "/v1/fleet/status"): "/v1/fleet/status",
    ("GET", "/v1/fleet_metrics"): "/v1/fleet_metrics",
    ("POST", "/v1/optimize_batch"): "/v1/optimize_batch",
    ("POST", "/v1/fleet/register"): "/v1/fleet/register",
    ("POST", "/v1/fleet/heartbeat"): "/v1/fleet/heartbeat",
    ("POST", "/v1/fleet/deregister"): "/v1/fleet/deregister",
}
FLEET_ROUTES = {k for k in ROUTES if "fleet" in k[1] or k[1] == "/v1/optimize_batch"}


class _FaultSpy:
    """A fault injector that only records the endpoint keys it is asked."""

    def __init__(self) -> None:
        self.endpoints: set[str] = set()

    def before(self, endpoint: str) -> None:
        self.endpoints.add(endpoint)

    def mangle_reply(self, endpoint: str, reply):
        self.endpoints.add(endpoint)
        return reply


def _send(url: str, method: str, path: str, headers=None) -> tuple[int, dict]:
    """One request; a POST carries ``[]``, which every POST route refuses
    with a 400 before doing any work."""
    import http.client
    import json

    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        body = b"[]" if method == "POST" else None
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@contextmanager
def _serving(service):
    """``make_server`` on a background thread: yields ``(url, server)``."""
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestRouteTable:
    def test_default_server_serves_a_coordinators_fleet_routes(self):
        coord = _fleet()
        with serve_background(coord) as url:
            assert TuningClient(url).fleet_status()["role"] == "coordinator"
        with _serving(coord) as (url, _):
            assert TuningClient(url).fleet_status()["counts"]["registered"] == 0

    def test_each_role_has_its_table(self):
        assert set(_fleet().route_table) == set(ROUTES)
        assert set(_storeless().route_table) == set(ROUTES) - FLEET_ROUTES

    def test_every_route_keeps_its_label_span_and_fault_key(self):
        from repro import obs
        from repro.obs.trace import current_traceparent

        coord = _fleet(calibration_dir=None)
        coord.faults = _FaultSpy()
        obs.set_tracing(True)
        try:
            with _serving(coord) as (url, server), obs.span("test.routes") as root:
                headers = {obs.TRACEPARENT_HEADER: current_traceparent()}
                for method, path in ROUTES:
                    tail = "x" if path.endswith("/") else ""
                    status, _ = _send(url, method, path + tail, headers)
                    assert status != 404 or path == "/v1/trace/", (method, path)
                # A request's span and latency are recorded after its reply
                # is sent: wait for the handler threads to finish.
                assert server.drain(10)
            spans = {s["name"] for s in obs.get_tracer().trace(root.trace_id)}
        finally:
            obs.set_tracing(None)
        labels = set(ROUTES.values())
        assert set(coord.metrics.snapshot()["latency_ms"]) == labels
        assert coord.faults.endpoints == labels
        assert {f"server{label}" for label in labels} <= spans

    def test_prefix_routes_pass_the_rest_of_the_path(self):
        with serve_background(_storeless(calibration_dir=None)) as url:
            status, reply = _send(url, "GET", "/v1/trace/a/b")
            assert status == 400 and "malformed trace id 'a/b'" in reply["error"]
            status, reply = _send(url, "GET", "/v1/trace/")
            assert status == 400 and "malformed trace id ''" in reply["error"]

    def test_unknown_path_answers_json_404_counted_under_404(self):
        svc = _storeless(calibration_dir=None)
        with serve_background(svc) as url:
            for method, path in (("GET", "/nope"), ("POST", "/healthz"), ("GET", "/healthz?x")):
                status, reply = _send(url, method, path)
                assert status == 404
                assert reply == {"error": f"no such endpoint: {method} {path}"}
            # A single daemon has no fleet routes.
            assert _send(url, "GET", "/v1/fleet/status")[0] == 404
        snapshot = svc.metrics.snapshot()
        assert snapshot["errors"] == {"404": 4}
        assert snapshot["latency_ms"] == {}

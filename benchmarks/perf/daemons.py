"""The daemon workloads: serve-warm and fleet-batch.

Both drive real ``python -m repro serve`` / ``repro fleet serve``
subprocesses, started with every ``REPRO_*`` variable stripped and a fresh
sweep store under the run's work directory; ``close`` stops each one and
waits for it, whatever happened before.

The load generator is this one process: serve-warm uses two client
threads (one connection open at a time each, closed loop), fleet-batch
one client.
Daemons stay in the benchmark's process group, so killing that group on a
failure leaves none behind.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

from bench import Outcome, percentile, pid_peak_rss_mb, reference_group, timed_loop

from repro import obs
from repro.engine.scheduler import graph_sweep_jobs
from repro.engine.store import pack_payload_bytes
from repro.fusion import apply_paper_fusion
from repro.hardware.spec import V100
from repro.ir.dims import bert_large_dims
from repro.service.client import TuningClient
from repro.service.protocol import (
    BINARY_CONTENT_TYPE,
    canonical_json_bytes,
    optimize_request_wire,
    parse_sweep_request,
    payload_from_packed,
    sweep_request_wire,
)
from repro.transformer.graph_builder import build_encoder_graph

ROOT = Path(__file__).resolve().parent.parent.parent
SAMPLING_SEED = 0x5EED
SEQS = (128, 256, 384, 512)
CLIENT_THREADS = 2
#: serve-warm replays the requests the daemon's callers in this repository
#: send, one caller action at a time.  "fanout" is what the fleet
#: coordinator (FleetService._fleet_sweeps) sends a worker for one
#: /v1/optimize_batch: a packed /v1/sweep per distinct sweep job, exactly as
#: TuningClient.sweep_packed_raw sends it (no top_k, no If-None-Match).
#: "query" is what `repro query` sends: one JSON /v1/optimize.  Both actions
#: are equally likely — an assumed share; no recorded request trace exists
#: to measure it.
ACTIONS = ("fanout", "query")
#: serve-warm problem shapes (fused encoder fwd+bwd) warmed in set-up.
SERVE_PROBLEMS = 2
#: serve-warm requests per client between two reference samples.
ROUND = 32
#: fleet-batch: every TRACE_EVERY-th batch of the traced pass carries a
#: traceparent, so the coordinator records its fleet.job spans.
TRACE_EVERY = 4
START_TIMEOUT_S = 60.0


class Daemon:
    """One ``python -m repro ...`` daemon subprocess on an ephemeral port."""

    def __init__(self, argv: list[str], *, trace: bool = False, port: int = 0) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        if trace:
            env["REPRO_TRACE"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv, "--port", str(port)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=ROOT,
        )
        self.lines: list[str] = []
        banner = threading.Event()

        def pump() -> None:
            # Keep reading so the daemon never blocks on a full pipe.
            for line in self.proc.stdout:
                self.lines.append(line)
                banner.set()
            banner.set()

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        match = None
        if banner.wait(START_TIMEOUT_S) and self.lines:
            match = re.search(r"listening on (http://[\d.]+:\d+)", self.lines[0])
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon {argv} did not start: {''.join(self.lines)!r}")
        self.url = match.group(1)

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then SIGKILL; wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
        self.wait()

    def wait(self) -> None:
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=20)
        self._pump.join(timeout=20)


class _DaemonWorkload:
    """Start/stop bookkeeping shared by both daemon workloads."""

    def __init__(self, cfg) -> None:
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.daemons: list[Daemon] = []

    def spawn(self, argv: list[str], port: int = 0) -> Daemon:
        daemon = Daemon(argv, trace=self.cfg.trace, port=port)
        self.daemons.append(daemon)
        return daemon

    def daemon_peak_rss_mb(self) -> float:
        return max((d.peak_rss_mb() for d in self.daemons), default=0.0)

    def check(self, outcome, i, result) -> None:
        """Responses are checked where they arrive."""

    def close(self) -> None:
        # Signal every daemon first so they drain in parallel.
        for daemon in self.daemons:
            if daemon.proc.poll() is None:
                daemon.proc.terminate()
        for daemon in self.daemons:
            daemon.wait()


def _post(conn_url, path: str, body: bytes, headers: dict[str, str]) -> tuple[int, dict, bytes]:
    """One request on a fresh connection (the daemon speaks HTTP/1.0)."""
    conn = http.client.HTTPConnection(conn_url.hostname, conn_url.port, timeout=60)
    try:
        conn.request("POST", path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _encoder_graph(env):
    return apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv", include_backward=True), env)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ServeWarm(_DaemonWorkload):
    """A warm ``repro serve`` daemon under a closed loop of 2 clients."""

    def setup(self, outcome: Outcome) -> None:
        cfg, rng = self.cfg, self.rng
        daemon = self.spawn(["serve", "--sweep-store", str(cfg.workdir / "store")])
        self.url = urlsplit(daemon.url)
        self.client = TuningClient(daemon.url, timeout=120)
        self.client.wait_until_ready(timeout=START_TIMEOUT_S, readiness=True)
        json_headers = {"Content-Type": "application/json", "Accept-Encoding": "identity"}
        packed_headers = {**json_headers, "Accept": BINARY_CONTENT_TYPE}

        # Each action is a list of (path, body, headers, status, body):
        # the requests it sends and the responses captured here.
        self.actions: dict[str, list[list[tuple]]] = {kind: [] for kind in ACTIONS}
        self.sweeps = []  # (request body, packed response, digest)
        shapes = rng.sample([(b, s) for b in (8, 16, 32) for s in SEQS], SERVE_PROBLEMS)
        for b, s in shapes:
            env = bert_large_dims(b, s)
            # The optimize first: its sweeps land in the daemon's store, so
            # the sweep warm-up below resolves from L2 and every later
            # request from L1.
            body = canonical_json_bytes(optimize_request_wire(env=env, cap=cfg.cap))
            data = self._fetch("/v1/optimize", body, json_headers)
            self.actions["query"].append([("/v1/optimize", body, json_headers, 200, data)])
            _, reps = graph_sweep_jobs(
                _encoder_graph(env), env, V100, cap=cfg.cap, seed=SAMPLING_SEED
            )
            fanout = []
            for digest, op in reps.items():
                body = canonical_json_bytes(
                    sweep_request_wire(op, env, cap=cfg.cap, seed=SAMPLING_SEED)
                )
                packed = self._fetch("/v1/sweep", body, packed_headers)
                fanout.append(("/v1/sweep", body, packed_headers, 200, packed))
                self.sweeps.append((body, packed, digest))
            self.actions["fanout"].append(fanout)
        for kind in ACTIONS:
            for requests in self.actions[kind]:
                outcome.fingerprints.extend(_sha(req[4]) for req in requests)

    def _fetch(self, path: str, body: bytes, headers: dict[str, str]) -> bytes:
        status, _, data = _post(self.url, path, body, headers)
        if status != 200:
            raise RuntimeError(f"warm-up {path} failed with HTTP {status}")
        return data

    def _requests(self, rng: random.Random):
        """One client's endless request stream: seeded caller actions."""
        while True:
            kind = rng.choice(ACTIONS)
            for request in rng.choice(self.actions[kind]):
                yield kind, request

    def run_timed(self, check, seconds, min_ops, first, outcome: Outcome) -> None:
        """Closed loop of two clients, in rounds of ``ROUND`` requests each.

        Between rounds both clients wait at a barrier while this thread
        times the reference computation, so it competes with no request and
        its time is excluded from ``elapsed_s``, as in ``timed_loop``.  Each
        request is scaled by the mean of the samples either side of its
        round.
        """
        streams = [
            self._requests(random.Random(f"{self.cfg.seed}/{first}/{t}"))
            for t in range(CLIENT_THREADS)
        ]
        results: list[list] = [[] for _ in range(CLIENT_THREADS)]
        gate = threading.Barrier(CLIENT_THREADS + 1)

        def client(t: int) -> None:
            out, rnd = results[t], 0
            try:
                while True:
                    gate.wait()  # the round starts
                    for _ in range(ROUND):
                        kind, (path, body, headers, status, expected) = next(streams[t])
                        t0 = time.perf_counter()
                        try:
                            got_status, _, data = _post(self.url, path, body, headers)
                        except (OSError, http.client.HTTPException) as exc:
                            out.append((kind, rnd, time.perf_counter() - t0, f"{kind}: {exc!r}"))
                            continue
                        latency = time.perf_counter() - t0
                        ok = got_status == status and data == expected
                        out.append((kind, rnd, latency, None if ok else (
                            f"{kind}: HTTP {got_status}, "
                            f"{'same' if data == expected else 'different'} body")))
                    gate.wait()  # the round is done
                    rnd += 1
            except threading.BrokenBarrierError:
                return  # the run is over
            except BaseException:
                gate.abort()
                raise

        threads = [threading.Thread(target=client, args=(t,)) for t in range(CLIENT_THREADS)]
        for th in threads:
            th.start()
        refs = [reference_group()]
        rounds, excluded = 0, 0.0
        start = time.perf_counter()
        try:
            while (rounds * ROUND * CLIENT_THREADS < min_ops
                   or time.perf_counter() - excluded < start + seconds):
                gate.wait()
                gate.wait()
                t = time.perf_counter()
                refs.append(reference_group())
                excluded += time.perf_counter() - t
                rounds += 1
            outcome.elapsed_s = time.perf_counter() - start - excluded
        finally:
            gate.abort()  # releases the clients, which then return
            for th in threads:
                th.join()
        self.last_by_kind: dict[str, list[float]] = {kind: [] for kind in ACTIONS}
        for out in results:
            for kind, rnd, latency, error in out:
                outcome.latencies_s.append(latency)
                outcome.ref_ms.append((refs[rnd] + refs[rnd + 1]) / 2)
                self.last_by_kind[kind].append(latency)
                if error is not None:
                    outcome.fail(error)

    def traced_pass(self, check, seconds, first, outcome, spans) -> dict[str, float]:
        m0 = self.client.metrics()
        self.run_timed(check, seconds, 1, first, outcome)
        m1 = self.client.metrics()
        sweep_rtt = self.last_by_kind["fanout"]
        handler = {
            ep: m1["latency_ms"].get(f"/v1/{ep}", {}).get("p50_ms", 0.0)
            for ep in ("sweep", "optimize")
        }
        tiers = {k: m1["resolve_tiers"][k] - m0["resolve_tiers"][k] for k in m1["resolve_tiers"]}
        resolved = sum(tiers.values())
        out = {
            "service.server.handler_ms.p50.sweep": handler["sweep"],
            "service.server.handler_ms.p50.optimize": handler["optimize"],
            "service.transport_ms.p50": 1e3 * percentile(sweep_rtt, 0.5) - handler["sweep"],
            "service.coalesce.l1_hit_ratio": tiers.get("l1", 0) / resolved if resolved else 0.0,
        }
        out["service.responses.binary"] = m1["responses"]["binary"] - m0["responses"]["binary"]
        out.update(self._protocol_probes())
        return out

    def _protocol_probes(self, passes: int = 5) -> dict[str, float]:
        """Time the wire layers on this workload's own requests, in-process."""
        parse, pack = [], []
        for _ in range(passes):
            for body, packed, digest in self.sweeps:
                wire = json.loads(body)
                payload = payload_from_packed(packed, digest=digest)
                t0 = time.perf_counter()
                parse_sweep_request(wire)
                t1 = time.perf_counter()
                pack_payload_bytes(digest, payload)
                t2 = time.perf_counter()
                parse.append(t1 - t0)
                pack.append(t2 - t1)
        return {
            "service.protocol.parse_us": 1e6 * statistics.median(parse),
            "engine.store.pack_us": 1e6 * statistics.median(pack),
        }

    def gate(self, outcome: Outcome) -> None:
        """Every timed response was compared with its warm-up body already;
        here the daemon must also report no error responses."""
        errors = self.client.metrics()["errors"]
        if any(errors.values()):
            outcome.fail(f"daemon reported error responses: {errors}")


class FleetBatch(_DaemonWorkload):
    """A coordinator and two workers answering distinct optimize batches."""

    def setup(self, outcome: Outcome) -> None:
        cfg, rng = self.cfg, self.rng
        store = cfg.workdir
        # Workers first: until the coordinator is up their registration
        # fails and is retried a second later, by when their warm-up is
        # done, so they register ready.  Started the other way round, a
        # worker usually registers unready and waits one heartbeat (5 s) —
        # or not, by a race — and set-up time would be bimodal.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        coordinator_url = f"http://127.0.0.1:{port}"
        workers = [
            self.spawn([
                "fleet", "serve", "--role", "worker", "--coordinator-url", coordinator_url,
                "--worker-id", f"w{n}", "--sweep-store", str(store / f"w{n}"),
            ])
            for n in (1, 2)
        ]
        self.spawn(
            ["fleet", "serve", "--role", "coordinator", "--sweep-store", str(store / "coord")],
            port=port,
        )
        self.client = TuningClient(coordinator_url, timeout=120)
        self.client.wait_until_ready(timeout=START_TIMEOUT_S, readiness=True)
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.client.fleet_status()["counts"].get("ready", 0) < len(workers):
            if time.monotonic() > deadline:
                raise RuntimeError("fleet workers never became ready")
            time.sleep(0.1)

        grid = [(b, l) for b in range(8, 129, 8) for l in range(64, 1025, 32)]
        rng.shuffle(grid)
        base, self.problems = grid[0], grid[1:]
        # Both workers hold every structural twin of the base problem, so
        # each timed job is a delta re-sweep on whichever worker the ring
        # picks; one batch at the base warms the coordinator itself.
        env = bert_large_dims(*base)
        _, reps = graph_sweep_jobs(_encoder_graph(env), env, V100, cap=cfg.cap, seed=SAMPLING_SEED)

        def warm(url: str) -> None:
            worker = TuningClient(url, timeout=120)
            for op in reps.values():
                worker.sweep_packed_raw(op, env, cap=cfg.cap, seed=SAMPLING_SEED)

        threads = [threading.Thread(target=warm, args=(w.url,)) for w in workers]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        self.client.optimize_batch_raw(env=env, cap=cfg.cap)
        self.responses: dict[int, bytes] = {}

    def op(self, i: int) -> list[str]:
        data = self.client.optimize_batch_raw(env=bert_large_dims(*self.problems[i]), cap=self.cfg.cap)
        self.responses[i] = data
        return [_sha(data)]

    def run_timed(self, check, seconds, min_ops, first, outcome: Outcome) -> None:
        # Every batch is distinct, so the coordinator's caches grow with the
        # batches served: time only the fixed prefix, which both commits
        # serve from the same state.
        outcome.prefix_ops = min_ops
        timed_loop(self.op, check, seconds, min_ops, outcome, first)

    def traced_pass(self, check, seconds, first, outcome, spans) -> dict[str, float]:
        coord0 = self.client.metrics()
        workers = [TuningClient(w["url"]) for w in self.client.fleet_status()["workers"].values()]
        workers0 = [w.metrics() for w in workers]
        trace_ids: list[str] = []
        obs.set_tracing(True)
        try:
            def op(i: int) -> list[str]:
                if (i - first) % TRACE_EVERY:
                    return self.op(i)
                with obs.span("bench.batch", op=i) as span:
                    trace_ids.append(span.trace_id)
                    return self.op(i)

            timed_loop(op, check, seconds, 1, outcome, first)
        finally:
            obs.set_tracing(False)
        coord1 = self.client.metrics()
        workers1 = [w.metrics() for w in workers]
        n = outcome.attempted
        jobs, handler, transport = [], [], []
        for k, trace_id in enumerate(trace_ids):
            trace = self.client.trace(trace_id)["spans"]
            spans.extend(trace)
            jobs.extend(s["dur_us"] / 1e3 for s in trace if s["name"] == "fleet.job")
            # The coordinator's own span of this batch: its handler time,
            # and the rest of the client's round trip is transport.
            for s in trace:
                if s["name"] == "server/v1/optimize_batch":
                    handler.append(s["dur_us"] / 1e3)
                    transport.append(1e3 * outcome.latencies_s[k * TRACE_EVERY] - handler[-1])
        if not jobs or not handler:
            outcome.fail("the coordinator recorded no spans for traced batches")
        b0, b1 = coord0["optimize_breakdown"], coord1["optimize_breakdown"]
        computed = b1["computed"] - b0["computed"]
        e0, e1 = coord0["fleet"]["events"], coord1["fleet"]["events"]

        def p50(values: list[float]) -> float:
            return percentile(values, 0.5) if values else 0.0

        out = {
            "service.server.handler_ms.p50.optimize_batch": p50(handler),
            "service.transport_ms.p50": p50(transport),
            "service.fleet.job_ms": statistics.mean(jobs) if jobs else 0.0,
            "service.fleet.sweep_ms": (b1["sweep_ms_total"] - b0["sweep_ms_total"]) / computed,
            "service.fleet.select_ms": (b1["select_ms_total"] - b0["select_ms_total"]) / computed,
        }
        for event, name in (
            ("job_remote", "job_remote"), ("retry", "retry"),
            ("quarantine", "quarantine"), ("job_local_fallback", "local_fallback"),
        ):
            out[f"service.fleet.{name}"] = (e1[event] - e0[event]) / n
        for tier in ("computed", "delta", "l2", "l1"):
            out[f"service.fleet.worker_tier.{tier}"] = sum(
                m1["resolve_tiers"][tier] - m0["resolve_tiers"][tier]
                for m0, m1 in zip(workers0, workers1)
            ) / n
        return out

    def gate(self, outcome: Outcome) -> None:
        """Two sampled batches equal a single-node /v1/optimize, byte for byte."""
        from repro.service.server import TuningService, serve_background

        sampled = self.rng.sample(sorted(self.responses), min(2, len(self.responses)))
        service = TuningService(store=None, registry=None, calibration_dir=None)
        with serve_background(service) as url:
            single = TuningClient(url, timeout=120)
            for i in sampled:
                expected = single.optimize_raw(
                    env=bert_large_dims(*self.problems[i]), cap=self.cfg.cap
                )
                if expected != self.responses[i]:
                    outcome.fail(f"fleet batch {i} differs from single-node /v1/optimize")
        events = self.client.metrics()["fleet"]["events"]
        if events["job_local_fallback"] or events["quarantine"]:
            outcome.fail(f"fleet degraded during the run: {events}")


def make(cfg):
    return {"serve-warm": ServeWarm, "fleet-batch": FleetBatch}[cfg.workload](cfg)

"""Smoke test of the real daemon process: ``python -m repro serve``.

The in-process tests (``tests/test_service.py``) cover the service logic;
this file covers the *deployment surface*: a spawned daemon subprocess, the
``repro query`` CLI against it, concurrent clients coalescing through real
sockets, the shared on-disk sweep store, and a clean SIGTERM shutdown.
This is the test the CI service-smoke job runs.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.ir.dims import bert_large_dims
from repro.service import TuningClient
from repro.transformer.graph_builder import build_mha_graph

REPO = Path(__file__).resolve().parent.parent
CAP = 60

# Deselected from tier-1: the dedicated CI service-smoke job (and the
# nightly run) are the sole runners, so pushes don't pay for the daemon
# subprocess twice.
pytestmark = pytest.mark.slow


def _spawn_daemon(store_dir, *, fault_spec=None, extra_args=()):
    """Start one ``repro serve`` subprocess; returns (proc, client)."""
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        PYTHONUNBUFFERED="1",
    )
    env.pop("REPRO_FAULT_SPEC", None)
    if fault_spec:
        env["REPRO_FAULT_SPEC"] = fault_spec
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",  # ephemeral: parallel CI jobs must not collide
            "--sweep-store", str(store_dir),
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    assert match, f"no listen address in banner: {banner!r}"
    return proc, TuningClient(f"http://127.0.0.1:{match.group(1)}")


@pytest.fixture
def daemon(tmp_path):
    """A live ``repro serve`` subprocess; yields (proc, client, store_dir)."""
    store_dir = tmp_path / "sweep-store"
    proc, client = _spawn_daemon(store_dir)
    try:
        client.wait_until_ready(timeout=30)
        yield proc, client, store_dir
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_daemon_serves_coalesces_and_shuts_down_cleanly(daemon):
    proc, client, store_dir = daemon

    health = client.healthz()
    assert health["status"] == "ok"
    assert health["store"] is not None  # --sweep-store is active
    assert health["store"]["saves"] == 0

    # Concurrent identical sweeps: one evaluation, identical bytes, and the
    # evaluation lands in the daemon's on-disk store.
    op = build_mha_graph(qkv_fusion="unfused", include_backward=False).op(
        "softmax"
    )
    env = bert_large_dims()
    with ThreadPoolExecutor(8) as pool:
        bodies = set(
            pool.map(lambda _: client.sweep_raw(op, env, cap=CAP), range(8))
        )
    assert len(bodies) == 1
    metrics = client.metrics()
    tiers = metrics["resolve_tiers"]
    assert tiers["computed"] == 1
    assert tiers["coalesced"] + tiers["l1"] == 7
    assert metrics["store"]["saves"] == 1
    assert list(store_dir.rglob("*.sweep"))  # the sweep is on disk

    # The query CLI against the same daemon.
    cli_env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [
            sys.executable, "-m", "repro", "query",
            "--url", client.base_url, "--health",
        ],
        env=cli_env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["status"] == "ok"

    out = subprocess.run(
        [
            sys.executable, "-m", "repro", "query",
            "--url", client.base_url,
            "--model", "mha", "--cap", str(CAP),
        ],
        env=cli_env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0
    assert "kernels" in out.stdout

    # Clean shutdown on SIGTERM: exit code 0 and the shutdown banner.
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0
    assert "clean shutdown" in proc.stdout.read()


def test_daemon_liveness_precedes_readiness(daemon):
    """A spawned daemon is live immediately but ready only after warm-up."""
    proc, client, _ = daemon
    assert client.healthz()["status"] == "ok"  # liveness: already up
    detail = client.wait_until_ready(timeout=60, readiness=True)
    checks = detail["checks"]
    assert checks["warm"] is True
    assert checks["store"] is True
    assert checks["draining"] is False
    assert client.healthz()["ready"] is True


def test_sigterm_finishes_in_flight_requests(tmp_path):
    """SIGTERM mid-request: the response still completes, then exit 0.

    The daemon hangs its first ``/metrics`` request for 2 s (fault
    injection — a stand-in for any slow in-flight request).  SIGTERM
    arrives while that request is being served; the drain path must let
    it finish with a valid response before the process exits cleanly.
    """
    proc, client = _spawn_daemon(
        tmp_path / "sweep-store",
        fault_spec="hang:path=/metrics:delay=2:count=1",
    )
    try:
        client.wait_until_ready(timeout=60, readiness=True)
        with ThreadPoolExecutor(1) as pool:
            future = pool.submit(client.metrics)
            time.sleep(0.5)  # the request is now stalled server-side
            proc.send_signal(signal.SIGTERM)
            metrics = future.result(timeout=30)
        assert "resolve_tiers" in metrics  # a complete, valid response
        assert proc.wait(timeout=30) == 0
        out = proc.stdout.read()
        assert "clean shutdown" in out
        assert "drain deadline" not in out  # it finished, not got cut off
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_version_flag():
    out = subprocess.run(
        [sys.executable, "-m", "repro", "--version"],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    from repro import __version__

    assert out.returncode == 0
    assert __version__ in out.stdout
    assert "cost model" in out.stdout

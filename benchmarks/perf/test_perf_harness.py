"""Self-test of the repository benchmark, at smoke scale (cap=60, few ops).

Runs every workload traced (a traced run measures an untraced half
first) and the first workload untraced too, three at a time — the fleet
run mostly waits for worker heartbeats — each in its own process group,
and checks that:

* the printed metric names and units are exactly those in BENCHMARK.json;
* no operation failed its correctness check;
* every layer span the traced run attributes time to was recorded by some
  workload, so an upstream rename cannot silently zero a layer;
* no daemon outlives its run (the group is killed afterwards regardless);
* the same seed gives the same ``outputs_sha256`` traced and untraced;
* without the program under test the benchmark fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def _group_members(pgid: int) -> list[str]:
    """Command lines of the live processes in process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        # Field 5 (pgrp) follows the parenthesized command name.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(cmdline)
    return members


def _run(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
        leaked = _group_members(proc.pid)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    return {
        "returncode": proc.returncode,
        "stderr": err,
        "result": json.loads(lines[-1]) if lines else None,
        "lines": lines,
        "leaked": leaked,
    }


@pytest.fixture(scope="module")
def runs() -> dict:
    # The untraced end-to-end metrics are the same function of every
    # workload's timings, so one untraced run checks their names.
    jobs = [("fleet-batch", 1), (WORKLOADS[0], 0)]
    jobs += [(w, 1) for w in WORKLOADS if w != "fleet-batch"]
    with ThreadPoolExecutor(max_workers=3) as pool:
        results = list(pool.map(lambda job: _run(*job), jobs))
    return dict(zip(jobs, results))


def test_runs_succeed_without_failures(runs):
    for (workload, trace), run in runs.items():
        assert run["returncode"] == 0, (workload, trace, run["stderr"][-3000:])
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, (workload, trace, run["lines"])
        assert result["attempted"] >= 1


def test_metric_names_and_units_match_benchmark_json(runs):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for (workload, trace), run in runs.items():
        printed = {name: m["unit"] for name, m in run["result"]["metrics"].items()}
        assert printed == (per_layer if trace else e2e), (workload, trace)
        for m in run["result"]["metrics"].values():
            assert set(m) == {"value", "unit"}
            assert isinstance(m["value"], (int, float))


def test_every_layer_span_was_recorded(runs):
    sys.path.insert(0, str(HERE))
    try:
        import layers
    finally:
        sys.path.remove(str(HERE))
    seen: set[str] = set()
    for (workload, trace), run in runs.items():
        for line in run["lines"]:
            if line.startswith("layer_spans_seen "):
                seen.update(line.split(" ", 1)[1].split(","))
    assert seen == set(layers.SPAN_LAYER), set(layers.SPAN_LAYER) - seen


def test_no_daemon_outlives_its_run(runs):
    for job, run in runs.items():
        assert run["leaked"] == [], (job, run["leaked"])


def test_same_seed_gives_same_outputs(runs):
    digests = {
        next(l for l in runs[(WORKLOADS[0], t)]["lines"] if " outputs_sha256 " in l)
        for t in (0, 1)
    }
    assert len(digests) == 1, digests


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""``tools/bench_record.py``: one benchmark run appended to BENCH_<workload>.json."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"

RESULT = {
    "correct": True,
    "attempted": 3,
    "failed": 0,
    "metrics": {"op_ms_scaled.p50": {"value": 1.5, "unit": "ms"}},
}


@pytest.fixture()
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(tmp_path: Path) -> tuple[Path, str]:
    """A git checkout whose run.py prints a report line, then the result."""
    checkout = tmp_path / "checkout"
    perf = checkout / "benchmarks" / "perf"
    perf.mkdir(parents=True)
    (perf / "run.py").write_text(
        "import sys\n"
        "print('serve-warm    op_ms_scaled.p50    1.5 ms', sys.argv[1:])\n"
        f"print({json.dumps(json.dumps(RESULT))})\n"
    )

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(checkout), *args],
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "stub")
    return checkout, git("rev-parse", "HEAD")


def test_each_run_appends_one_record(bench_record, tmp_path, capsys):
    checkout, sha = _checkout(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["--workload", "serve-warm", "--checkout", str(checkout), "--out", str(out)]
    assert bench_record.main([*argv, "--seed", "7"]) == 0
    assert "op_ms_scaled.p50" in capsys.readouterr().out  # the run's output is echoed
    (checkout / "benchmarks" / "perf" / "run.py").write_text(
        f"print({json.dumps(json.dumps(RESULT))})\n"
    )
    assert bench_record.main([*argv, "--seed", "8"]) == 0
    records = json.loads((out / "BENCH_serve-warm.json").read_text())
    assert [(r["seed"], r["sha"]) for r in records] == [(7, sha), (8, sha)]
    assert records[0]["diff_sha256"] is None
    # A dirty run's hash is the diff of the commit that later holds its code.
    subprocess.run(
        ["git", "-C", str(checkout), "-c", "user.name=t", "-c", "user.email=t@t",
         "commit", "-qam", "change"],
        check=True,
    )
    committed = subprocess.run(
        ["git", "-C", str(checkout), "diff", "--binary", sha, "HEAD", "--",
         "src", "benchmarks"],
        capture_output=True, check=True,
    ).stdout
    assert records[1]["diff_sha256"] == hashlib.sha256(committed).hexdigest()
    assert all(r["result"] == RESULT and r["cpus"] >= 1 for r in records)
    assert records[0]["workload"] == "serve-warm" and records[0]["seconds"] == 10


def test_a_failed_run_records_nothing(bench_record, tmp_path):
    checkout, _ = _checkout(tmp_path)
    (checkout / "benchmarks" / "perf" / "run.py").write_text("raise SystemExit(3)\n")
    argv = ["--workload", "serve-warm", "--checkout", str(checkout)]
    with pytest.raises(SystemExit, match="code 3"):
        bench_record.main([*argv, "--out", str(tmp_path)])
    assert not (tmp_path / "BENCH_serve-warm.json").exists()

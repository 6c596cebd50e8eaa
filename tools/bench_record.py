"""Run the repository benchmark once and append its result to a record file.

Runs ``benchmarks/perf/run.py`` of a checkout (default: this one) for one
workload, echoes its output, and appends one record to
``BENCH_<workload>.json`` (a JSON list) in ``--out`` (default: the root of
this repository):

* ``result`` — run.py's result line (``correct``, ``attempted``,
  ``failed`` and every metric with its unit);
* ``sha`` — the checkout's ``HEAD`` commit, and ``diff_sha256`` — null
  when the program that ran (``src/`` and ``benchmarks/``) is that
  commit's, else the SHA-256 of ``git diff --binary HEAD -- src
  benchmarks`` (tracked files: add new ones first).  Once the change is
  committed, ``git diff --binary <sha> <commit> -- src benchmarks |
  sha256sum`` prints the same hash, which names the commit that holds the
  code a dirty run ran;
* ``cpus`` — the CPU count of the machine, and the run's ``workload``,
  ``seed``, ``seconds`` and ``trace`` settings.

Usage::

    python3 tools/bench_record.py --workload serve-warm --seed 901
    python3 tools/bench_record.py --workload serve-warm --seed 901 \\
        --checkout ../parent        # the same run on another commit

Paired comparisons (``benchmarks/perf/README.md``, "Comparing two
commits") record both sides into one file; each record names its commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The directories a benchmark run executes code from.
PROGRAM = ("src", "benchmarks")


def _git(checkout: Path, *args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, check=True
    ).stdout


def _program_diff_sha256(checkout: Path) -> str | None:
    """The hash of the program's diff against ``HEAD``; None when clean."""
    diff = _git(checkout, "diff", "--binary", "HEAD", "--", *PROGRAM)
    return hashlib.sha256(diff).hexdigest() if diff else None


def run_and_record(
    checkout: Path, out: Path, workload: str, seed: int, seconds: float, trace: int
) -> dict:
    """One run.py run of ``checkout``, appended to ``out/BENCH_<workload>.json``."""
    cmd = [
        sys.executable, "benchmarks/perf/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited with code {proc.returncode}")
    record = {
        "workload": workload,
        "sha": _git(checkout, "rev-parse", "HEAD").decode().strip(),
        "diff_sha256": _program_diff_sha256(checkout),
        "cpus": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        # run.py's last line is its result.
        "result": json.loads(proc.stdout.strip().splitlines()[-1]),
    }
    path = out / f"BENCH_{workload}.json"
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(records, indent=1) + "\n")
    tmp.replace(path)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="git checkout whose benchmark runs (default: this one)")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory of the BENCH_<workload>.json files")
    args = parser.parse_args(argv)
    run_and_record(
        args.checkout.resolve(), args.out, args.workload, args.seed, args.seconds,
        args.trace,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

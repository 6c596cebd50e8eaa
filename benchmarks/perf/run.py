"""The repository benchmark: one command, five workloads, checked outputs.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload tune-cold --seed 1 --seconds 10
    python3 benchmarks/perf/run.py --workload all --seed 1 --repeat 5
    python3 benchmarks/perf/run.py --workload serve-warm --seed 1 --trace 1 \\
        --trace-out serve.trace.json

A single workload runs in this interpreter; ``--workload all`` and
``--repeat N`` run every (workload, repeat) in a fresh interpreter and
report each metric's median and interquartile range.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a traced run.  See README.md for
the workloads, the metrics and how to compare two commits.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here: before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from bench import E2E_UNITS, Outcome, SetupClock, median_iqr, self_peak_rss_mb  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("tune-cold", "retune-store", "reload-store", "serve-warm", "fleet-batch")
DEFAULT_SEED = 20210405
#: Set-ups per untraced run: the run's own, then the rest in fresh
#: interpreters once it is done; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: ``(cap, min_ops)`` per workload at full and at ``--smoke`` scale.
SCALE = {
    "tune-cold": ((20000, 3), (60, 2)),
    "retune-store": ((20000, 3), (60, 2)),
    "reload-store": ((20000, 4), (60, 2)),
    "serve-warm": ((2000, 200), (60, 50)),
    "fleet-batch": ((2000, 30), (60, 2)),
}


@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    cap: int
    min_ops: int
    workdir: Path
    trace_out: str | None


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measured time per run (default 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="traced run: write the spans as a Perfetto trace")
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per workload, each in a fresh interpreter")
    p.add_argument("--smoke", action="store_true",
                   help="tiny scale for the self-test (cap=60, few operations)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, tear down and print the set-up time (internal)")
    return p.parse_args(argv)


def _make(cfg: Config):
    if cfg.workload in ("serve-warm", "fleet-batch"):
        import daemons

        return daemons.make(cfg)
    import inproc

    return inproc.InProcess(cfg.workload, cfg)


def _remove_workdir(cfg: Config) -> None:
    shutil.rmtree(cfg.workdir, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no other run is using it
    except OSError:
        pass


def setup_only(cfg: Config) -> float:
    """Set the workload up and tear it down; the scaled set-up time (s)."""
    clock = SetupClock(_T0)
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    wl = _make(cfg)
    try:
        wl.setup(Outcome())
        return clock.stop()
    finally:
        wl.close()
        _remove_workdir(cfg)


def repeat_setup(args) -> float:
    """One more set-up of the workload, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.terminate()  # unwinds like an exception: its daemons stop too
        proc.communicate(timeout=60)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up repeat exited with code {proc.returncode}")
    return float(out.strip().splitlines()[-1])


def run_one(cfg: Config) -> tuple[Outcome, dict[str, float]]:
    """Set up, measure and check one workload in this interpreter."""
    outcome = Outcome()
    clock = SetupClock(_T0)
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    wl = _make(cfg)
    try:
        wl.setup(outcome)
        outcome.setup_s.append(clock.stop())

        def check(i: int, result: list[str]) -> None:
            if i < cfg.min_ops:
                outcome.fingerprints.extend(result)
            if i == cfg.min_ops - 1:
                # Memory after the same fixed work on every run: a daemon's
                # caches grow with the requests it has served, and a faster
                # program serves more of them in the same time.
                outcome.peak_rss_mb = peak_rss_mb()
            wl.check(outcome, i, result)

        def peak_rss_mb() -> float:
            return max(self_peak_rss_mb(), wl.daemon_peak_rss_mb())

        if cfg.trace:
            import layers

            metrics = layers.traced_run(wl, cfg, outcome, check)
        else:
            wl.run_timed(check, cfg.seconds, cfg.min_ops, 0, outcome)
            outcome.peak_rss_mb = outcome.peak_rss_mb or peak_rss_mb()
            metrics = outcome.e2e_metrics()
        wl.gate(outcome)
    finally:
        wl.close()
        _remove_workdir(cfg)
    return outcome, metrics


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main_single(args) -> int:
    full, smoke = SCALE[args.workload]
    cap, min_ops = smoke if args.smoke else full
    cfg = Config(
        workload=args.workload, seed=args.seed, seconds=0.0 if args.smoke else args.seconds,
        trace=bool(args.trace), smoke=args.smoke, cap=cap, min_ops=min_ops,
        workdir=WORK / f"{args.workload}-{os.getpid()}", trace_out=args.trace_out,
    )
    if args.setup_only:
        print(setup_only(cfg))
        return 0
    outcome, values = run_one(cfg)
    if not (cfg.trace or cfg.smoke):
        outcome.setup_s.extend(repeat_setup(args) for _ in range(SETUP_REPEATS - 1))
        values["setup_s"] = outcome.e2e_metrics()["setup_s"]
    for message in outcome.errors:
        print(f"FAILED: {message}")
    units = E2E_UNITS if not cfg.trace else __import__("layers").LAYER_UNITS
    ops = outcome.attempted if cfg.trace else outcome.prefix_ops or outcome.attempted
    for name, value in values.items():
        samples = len(outcome.setup_s) if name == "setup_s" else ops
        print(f"{args.workload:<13s} {name:<44s} {value:14.6g} {units[name]:<6s} n={samples}")
    print(f"{args.workload:<13s} unscaled op_ms {outcome.raw_summary()}")
    print(f"{args.workload:<13s} outputs_sha256 {outcome.outputs_sha256()}")
    _print_result(
        outcome.failed == 0,
        max(outcome.attempted, 1),
        outcome.failed,
        {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    )
    return 0


def main_many(args) -> int:
    """Each (workload, repeat) in a fresh interpreter; median and IQR."""
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed = True, 0, 0
    summary: dict[str, dict] = {}
    for workload in workloads:
        runs: list[dict] = []
        for r in range(args.repeat):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed + r), "--seconds", str(args.seconds),
                "--trace", "1" if args.trace else "0",
            ]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} run {r} exited with code {proc.returncode}")
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            runs.append(result["metrics"])
        for name, entry in runs[0].items():
            values = [run[name]["value"] for run in runs]
            med, iqr = median_iqr(values)
            rel = iqr / med if med else 0.0
            print(f"{workload:<13s} {name:<44s} median {med:14.6g} {entry['unit']:<6s} "
                  f"IQR {iqr:.4g} ({100 * rel:.1f}%) runs={len(values)}")
            summary[f"{workload}/{name}"] = {"value": med, "unit": entry["unit"]}
    _print_result(correct, max(attempted, 1), failed, summary)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # The program sees only the generated inputs: no REPRO_* setting from
    # the caller's environment (store, jobs, tracing, faults) leaks in.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so every daemon is still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all" or args.repeat > 1:
        return main_many(args)
    return main_single(args)


if __name__ == "__main__":
    sys.exit(main())

"""Shared pieces of the performance benchmark: timing loop, statistics, memory.

Everything here is stdlib-only and independent of ``repro``, so ``run.py``
can import it before it has checked that the program under test exists.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

#: End-to-end metrics every workload reports: name -> unit.  The names are
#: generic on purpose — each workload says what its "operation" is (a
#: tuning problem, a retune, a reload, a request, a fleet batch).
E2E_UNITS = {
    "setup_s": "s",
    "op_ms_scaled.p50": "ms",
    "ops_per_s_scaled": "1/s",
    "peak_rss_mb": "MB",
}

#: Reference computation samples taken before each timed operation.
REF_PER_OP = 3
#: Nominal time (ms) of the reference computation — about what it takes on
#: a quiet 2-vCPU Xeon VM.  Scaled metrics are what a run would have
#: measured had the machine run the reference at this speed throughout.
REF_MS = 5.0
_REF_LIST = random.Random(0).sample(range(50_000), 20_000)


def reference_ms() -> float:
    """Time (ms) of one fixed pure-Python computation: the machine's speed now.

    On a shared host the same work drifts by tens of percent with other
    tenants' load.  Dividing each operation's time by this one, sampled
    around the operation, cancels most of that drift.  It runs nothing of
    the program and allocates nothing the garbage collector tracks.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    sorted(_REF_LIST)
    return (time.perf_counter() - t0) * 1e3


def reference_group() -> float:
    """Median of ``REF_PER_OP`` reference samples (ms)."""
    return statistics.median(reference_ms() for _ in range(REF_PER_OP))


class SetupClock:
    """Set-up time, scaled to the reference speed as operation times are.

    Created before the program is imported; ``stop`` samples the
    reference again and scales the elapsed time, excluding the first
    sample's own time, by ``REF_MS`` over the mean of the two samples.
    """

    def __init__(self, t0: float) -> None:
        self.t0 = t0
        t = time.perf_counter()
        self.ref_before = reference_group()
        self.excluded = time.perf_counter() - t

    def stop(self) -> float:
        elapsed = time.perf_counter() - self.t0 - self.excluded
        return elapsed * REF_MS / ((self.ref_before + reference_group()) / 2)


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median_iqr(values: list[float]) -> tuple[float, float]:
    """``(median, q3 - q1)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1


def self_peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, or 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    latencies_s: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: The reference computation's time around each operation (ms).
    ref_ms: list[float] = field(default_factory=list)
    #: When set, latency and throughput cover only the first this many
    #: operations (timed until ``prefix_elapsed_s``): for a program whose
    #: state grows with the operations served, so a faster commit is not
    #: measured on a bigger state.
    prefix_ops: int = 0
    prefix_elapsed_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def outputs_sha256(self) -> str:
        """Digest of the fixed output prefix; equal seeds give equal digests."""
        h = hashlib.sha256()
        for fp in self.fingerprints:
            h.update(fp.encode())
        return h.hexdigest()

    def e2e_metrics(self) -> dict[str, float]:
        n = self.prefix_ops or self.attempted
        elapsed = self.prefix_elapsed_s if self.prefix_ops else self.elapsed_s
        latencies = self.latencies_s[:n]
        scaled_ms = [1e3 * t * REF_MS / r for t, r in zip(latencies, self.ref_ms)]
        # Throughput scales inversely, by the time-weighted mean factor.
        scale = sum(scaled_ms) / (1e3 * sum(latencies))
        return {
            "setup_s": statistics.median(self.setup_s),
            "op_ms_scaled.p50": percentile(scaled_ms, 0.50),
            "ops_per_s_scaled": n / elapsed / scale,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def raw_summary(self) -> str:
        """The unscaled timings, for the human-readable report."""
        ms = [1e3 * t for t in self.latencies_s]
        return " ".join(
            f"p{q}={percentile(ms, q / 100):.4g}" for q in (10, 25, 50, 75, 90, 99)
        ) + (
            f" ops_per_s={self.attempted / self.elapsed_s:.4g}"
            f" ref_ms={statistics.median(self.ref_ms):.4g} n={self.attempted}"
        )


def timed_loop(
    op, check, seconds: float, min_ops: int, outcome: Outcome, first: int = 0
) -> None:
    """Time ``op(i)`` for ``i = first, first + 1, ...`` until ``seconds`` pass.

    ``check(i, result)`` verifies each result outside the timed interval
    and records failures on ``outcome``; its time is excluded from
    ``elapsed_s`` too, as is the reference computation timed before each
    operation (and once after the last).  At least ``min_ops`` operations
    run even past the deadline, so the output prefix ``outputs_sha256``
    covers is the same on every run.  A traced pass continues the sequence
    of an untraced one through ``first``.
    """
    start = time.perf_counter()
    excluded = 0.0
    refs = []
    i = 0
    while i < min_ops or time.perf_counter() - excluded < start + seconds:
        t_ref = time.perf_counter()
        refs.append(reference_group())
        t0 = time.perf_counter()
        result = op(first + i)
        t1 = time.perf_counter()
        outcome.latencies_s.append(t1 - t0)
        check(first + i, result)
        excluded += t0 - t_ref + time.perf_counter() - t1
        i += 1
        if i == min_ops:
            outcome.prefix_elapsed_s = time.perf_counter() - start - excluded
    outcome.elapsed_s = time.perf_counter() - start - excluded
    refs.append(reference_group())
    # An operation's reference time: the mean of the samples either side.
    outcome.ref_ms.extend((a + b) / 2 for a, b in zip(refs, refs[1:]))

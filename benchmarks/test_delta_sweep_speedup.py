"""Delta re-sweep acceptance benchmark: structural reuse speedup + exactness.

Pins the delta tier's two contracts on the paper's full workload
(BERT-large encoder, forward + backward) after the canonical "same model,
new sequence length" perturbation (512 -> 513):

* resolving every operator through :func:`delta_payload_from_store`
  (re-timing the stored structural skeleton at the new sizes) is at least
  5x faster than the cold :func:`compute_payload` path that enumerates the
  perturbed problem from scratch, measured in freshly *spawned*
  interpreters — the tier exists for exactly the process that tweaked one
  dimension and starts with an empty L1 memo and cold structural caches;
* delta results are **bit-identical** to the cold ones, which are
  themselves pinned against ``sweep_op_reference`` by
  ``benchmarks/test_store_speedup.py`` / ``test_engine_speedup.py``.

Persistence is deliberately outside the timed region: both tiers save
their result under the exact digest afterwards, so the save cost is a
wash — what the benchmark isolates is the enumeration work the structural
skeleton makes redundant.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

# Deselected from tier-1: the nightly benchmark job is the sole runner —
# each arm below is a full encoder payload pass in a spawned interpreter.
pytestmark = pytest.mark.slow

#: Wide sweeps are where the tier pays: the cold arm's enumeration +
#: sampling work grows with ``cap`` while the (vectorized) structural
#: re-timing stays flat, so this is a nightly-scale sweep, not tier-1's.
CAP = 4000
SEED = 0x5EED
BASE_SEQ = 512
PERTURBED_SEQ = 513


def _fingerprint(sweeps) -> str:
    """Exact content hash of a sweep set: sorted totals + winning configs."""
    import numpy as np

    h = hashlib.sha256()
    for name in sorted(sweeps):
        s = sweeps[name]
        h.update(name.encode())
        h.update(np.asarray(s.times_us(), dtype=np.float64).tobytes())
        h.update(s.best.config.key().encode())
    return h.hexdigest()


def _setup(seq: int):
    """(ops, env, cost) for the encoder graph at one sequence length."""
    from repro.hardware.cost_model import CostModel
    from repro.ir.dims import bert_large_dims
    from repro.transformer.graph_builder import build_encoder_graph

    graph = build_encoder_graph(qkv_fusion="qkv", include_backward=True)
    ops = [op for op in graph.ops if not op.is_view]
    return ops, bert_large_dims(seq=seq), CostModel()


def _warm_store(store_dir: str) -> int:
    """Populate the store with every base-problem sweep; spawned child."""
    from repro.engine import SweepStore, compute_payload, sweep_digest

    store = SweepStore(store_dir)
    ops, env, cost = _setup(BASE_SEQ)
    for op in ops:
        digest = sweep_digest(op, env, cost, cap=CAP, seed=SEED)
        if digest not in store:
            store.save(digest, compute_payload(op, env, cost, cap=CAP, seed=SEED))
    return store.stats()["saves"]


def _timed_cold(seq: int):
    """Cold arm: per-op payload computation from scratch; spawned child."""
    from repro.engine import compute_payload, sweep_from_payload

    ops, env, cost = _setup(seq)
    t0 = time.perf_counter()
    payloads = [compute_payload(op, env, cost, cap=CAP, seed=SEED) for op in ops]
    elapsed = time.perf_counter() - t0
    sweeps = {o.name: sweep_from_payload(o, p) for o, p in zip(ops, payloads)}
    return elapsed, _fingerprint(sweeps)


def _timed_delta(store_dir: str, seq: int):
    """Delta arm: per-op structural re-sweep from the store; spawned child."""
    from repro.engine import SweepStore, delta_payload_from_store, sweep_from_payload

    store = SweepStore(store_dir)
    ops, env, cost = _setup(seq)
    t0 = time.perf_counter()
    payloads = [
        delta_payload_from_store(op, env, cost, cap=CAP, seed=SEED, store=store)
        for op in ops
    ]
    elapsed = time.perf_counter() - t0
    assert all(p is not None for p in payloads)  # every op found its twin
    assert store.stats()["delta_hits"] == len(ops)
    sweeps = {o.name: sweep_from_payload(o, p) for o, p in zip(ops, payloads)}
    return elapsed, _fingerprint(sweeps)


def _spawn(fn, *args):
    """Execute one arm in a brand-new (spawned) interpreter."""
    ctx = mp.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        return pool.submit(fn, *args).result()


def test_delta_resweep_speedup_after_seq_perturbation(benchmark, tmp_path):
    """>= 5x: delta (structural-twin) vs cold payloads after seq 512 -> 513."""
    store_dir = str(tmp_path / "store")
    saves = _spawn(_warm_store, store_dir)
    assert saves > 0

    # Interleaved rounds, best-of per arm: both legs are sub-second in
    # absolute terms, so a single GC pause or scheduler hiccup in either
    # would otherwise dominate the ratio.
    def run_round():
        run_round.runs.append(
            (
                _spawn(_timed_cold, PERTURBED_SEQ),
                _spawn(_timed_delta, store_dir, PERTURBED_SEQ),
            )
        )
        return run_round.runs[-1]

    run_round.runs = []
    benchmark.pedantic(run_round, rounds=3, iterations=1)
    t_cold, fp_cold = min((c for c, _ in run_round.runs), key=lambda r: r[0])
    t_delta, fp_delta = min((d for _, d in run_round.runs), key=lambda r: r[0])

    speedup = t_cold / t_delta
    print(
        f"\n=== Delta re-sweep speedup (BERT-large encoder fwd+bwd, "
        f"cap={CAP}, seq {BASE_SEQ} -> {PERTURBED_SEQ}, fresh process per "
        f"arm, best of {len(run_round.runs)}) ===\n"
        f"  cold  (enumerate + evaluate): {t_cold * 1e3:7.1f} ms\n"
        f"  delta (structural re-sweep):  {t_delta * 1e3:7.1f} ms  "
        f"({speedup:.1f}x)"
    )
    assert fp_delta == fp_cold  # bit-identical to the cold perturbed sweep
    assert speedup >= 5.0, (
        f"delta re-sweep only {speedup:.1f}x faster than the cold path "
        f"(cold {t_cold * 1e3:.1f} ms, delta {t_delta * 1e3:.1f} ms)"
    )

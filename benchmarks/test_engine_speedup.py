"""Engine acceptance benchmark: bit-identity and wall-clock speedup.

Pins the vectorized sweep engine's two contracts on the paper's full
workload (BERT-large encoder, forward + backward):

* the engine's cold sweep (``compute_payload`` → ``sweep_from_payload``)
  produces **bit-identical** ``SweepResult``s to ``sweep_op_reference``
  for every operator in the graph at ``cap=2000``;
* a full-graph engine sweep is at least 5x faster wall-clock than the
  scalar reference loop, with the process-level memo disabled and each
  sweep consumed the way the figure/selection layers consume it (best
  configuration + full distribution statistics).

It also guards the bulk kernel config sampler against the scalar one on
the fused graph's capped spaces at ``cap=20000``.
"""

from __future__ import annotations

import time
from math import prod

from repro.autotuner.tuner import sweep_op_reference
from repro.autotuner.violin import summarize
from repro.engine import clear_sweep_memo, kernel_index_array
from repro.engine.store import compute_payload
from repro.engine.sweep import sweep_from_payload
from repro.fusion import apply_paper_fusion
from repro.ir.operator import OpClass
from repro.layouts.configspace import kernel_config_indices, kernel_space
from repro.transformer.graph_builder import build_encoder_graph

CAP = 2000


def _cold_sweep(op, env, cost):
    """One engine sweep evaluated cold, past every cache tier."""
    return sweep_from_payload(
        op, compute_payload(op, env, cost, cap=CAP, seed=0x5EED)
    )


def _graph_ops():
    graph = build_encoder_graph(qkv_fusion="qkv", include_backward=True)
    return [op for op in graph.ops if not op.is_view]


def test_engine_bit_identical_to_reference(env, cost):
    """Every op in the fwd+bwd encoder graph: same configs, same times."""
    clear_sweep_memo()
    for op in _graph_ops():
        ref = sweep_op_reference(op, env, cost, cap=CAP)
        eng = _cold_sweep(op, env, cost)
        assert eng.num_configs == ref.num_configs, op.name
        for a, b in zip(ref.measurements, eng.measurements):
            assert a.config == b.config, (op.name, a.config, b.config)
            assert a.time == b.time, (op.name, a.time, b.time)


def test_engine_speedup_full_graph(benchmark, env, cost):
    """>= 5x wall-clock on a cold full-graph sweep at cap=2000."""
    ops = _graph_ops()

    def consume(sweep):
        # What Figs. 4/5 and the selection layer actually read per sweep:
        # the distribution statistics and the winning configuration.
        summarize(sweep)
        return sweep.best.config

    def run_reference():
        sweeps = [sweep_op_reference(op, env, cost, cap=CAP) for op in ops]
        for s in sweeps:
            consume(s)
        return sweeps

    def run_engine():
        clear_sweep_memo()
        sweeps = [_cold_sweep(op, env, cost) for op in ops]
        for s in sweeps:
            consume(s)
        return sweeps

    t0 = time.perf_counter()
    ref_sweeps = run_reference()
    t_ref = time.perf_counter() - t0

    t0 = time.perf_counter()
    eng_sweeps = benchmark.pedantic(run_engine, rounds=1, iterations=1)
    t_eng = time.perf_counter() - t0

    total_configs = sum(s.num_configs for s in ref_sweeps)
    speedup = t_ref / t_eng
    print(
        f"\n=== Engine speedup (BERT-large encoder fwd+bwd, cap={CAP}) ===\n"
        f"  {len(ref_sweeps)} ops, {total_configs} configs\n"
        f"  reference: {t_ref:6.2f} s\n"
        f"  engine:    {t_eng:6.2f} s  ({speedup:.1f}x)"
    )
    assert [s.num_configs for s in eng_sweeps] == [s.num_configs for s in ref_sweeps]
    assert speedup >= 5.0, f"engine only {speedup:.1f}x faster than reference"


def test_kernel_sampling_speedup(env):
    """>= 2x for the bulk sampler over the scalar one at cap=20000.

    Every distinct capped knob space of the fused encoder fwd+bwd graph,
    drawn both ways; the rows must agree exactly.
    """
    graph = apply_paper_fusion(
        build_encoder_graph(qkv_fusion="qkv", include_backward=True), env
    )
    spaces = set()
    for op in graph.ops:
        if op.is_view or op.op_class is OpClass.TENSOR_CONTRACTION:
            continue
        layouts, vecs, warps = kernel_space(op, env)
        sizes = tuple(len(c) for c in layouts) + (len(vecs), len(warps))
        if prod(sizes) > 20000:
            spaces.add(sizes)

    t0 = time.perf_counter()
    scalar = [list(kernel_config_indices(s, cap=20000, seed=7)) for s in spaces]
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    bulk = [kernel_index_array(s, cap=20000, seed=7) for s in spaces]
    t_bulk = time.perf_counter() - t0

    speedup = t_scalar / t_bulk
    print(
        f"\n=== Kernel config sampling (fused encoder fwd+bwd, cap=20000) ===\n"
        f"  {len(spaces)} distinct capped spaces\n"
        f"  scalar: {t_scalar:6.2f} s\n"
        f"  bulk:   {t_bulk:6.2f} s  ({speedup:.1f}x)"
    )
    for rows, arr in zip(scalar, bulk):
        assert arr.tolist() == [list(r) for r in rows]
    assert speedup >= 2.0, f"bulk sampler only {speedup:.1f}x faster than scalar"

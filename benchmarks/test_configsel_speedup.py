"""Configsel acceptance: bit-identity with the scalar reference and speedup.

Pins the vectorized configuration-selection pipeline's two contracts
against the scalar reference pipeline in ``repro/configsel/reference.py``,
mirroring ``benchmarks/test_engine_speedup.py`` for the sweep engine:

* ``select_configurations`` produces a **bit-identical**
  ``SelectedConfiguration`` (chosen configurations, inserted transposes,
  chain cost) to the reference pipeline (``fast=False``) on every graph of
  the tier-1 matrix — fused/unfused encoder, fused MHA, the GPT decoder, and
  the Sec. VI-C alternate dims;
* at encoder scale the production pipeline is at least 5x faster
  wall-clock than the reference, with each side handed *fresh*
  (unmaterialized) engine sweeps the way a cold ``optimize`` run hands
  them out.
"""

from __future__ import annotations

import time

from repro.configsel.selector import select_configurations
from repro.engine.store import compute_payload
from repro.engine.sweep import sweep_from_payload
from repro.fusion.encoder_kernels import apply_paper_fusion
from repro.ir.dims import bert_alternate_dims, bert_large_dims
from repro.transformer.graph_builder import (
    build_encoder_graph,
    build_gpt_decoder_graph,
    build_mha_graph,
)


def _graph_matrix(env, sweep_cap):
    alt = bert_alternate_dims()
    return [
        (
            "encoder-qkv-fused",
            apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv"), env),
            env,
            sweep_cap,
        ),
        (
            "mha-fused",
            apply_paper_fusion(build_mha_graph(qkv_fusion="qkv"), env),
            env,
            sweep_cap,
        ),
        (
            "decoder-fused",
            apply_paper_fusion(build_gpt_decoder_graph(qkv_fusion="qkv"), env),
            env,
            min(sweep_cap, 200),
        ),
        ("encoder-unfused", build_encoder_graph(qkv_fusion="unfused"), env, 200),
        (
            "encoder-alt-dims",
            apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv"), alt),
            alt,
            200,
        ),
    ]


def _payloads(graph, env, cost, cap):
    """One evaluated payload per non-view op (names kept per op)."""
    return {
        op.name: compute_payload(op, env, cost, cap=cap, seed=0x5EED)
        for op in graph.ops
        if not op.is_view
    }


def _fresh_sweeps(graph, payloads):
    """Brand-new lazily materialized sweeps — nothing pre-built, no memo."""
    return {
        name: sweep_from_payload(graph.op(name), payload)
        for name, payload in payloads.items()
    }


def test_fast_bit_identical_across_graph_matrix(env, cost, sweep_cap):
    """Fast == scalar on every tier-1 graph: configs, transposes, cost."""
    for label, graph, genv, cap in _graph_matrix(env, sweep_cap):
        payloads = _payloads(graph, genv, cost, cap)
        fast = select_configurations(
            graph, genv, cost, sweeps=_fresh_sweeps(graph, payloads), cap=cap,
            fast=True,
        )
        scalar = select_configurations(
            graph, genv, cost, sweeps=_fresh_sweeps(graph, payloads), cap=cap,
            fast=False,
        )
        assert fast.chain_cost_us == scalar.chain_cost_us, label
        assert fast.transposes == scalar.transposes, label
        assert fast.chosen == scalar.chosen, label
        assert fast.pinned_layouts == scalar.pinned_layouts, label
        assert fast == scalar, label


def test_configsel_speedup_encoder(benchmark, env, cost, sweep_cap):
    """>= 5x wall-clock over the scalar reference at encoder scale."""
    graph = apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv"), env)
    payloads = _payloads(graph, env, cost, sweep_cap)

    def run(fast: bool):
        # Fresh sweeps per run: neither side gets to reuse measurement
        # objects (or array views) materialized by the other.
        sweeps = _fresh_sweeps(graph, payloads)
        return select_configurations(
            graph, env, cost, sweeps=sweeps, cap=sweep_cap, fast=fast
        )

    # Warm shared process-level caches (transpose memo, layout tables) so
    # the measurement compares the two pipelines, not first-touch costs.
    expected = run(fast=False)
    assert run(fast=True) == expected

    t0 = time.perf_counter()
    scalar_sel = run(fast=False)
    t_scalar = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast_sel = benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)
    t_fast = time.perf_counter() - t0

    assert fast_sel == scalar_sel == expected
    speedup = t_scalar / t_fast
    print(
        f"\n=== Configsel speedup (BERT-large encoder, cap={sweep_cap}) ===\n"
        f"  scalar reference: {1e3 * t_scalar:8.1f} ms\n"
        f"  fast path:        {1e3 * t_fast:8.1f} ms  ({speedup:.1f}x)"
    )
    assert speedup >= 5.0, f"fast path only {speedup:.1f}x over the scalar reference"

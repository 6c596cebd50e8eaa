"""Generators for the paper's Figures 1b, 2, 4, 5 and 6.

Each returns the data series behind the figure; the benchmark harness
prints them (no plotting libraries are available offline).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotuner.violin import ViolinSummary, summarize
from repro.engine import contraction_time_split, sweep_op
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.ir.operator import OpClass, OpSpec
from repro.layouts.gemm_mapping import default_gemm_shape

__all__ = [
    "DataflowAnnotation",
    "fig1_mha_dataflow",
    "fig2_encoder_dataflow",
    "ContractionTile",
    "fig4_contraction_tiles",
    "fig5_fused_kernels",
    "fig6_config_graph_stats",
]


# ---------------------------------------------------------------------------
# Figs. 1b / 2 — dataflow annotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataflowAnnotation:
    """One operator's annotation in the dataflow figure."""

    op_name: str
    op_class: OpClass
    gflop: float  # binary Gflop, the paper's unit
    io_mwords: float
    flop_per_word: float
    movement_class: str


def _annotate_graph(graph: DataflowGraph, env: DimEnv) -> list[DataflowAnnotation]:
    rows = []
    for op in graph.ops:
        if op.is_view:
            continue
        s = op.summary(env)
        rows.append(
            DataflowAnnotation(
                op_name=op.name,
                op_class=op.op_class,
                gflop=s.flop / 2.0**30,
                io_mwords=s.words_moved / 1e6,
                flop_per_word=s.flop_per_word,
                movement_class=op.movement_class(env),
            )
        )
    return rows


def fig1_mha_dataflow(env: DimEnv) -> list[DataflowAnnotation]:
    """MHA forward dataflow with flop and flop/IO annotations (Fig. 1b)."""
    from repro.transformer.graph_builder import build_mha_graph

    graph = build_mha_graph(qkv_fusion="unfused", include_backward=False)
    return _annotate_graph(graph, env)


def fig2_encoder_dataflow(env: DimEnv) -> list[DataflowAnnotation]:
    """Encoder fwd+bwd dataflow annotations (Fig. 2)."""
    from repro.transformer.graph_builder import build_encoder_graph

    graph = build_encoder_graph(qkv_fusion="qkv", include_backward=True)
    return _annotate_graph(graph, env)


# ---------------------------------------------------------------------------
# Fig. 4 — tensor contraction layout sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionTile:
    """One Fig.-4 tile: a GEMM shape with its layout-sweep distributions."""

    label: str  # "M: ..., N: ..., K: ..., B: ..."
    op_names: tuple[str, ...]
    tc_best_pct_peak: float
    tc_worst_pct_peak: float
    fp16_best_pct_peak: float
    fp16_worst_pct_peak: float
    tc_best_ms: float
    tc_worst_ms: float
    num_configs: int


def fig4_contraction_tiles(
    env: DimEnv, cost: CostModel | None = None
) -> list[ContractionTile]:
    """Sweep every encoder contraction; group by canonical GEMM shape.

    The paper's Fig. 4 has 12 tiles, each merging the contractions that
    share a GEMM shape (operand order merged, tiles labeled with M > N).
    """
    from repro.transformer.graph_builder import build_encoder_graph

    cost = cost or CostModel()
    graph = build_encoder_graph(qkv_fusion="qkv", include_backward=True)
    groups: dict[str, list[OpSpec]] = {}
    for op in graph.ops:
        if op.op_class is not OpClass.TENSOR_CONTRACTION:
            continue
        shape = default_gemm_shape(op.einsum, env).canonical()
        groups.setdefault(shape.label(), []).append(op)

    # Algebraic-fusion variants appear in Fig. 4 too (QKV / dXQKV / KV ...).
    from repro.transformer.graph_builder import build_mha_graph

    for variant in ("unfused", "qk"):
        g2 = build_mha_graph(qkv_fusion=variant, include_backward=True)
        for op in g2.ops:
            if op.op_class is not OpClass.TENSOR_CONTRACTION:
                continue
            shape = default_gemm_shape(op.einsum, env).canonical()
            groups.setdefault(shape.label(), [])
            if all(o.name != op.name for o in groups[shape.label()]):
                groups[shape.label()].append(op)

    tiles: list[ContractionTile] = []
    for label, ops in sorted(groups.items()):
        rep = ops[0]
        flop = rep.flops(env)
        # One batched engine evaluation per tile (store-served when an L2
        # is active) instead of the scalar per-config loop; both returned
        # distributions arrive sorted ascending.
        tc_times, fp_times = contraction_time_split(rep, env, cost)
        if not tc_times.size or not fp_times.size:
            continue
        tc_best, tc_worst = float(tc_times[0]), float(tc_times[-1])
        fp_best, fp_worst = float(fp_times[0]), float(fp_times[-1])
        tc_peak = cost.gpu.tensor_core_flops
        fp_peak = cost.gpu.fp16_flops

        def pct(t_us: float, peak: float) -> float:
            return 100.0 * (flop / (t_us * 1e-6)) / peak

        tiles.append(
            ContractionTile(
                label=label,
                op_names=tuple(o.name for o in ops),
                tc_best_pct_peak=pct(tc_best, tc_peak),
                tc_worst_pct_peak=pct(tc_worst, tc_peak),
                fp16_best_pct_peak=pct(fp_best, fp_peak),
                fp16_worst_pct_peak=pct(fp_worst, fp_peak),
                tc_best_ms=tc_best / 1000.0,
                tc_worst_ms=tc_worst / 1000.0,
                num_configs=int(tc_times.size + fp_times.size),
            )
        )
    return tiles


# ---------------------------------------------------------------------------
# Fig. 5 — fused kernel layout sweeps
# ---------------------------------------------------------------------------

def fig5_fused_kernels(
    env: DimEnv, cost: CostModel | None = None, *, cap: int | None = 1500
) -> dict[str, ViolinSummary]:
    """Runtime distributions of the paper's fused kernels (Fig. 5)."""
    from repro.fusion.encoder_kernels import apply_paper_fusion
    from repro.transformer.graph_builder import build_encoder_graph

    cost = cost or CostModel()
    graph = apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv"), env)
    out: dict[str, ViolinSummary] = {}
    for op in graph.ops:
        if not op.kernel_label or op.op_class is OpClass.TENSOR_CONTRACTION:
            continue
        sweep = sweep_op(op, env, cost, cap=cap)
        out[op.kernel_label] = summarize(sweep)
    return out


# ---------------------------------------------------------------------------
# Fig. 6 — configuration-selection graph
# ---------------------------------------------------------------------------

def fig6_config_graph_stats(
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    cap: int | None = 600,
    jobs: int | None = None,
) -> dict[str, float]:
    """Build the Fig.-6 configuration graph and report its shape + SSSP cost."""
    from repro.configsel.chain import primary_chain
    from repro.engine import sweep_graph
    from repro.configsel.reference import (
        _SOURCE,
        _TARGET,
        build_config_graph,
        transpose_pricer,
    )
    from repro.configsel.sssp import shortest_path, shortest_path_networkx
    from repro.fusion.encoder_kernels import apply_paper_fusion
    from repro.transformer.graph_builder import build_encoder_graph

    cost = cost or CostModel()
    graph = apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv"), env)
    chain = primary_chain(graph)
    sweeps = sweep_graph(graph, env, cost, cap=cap, jobs=jobs)
    cg = build_config_graph(graph, chain, sweeps, transpose_pricer(cost, env))
    cost_own, path = shortest_path(cg, _SOURCE, _TARGET)
    cost_nx, _ = shortest_path_networkx(cg, _SOURCE, _TARGET)
    return {
        "nodes": float(len(cg.nodes)),
        "edges": float(cg.num_edges),
        "chain_ops": float(len(chain)),
        "sssp_cost_us": cost_own,
        "sssp_cost_networkx_us": cost_nx,
        "path_len": float(len(path)),
    }

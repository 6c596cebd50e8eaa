"""Algebraic fusion of the Q/K/V input projections (Sec. IV-D, Table II).

For self-attention the three projections read the same input ``X``, so the
weight matrices can be stacked and the three batched MMMs combined:

1. unfused — ``W_Q X``, ``W_K X``, ``W_V X``;
2. QK fused — ``[W_Q W_K] X`` and ``W_V X``;
3. QKV fused — ``[W_Q W_K W_V] X``.

Backward fuses symmetrically: ``X [dQ̃ dK̃ dṼ]`` (dW) and
``[W_Q W_K W_V][dQ̃ dK̃ dṼ]`` (dX).  This module measures the three variants
under the cost model and reproduces Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv
from repro.ir.operator import OpSpec
from repro.transformer.graph_builder import QKVFusion, build_mha_graph

__all__ = ["PROJECTION_OPS", "AlgebraicFusionResult", "measure_variant", "table2_sweep"]

#: Names of the projection contractions per variant, forward and backward.
#: Table II's "Backward" row covers one backward GEMM set (the dX path —
#: its fused value, 291 µs, matches Table III's single fused backward GEMM,
#: not the ~570 µs sum of dX and dW); the dW path fuses identically and is
#: exposed separately for the ablation benchmarks.
PROJECTION_OPS: dict[QKVFusion, dict[str, tuple[str, ...]]] = {
    "unfused": {
        "forward": ("q_proj", "k_proj", "v_proj"),
        "backward": ("q_proj_dx", "k_proj_dx", "v_proj_dx"),
        "backward_dw": ("q_proj_dw", "k_proj_dw", "v_proj_dw"),
    },
    "qk": {
        "forward": ("qk_proj", "v_proj"),
        "backward": ("qk_proj_dx", "v_proj_dx"),
        "backward_dw": ("qk_proj_dw", "v_proj_dw"),
    },
    "qkv": {
        "forward": ("qkv_proj",),
        "backward": ("qkv_proj_dx",),
        "backward_dw": ("qkv_proj_dw",),
    },
}


@dataclass(frozen=True)
class AlgebraicFusionResult:
    """Projection timings for one variant (Table II's cells)."""

    variant: QKVFusion
    forward_us: float
    backward_us: float
    forward_kernels: int
    backward_kernels: int

    @property
    def total_us(self) -> float:
        return self.forward_us + self.backward_us


def _best_time_us(cost: CostModel, op: OpSpec, env: DimEnv) -> float:
    """Best time over the contraction's configuration space.

    Routes through the batched engine (cache-tiered, bit-identical to
    the scalar per-config minimum): the sweep's measurements arrive sorted,
    so the best time is its head.
    """
    from repro.engine import sweep_op

    sweep = sweep_op(op, env, cost)
    if sweep.num_configs == 0:
        raise RuntimeError(f"no feasible configuration for {op.name!r}")
    return sweep.best.total_us


def measure_variant(
    variant: QKVFusion, env: DimEnv, cost: CostModel | None = None
) -> AlgebraicFusionResult:
    """Time the Q/K/V projections of one algebraic-fusion variant.

    Each projection kernel is timed at its best layout/algorithm
    configuration (the paper's Tab. II uses tuned kernels).
    """
    cost = cost or CostModel()
    graph = build_mha_graph(qkv_fusion=variant, include_backward=True)
    fwd_names = PROJECTION_OPS[variant]["forward"]
    bwd_names = PROJECTION_OPS[variant]["backward"]
    fwd = sum(_best_time_us(cost, graph.op(n), env) for n in fwd_names)
    bwd = sum(_best_time_us(cost, graph.op(n), env) for n in bwd_names)
    return AlgebraicFusionResult(
        variant=variant,
        forward_us=fwd,
        backward_us=bwd,
        forward_kernels=len(fwd_names),
        backward_kernels=len(bwd_names),
    )


def table2_sweep(env: DimEnv, cost: CostModel | None = None) -> dict[QKVFusion, AlgebraicFusionResult]:
    """All three Table II variants."""
    cost = cost or CostModel()
    return {v: measure_variant(v, env, cost) for v in ("unfused", "qk", "qkv")}

"""Sensitivity analysis: how the memory-bound picture moves with problem size.

The paper evaluates two (B, L) points — (8, 512) and (96, 128).  This
module sweeps batch size and sequence length to map the whole regime:

* attention cost scales as L² while the FFN scales as L, so the
  attention/FFN crossover moves with sequence length;
* the memory-bound runtime share shrinks as GEMMs grow (bigger batch), but
  never vanishes — the fusion win persists across the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.frameworks import framework_schedule
from repro.baselines.policy import OURS, PYTORCH
from repro.hardware.cost_model import CostModel
from repro.ir.dims import bert_large_dims
from repro.ir.operator import OpClass

__all__ = ["SensitivityPoint", "sweep_problem_sizes", "attention_ffn_crossover"]

#: Operators belonging to the attention part of the layer (vs the FFN part).
_ATTENTION_OPS = {
    "qkv_proj", "q_proj", "k_proj", "v_proj", "qk_proj", "AIB",
    "input_bias_q", "input_bias_k", "input_bias_v", "qkt", "SM", "softmax",
    "attn_dropout", "gamma", "attn_out", "attn_out_bias",
}


@dataclass(frozen=True)
class SensitivityPoint:
    """End-to-end metrics at one (batch, seq) configuration."""

    batch: int
    seq: int
    ours_ms: float
    pytorch_ms: float
    memory_bound_share: float  # fraction of Ours runtime outside contractions
    attention_share: float  # fraction of Ours *forward* time in attention ops

    @property
    def speedup(self) -> float:
        return self.pytorch_ms / self.ours_ms


def _measure(
    batch: int, seq: int, cost: CostModel, cap: int, jobs: int | None = None
) -> SensitivityPoint:
    env = bert_large_dims(batch=batch, seq=seq)
    ours = framework_schedule(OURS, env, cost, model="encoder", cap=cap, jobs=jobs)
    pt = framework_schedule(PYTORCH, env, cost, model="encoder", cap=cap, jobs=jobs)

    by_class = ours.class_runtime()
    total = sum(by_class.values())
    mem_share = 1.0 - by_class.get(OpClass.TENSOR_CONTRACTION, 0.0) / total

    fwd = [k for k in ours.kernels if not k.op.stage.is_backward]
    fwd_total = sum(k.time_us for k in fwd)
    attn = sum(k.time_us for k in fwd if k.name in _ATTENTION_OPS)
    return SensitivityPoint(
        batch=batch,
        seq=seq,
        ours_ms=ours.total_us / 1000.0,
        pytorch_ms=pt.total_us / 1000.0,
        memory_bound_share=mem_share,
        attention_share=attn / fwd_total if fwd_total else 0.0,
    )


def sweep_problem_sizes(
    *,
    batches: tuple[int, ...] = (2, 8, 32),
    seqs: tuple[int, ...] = (128, 512),
    cost: CostModel | None = None,
    cap: int = 200,
    jobs: int | None = None,
) -> list[SensitivityPoint]:
    """Measure Ours vs PyTorch across a (batch, seq) grid.

    Each grid point sweeps its graphs through the engine scheduler; the
    engine's sweep cache tiers make repeated grids cheap and ``jobs``
    parallelizes the cold points' sweeps.
    """
    cost = cost or CostModel()
    return [_measure(b, s, cost, cap, jobs) for b in batches for s in seqs]


def attention_ffn_crossover(
    *,
    batch: int = 8,
    seqs: tuple[int, ...] = (128, 256, 512, 1024),
    cost: CostModel | None = None,
    cap: int = 200,
    jobs: int | None = None,
) -> list[SensitivityPoint]:
    """Sweep sequence length at fixed batch: attention's L² term overtakes
    the FFN's L term as sequences grow."""
    cost = cost or CostModel()
    return [_measure(batch, s, cost, cap, jobs) for s in seqs]

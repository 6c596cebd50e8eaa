"""Layout-dependent efficiency model: the simulated-kernel substitute.

The paper measures real CUDA kernels whose throughput depends on data layout
(vectorized 128-bit accesses, coalescing, warp-reduction dimension, GEMM
algorithm, tensor-core saturation — Secs. IV-A, V).  This module replaces
those measurements with a *deterministic analytic model* mapping
(operator, configuration) to a fraction of peak compute / peak bandwidth.

Model structure (constants calibrated against Table III / Figs. 4–5; see
EXPERIMENTS.md for the calibration audit):

Tensor contractions (simulated cuBLAS):
  ``eff = BASE · sat(M)·sat(N)·sat(K) · layout_factor · algo_factor``
  where ``sat(d) = min(1, d/256)^0.9`` for tensor cores (small GEMM dims
  leave tensor cores underutilized — the paper's QKT/Gamma observation) and
  a flatter ``^0.2`` for the regular FP16 pipeline.  ``layout_factor`` and
  ``algo_factor`` are deterministic per-(shape, layout, algorithm) values in
  [0.80, 1.0] / [0.84, 1.0]; the library "heuristic" resolves to a fixed
  algorithm per shape that is generally good but up to ~16% off best
  (paper: up to 14.24% worse, Sec. V-A).

Memory-bound kernels (statistical normalization / element-wise / fused):
  per-operand efficiency from access-pattern features, weighted by operand
  bytes: a 128-bit-vectorizable innermost access achieves 0.92 of peak;
  coalesced scalar access 0.55; accesses strided by ``s`` decay like
  ``0.5/sqrt(s)`` (the catastrophic long tails of Fig. 5).  Matching the
  warp-reduce and vector dimensions adds the paper's register-pressure bonus.

The constants themselves live in :class:`repro.hardware.params
.EfficiencyParams`; every public entry point takes the ``params`` of the
caller's :class:`~repro.hardware.cost_model.CostModel` snapshot as a
required argument and never reads the process-active model, so a
promotion made after a request built its snapshot does not reach that
request (the next one picks it up).  The internal ``lru_cache``s key on
the params value — two models never share a cached factor.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.ir.dims import DimEnv
from repro.ir.operator import OpClass, OpSpec
from repro.layouts.config import HEURISTIC_ALGORITHM, NUM_GEMM_ALGORITHMS, OpConfig
from repro.layouts.gemm_mapping import GemmShape, map_to_gemm
from repro.layouts.layout import Layout
from repro.ops.einsum_utils import parse_einsum

from .params import EfficiencyParams
from .spec import GPUSpec

__all__ = [
    "Efficiency",
    "contraction_efficiency",
    "contraction_layout_units",
    "contraction_triple_factors",
    "kernel_efficiency",
    "operand_access_eff",
    "op_efficiency",
    "heuristic_algorithm",
    "best_algorithm",
    "VECTOR_WIDTH_FP16",
]

#: 128-bit vector loads hold 8 fp16 words.
VECTOR_WIDTH_FP16 = 8


@dataclass(frozen=True)
class Efficiency:
    """Achievable fractions of peak compute and peak memory bandwidth."""

    compute: float
    memory: float
    tensor_cores: bool

    def __post_init__(self) -> None:
        if not (0.0 < self.compute <= 1.0 and 0.0 < self.memory <= 1.0):
            raise ValueError(f"efficiencies must be in (0, 1]: {self}")


def _unit(*parts: object) -> float:
    """Deterministic pseudo-uniform in [0, 1) keyed by the given parts."""
    key = "|".join(str(p) for p in parts)
    return zlib.crc32(key.encode()) / 2**32


def _in_range(u: float, lo_hi: tuple[float, float]) -> float:
    lo, hi = lo_hi
    return lo + u * (hi - lo)


def heuristic_algorithm(shape: GemmShape) -> int:
    """The library's default algorithm choice for a GEMM shape.

    A fixed, shape-keyed pick: usually decent, sometimes measurably worse
    than the best (the cuBLAS-heuristic gap of Sec. V-A).
    """
    return zlib.crc32(shape.label().encode()) % NUM_GEMM_ALGORITHMS


def best_algorithm(
    shape: GemmShape, params: EfficiencyParams, layouts_key: str = ""
) -> int:
    """The algorithm with the highest algo_factor for this shape/layout."""
    lo_hi = params.algo_factor_range
    return max(
        range(NUM_GEMM_ALGORITHMS),
        key=lambda a: _in_range(_unit("algo", shape.label(), layouts_key, a), lo_hi),
    )


def _tc_saturation(shape: GemmShape, p: EfficiencyParams) -> float:
    sat = 1.0
    for d in (shape.m, shape.n, shape.k):
        sat *= min(1.0, d / p.gemm_tc_sat_ref) ** p.gemm_tc_sat_exp
    return sat


def _fp16_saturation(shape: GemmShape, p: EfficiencyParams) -> float:
    sat = 1.0
    for d in (shape.m, shape.n, shape.k):
        sat *= min(1.0, d / p.gemm_tc_sat_ref) ** p.gemm_fp16_sat_exp
    return sat


def _wave_quantization(shape: GemmShape, gpu: GPUSpec) -> float:
    """Efficiency loss from tile-wave quantization (dampened).

    A GEMM is executed as output tiles distributed over the SMs; the final
    partial wave leaves SMs idle.  This is the physical effect that makes
    the stacked-QKV projection faster than three small GEMMs (Table II):
    the wider N fills the machine with fewer partial waves.  The square
    root dampens the penalty, reflecting tail overlap in real libraries.
    """
    import math

    tile_m, tile_n = gpu.gemm_tile
    tiles = math.ceil(shape.m / tile_m) * math.ceil(shape.n / tile_n) * shape.batch
    waves = tiles / gpu.sm_count
    if waves <= 0:
        return 1.0
    penalty = math.ceil(waves) / waves
    return min(2.0, penalty**0.5)


def contraction_efficiency(
    op: OpSpec,
    config: OpConfig,
    env: DimEnv,
    gpu: GPUSpec,
    params: EfficiencyParams,
) -> Efficiency | None:
    """Efficiency of a contraction configuration, or None if not GEMM-mappable."""
    spec = parse_einsum(op.einsum)
    la, lb = config.input_layouts[0], config.input_layouts[1]
    lc = config.output_layouts[0]
    shape = map_to_gemm(spec, la, lb, lc, env)
    if shape is None:
        return None

    tc_legal = (
        config.use_tensor_cores
        and shape.m % 8 == 0
        and shape.n % 8 == 0
        and shape.k % 8 == 0
    )
    layouts_key = f"{la}/{lb}/{lc}"
    algo = config.algorithm
    if algo == HEURISTIC_ALGORITHM:
        algo = heuristic_algorithm(shape)
    layout_factor = _in_range(
        _unit("gemm-layout", op.einsum, layouts_key, shape.trans_a, shape.trans_b),
        params.layout_factor_range,
    )
    algo_factor = _in_range(
        _unit("algo", shape.label(), layouts_key, algo), params.algo_factor_range
    )
    if tc_legal:
        sat, base = _tc_saturation(shape, params), params.gemm_tc_base
    else:
        sat, base = _fp16_saturation(shape, params), params.gemm_fp16_base
    compute = base * sat * layout_factor * algo_factor
    compute /= _wave_quantization(shape, gpu)
    compute = max(compute, 1e-4)
    return Efficiency(compute=compute, memory=params.gemm_mem_eff, tensor_cores=tc_legal)


@lru_cache(maxsize=4096)
def _shape_factors(
    shape: GemmShape, gpu: GPUSpec, p: EfficiencyParams
) -> tuple[float, float, float, bool, str]:
    """Size-only factors shared by every layout triple mapping to ``shape``.

    Hot in the batched engine: an operator's feasible triples collapse to a
    handful of distinct GEMM shapes, so the saturation/wave transcendentals
    run once per shape instead of once per triple.  Pure value cache keyed
    by the resolved params — identical inputs, identical floats — so
    bit-identity is untouched and a promoted model never reads a stale
    default-model factor.
    """
    return (
        _tc_saturation(shape, p),
        _fp16_saturation(shape, p),
        _wave_quantization(shape, gpu),
        shape.m % 8 == 0 and shape.n % 8 == 0 and shape.k % 8 == 0,
        shape.label(),
    )


#: str(algorithm id) bytes, indexed by id (suffix operand of the rolling CRC).
_ALGO_SUFFIXES = tuple(str(a).encode() for a in range(NUM_GEMM_ALGORITHMS))


def contraction_layout_units(op: OpSpec, triples) -> np.ndarray:
    """Per-triple layout-factor units in [0, 1), enumeration order.

    ``triples`` is a ``(layout_a, layout_b, layout_c, shape)`` sequence.
    The units depend on the einsum, the layout strings and the transpose
    flags — never on dim *sizes* or the calibrated constants — so a delta
    re-sweep reuses the persisted array instead of re-hashing every key.
    ``crc32 / 2**32`` is exact in float64, so the round trip through a
    stored payload is bit-identical.
    """
    units = np.empty(len(triples))
    for i, (la, lb, lc, shape) in enumerate(triples):
        units[i] = _unit(
            "gemm-layout", op.einsum, f"{la}/{lb}/{lc}", shape.trans_a, shape.trans_b
        )
    return units


def contraction_triple_factors(
    op: OpSpec,
    triples,
    gpu: GPUSpec,
    params: EfficiencyParams,
    *,
    layout_units: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-triple factors of :func:`contraction_efficiency`, batched.

    Returns ``(pre_tc, pre_fp16, wave, tc_divisible, algo_factors,
    layout_units)`` arrays, where ``pre_* = BASE · sat(shape) ·
    layout_factor`` are the partial products up to (but excluding) the
    per-algorithm factor and ``algo_factors`` has shape
    ``(len(triples), NUM_GEMM_ALGORITHMS)`` — bit-identical to the scalar
    path's factors:

    * the size-only shape factors come from the same :func:`_shape_factors`
      cache;
    * the per-algorithm CRCs roll forward from a per-*label* base
      (``crc32(p + s) == crc32(s, crc32(p))``), hashing each label once per
      distinct GEMM shape instead of once per (triple, algorithm);
    * the factor mixing (``lo + u·span``, ``(BASE · sat) · layout_factor``)
      runs element-wise in float64 with the scalar association order, and
      raw CRC values are exact in float64.

    ``layout_units`` optionally supplies the size-independent units of
    :func:`contraction_layout_units` (e.g. from a stored payload on the
    delta re-sweep path); ``None`` computes them here.
    """
    t = len(triples)
    sat_tc = np.empty(t)
    sat_fp16 = np.empty(t)
    wave = np.empty(t)
    div8 = np.empty(t, dtype=bool)
    algo_crcs = np.empty((t, NUM_GEMM_ALGORITHMS))
    if layout_units is None:
        layout_units = contraction_layout_units(op, triples)
    crc32 = zlib.crc32
    label_base: dict[str, int] = {}
    for i, (la, lb, lc, shape) in enumerate(triples):
        s_tc, s_fp, w, d8, label = _shape_factors(shape, gpu, params)
        sat_tc[i] = s_tc
        sat_fp16[i] = s_fp
        wave[i] = w
        div8[i] = d8
        base = label_base.get(label)
        if base is None:
            base = label_base[label] = crc32(f"algo|{label}|".encode())
        mid = crc32(f"{la}/{lb}/{lc}|".encode(), base)
        row = algo_crcs[i]
        for a, suffix in enumerate(_ALGO_SUFFIXES):
            row[a] = crc32(suffix, mid)
    lo, hi = params.layout_factor_range
    layout_factor = lo + layout_units * (hi - lo)
    pre_tc = (params.gemm_tc_base * sat_tc) * layout_factor
    pre_fp16 = (params.gemm_fp16_base * sat_fp16) * layout_factor
    lo_a, hi_a = params.algo_factor_range
    algo_factors = lo_a + (algo_crcs / 2**32) * (hi_a - lo_a)
    return pre_tc, pre_fp16, wave, div8, algo_factors, layout_units


@lru_cache(maxsize=65536)
def _operand_access_eff(
    layout: Layout, vector_dim: str | None, env: DimEnv, p: EfficiencyParams
) -> float:
    """Memory efficiency of one operand under a kernel's access pattern.

    Threads advance along ``vector_dim``; the operand's stride along that
    dim decides coalescing.  Rank-0/1 operands are negligible and cached.
    """
    if layout.rank <= 1:
        return 0.85
    if vector_dim is None or vector_dim not in layout.dims:
        # Kernel iterates along a dim this operand is broadcast over; the
        # operand is effectively cached after first touch.
        return 0.80
    if layout.contiguous_dim == vector_dim:
        if env[vector_dim] % VECTOR_WIDTH_FP16 == 0:
            return p.vectorized_eff
        return p.coalesced_eff
    strides = layout.strides(env)
    stride = strides[vector_dim]
    return max(p.strided_floor, p.strided_coef / (stride**0.5))


def operand_access_eff(
    layout: Layout,
    vector_dim: str | None,
    env: DimEnv,
    params: EfficiencyParams,
) -> float:
    """Public name for the per-operand access model (the batched engine
    tabulates it once per (operand, layout, vector-dim) instead of once per
    config).  Cached on the resolved params: the same (layout, vector-dim,
    env, model) cells recur across operators and sweeps, and the function
    is pure — identical inputs, identical float."""
    return _operand_access_eff(layout, vector_dim, env, params)


def kernel_efficiency(
    op: OpSpec,
    config: OpConfig,
    env: DimEnv,
    params: EfficiencyParams,
) -> Efficiency:
    """Efficiency of a (possibly fused) memory-bound kernel configuration."""
    if op.op_class is OpClass.TENSOR_CONTRACTION:
        raise ValueError(f"{op.name!r} is a contraction; use contraction_efficiency")
    operands = list(op.inputs) + list(op.outputs)
    layouts = list(config.input_layouts) + list(config.output_layouts)
    if len(operands) != len(layouts):
        raise ValueError(
            f"{op.name!r}: {len(operands)} operands but {len(layouts)} layouts"
        )
    total_bytes = 0
    weighted = 0.0
    for spec, layout in zip(operands, layouts):
        nbytes = spec.nbytes(env)
        total_bytes += nbytes
        weighted += nbytes * _operand_access_eff(layout, config.vector_dim, env, params)
    mem = weighted / total_bytes if total_bytes else 0.5

    if op.ispace.reduction and config.warp_reduce_dim:
        if config.warp_reduce_dim == config.vector_dim:
            # Shared reduce/vector dim shrinks per-thread register footprint
            # (paper Sec. V-B: "decreases the number of registers ... from
            # the vector size (eight at FP16) to one").
            mem = min(0.95, mem * params.register_bonus)
        if env[config.warp_reduce_dim] < 32:
            mem *= params.narrow_warp_penalty

    jitter = 1.0 + params.jitter * (2.0 * _unit("kernel", config.key()) - 1.0)
    mem = min(0.95, max(params.strided_floor / 2, mem * jitter))
    return Efficiency(compute=params.kernel_compute_eff, memory=mem, tensor_cores=False)


def op_efficiency(
    op: OpSpec,
    config: OpConfig,
    env: DimEnv,
    gpu: GPUSpec,
    params: EfficiencyParams,
) -> Efficiency | None:
    """Dispatch on operator class."""
    if op.op_class is OpClass.TENSOR_CONTRACTION:
        return contraction_efficiency(op, config, env, gpu, params)
    return kernel_efficiency(op, config, env, params)

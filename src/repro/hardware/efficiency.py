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
    "crc32_rows",
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


# ---------------------------------------------------------------------------
# Batched keys: ``_unit`` for many rows at once
# ---------------------------------------------------------------------------

_ONES = 0xFFFFFFFF
#: Row count up to which :func:`crc32_rows` hashes each row whole.
_WHOLE_ROWS = 64


@lru_cache(maxsize=64)
def _crc32_zeros_tables(n: int) -> np.ndarray:
    """``(4, 256)`` byte tables of the CRC-32 register map "feed ``n`` zero bytes".

    The map is linear over GF(2), so its value on any register is the XOR
    of its values on the register's four bytes.  zlib's ``crc32(data, v)``
    runs the register from ``v ^ 0xFFFFFFFF`` and returns it inverted.
    """
    basis = np.array(
        [zlib.crc32(bytes(n), (1 << b) ^ _ONES) ^ _ONES for b in range(32)],
        dtype=np.uint32,
    )
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1 == 1
    return np.stack(
        [
            np.bitwise_xor.reduce(np.where(bits, basis[8 * i: 8 * i + 8], 0), axis=1)
            for i in range(4)
        ]
    ).astype(np.uint32)


def crc32_rows(parts: list, n: int) -> np.ndarray:
    """``zlib.crc32`` of ``n`` byte strings given as concatenated parts.

    A part is a ``str`` shared by every row or a ``(choices, column)``
    pair: row ``i`` continues with ``choices[column[i]]``.  Appending
    ``data`` to a message moves the register from ``r`` to
    ``Z(r) ^ R(data)``, where ``Z`` feeds ``len(data)`` zero bytes (one
    table lookup per register byte) and ``R(data)`` is the register ``data``
    alone leaves from zero — one zlib call per distinct string.  Up to
    ``_WHOLE_ROWS`` rows (a selection's consistent-kernel grid), one zlib
    call per whole row costs less than those table passes.
    """
    if n <= _WHOLE_ROWS:
        rows = (
            "".join(p if isinstance(p, str) else p[0][p[1][i]] for p in parts)
            for i in range(n)
        )
        return np.array([zlib.crc32(r.encode()) for r in rows], dtype=np.uint32)
    reg = np.full(n, _ONES, dtype=np.uint32)
    shared = ""  # text every row continues with, folded into the next choice
    for part in parts:
        if isinstance(part, str):
            shared += part
        else:
            choices, col = part
            _append(reg, [shared + c for c in choices], col)
            shared = ""
    if shared:
        _append(reg, [shared], np.zeros(n, dtype=np.intp))
    return reg ^ _ONES


def _append(reg: np.ndarray, choices: list[str], col: np.ndarray) -> None:
    """Advance CRC-32 registers in place: row ``i`` appends ``choices[col[i]]``."""
    data = [c.encode() for c in choices]
    alone = np.array([zlib.crc32(d, _ONES) ^ _ONES for d in data], dtype=np.uint32)
    lengths = [len(d) for d in data]
    distinct = set(lengths)
    for length in distinct:
        # All rows when every choice has this length (layout choices do).
        rows = slice(None) if len(distinct) == 1 else np.array(lengths)[col] == length
        r = reg[rows]
        t = _crc32_zeros_tables(length)
        reg[rows] = (
            t[0][r & 0xFF] ^ t[1][(r >> 8) & 0xFF] ^ t[2][(r >> 16) & 0xFF] ^ t[3][r >> 24]
        ) ^ alone[col[rows]]


def _triple_layout_parts(layouts, triple_layouts: np.ndarray) -> list:
    """:func:`crc32_rows` parts spelling each triple's ``"{la}/{lb}/{lc}"``."""
    (a, b, c), (ia, ib, ic) = layouts, triple_layouts
    return [
        ([str(l) for l in a], ia), "/", ([str(l) for l in b], ib), "/",
        ([str(l) for l in c], ic),
    ]


def contraction_layout_units(
    op: OpSpec, layouts, triple_layouts: np.ndarray, shapes, triple_shapes: np.ndarray
) -> np.ndarray:
    """Per-triple layout-factor units in [0, 1), enumeration order.

    The triples are given in structure-of-arrays form: ``layouts[s]`` are
    operand slot ``s``'s distinct layouts and ``triple_layouts[s, t]``
    triple ``t``'s id into them; ``shapes`` are the distinct GEMM shapes
    and ``triple_shapes[t]`` triple ``t``'s id into them.  Each unit is
    ``_unit("gemm-layout", einsum, "{la}/{lb}/{lc}", trans_a, trans_b)``,
    hashed for every triple at once by :func:`crc32_rows`.  The units
    depend on the einsum, the layout strings and the transpose flags —
    never on dim *sizes* or the calibrated constants — so a delta re-sweep
    reuses the persisted array instead of re-hashing every key.
    ``crc32 / 2**32`` is exact in float64, so the round trip through a
    stored payload is bit-identical.
    """
    flags = [f"{s.trans_a}|{s.trans_b}" for s in shapes]
    parts = [
        f"gemm-layout|{op.einsum}|", *_triple_layout_parts(layouts, triple_layouts),
        "|", (flags, triple_shapes),
    ]
    return crc32_rows(parts, len(triple_shapes)) / 2**32


def contraction_triple_factors(
    op: OpSpec,
    layouts,
    triple_layouts: np.ndarray,
    shapes,
    triple_shapes: np.ndarray,
    gpu: GPUSpec,
    params: EfficiencyParams,
    *,
    layout_units: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-triple factors of :func:`contraction_efficiency`, batched.

    The triples are given as in :func:`contraction_layout_units`.  Returns
    ``(pre_tc, pre_fp16, wave, tc_divisible, algo_factors, layout_units)``
    arrays, where ``pre_* = BASE · sat(shape) · layout_factor`` are the
    partial products up to (but excluding) the per-algorithm factor and
    ``algo_factors`` has shape ``(len(triples), NUM_GEMM_ALGORITHMS)`` —
    bit-identical to the scalar path's factors:

    * the size-only shape factors come from the same :func:`_shape_factors`
      cache, once per distinct shape;
    * the algorithm keys ``"algo|{label}|{la}/{lb}/{lc}|{a}"`` are hashed
      by :func:`crc32_rows` up to the last ``|`` for every triple at once,
      and each register then appends the eight algorithm ids;
    * the factor mixing (``lo + u·span``, ``(BASE · sat) · layout_factor``)
      runs element-wise in float64 with the scalar association order, and
      raw CRC values are exact in float64.

    ``layout_units`` optionally supplies the size-independent units of
    :func:`contraction_layout_units` (e.g. from a stored payload on the
    delta re-sweep path); ``None`` computes them here.
    """
    t = len(triple_shapes)
    factors = [_shape_factors(s, gpu, params) for s in shapes]
    sat_tc, sat_fp16, wave = (
        np.array([f[i] for f in factors], dtype=float)[triple_shapes] for i in range(3)
    )
    div8 = np.array([f[3] for f in factors], dtype=bool)[triple_shapes]
    if layout_units is None:
        layout_units = contraction_layout_units(
            op, layouts, triple_layouts, shapes, triple_shapes
        )
    parts = [
        "algo|", ([f[4] for f in factors], triple_shapes), "|",
        *_triple_layout_parts(layouts, triple_layouts), "|",
    ]
    reg = np.repeat(crc32_rows(parts, t) ^ _ONES, NUM_GEMM_ALGORITHMS)
    _append(
        reg,
        [str(a) for a in range(NUM_GEMM_ALGORITHMS)],
        np.tile(np.arange(NUM_GEMM_ALGORITHMS), t),
    )
    algo_crcs = (reg ^ _ONES).reshape(t, NUM_GEMM_ALGORITHMS)
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

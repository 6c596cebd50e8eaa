"""Batched roofline evaluation over structure-of-arrays config spaces.

Evaluates ``launch + max(flop / (peak · eff_c), bytes / (bw · eff_m))`` for
an operator's whole configuration space at once.  Per-(op, env) quantities
— flops, io_bytes, einsum parse, GEMM shapes, layout/algorithm factors,
per-operand access efficiencies — are computed exactly once and broadcast.

**Bit-identity contract.** Every per-element operation here is an IEEE-754
correctly-rounded primitive (multiply, divide, add, min/max) applied in the
same association order as the scalar model in
:mod:`repro.hardware.cost_model` / :mod:`repro.hardware.efficiency`; the
transcendental pieces (saturation exponents, stride decay, wave
quantization) are reused from the scalar helpers verbatim and only ever
computed per *distinct key*, never re-derived in a different form.  NumPy
float64 therefore reproduces the scalar Python floats bit for bit, which
tier-1 pins via ``sweep_op`` vs ``sweep_op_reference``.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

from repro.hardware.efficiency import (
    contraction_triple_factors,
    operand_access_eff,
)
from repro.hardware.params import EfficiencyParams
from repro.hardware.spec import GPUSpec
from repro.ir.dims import DimEnv

from .space import ContractionSpace, KernelSpace

__all__ = [
    "evaluate_contraction",
    "evaluate_kernel",
    "kernel_jitter_units",
    "roofline_totals",
]


def roofline_totals(launch_us, compute_us: np.ndarray, memory_us: np.ndarray):
    """Per-config totals ``launch + max(compute, memory)``: the one array
    spelling of ``KernelTime.total_us``, so every derivation of the totals
    (sort, payload decode, materialized sweeps) agrees bit for bit."""
    return launch_us + np.maximum(compute_us, memory_us)


def evaluate_contraction(
    space: ContractionSpace,
    env: DimEnv,
    gpu: GPUSpec,
    params: EfficiencyParams,
    *,
    layout_units: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Roofline-time every contraction config in one vector pass: its
    ``(compute_us, memory_us)``, evaluation order (launch is the GPU's).

    ``layout_units`` optionally supplies the precomputed (size-independent)
    per-triple layout-factor units of
    :func:`~repro.hardware.efficiency.contraction_layout_units` — e.g. from
    a stored payload on the delta re-sweep path; ``None`` computes them
    here.  ``params`` are the efficiency constants of the caller's cost
    model snapshot.
    """
    op = space.op
    pre_tc, pre_fp, wave, div8, algo_factors, _units = contraction_triple_factors(
        op, space.triples, gpu, params, layout_units=layout_units
    )

    ti = space.triple_idx
    tc_legal = space.tc_flags & div8[ti]
    # compute = ((BASE · sat) · layout_factor) · algo_factor, then /= wave,
    # then clamped — the exact scalar association order.
    pre = np.where(tc_legal, pre_tc[ti], pre_fp[ti])
    compute_eff = pre * algo_factors[ti, space.algos]
    compute_eff = compute_eff / wave[ti]
    compute_eff = np.maximum(compute_eff, 1e-4)

    flop = op.flops(env)
    nbytes = op.io_bytes(env)
    peak_tc = gpu.peak_flops(tensor_cores=True)
    peak_fp = gpu.peak_flops(tensor_cores=False)
    peak = np.where(tc_legal, peak_tc, peak_fp)
    if flop > 0:
        compute_us = 1e6 * flop / (peak * compute_eff)
    else:  # pragma: no cover - contractions always have flop
        compute_us = np.zeros(space.num_configs)
    # Contraction memory efficiency is a constant: one scalar division,
    # written exactly as CostModel._time_from_eff spells it.
    memory_const = 1e6 * nbytes / (gpu.mem_bandwidth * params.gemm_mem_eff)
    memory_us = np.full(space.num_configs, memory_const)
    return compute_us, memory_us


def kernel_jitter_units(space: KernelSpace) -> np.ndarray:
    """Deterministic per-config jitter units in [0, 1), evaluation order.

    Keyed by the OpConfig identity string exactly as the scalar model keys
    it (kernel configs carry the default algorithm/tensor-core fields).
    The array depends only on the op name, the layout/vector/warp choice
    strings and the index rows — never on dim *sizes* — so a delta
    re-sweep reuses the persisted array instead of re-hashing every key.
    ``crc32 / 2**32`` is exact in float64, so the round trip through a
    stored payload is bit-identical.  The keys are never built: each is a
    concatenation of per-knob choice strings, and :func:`_crc32_rows`
    hashes all of them at once from the few distinct strings.
    """
    op = space.op
    idx = space.idx
    n_in = len(op.inputs)
    operands = [
        ([str(l) for l in choices], idx[:, o])
        for o, choices in enumerate(space.layout_choices)
    ]

    def joined(slots):  # "/".join over operand slots
        parts = []
        for o, slot in enumerate(slots):
            if o:
                parts.append("/")
            parts.append(slot)
        return parts

    key = [
        f"kernel|{op.name}|in:", *joined(operands[:n_in]),
        "|out:", *joined(operands[n_in:]),
        "|vec:", ([str(v) for v in space.vec_choices], idx[:, -2]),
        "|warp:", ([str(w) for w in space.warp_choices], idx[:, -1]),
        "|algo:-1|tc:1",
    ]
    return _crc32_rows(key, space.num_configs) / 2**32


_ONES = 0xFFFFFFFF
#: Row count up to which :func:`_crc32_rows` hashes each row whole.
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


def _crc32_rows(parts: list, n: int) -> np.ndarray:
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


def evaluate_kernel(
    space: KernelSpace,
    env: DimEnv,
    gpu: GPUSpec,
    params: EfficiencyParams,
    *,
    units: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Roofline-time every memory-bound kernel config in one vector pass:
    its ``(compute_us, memory_us)``, evaluation order.

    ``units`` optionally supplies the precomputed jitter units of
    :func:`kernel_jitter_units` (e.g. from a stored payload on the delta
    re-sweep path); ``None`` computes them here.  ``params`` are the
    efficiency constants of the caller's cost model snapshot.
    """
    op = space.op
    idx = space.idx
    n = space.num_configs
    n_ops = space.num_operands
    vec_idx = idx[:, n_ops]
    warp_idx = idx[:, n_ops + 1]
    vec_choices = space.vec_choices
    warp_choices = space.warp_choices

    operands = list(op.inputs) + list(op.outputs)
    # Per-operand access efficiency depends only on (layout, vector dim):
    # tabulate once, gather per config.  The weighted accumulation mirrors
    # kernel_efficiency's running ``weighted += nbytes * eff`` order.
    total_bytes = 0
    weighted = np.zeros(n)
    for o, spec in enumerate(operands):
        nb = spec.nbytes(env)
        total_bytes += nb
        table = np.array(
            [
                [operand_access_eff(layout, v, env, params) for v in vec_choices]
                for layout in space.layout_choices[o]
            ]
        )
        weighted = weighted + float(nb) * table[idx[:, o], vec_idx]
    mem = weighted / total_bytes if total_bytes else np.full(n, 0.5)

    if op.ispace.reduction:
        # warp_choices are the reduction dims (all truthy), so the scalar
        # guard `if op.ispace.reduction and config.warp_reduce_dim` reduces
        # to this branch.
        same = np.array(
            [[v == w for w in warp_choices] for v in vec_choices], dtype=bool
        )[vec_idx, warp_idx]
        narrow = np.array(
            [w is not None and env[w] < 32 for w in warp_choices], dtype=bool
        )[warp_idx]
        mem = np.where(same, np.minimum(0.95, mem * params.register_bonus), mem)
        mem = np.where(narrow, mem * params.narrow_warp_penalty, mem)

    if units is None:
        units = kernel_jitter_units(space)
    jitter = 1.0 + params.jitter * (2.0 * units - 1.0)
    mem = np.minimum(0.95, np.maximum(params.strided_floor / 2, mem * jitter))

    flop = op.flops(env)
    nbytes = op.io_bytes(env)
    peak = gpu.peak_flops(tensor_cores=False)
    compute_const = 1e6 * flop / (peak * params.kernel_compute_eff) if flop > 0 else 0.0
    compute_us = np.full(n, compute_const)
    memory_us = 1e6 * nbytes / (gpu.mem_bandwidth * mem)
    return compute_us, memory_us

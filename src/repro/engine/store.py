"""Persistent sweep store: the on-disk L2 under the in-process payload L1.

The L1 in :mod:`repro.engine.memo` dies with the interpreter, so every
process — the CLI, the examples, the nightly benchmark run — used to start
cold.  This module makes sweeps durable: each evaluated sweep is written to
a content-addressed file whose name is a **stable digest** of everything
that determines the result:

``(canonical op signature, the dim sizes the op reads, GPUSpec,
sampling knobs, cost-model version)``

Python's built-in ``hash`` is salted per process, so the digest is a
SHA-256 over a canonical JSON serialization instead.  Two properties fall
out of the canonicalization:

* **Structural sharing.**  Contraction times depend only on the einsum,
  operand dims and layouts — never on operator or tensor *names* — so the
  contraction digest is name-free and structurally identical contractions
  (``q_proj`` / ``k_proj`` / ``v_proj``, the same GEMM across graphs) share
  one entry.  Memory-bound kernels keep the op name in the digest because
  the efficiency jitter is keyed by ``OpConfig.key()``, which embeds it.
* **Version invalidation.**  The version of the caller's
  :class:`~repro.hardware.cost_model.CostModel` snapshot is part of the
  digest *and* stamped on every payload, and loads check the stamp
  against the caller's version; bumping ``COST_MODEL_VERSION`` (see the
  rule in :mod:`repro.hardware.cost_model`) or promoting a calibration
  orphans every stored entry, exactly as it orphans every L1 entry.

A digest is two 32-hex halves: the **structural digest** (the key with dim
sizes abstracted away) and a hash of it with the sizes.  The store files
entry ``d`` under the directory ``d[:32]``, so every structural twin of a
sweep — the same sweep at other dim sizes, whose persisted skeleton a
delta re-sweep re-times — is found by listing one directory; there is no
separate index to keep in step with the entries.

A payload is one checksummed container file (:func:`pack_payload_bytes`)
holding the *evaluation-order* compute and memory times (totals are
derived: :func:`sorted_totals`), the stable-sort permutation, and the
(name-free) layout choice tables needed to rebuild configurations lazily —
raw float64, so a round-trip is bit-identical to a fresh
:func:`~repro.autotuner.tuner.sweep_op_reference` run.  The container is a
fixed header (magic, format, meta length, CRC-32 of the rest), a JSON
meta naming each array's dtype, shape and offset, then the raw
little-endian, C-ordered arrays at 8-byte-aligned offsets; a read is one
``read_bytes()`` and one ``np.frombuffer`` view per array, so decoded
arrays are read-only.  One reader, :func:`read_payload`, decodes and
validates every payload: a mismatched or corrupt entry raises
:class:`CacheMismatch` and is recomputed (and overwritten), never silently
reused.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import threading
import zlib
from dataclasses import asdict, replace
from functools import lru_cache
from math import isfinite, prod
from pathlib import Path

import numpy as np

from repro import obs
from repro.hardware.efficiency import contraction_layout_units
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv
from repro.ir.operator import OpClass, OpSpec
from repro.layouts.config import NUM_GEMM_ALGORITHMS
from repro.layouts.configspace import kernel_space
from repro.layouts.gemm_mapping import feasible_triple_structures
from repro.layouts.layout import Layout
from repro.ops.einsum_utils import parse_einsum
from repro.wire import env_number

from .batched import evaluate_contraction, evaluate_kernel, kernel_jitter_units
from .batched import roofline_totals
from .space import (
    ContractionSpace,
    KernelSpace,
    enumerate_contraction_space,
    enumerate_kernel_space,
    kernel_knob_sizes,
    shapes_from_structures,
)

__all__ = [
    "CacheMismatch",
    "PAYLOAD_FORMAT",
    "SweepStore",
    "atomic_write",
    "compute_payload",
    "compute_payload_delta",
    "get_sweep_store",
    "pack_payload_bytes",
    "read_payload",
    "set_sweep_store",
    "sorted_totals",
    "space_from_payload",
    "structural_sweep_digest",
    "sweep_digest",
    "sweep_store_stats",
]


class CacheMismatch(ValueError):
    """A stored sweep (or schedule) does not match what this process would
    compute: another cost-model version, payload format or digest, or a
    corrupt entry.  Callers recompute; they never reuse it."""


#: Payload layout version; bump when the container, the payload schema or
#: the digest changes.  Format 5 replaced format 4's npz zip with the plain
#: checksummed container (file suffix :data:`SUFFIX`), stores every index
#: array int32 and C-ordered (a kernel's knob indices one row per knob), and
#: a contraction's layout triples as each slot's distinct layouts plus a
#: ``(3, triples)`` id array.  Entries of any other format are never read
#: (older ones carry another suffix) or are rejected with
#: :class:`CacheMismatch` and recomputed, exactly like a cost-model bump.
PAYLOAD_FORMAT = 5

#: A store entry's file suffix.
SUFFIX = ".sweep"

#: The suffix of format-4 (and older) entries: never read, but still
#: counted and evicted under a budget, so a store upgraded in place ages
#: them out.
LEGACY_SUFFIX = ".npz"

#: Environment variable naming the store directory (CLI: ``--sweep-store``).
STORE_ENV_VAR = "REPRO_SWEEP_STORE"

#: Environment variable bounding the store size in bytes (0/unset: unbounded).
MAX_BYTES_ENV_VAR = "REPRO_SWEEP_STORE_MAX_BYTES"


# ---------------------------------------------------------------------------
# Stable digests
# ---------------------------------------------------------------------------

def _tensor_signature(dims: tuple[str, ...], dtype) -> list:
    return [list(dims), dtype.name, dtype.itemsize]


def _op_signature(op: OpSpec, *, include_name: bool) -> dict:
    """Canonical JSON-able form of everything about ``op`` that times read.

    Tensor names, stage, ``kernel_label`` and ``fused_from`` never reach the
    cost model and are excluded; member ops contribute only their flop
    counts, so members are always serialized name-free.
    """
    sig: dict = {
        "class": op.op_class.value,
        "inputs": [_tensor_signature(t.dims, t.dtype) for t in op.inputs],
        "outputs": [_tensor_signature(t.dims, t.dtype) for t in op.outputs],
        "independent": list(op.ispace.independent),
        "reduction": list(op.ispace.reduction),
        "flop_per_point": op.flop_per_point,
        "einsum": op.einsum,
        "is_view": op.is_view,
        "members": [_op_signature(m, include_name=False) for m in op.members],
    }
    if include_name:
        sig["name"] = op.name
    return sig


def _op_dims(op: OpSpec) -> set[str]:
    dims = set(op.ispace.all_dims)
    for t in op.inputs + op.outputs:
        dims.update(t.dims)
    for m in op.members:
        dims.update(_op_dims(m))
    return dims


def _kernel_space_size(op: OpSpec, env: DimEnv) -> int:
    """Full (uncapped) kernel config-space size: digest computation needs
    only the size to decide whether ``cap`` binds."""
    return prod(kernel_knob_sizes(op, env))


def _effective_knobs(op: OpSpec, env: DimEnv, *, cap: int | None, seed: int) -> list:
    """Sampling knobs as they actually bind.

    Contraction sweeps are exhaustive, and a kernel sweep whose full space
    fits under ``cap`` is too — both are keyed cap/seed-free so runs with
    different caps share entries whenever the results coincide.
    """
    if op.op_class is OpClass.TENSOR_CONTRACTION:
        return ["contraction"]
    if cap is None or _kernel_space_size(op, env) <= cap:
        return ["kernel", "exhaustive"]
    return ["kernel", cap, seed]


def _hex32(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def structural_sweep_digest(
    op: OpSpec, env: DimEnv, cost: CostModel, *, cap: int | None, seed: int
) -> str:
    """32-hex digest of one sweep with its dim *sizes* abstracted away.

    Two sweeps share a structural digest iff they differ only in the sizes
    bound to the op's dims — same op signature, dim names, GPU, effective
    sampling knobs and cost-model version.  Everything that shapes the
    enumerated config space (layout choices, feasibility masks, sampled
    index rows, jitter keys) is a function of this key alone, which is
    what makes the delta re-sweep sound: on a structural hit only the
    size-dependent arrays (flops, bytes, times) need recomputing.  The
    knobs are structural too: whether ``cap`` binds depends on the
    choice-list lengths, never on sizes.  It is the first half of
    :func:`sweep_digest` and names the store directory of every twin.
    """
    include_name = op.op_class is not OpClass.TENSOR_CONTRACTION
    key = {
        "format": PAYLOAD_FORMAT,
        "version": cost.version,
        "op": _op_signature(op, include_name=include_name),
        "dims": sorted(_op_dims(op)),
        "gpu": asdict(cost.gpu),
        "knobs": _effective_knobs(op, env, cap=cap, seed=seed),
    }
    return _hex32(json.dumps(key, sort_keys=True, separators=(",", ":")))


def sweep_digest(
    op: OpSpec, env: DimEnv, cost: CostModel, *, cap: int | None, seed: int
) -> str:
    """Stable 64-hex content digest of one sweep (process-independent).

    The structural digest, then 32 hex chars hashing it together with the
    sizes of the dims the op reads — so every structural twin of a sweep
    shares its first 32 characters.
    """
    structural = structural_sweep_digest(op, env, cost, cap=cap, seed=seed)
    sizes = sorted((d, env[d]) for d in _op_dims(op))
    return structural + _hex32(structural + json.dumps(sizes, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Payloads: the serialized form of one evaluated sweep
# ---------------------------------------------------------------------------

def _contraction_structures(op: OpSpec) -> list[list]:
    """JSON-able GEMM structures of a contraction, enumeration order.

    One entry per feasible layout triple: the size-independent
    ``(m_group, n_group, k_group, batch_group, trans_a, trans_b)`` of the
    mapping.  Reads the cached feasibility scan
    (:func:`feasible_triple_structures`), which is the same generator the
    enumeration itself consumes — so index ``i`` here describes
    ``triples[i]`` of the enumerated space.
    """
    feasible = feasible_triple_structures(
        parse_einsum(op.einsum),
        op.inputs[0].dims,
        op.inputs[1].dims,
        op.outputs[0].dims,
    )
    return [
        [list(m), list(n), list(k), list(b), bool(ta), bool(tb)]
        for _la, _lb, _lc, (m, n, k, b, ta, tb) in feasible
    ]


def _evaluate_payload(
    op: OpSpec,
    env: DimEnv,
    cost: CostModel,
    space: ContractionSpace | KernelSpace,
    skeleton: dict,
) -> dict:
    """Evaluate ``space`` at ``env`` and package the serializable payload.

    ``skeleton`` holds the size-independent arrays that travel with the
    payload — ``structures`` and ``layout_units`` of a contraction, the
    jitter ``units`` of a kernel.  Cold and delta sweeps both end here;
    they differ only in where the space and the skeleton come from.
    """
    if isinstance(space, ContractionSpace):
        compute_us, memory_us = evaluate_contraction(
            space, env, cost.gpu, cost.params, layout_units=skeleton["layout_units"]
        )
        tables = {
            "kind": "contraction",
            "layouts": [[list(l.dims) for l in v] for v in space.layouts],
            "triple_layouts": space.triple_layouts,
            "triple_idx": space.triple_idx,
            "tc_flags": space.tc_flags,
            "algos": space.algos,
        }
    else:
        compute_us, memory_us = evaluate_kernel(
            space, env, cost.gpu, cost.params, units=skeleton["units"]
        )
        tables = {
            "kind": "kernel",
            "layout_choices": [
                [list(l.dims) for l in choices] for choices in space.layout_choices
            ],
            "vec_choices": list(space.vec_choices),
            "warp_choices": list(space.warp_choices),
            "idx": space.idx,
        }
    launch_us = cost.gpu.kernel_launch_us
    totals = roofline_totals(launch_us, compute_us, memory_us)
    order = np.argsort(totals, kind="stable")
    return {
        "format": PAYLOAD_FORMAT,
        "version": cost.version,
        "op_name": op.name,
        "launch_us": launch_us,
        "compute_us": compute_us,
        "memory_us": memory_us,
        "order": order,
        _TOTALS: totals[order],
        **tables,
        **skeleton,
    }


def compute_payload(
    op: OpSpec, env: DimEnv, cost: CostModel, *, cap: int | None, seed: int
) -> dict:
    """Enumerate and batch-evaluate one sweep under ``cost`` into its payload.

    The payload carries the evaluation-order timing arrays, the stable-sort
    permutation, and name-free layout choice tables — everything needed to
    rebuild the sweep lazily for *any* structurally identical operator
    without re-running the roofline — plus the size-independent skeleton
    (GEMM structures, layout and jitter units), so a later sweep of the
    same op at *different* dim sizes can delta-re-sweep instead of
    starting cold.
    """
    if op.op_class is OpClass.TENSOR_CONTRACTION:
        space = enumerate_contraction_space(op, env)
        skeleton = {
            "structures": _contraction_structures(op),
            "layout_units": contraction_layout_units(op, space.triples),
        }
    else:
        space = enumerate_kernel_space(op, env, cap=cap, seed=seed)
        skeleton = {"units": kernel_jitter_units(space)}
    return _evaluate_payload(op, env, cost, space, skeleton)


def compute_payload_delta(
    op: OpSpec, env: DimEnv, cost: CostModel, *, base: dict
) -> dict:
    """Re-evaluate a structural twin's skeleton at new dim sizes.

    ``base`` is a payload :meth:`SweepStore.load_structural` read and
    validated from this sweep's structural-digest directory (same op
    signature, GPU and knobs — only dim sizes differ).  The config space is
    rebuilt from its skeleton — layout tables, index rows, GEMM structures,
    jitter units — and only the size-dependent arrays (flops, bytes, times,
    sort) are recomputed, so the result is bit-identical to a cold
    :func:`compute_payload` while skipping the feasibility scan, the config
    sampling and the jitter hashing.  Raises :class:`CacheMismatch` when
    ``base`` is of the other op class or its choice tables do not describe
    ``op``'s operands; callers fall back to a cold sweep.
    """
    contraction = op.op_class is OpClass.TENSOR_CONTRACTION
    if base["kind"] != ("contraction" if contraction else "kernel"):
        raise CacheMismatch(f"delta base is a {base['kind']!r} payload")
    space = space_from_payload(op, base)
    if contraction:
        # Validation made each slot's layouts permute one set: one triple
        # speaks for all.
        specs = (op.inputs[0], op.inputs[1], op.outputs[0])
        fits = all(
            l.matches(s) for v, s in zip(space.layouts, specs) for l in v[:1]
        )
        skeleton = {k: base[k] for k in ("structures", "layout_units")}
    else:
        tables = (space.layout_choices, space.vec_choices, space.warp_choices)
        fits = tables == kernel_space(op, env)
        skeleton = {"units": base["units"]}
    if not fits:
        raise CacheMismatch("delta base's choice tables are not this operator's")
    if contraction:
        space = replace(space, shapes=shapes_from_structures(base["structures"], env))
    return _evaluate_payload(op, env, cost, space, skeleton)


@lru_cache(maxsize=4096)
def _layout(dims: tuple[str, ...]) -> Layout:
    """Shared frozen Layout instances (payload tables repeat few layouts)."""
    return Layout(dims)


def space_from_payload(op: OpSpec, payload: dict) -> ContractionSpace | KernelSpace:
    """Rebuild the config-space view of a payload for ``op``.

    Configurations materialize with ``op``'s name, which is how one stored
    contraction payload serves every structurally identical operator.  The
    per-triple ``GemmShape`` is not persisted (``config_at`` never reads
    it), so a reconstructed contraction space has no ``shapes``.
    """
    if payload["kind"] == "contraction":
        return ContractionSpace(
            op=op,
            layouts=[[_layout(tuple(dims)) for dims in v] for v in payload["layouts"]],
            triple_layouts=payload["triple_layouts"],
            shapes=None,
            triple_idx=payload["triple_idx"],
            tc_flags=payload["tc_flags"],
            algos=payload["algos"],
        )
    return KernelSpace(
        op=op,
        layout_choices=[
            [_layout(tuple(dims)) for dims in choices]
            for choices in payload["layout_choices"]
        ],
        vec_choices=list(payload["vec_choices"]),
        warp_choices=list(payload["warp_choices"]),
        idx=payload["idx"],
    )


#: A payload's sorted totals: derived once where it is evaluated or decoded,
#: so its sweeps share one array; an ndarray, so never written to ``meta``.
_TOTALS = "_sorted_totals"


def sorted_totals(payload: dict) -> np.ndarray:
    """``payload``'s totals ``launch + max(compute, memory)`` in sort order."""
    return payload[_TOTALS]


def _in_range(idx: np.ndarray, size: int) -> bool:
    return not idx.size or bool(idx.min() >= 0 and idx.max() < size)


def _slot_names(layouts) -> frozenset | None:
    """The dim names every layout of one operand slot permutes: ``None``
    unless ``layouts`` are distinct lists of distinct names, all permuting
    one set (an empty slot permutes none)."""
    if not isinstance(layouts, list) or set(map(type, layouts)) - {list}:
        return None
    distinct = set(map(tuple, layouts))
    sets = {frozenset(layout) for layout in distinct}
    if len(distinct) != len(layouts) or len(sets) > 1:
        return None
    names = sets.pop() if sets else frozenset()
    ok = all(isinstance(d, str) for d in names)
    return names if ok and all(len(l) == len(names) for l in distinct) else None


def _are_structures(structures, names: frozenset) -> bool:
    """``[m, n, k, b, trans_a, trans_b]`` each: four lists of dims drawn from
    ``names`` (every triple's dims), then two bools; checked per column."""
    if not isinstance(structures, list) or {*map(len, structures)} - {6}:
        return False
    cols = list(zip(*structures))
    groups = set().union(*(map(tuple, c) for c in cols[:4]))
    return (
        all(set(map(type, c)) <= {list} for c in cols[:4])
        and all(set(map(type, c)) <= {bool} for c in cols[4:])
        and names.issuperset(d for g in groups for d in g)
    )


def _validate_payload(
    payload: dict, *, digest: str | None, version: int | str | None, where: str
) -> np.ndarray:
    """Structural sanity of a decoded payload; its derived sorted totals.

    Index arrays are bounds-checked against their choice tables, ``order``
    must stably sort the derived totals, and every table a sweep or a delta
    re-sweep reads is type-checked, so a corrupt or hand-edited entry fails
    here with :class:`CacheMismatch` — never as a wrong ranking, or a
    crash, downstream.  ``version`` is the cost-model version of the
    caller's snapshot the payload must be stamped with (``None``: any —
    only a client, which serves no model, decodes that way).
    """
    if version is not None and payload.get("version") != version:
        raise CacheMismatch(
            f"{where} was measured under cost model version "
            f"{payload.get('version')!r}, but the caller's model is version "
            f"{version!r}; re-sweep instead of reusing it"
        )
    if digest is not None and payload.get("digest") != digest:
        raise CacheMismatch(
            f"{where} declares digest {payload.get('digest')!r}, "
            f"expected {digest!r}"
        )
    order = payload["order"]
    n = order.shape[0]
    for key in ("compute_us", "memory_us"):
        if payload[key].shape != (n,):
            raise CacheMismatch(f"{where}: array {key!r} has inconsistent length")
    if not _in_range(order, n or 1):
        raise CacheMismatch(f"{where}: sort permutation out of range")
    seen = np.zeros(n, dtype=bool)
    seen[order] = True
    if not seen.all():
        raise CacheMismatch(f"{where}: sort order is not a permutation")
    if type(launch := payload["launch_us"]) not in (int, float) or not isfinite(launch):
        raise CacheMismatch(f"{where}: launch time {launch!r} is not a finite number")
    # A stable sort: totals never decrease, and ties keep config order.
    totals = roofline_totals(launch, payload["compute_us"], payload["memory_us"])[order]
    prev, nxt = totals[:-1], totals[1:]
    if not (nxt >= prev).all():
        raise CacheMismatch(f"{where}: sorted totals decrease")
    if not (order[1:] > order[:-1])[nxt == prev].all():
        raise CacheMismatch(f"{where}: sort order is not stable within ties")
    if payload["kind"] == "contraction":
        for key in ("triple_idx", "tc_flags", "algos"):
            if payload[key].shape != (n,):
                raise CacheMismatch(f"{where}: array {key!r} has inconsistent length")
        if n and payload["tc_flags"].view(np.uint8).max() > 1:
            raise CacheMismatch(f"{where}: tensor-core flags are not booleans")
        layouts, ids = payload["layouts"], payload["triple_layouts"]
        slots = list(map(_slot_names, layouts)) if isinstance(layouts, list) else []
        if len(slots) != 3 or None in slots or ids.ndim != 2 or len(ids) != 3:
            raise CacheMismatch(f"{where}: malformed layout tables")
        t = ids.shape[1]
        if not all(_in_range(row, len(v)) for row, v in zip(ids, layouts)):
            raise CacheMismatch(f"{where}: layout id out of range")
        if not _in_range(payload["triple_idx"], t):
            raise CacheMismatch(f"{where}: triple index out of range")
        if not _in_range(payload["algos"], NUM_GEMM_ALGORITHMS):
            raise CacheMismatch(f"{where}: algorithm index out of range")
        structures = payload["structures"]
        names = frozenset().union(*slots)
        if len(structures) != t or not _are_structures(structures, names):
            raise CacheMismatch(f"{where}: GEMM structures inconsistent with triples")
        lu = payload["layout_units"]
        if lu.shape != (t,) or (t and not bool(((lu >= 0.0) & (lu < 1.0)).all())):
            raise CacheMismatch(f"{where}: layout units missing or out of range")
    else:
        choices = payload["layout_choices"]
        knobs = (payload["vec_choices"], payload["warp_choices"])
        if (
            not isinstance(choices, list)
            or None in map(_slot_names, choices)
            or not all(k == [None] or {*map(type, k)} == {str} for k in knobs)
        ):
            raise CacheMismatch(f"{where}: malformed layout, vector or warp choices")
        idx = payload["idx"]
        sizes = [len(c) for c in choices] + [len(k) for k in knobs]
        if idx.shape != (n, len(sizes)):
            raise CacheMismatch(f"{where}: array 'idx' has inconsistent shape")
        for col, size in enumerate(sizes):
            if not _in_range(idx[:, col], size):
                raise CacheMismatch(f"{where}: knob index column {col} out of range")
        units = payload["units"]
        if units.shape != (n,) or (n and not bool(((units >= 0) & (units < 1)).all())):
            raise CacheMismatch(f"{where}: jitter units missing or out of range")
    return totals


# ---------------------------------------------------------------------------
# The container (shared by the store and the packed wire path)
# ---------------------------------------------------------------------------

#: Fixed header: magic, payload format, meta length, CRC-32 of the rest.
_HEADER = struct.Struct("<4sIII")
_MAGIC = b"RPSW"

#: Per payload kind, its arrays in file order and the little-endian dtypes
#: each may be stored in (the first is what the writer casts to).  Index
#: arrays are int32: they index configs or small choice tables.
_F8, _I4 = ("<f8",), ("<i4",)
_ARRAYS = {
    "contraction": {
        "compute_us": _F8, "memory_us": _F8, "order": _I4, "triple_idx": _I4,
        "algos": _I4, "tc_flags": ("|b1",), "triple_layouts": ("|u1", "<u2", "<u4"),
        "layout_units": _F8,
    },
    "kernel": {
        "compute_us": _F8, "memory_us": _F8, "order": _I4, "idx": _I4, "units": _F8,
    },
}

#: Stored transposed: one row per knob, so each knob column of a decoded
#: ``idx`` is contiguous.
_TRANSPOSED = frozenset({"idx"})

_DTYPES = frozenset(d for schema in _ARRAYS.values() for ds in schema.values() for d in ds)


def _align(offset: int) -> int:
    return -(-offset // 8) * 8


def _seal(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """The container bytes of ``meta`` and C-contiguous little-endian
    ``arrays``.  ``meta["arrays"]`` lists each array's name, dtype, shape
    and offset (counted from the 8-aligned end of the meta) in file order."""
    layout, offset = [], 0
    for name, a in arrays.items():
        layout.append([name, a.dtype.str, list(a.shape), offset])
        offset = _align(offset + a.nbytes)
    text = json.dumps({**meta, "arrays": layout}, sort_keys=True, separators=(",", ":"))
    head = text.encode()
    start = _align(_HEADER.size + len(head))
    chunks = [head, bytes(start - _HEADER.size - len(head))]
    for a in arrays.values():
        chunks += [memoryview(a).cast("B"), bytes(_align(a.nbytes) - a.nbytes)]
    body = b"".join(chunks)
    return _HEADER.pack(_MAGIC, PAYLOAD_FORMAT, len(head), zlib.crc32(body)) + body


def _unseal(data: bytes, where: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta and the read-only array views of one container.

    The checksum covers every byte after the header, and the arrays must
    lie back to back at the 8-aligned offsets :func:`_seal` gives them and
    end the file, so a torn, padded or re-laid-out file is refused.
    """
    if len(data) < _HEADER.size:
        raise CacheMismatch(f"corrupt {where}: {len(data)} bytes, shorter than a header")
    magic, fmt, meta_len, crc = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise CacheMismatch(f"corrupt {where}: not a sweep payload (magic {magic!r})")
    if fmt != PAYLOAD_FORMAT:  # it says how to read the rest
        raise CacheMismatch(f"{where}: payload format {fmt!r}, not {PAYLOAD_FORMAT}")
    if zlib.crc32(memoryview(data)[_HEADER.size:]) != crc:
        raise CacheMismatch(f"corrupt {where}: checksum mismatch")
    meta = json.loads(data[_HEADER.size : _HEADER.size + meta_len])
    if not isinstance(meta, dict) or not isinstance(layout := meta.pop("arrays", None), list):
        raise CacheMismatch(f"corrupt {where}: malformed meta")
    start = offset = _align(_HEADER.size + meta_len)
    arrays = {}
    for name, dtype, shape, at in layout:
        if not isinstance(name, str) or name in arrays:
            raise CacheMismatch(f"corrupt {where}: array name {name!r}")
        if not (isinstance(dtype, str) and dtype in _DTYPES):
            raise CacheMismatch(f"corrupt {where}: array {name!r} has dtype {dtype!r}")
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise CacheMismatch(f"corrupt {where}: array {name!r} has shape {shape!r}")
        if type(at) is not int or start + at != offset:
            raise CacheMismatch(f"corrupt {where}: array {name!r} is not where it belongs")
        a = np.frombuffer(data, dtype=np.dtype(dtype), count=prod(shape), offset=offset)
        arrays[name] = a.reshape(shape)
        offset = _align(offset + a.nbytes)
    if offset != len(data):
        raise CacheMismatch(f"corrupt {where}: {len(data) - offset} bytes past the arrays")
    return meta, arrays


def pack_payload_bytes(digest: str, payload: dict) -> bytes:
    """One payload as container bytes: a store entry's whole file, and the
    packed ``/v1/sweep`` body (the writer is deterministic, so packing a
    decoded payload gives back its file byte for byte)."""
    arrays = {}
    for name, dtypes in _ARRAYS[payload["kind"]].items():
        a = payload[name].T if name in _TRANSPOSED else payload[name]
        dtype = a.dtype.str if a.dtype.str in dtypes else dtypes[0]
        arrays[name] = np.ascontiguousarray(a, dtype=dtype)
    meta = {k: v for k, v in payload.items() if not isinstance(v, np.ndarray)}
    meta["digest"] = digest
    return _seal(meta, arrays)


def read_payload(
    source: Path | bytes, *, digest: str | None, version: int | str | None
) -> dict:
    """Decode and validate one payload from a path or its bytes.

    The one decoder: store loads, twin loads and packed ``/v1/sweep``
    bodies (the wire bytes *are* the stored file) all read through it.
    ``digest`` and ``version`` are what the payload must declare and carry
    (``None``: any).  Its arrays are read-only views of the bytes.  A
    missing file raises ``FileNotFoundError``; any other failure — of the
    container, of the JSON decoder on outside bytes, or of validation —
    raises :class:`CacheMismatch`.
    """
    where = f"sweep-store entry {source}" if isinstance(source, Path) else "payload"
    try:
        data = source.read_bytes() if isinstance(source, Path) else bytes(source)
        payload, arrays = _unseal(data, where)
        if payload.get("format") != PAYLOAD_FORMAT:
            raise CacheMismatch(
                f"{where}: payload format {payload.get('format')!r}, not {PAYLOAD_FORMAT}"
            )
        kind = payload.get("kind")
        schema = _ARRAYS.get(kind, {})
        if list(arrays) != list(schema) or any(
            a.dtype.str not in schema[k] for k, a in arrays.items()
        ):
            raise CacheMismatch(f"{where}: arrays do not fit a {kind!r} payload")
        for name, a in arrays.items():
            payload[name] = a.T if name in _TRANSPOSED else a
        payload[_TOTALS] = _validate_payload(
            payload, digest=digest, version=version, where=where
        )
    except (FileNotFoundError, CacheMismatch):
        raise
    except Exception as exc:  # the decoders' errors on corrupt bytes are open-ended
        raise CacheMismatch(f"corrupt {where}: {exc!r}") from exc
    return payload


def atomic_write(path: Path, write, *, fsync: bool = False) -> None:
    """Write ``path`` whole or not at all: temp file, then ``os.replace``.

    ``write(fh)`` fills an open binary temp file in ``path``'s directory;
    readers never observe a partial file, and a failed write leaves no
    temp file behind.  ``fsync`` flushes the bytes to disk before the
    rename, for files that are a commit point.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------

#: The store's counters, in :meth:`SweepStore.stats` order after ``entries``.
_COUNTERS = ("hits", "misses", "saves", "rejected", "evictions", "delta_hits")


class SweepStore:
    """A directory tree of content-addressed sweep payload files.

    Entry ``d`` lives at ``root / d[:32] / f"{d}{SUFFIX}"``: the first half of
    every sweep digest is its structural digest, so all structural twins
    of a sweep (the same sweep at other dim sizes) share one directory and
    a delta re-sweep finds them by listing it — the path is the index.

    ``max_bytes`` bounds the tree size: after every save, the
    oldest-mtime entries are evicted until the total fits.  Loads refresh
    entry mtimes, so eviction order is least-recently-*used* — the same
    policy the nightly CI prune applies on a 14-day horizon, but enforced
    inline so a long-lived daemon cannot grow the store without bound.
    ``None`` (the default) keeps the historical unbounded behavior.
    Directories are never removed: an ``rmdir`` would race a concurrent
    save's temp file; the CI prune sweeps up empty ones.

    Counter updates and eviction hold an internal lock: the tuning daemon
    shares one store across its handler threads.
    """

    def __init__(self, root: str | Path, *, max_bytes: int | None = None) -> None:
        # expanduser: tilde paths arrive unexpanded from CI yaml env blocks,
        # .env files and the like — without this the cache lands in ./~ .
        self.root = Path(root).expanduser()
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()  # counters only: held briefly
        self._evict_lock = threading.Lock()  # serializes budget scans
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.rejected = 0
        self.evictions = 0
        self.delta_hits = 0

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:32] / f"{digest}{SUFFIX}"

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def load(self, digest: str, version: int | str) -> dict | None:
        """Deserialize one payload measured under cost-model ``version``.

        Returns ``None`` on a clean miss.  A present-but-unusable entry
        (corrupt file, another cost-model version, wrong digest,
        inconsistent arrays) raises :class:`CacheMismatch` — callers
        recompute and overwrite, never silently reuse.
        """
        path = self.path_for(digest)
        try:
            payload = read_payload(path, digest=digest, version=version)
        except FileNotFoundError:
            # No entry, or evicted (or pruned by another process) since it
            # was written: a clean miss, not corruption.
            with self._lock:
                self.misses += 1
            obs.add_event("store.miss", digest=digest)
            return None
        except CacheMismatch:
            with self._lock:
                self.rejected += 1
            obs.add_event("store.mismatch", digest=digest)
            raise
        with self._lock:
            self.hits += 1
        obs.add_event("store.hit", digest=digest)
        _touch(path)
        return payload

    def save(self, digest: str, payload: dict) -> Path:
        """Atomically persist one payload under its digest.

        Serialization lives in :func:`pack_payload_bytes`; this adds the
        atomic tmp-then-replace dance, counters and budget eviction.
        """
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = pack_payload_bytes(digest, payload)
        atomic_write(path, lambda fh: fh.write(data))
        with self._lock:
            self.saves += 1
        if self.max_bytes is not None:
            # Own lock: the O(entries) tree scan must not block the
            # counter updates of concurrent loads.
            with self._evict_lock:
                self._evict_over_budget(keep=path)
        return path

    def load_structural(self, structural: str, version: int | str) -> dict | None:
        """A validated twin to ``structural`` under ``version``, or None.

        Lists the ``structural`` directory in name order and returns the
        first entry that decodes against its own file name.  Every twin's
        skeleton is identical (it is a function of the structural key
        alone), so any valid one serves; a corrupt, version-mismatched or
        vanished twin is skipped for the next.  It is decoded and checked
        like any entry.  Deliberately does not touch hits/misses: those
        count exact lookups, and a structural probe follows an exact miss.
        """
        directory = self.root / structural
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return None
        for name in names:
            digest, ext = os.path.splitext(name)
            if ext != SUFFIX or not digest.startswith(structural):
                continue
            path = directory / name
            try:
                payload = read_payload(path, digest=digest, version=version)
            except (CacheMismatch, OSError):
                continue
            _touch(path)
            return payload
        return None

    def record_delta_hit(self) -> None:
        """Count one successful delta re-sweep served from this store."""
        with self._lock:
            self.delta_hits += 1

    def _evict_over_budget(self, *, keep: Path) -> None:
        """Delete oldest-mtime entries until the store fits ``max_bytes``.

        Runs under ``self._evict_lock``.  The just-written entry is never evicted
        (even when it alone exceeds the budget): the caller is about to use
        it, and evicting it would turn every save into a
        save-evict-recompute loop.  Entries *newer* than it are skipped for
        the same reason — under concurrent saves they are other threads'
        just-written entries.  Every entry file under the root counts —
        format-4 ``.npz`` files and flat leftovers of older layouts too — so
        they age out under the budget.
        """
        try:
            keep_mtime = keep.stat().st_mtime
        except OSError:  # pragma: no cover - raced with another process
            keep_mtime = float("inf")
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in self._entry_files():
            try:
                st = path.stat()
            except OSError:  # pragma: no cover - raced with another process
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if total <= self.max_bytes:
            return
        entries.sort(key=lambda e: (e[0], e[2].name))
        for mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            if path == keep or mtime > keep_mtime:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced with another process
                continue
            total -= size
            with self._lock:
                self.evictions += 1
            obs.add_event("store.evict", digest=path.stem)

    def _entry_files(self):
        """Every entry file under the root, of this format or a legacy one."""
        return (
            p for p in self.root.rglob("*") if p.suffix in (SUFFIX, LEGACY_SUFFIX)
        )

    def stats(self) -> dict[str, int]:
        entries = sum(1 for _ in self._entry_files()) if self.root.is_dir() else 0
        return {"entries": entries, **{k: getattr(self, k) for k in _COUNTERS}}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepStore({str(self.root)!r})"


def _touch(path: Path) -> None:
    """Refresh ``path``'s mtime so age-based pruning (eviction, the nightly
    CI prune) tracks last *use*, not last write."""
    try:
        os.utime(path)
    except OSError:  # pragma: no cover - read-only stores are fine
        pass


# ---------------------------------------------------------------------------
# The process-active store (L2 under the payload L1)
# ---------------------------------------------------------------------------

_UNSET = object()
_ACTIVE: SweepStore | None | object = _UNSET


def set_sweep_store(store: SweepStore | str | Path | None) -> SweepStore | None:
    """Install (or disable, with ``None``) the process-active L2 store."""
    global _ACTIVE
    if store is not None and not isinstance(store, SweepStore):
        store = SweepStore(store, max_bytes=_env_max_bytes())
    _ACTIVE = store
    return store


def _env_max_bytes() -> int | None:
    """``REPRO_SWEEP_STORE_MAX_BYTES`` as an eviction budget (None: unbounded)."""
    value = env_number(MAX_BYTES_ENV_VAR, 0, int)
    return value if value > 0 else None


def get_sweep_store() -> SweepStore | None:
    """The active L2 store; first call resolves ``REPRO_SWEEP_STORE``
    (and its eviction budget, ``REPRO_SWEEP_STORE_MAX_BYTES``)."""
    global _ACTIVE
    if _ACTIVE is _UNSET:
        path = os.environ.get(STORE_ENV_VAR, "").strip()
        _ACTIVE = SweepStore(path, max_bytes=_env_max_bytes()) if path else None
    return _ACTIVE  # type: ignore[return-value]


def sweep_store_stats() -> dict[str, int]:
    """Counters of the active store (zeros when no store is configured)."""
    store = get_sweep_store()
    if store is None:
        return dict.fromkeys(("entries", *_COUNTERS), 0)
    return store.stats()

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

Payloads are ``.npz`` files holding the *evaluation-order* timing arrays,
the stable-sort permutation, and the (name-free) layout choice tables
needed to rebuild configurations lazily — binary float64, so a round-trip
is bit-identical to a fresh :func:`~repro.autotuner.tuner.sweep_op_reference`
run.  A mismatched or corrupt entry raises
:class:`CacheMismatch` and is recomputed (and overwritten), never
silently reused.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import asdict
from functools import lru_cache
from math import prod
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

from .batched import evaluate_contraction, evaluate_kernel, kernel_jitter_units
from .space import (
    ContractionSpace,
    KernelSpace,
    enumerate_contraction_space,
    enumerate_kernel_space,
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
    "read_payload_npz",
    "set_sweep_store",
    "space_from_payload",
    "structural_sweep_digest",
    "sweep_digest",
    "sweep_store_stats",
    "write_payload_npz",
]


class CacheMismatch(ValueError):
    """A stored sweep (or schedule) does not match what this process would
    compute: another cost-model version, payload format or digest, or a
    corrupt entry.  Callers recompute; they never reuse it."""


#: Payload layout version; bump when the npz schema changes.  Format 2 adds
#: the delta-re-sweep skeleton: the structural digest, the persisted GEMM
#: structures of contraction triples, the kernel jitter units, and int32
#: packing of the index matrix.  Format-1 entries are rejected with
#: :class:`CacheMismatch` and recomputed, exactly like a cost-model bump.
PAYLOAD_FORMAT = 2

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


@lru_cache(maxsize=4096)
def _kernel_space_size(op: OpSpec, env: DimEnv) -> int:
    """Full (uncapped) kernel config-space size, cached per (op, env).

    Digest computation needs only the size to decide whether ``cap``
    binds; caching it avoids re-enumerating the space that
    ``compute_payload`` enumerates anyway.
    """
    layout_choices, vec_choices, warp_choices = kernel_space(op, env)
    sizes = [len(c) for c in layout_choices] + [len(vec_choices), len(warp_choices)]
    return prod(sizes)


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


def canonical_sweep_key(
    op: OpSpec, env: DimEnv, cost: CostModel, *, cap: int | None, seed: int
) -> dict:
    """The canonical (JSON-able) identity of one sweep under ``cost``."""
    include_name = op.op_class is not OpClass.TENSOR_CONTRACTION
    return {
        "format": PAYLOAD_FORMAT,
        "version": cost.version,
        "op": _op_signature(op, include_name=include_name),
        "env": sorted((d, env[d]) for d in _op_dims(op)),
        "gpu": asdict(cost.gpu),
        "knobs": _effective_knobs(op, env, cap=cap, seed=seed),
    }


def sweep_digest(
    op: OpSpec, env: DimEnv, cost: CostModel, *, cap: int | None, seed: int
) -> str:
    """Stable content digest of one sweep (process- and session-independent)."""
    key = canonical_sweep_key(op, env, cost, cap=cap, seed=seed)
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def canonical_structural_key(
    op: OpSpec, env: DimEnv, cost: CostModel, *, cap: int | None, seed: int
) -> dict:
    """The exact sweep key with dim *sizes* abstracted away.

    Two sweeps share a structural key iff they differ only in the sizes
    bound to the op's dims — same op signature, GPU and effective sampling
    knobs.  Everything that shapes the enumerated config space (layout
    choices, feasibility masks, sampled index rows, jitter keys) is a
    function of this key alone, which is what makes the delta re-sweep
    sound: on a structural hit only the size-dependent arrays (flops,
    bytes, times) need recomputing.  The knobs are structural too:
    whether ``cap`` binds depends on the choice-list lengths, never on
    sizes.
    """
    key = canonical_sweep_key(op, env, cost, cap=cap, seed=seed)
    key["env"] = sorted(_op_dims(op))  # names only; sizes abstracted
    key["structural"] = True
    return key


def structural_sweep_digest(
    op: OpSpec, env: DimEnv, cost: CostModel, *, cap: int | None, seed: int
) -> str:
    """Digest of :func:`canonical_structural_key` (the delta-re-sweep key)."""
    key = canonical_structural_key(op, env, cost, cap=cap, seed=seed)
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


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


def _finish_payload(
    op: OpSpec, times, extra: dict, structural: str, cost: CostModel
) -> dict:
    """Sort and package evaluated times into the serializable payload form."""
    order = np.argsort(times.total_us, kind="stable")
    payload = {
        "format": PAYLOAD_FORMAT,
        "version": cost.version,
        "op_name": op.name,
        "structural": structural,
        "launch_us": times.launch_us,
        "compute_us": times.compute_us,
        "memory_us": times.memory_us,
        "order": order,
        "sorted_totals": times.total_us[order],
    }
    payload.update(extra)
    return payload


def compute_payload(
    op: OpSpec, env: DimEnv, cost: CostModel, *, cap: int | None, seed: int
) -> dict:
    """Enumerate and batch-evaluate one sweep under ``cost`` into its payload.

    The payload carries the evaluation-order timing arrays, the stable-sort
    permutation, and name-free layout choice tables — everything needed to
    rebuild the sweep lazily for *any* structurally identical operator
    without re-running the roofline.  Format 2 also persists the
    size-independent skeleton (GEMM structures, kernel jitter units, the
    structural digest) so a later sweep of the same op at *different* dim
    sizes can delta-re-sweep instead of starting cold.
    """
    structural = structural_sweep_digest(op, env, cost, cap=cap, seed=seed)
    if op.op_class is OpClass.TENSOR_CONTRACTION:
        space = enumerate_contraction_space(op, env)
        layout_units = contraction_layout_units(op, space.triples)
        times = evaluate_contraction(
            space, env, cost.gpu, cost.params, layout_units=layout_units
        )
        extra = {
            "kind": "contraction",
            "triples": [
                [list(la.dims), list(lb.dims), list(lc.dims)]
                for la, lb, lc, _shape in space.triples
            ],
            "structures": _contraction_structures(op),
            "triple_idx": space.triple_idx,
            "tc_flags": space.tc_flags,
            "algos": space.algos,
            "layout_units": layout_units,
        }
    else:
        space = enumerate_kernel_space(op, env, cap=cap, seed=seed)
        units = kernel_jitter_units(space)
        times = evaluate_kernel(space, env, cost.gpu, cost.params, units=units)
        extra = {
            "kind": "kernel",
            "layout_choices": [
                [list(l.dims) for l in choices] for choices in space.layout_choices
            ],
            "vec_choices": list(space.vec_choices),
            "warp_choices": list(space.warp_choices),
            "idx": space.idx,
            "units": units,
        }
    return _finish_payload(op, times, extra, structural, cost)


def compute_payload_delta(
    op: OpSpec,
    env: DimEnv,
    cost: CostModel,
    *,
    cap: int | None,
    seed: int,
    base: dict,
    structural: str | None = None,
) -> dict:
    """Re-evaluate a structural twin's skeleton at new dim sizes.

    ``base`` is a stored payload whose structural digest matches this
    sweep's (same op signature, GPU and knobs — only dim sizes differ).
    The enumerated space is rebuilt from the persisted skeleton — layout
    tables, index rows, GEMM structures, jitter units — and only the
    size-dependent arrays (flops, bytes, times, sort) are recomputed, so
    the result is bit-identical to a cold :func:`compute_payload` while
    skipping the feasibility scan, the config sampling and the jitter
    hashing.  Raises :class:`CacheMismatch` when ``base`` is not actually
    a usable twin (wrong kind, wrong structural digest, missing skeleton);
    callers fall back to a cold sweep.  ``structural`` optionally passes
    the already-computed structural digest of this sweep.
    """
    if structural is None:
        structural = structural_sweep_digest(op, env, cost, cap=cap, seed=seed)
    if base.get("structural") != structural:
        raise CacheMismatch(
            f"delta base declares structural digest {base.get('structural')!r}, "
            f"expected {structural!r}"
        )
    if op.op_class is OpClass.TENSOR_CONTRACTION:
        if base.get("kind") != "contraction":
            raise CacheMismatch("delta base is not a contraction payload")
        structures = base.get("structures")
        if structures is None or len(structures) != len(base["triples"]):
            raise CacheMismatch("delta base lacks usable GEMM structures")
        layout_units = base.get("layout_units")
        if layout_units is None or layout_units.shape[0] != len(base["triples"]):
            raise CacheMismatch("delta base lacks usable layout units")
        shapes = shapes_from_structures(structures, env)
        space = ContractionSpace(
            op=op,
            triples=[
                (_layout(tuple(la)), _layout(tuple(lb)), _layout(tuple(lc)), shape)
                for (la, lb, lc), shape in zip(base["triples"], shapes)
            ],
            triple_idx=base["triple_idx"],
            tc_flags=base["tc_flags"],
            algos=base["algos"],
        )
        times = evaluate_contraction(
            space, env, cost.gpu, cost.params, layout_units=layout_units
        )
        extra = {
            "kind": "contraction",
            "triples": base["triples"],
            "structures": structures,
            "triple_idx": base["triple_idx"],
            "tc_flags": base["tc_flags"],
            "algos": base["algos"],
            "layout_units": layout_units,
        }
    else:
        if base.get("kind") != "kernel":
            raise CacheMismatch("delta base is not a kernel payload")
        units = base.get("units")
        if units is None or units.shape[0] != base["order"].shape[0]:
            raise CacheMismatch("delta base lacks usable jitter units")
        space = space_from_payload(op, base)
        times = evaluate_kernel(space, env, cost.gpu, cost.params, units=units)
        extra = {
            "kind": "kernel",
            "layout_choices": base["layout_choices"],
            "vec_choices": base["vec_choices"],
            "warp_choices": base["warp_choices"],
            "idx": base["idx"],
            "units": units,
        }
    return _finish_payload(op, times, extra, structural, cost)


@lru_cache(maxsize=4096)
def _layout(dims: tuple[str, ...]) -> Layout:
    """Shared frozen Layout instances (payload tables repeat few layouts)."""
    return Layout(dims)


def space_from_payload(op: OpSpec, payload: dict) -> ContractionSpace | KernelSpace:
    """Rebuild the config-space view of a payload for ``op``.

    Configurations materialize with ``op``'s name, which is how one stored
    contraction payload serves every structurally identical operator.  The
    per-triple ``GemmShape`` is not persisted (``config_at`` never reads
    it), so reconstructed contraction triples carry ``None`` there.
    """
    if payload["kind"] == "contraction":
        return ContractionSpace(
            op=op,
            triples=[
                (_layout(tuple(la)), _layout(tuple(lb)), _layout(tuple(lc)), None)
                for la, lb, lc in payload["triples"]
            ],
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


_ARRAY_KEYS = ("compute_us", "memory_us", "order", "sorted_totals")
_CONTRACTION_ARRAYS = ("triple_idx", "tc_flags", "algos")


def _index_in_range(idx: np.ndarray, size: int) -> bool:
    return bool(((idx >= 0) & (idx < size)).all())


def _validate_payload(
    payload: dict,
    digest: str | None,
    path: Path | str,
    version: int | str | None,
    *,
    skeleton_only: bool = False,
) -> None:
    """Structural sanity of a deserialized payload; raises CacheMismatch.

    Every index array is bounds-checked against its choice table so a
    corrupted entry surfaces here — never as a silently wrong (or
    end-relative) configuration at measurement-access time.  ``version``
    is the cost-model version of the caller's snapshot the payload must
    be stamped with (``None``: any — only a client, which serves no
    model, decodes that way).  ``skeleton_only`` validates a payload read
    without its time matrix (see :func:`read_payload_npz`): all skeleton
    checks still run, the time-array ones are skipped.
    """
    where = f"sweep-store entry {path}"
    if payload.get("format") != PAYLOAD_FORMAT:
        raise CacheMismatch(
            f"{where} uses payload format {payload.get('format')!r}, "
            f"not {PAYLOAD_FORMAT!r}"
        )
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
    if not isinstance(payload.get("structural"), str) or not payload["structural"]:
        raise CacheMismatch(f"{where} carries no structural digest")
    n = payload["order"].shape[0]
    for key in _ARRAY_KEYS if not skeleton_only else ("order",):
        if payload[key].shape[0] != n:
            raise CacheMismatch(f"{where}: array {key!r} has inconsistent length")
    if not _index_in_range(payload["order"], n or 1):
        raise CacheMismatch(f"{where}: sort permutation out of range")
    if payload["kind"] == "contraction":
        for key in _CONTRACTION_ARRAYS:
            if payload[key].shape[0] != n:
                raise CacheMismatch(f"{where}: array {key!r} has inconsistent length")
        if not _index_in_range(payload["triple_idx"], len(payload["triples"])):
            raise CacheMismatch(f"{where}: triple index out of range")
        if not _index_in_range(payload["algos"], NUM_GEMM_ALGORITHMS):
            raise CacheMismatch(f"{where}: algorithm index out of range")
        structures = payload.get("structures")
        if not isinstance(structures, list) or len(structures) != len(
            payload["triples"]
        ):
            raise CacheMismatch(f"{where}: GEMM structures inconsistent with triples")
        lu = payload.get("layout_units")
        t = len(payload["triples"])
        if (
            not isinstance(lu, np.ndarray)
            or lu.shape != (t,)
            or (t and not bool(((lu >= 0.0) & (lu < 1.0)).all()))
        ):
            raise CacheMismatch(f"{where}: layout units missing or out of range")
    elif payload["kind"] == "kernel":
        idx = payload["idx"]
        sizes = [len(c) for c in payload["layout_choices"]] + [
            len(payload["vec_choices"]),
            len(payload["warp_choices"]),
        ]
        if idx.shape[0] != n or idx.shape[1] != len(sizes):
            raise CacheMismatch(f"{where}: array 'idx' has inconsistent shape")
        for col, size in enumerate(sizes):
            if not _index_in_range(idx[:, col], size):
                raise CacheMismatch(f"{where}: knob index column {col} out of range")
        units = payload.get("units")
        if (
            not isinstance(units, np.ndarray)
            or units.shape != (n,)
            or (n and not bool(((units >= 0.0) & (units < 1.0)).all()))
        ):
            raise CacheMismatch(f"{where}: jitter units missing or out of range")
    else:
        raise CacheMismatch(f"{where}: unknown payload kind {payload['kind']!r}")


# ---------------------------------------------------------------------------
# The npz serialization (shared by the store and the packed wire path)
# ---------------------------------------------------------------------------

def write_payload_npz(fh, digest: str, payload: dict) -> None:
    """Serialize one payload to an open binary file in the store's format.

    Three array members: the per-config time matrix ``F`` (float64 —
    bit-exactness), the index matrix ``I``, and the size-independent
    skeleton floats ``T`` (layout-factor units per triple for contractions,
    jitter units per config for kernels).  Keeping the skeleton out of
    ``F`` lets a structural (delta-re-sweep) load skip the time matrix
    entirely — the base sweep's times are dead weight there.  ``I`` is
    stored int32 when its values fit (they are indices into small choice
    tables, so they always do in practice): half the bytes on disk and on
    the packed wire, widened back to int64 on read.
    """
    floats = np.vstack(
        [payload["compute_us"], payload["memory_us"], payload["sorted_totals"]]
    )
    if payload["kind"] == "contraction":
        ints = np.vstack(
            [
                payload["order"],
                payload["triple_idx"],
                payload["algos"],
                payload["tc_flags"].astype(np.int64),
            ]
        )
        skeleton = payload["layout_units"]
    else:
        ints = np.vstack([payload["order"], payload["idx"].T])
        skeleton = payload["units"]
    if ints.size == 0 or (
        ints.min() >= np.iinfo(np.int32).min and ints.max() <= np.iinfo(np.int32).max
    ):
        ints = ints.astype(np.int32)
    meta = {k: v for k, v in payload.items() if not isinstance(v, np.ndarray)}
    meta["digest"] = digest
    np.savez(fh, meta=json.dumps(meta), F=floats, I=ints, T=skeleton)


def read_payload_npz(source, *, skeleton_only: bool = False) -> dict:
    """Deserialize one payload from a path or binary file-like object.

    Inverse of :func:`write_payload_npz`; also how a client decodes the
    packed ``/v1/sweep`` response (the wire bytes *are* the stored file).
    ``skeleton_only`` skips the time matrix — a delta re-sweep discards the
    base sweep's times, and ``F`` is the largest member of the file — so
    the returned payload lacks ``compute_us``/``memory_us``/
    ``sorted_totals`` and must not be served as a sweep.
    """
    with np.load(source, allow_pickle=False) as z:
        payload = dict(json.loads(str(z["meta"][()])))
        ints = z["I"].astype(np.int64)
        skeleton = z["T"] if "T" in z.files else None
        if not skeleton_only:
            floats = z["F"]
            payload["compute_us"] = floats[0]
            payload["memory_us"] = floats[1]
            payload["sorted_totals"] = floats[2]
    payload["order"] = ints[0]
    if payload.get("kind") == "contraction":
        payload["triple_idx"] = ints[1]
        payload["algos"] = ints[2]
        payload["tc_flags"] = ints[3] != 0
        if skeleton is not None:
            payload["layout_units"] = skeleton
    else:
        payload["idx"] = ints[1:].T
        if skeleton is not None:
            payload["units"] = skeleton
    return payload


def pack_payload_bytes(digest: str, payload: dict) -> bytes:
    """One payload as in-memory npz bytes (the packed wire fallback when
    the response cannot be streamed straight from a store file)."""
    import io

    buf = io.BytesIO()
    write_payload_npz(buf, digest, payload)
    return buf.getvalue()


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

class SweepStore:
    """A directory of content-addressed ``.npz`` sweep payloads.

    ``max_bytes`` bounds the directory size: after every save, the
    oldest-mtime entries are evicted until the total fits.  Loads refresh
    entry mtimes, so eviction order is least-recently-*used* — the same
    policy the nightly CI prune applies on a 14-day horizon, but enforced
    inline so a long-lived daemon cannot grow the store without bound.
    ``None`` (the default) keeps the historical unbounded behavior.

    Counter updates and eviction hold an internal lock: the tuning daemon
    shares one store across its handler threads.

    A sidecar JSON map (``structural.json``) indexes structural digests to
    the exact digest most recently saved under each, so a delta-re-sweep
    lookup never scans the directory.  The index is maintained on every
    save and eviction; a stale entry (its npz pruned externally) is
    self-healing — dropped on the first failed lookup.
    """

    #: Sidecar file mapping structural digest -> exact digest of a twin.
    INDEX_NAME = "structural.json"

    def __init__(self, root: str | Path, *, max_bytes: int | None = None) -> None:
        # expanduser: tilde paths arrive unexpanded from CI yaml env blocks,
        # .env files and the like — without this the cache lands in ./~ .
        self.root = Path(root).expanduser()
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()  # counters only: held briefly
        self._evict_lock = threading.Lock()  # serializes budget scans
        self._index_lock = threading.Lock()  # guards the structural index
        self._index: dict[str, str] | None = None  # lazily loaded sidecar
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.rejected = 0
        self.evictions = 0
        self.delta_hits = 0

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.npz"

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

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
        if not path.exists():
            with self._lock:
                self.misses += 1
            obs.add_event("store.miss", digest=digest)
            return None
        try:
            payload = self._read(path)
            _validate_payload(payload, digest, path, version)
        except CacheMismatch:
            with self._lock:
                self.rejected += 1
            obs.add_event("store.mismatch", digest=digest)
            raise
        except FileNotFoundError:
            # Evicted (or pruned by another process) between the exists()
            # check and the read: a clean miss, not corruption.
            with self._lock:
                self.misses += 1
            obs.add_event("store.miss", digest=digest)
            return None
        except Exception as exc:
            with self._lock:
                self.rejected += 1
            obs.add_event("store.mismatch", digest=digest)
            raise CacheMismatch(f"corrupt sweep-store entry {path}: {exc}") from exc
        with self._lock:
            self.hits += 1
        obs.add_event("store.hit", digest=digest)
        try:
            # Refresh mtime so age-based pruning (e.g. nightly CI) tracks
            # last *use*, not last write.
            os.utime(path)
        except OSError:  # pragma: no cover - read-only stores are fine
            pass
        return payload

    def save(self, digest: str, payload: dict) -> Path:
        """Atomically persist one payload under its digest.

        Serialization lives in :func:`write_payload_npz`; this adds the
        atomic tmp-then-replace dance, counters, the structural sidecar
        update and budget eviction.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(digest)
        atomic_write(path, lambda fh: write_payload_npz(fh, digest, payload))
        with self._lock:
            self.saves += 1
        structural = payload.get("structural")
        if isinstance(structural, str) and structural:
            with self._index_lock:
                index = self._load_index_locked()
                if index.get(structural) != digest:
                    index[structural] = digest
                    self._persist_index_locked(index)
        if self.max_bytes is not None:
            # Own lock: the O(entries) directory scan must not block the
            # counter updates of concurrent loads.
            with self._evict_lock:
                self._evict_over_budget(keep=path)
        return path

    # -- structural sidecar index ------------------------------------------

    def _load_index_locked(self) -> dict[str, str]:
        """The structural map; lazily read.  Caller holds ``_index_lock``."""
        if self._index is None:
            try:
                raw = json.loads(self.index_path.read_text())
                # A corrupt or foreign file degrades to an empty map — the
                # index is a pure accelerator, npz entries stay canonical.
                self._index = {
                    k: v
                    for k, v in raw.items()
                    if isinstance(k, str) and isinstance(v, str)
                } if isinstance(raw, dict) else {}
            except (OSError, ValueError):
                self._index = {}
        return self._index

    def _persist_index_locked(self, index: dict[str, str]) -> None:
        """Atomically rewrite the sidecar.  Caller holds ``_index_lock``.

        Last-writer-wins across processes: a clobbered mapping merely
        points a structural digest at a different (equally valid) twin,
        and a stale one self-heals in :meth:`load_structural`.
        """
        blob = json.dumps(index, sort_keys=True).encode("utf-8")
        try:
            atomic_write(self.index_path, lambda fh: fh.write(blob))
        except OSError:  # pragma: no cover - read-only stores are fine
            pass

    def _drop_index_entries(self, exact_digests: set[str]) -> None:
        """Drop sidecar entries pointing at the given exact digests."""
        if not exact_digests:
            return
        with self._index_lock:
            index = self._load_index_locked()
            stale = [k for k, v in index.items() if v in exact_digests]
            if stale:
                for k in stale:
                    del index[k]
                self._persist_index_locked(index)

    def load_structural(self, structural: str, version: int | str) -> dict | None:
        """A validated skeleton twin to ``structural`` under ``version``, or None.

        Read in skeleton-only mode: the base sweep's *times* are dead
        weight for a delta re-sweep (they are recomputed at the new dim
        sizes), so the time matrix is never deserialized and the returned
        payload must only feed :func:`compute_payload_delta`.  Any failure
        — missing index entry, pruned npz, corrupt or version-mismatched
        payload, structural-digest mismatch — drops the sidecar entry and
        returns ``None``; the caller falls back to a cold sweep.
        Deliberately does not touch hits/misses: those count exact lookups,
        and a structural probe always follows an exact miss.
        """
        with self._index_lock:
            exact = self._load_index_locked().get(structural)
        if exact is None:
            return None
        path = self.path_for(exact)
        try:
            payload = read_payload_npz(path, skeleton_only=True)
            _validate_payload(payload, exact, path, version, skeleton_only=True)
            if payload.get("structural") != structural:
                raise CacheMismatch(
                    f"sidecar entry {structural[:12]} points at {path} whose "
                    f"structural digest differs"
                )
        except Exception:
            self._drop_index_entries({exact})
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - read-only stores are fine
            pass
        return payload

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
        just-written entries.
        """
        if self.max_bytes is None:
            return
        try:
            keep_mtime = keep.stat().st_mtime
        except OSError:  # pragma: no cover - raced with another process
            keep_mtime = float("inf")
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in self.root.glob("*.npz"):
            try:
                st = path.stat()
            except OSError:  # pragma: no cover - raced with another process
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if total <= self.max_bytes:
            return
        entries.sort(key=lambda e: (e[0], e[2].name))
        evicted: set[str] = set()
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
            evicted.add(path.stem)
            with self._lock:
                self.evictions += 1
            obs.add_event("store.evict", digest=path.stem)
        # Evicting an npz also drops its structural sidecar entry, so a
        # structural lookup never dereferences a digest known to be gone.
        self._drop_index_entries(evicted)

    @staticmethod
    def _read(path: Path) -> dict:
        return read_payload_npz(path)

    def stats(self) -> dict[str, int]:
        entries = (
            sum(1 for _ in self.root.glob("*.npz")) if self.root.is_dir() else 0
        )
        return {
            "entries": entries,
            "hits": self.hits,
            "misses": self.misses,
            "saves": self.saves,
            "rejected": self.rejected,
            "evictions": self.evictions,
            "delta_hits": self.delta_hits,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepStore({str(self.root)!r})"


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
    raw = os.environ.get(MAX_BYTES_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{MAX_BYTES_ENV_VAR} must be an integer byte count, got {raw!r}"
        ) from None
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
        return {
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "saves": 0,
            "rejected": 0,
            "evictions": 0,
            "delta_hits": 0,
        }
    return store.stats()

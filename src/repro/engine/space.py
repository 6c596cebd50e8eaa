"""Structure-of-arrays enumeration of operator configuration spaces.

The scalar sweep materializes one :class:`~repro.layouts.config.OpConfig`
object per point and re-derives everything (einsum parse, GEMM mapping,
layout factors) inside the per-config loop.  The engine instead enumerates
each operator's space *once* into flat index arrays over small per-knob
choice tables:

* contractions: an array of feasible layout-triple indices crossed with
  tensor-core mode and GEMM algorithm;
* memory-bound kernels: one layout-index column per operand plus columns
  for the vectorization and warp-reduce dimension choices.

Enumeration order matches :mod:`repro.layouts.configspace`: contraction
triples come verbatim from `contraction_triples`, and kernel index rows
from :func:`repro.engine.sampling.kernel_index_array`, the vectorized twin
of `kernel_config_indices`.  Equal order is what lets the engine's stable
sort reproduce the reference sweep's tie-breaking exactly.  ``OpConfig``
objects are only built lazily, on measurement access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.ir.dims import DimEnv
from repro.ir.operator import OpSpec
from repro.layouts.config import NUM_GEMM_ALGORITHMS, OpConfig
from repro.layouts.configspace import contraction_triples, kernel_space
from repro.layouts.gemm_mapping import GemmShape, _shape_from_structure
from repro.layouts.layout import Layout

from .sampling import kernel_index_array

__all__ = [
    "ContractionSpace",
    "KernelSpace",
    "enumerate_contraction_space",
    "enumerate_kernel_space",
    "kernel_knob_sizes",
    "shapes_from_structures",
    "slot_id_rows",
]


@dataclass
class ContractionSpace:
    """A contraction's config space in structure-of-arrays form.

    Its feasible ``(layout_a, layout_b, layout_c)`` triples are interned per
    operand slot: ``layouts[s]`` holds the distinct layouts slot ``s``
    (A, B, then C) takes, in first-seen order — at most rank! of them,
    where a space has hundreds of triples — and ``triple_layouts[s, t]`` is
    triple ``t``'s id into that list.  Their GEMM shapes are interned the
    same way: a handful of distinct ``shapes`` and ``triple_shapes[t]``.
    """

    op: OpSpec
    #: Per operand slot, its distinct layouts.
    layouts: list[list[Layout]]
    #: ``(3, num_triples)`` per-slot ids into :attr:`layouts`.
    triple_layouts: np.ndarray
    #: The distinct GEMM shapes of the triples; ``None`` when rebuilt from a
    #: payload, which does not persist them (``config_at`` never reads them).
    shapes: list[GemmShape] | None
    #: Per-triple id into :attr:`shapes` (``None`` with it).
    triple_shapes: np.ndarray | None
    #: Per-config index into the triples.
    triple_idx: np.ndarray
    #: Per-config requested tensor-core mode.
    tc_flags: np.ndarray
    #: Per-config GEMM algorithm id.
    algos: np.ndarray

    @property
    def num_configs(self) -> int:
        return int(self.triple_idx.shape[0])

    def config_at(self, j: int) -> OpConfig:
        """Materialize the ``j``-th config (enumeration order)."""
        t = int(self.triple_idx[j])
        la, lb, lc = (self.layouts[s][self.triple_layouts[s, t]] for s in range(3))
        return OpConfig(
            op_name=self.op.name,
            input_layouts=(la, lb),
            output_layouts=(lc,),
            algorithm=int(self.algos[j]),
            use_tensor_cores=bool(self.tc_flags[j]),
        )


def slot_id_rows(flat_ids: list[int], vocab_size: int) -> np.ndarray:
    """``(3, num_triples)`` slot ids from their triple-major flat list, in
    the narrowest unsigned dtype a vocabulary of ``vocab_size`` fits."""
    ids = np.array(flat_ids, dtype=np.min_scalar_type(vocab_size))
    return np.ascontiguousarray(ids.reshape(-1, 3).T)


@dataclass
class KernelSpace:
    """A memory-bound kernel's config space in structure-of-arrays form."""

    op: OpSpec
    #: One layout choice list per operand (inputs then outputs).
    layout_choices: list[list[Layout]]
    vec_choices: list[str | None]
    warp_choices: list[str | None]
    #: ``(num_configs, num_operands + 2)`` knob indices, enumeration order;
    #: the last two columns are the vector and warp-reduce choice.  ``int32``
    #: with contiguous columns: the ``.T`` view of a knob-major array, as
    #: the sampler draws it and the store writes it.
    idx: np.ndarray

    @property
    def num_configs(self) -> int:
        return int(self.idx.shape[0])

    @property
    def num_operands(self) -> int:
        return len(self.layout_choices)

    def config_at(self, j: int) -> OpConfig:
        """Materialize the ``j``-th config (enumeration order)."""
        row = self.idx[j]
        n_in = len(self.op.inputs)
        layouts = [self.layout_choices[o][int(row[o])] for o in range(self.num_operands)]
        return OpConfig(
            op_name=self.op.name,
            input_layouts=tuple(layouts[:n_in]),
            output_layouts=tuple(layouts[n_in:]),
            vector_dim=self.vec_choices[int(row[-2])],
            warp_reduce_dim=self.warp_choices[int(row[-1])],
        )


def enumerate_contraction_space(op: OpSpec, env: DimEnv) -> ContractionSpace:
    """Enumerate a contraction's feasible configs into arrays.

    The GEMM mapping runs once per layout triple here; the scalar path
    re-runs it for each of the triple's ``2 * NUM_GEMM_ALGORITHMS`` configs.
    """
    found = list(contraction_triples(op, env))
    t = len(found)
    # Intern each slot's layouts and the shapes in the pass that reads the
    # triples.
    a, b, c = vocab = ({}, {}, {})
    shapes: dict[GemmShape, int] = {}
    flat = [
        k
        for la, lb, lc, _shape in found
        for k in (a.setdefault(la, len(a)), b.setdefault(lb, len(b)), c.setdefault(lc, len(c)))
    ]
    triple_shapes = np.fromiter(
        (shapes.setdefault(shape, len(shapes)) for *_layouts, shape in found),
        dtype=np.intp,
        count=t,
    )
    per_triple = 2 * NUM_GEMM_ALGORITHMS
    # Order matches contraction_configs: triple-major, then tc in
    # (True, False), then algorithm ascending.
    triple_idx = np.repeat(np.arange(t, dtype=np.int64), per_triple)
    tc_flags = np.tile(
        np.repeat(np.array([True, False]), NUM_GEMM_ALGORITHMS), t
    )
    algos = np.tile(np.arange(NUM_GEMM_ALGORITHMS, dtype=np.int64), 2 * t)
    return ContractionSpace(
        op=op,
        layouts=[list(v) for v in vocab],
        triple_layouts=slot_id_rows(flat, max(map(len, vocab))),
        shapes=list(shapes),
        triple_shapes=triple_shapes,
        triple_idx=triple_idx,
        tc_flags=tc_flags,
        algos=algos,
    )


def shapes_from_structures(
    structures, env: DimEnv
) -> tuple[list[GemmShape], np.ndarray]:
    """Instantiate persisted GEMM-mapping structures at concrete dim sizes.

    ``structures`` is the JSON round-trip of the size-independent
    ``(m_group, n_group, k_group, batch_group, trans_a, trans_b)`` tuples
    of :func:`repro.layouts.gemm_mapping.feasible_triple_structures`, one
    per triple — the skeleton a delta re-sweep reuses instead of re-running
    the rank!^3 feasibility scan.  Returns the distinct shapes and each
    triple's id into them (:attr:`ContractionSpace.shapes` /
    ``triple_shapes``); each distinct structure is instantiated once.
    Shapes come out identical to a fresh enumeration because
    :func:`_shape_from_structure` is the single instantiation path.
    """
    distinct: dict[tuple, int] = {}
    ids = np.fromiter(
        (
            distinct.setdefault(
                (tuple(m), tuple(n), tuple(k), tuple(b), bool(ta), bool(tb)), len(distinct)
            )
            for m, n, k, b, ta, tb in structures
        ),
        dtype=np.intp,
        count=len(structures),
    )
    return [_shape_from_structure(st, env) for st in distinct], ids


@lru_cache(maxsize=4096)
def kernel_knob_sizes(op: OpSpec, env: DimEnv) -> tuple[int, ...]:
    """Choice count of each knob of a kernel's config space, cached per
    ``(op, env)``: one per operand layout, then the vector and warp-reduce
    dims.  It keys the sampler; its product is the full space's size."""
    layout_choices, vec_choices, warp_choices = kernel_space(op, env)
    return (*map(len, layout_choices), len(vec_choices), len(warp_choices))


def enumerate_kernel_space(
    op: OpSpec, env: DimEnv, *, cap: int | None, seed: int
) -> KernelSpace:
    """Enumerate a kernel's (possibly subsampled) configs into arrays."""
    layout_choices, vec_choices, warp_choices = kernel_space(op, env)
    return KernelSpace(
        op=op,
        layout_choices=layout_choices,
        vec_choices=vec_choices,
        warp_choices=warp_choices,
        idx=kernel_index_array(kernel_knob_sizes(op, env), cap=cap, seed=seed),
    )

"""Shared Hypothesis strategies for the engine, store, delta and codec suites.

Random operators with random dimension sizes: memory-bound kernels (with
their sampling knobs) and the contraction shapes the paper's encoder uses.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ir.dims import DimEnv
from repro.ir.iteration_space import IterationSpace
from repro.ir.operator import OpClass, OpSpec
from repro.ir.tensor import TensorSpec
from repro.ops.contraction import contraction_spec

#: Small-but-varied sizes; multiples of 8 appear so the 128-bit
#: vectorization and tensor-core divisibility branches both get exercised.
SIZES = [1, 2, 3, 4, 7, 8, 15, 16, 24, 32, 40, 64]

#: Contraction shapes covering plain GEMM, batched GEMM and the paper's
#: rank-4 attention contractions (operand dims differ per einsum).
EINSUMS = [
    ("mk,kn->mn", ("m", "k"), ("k", "n"), ("m", "n")),
    ("bmk,bkn->bmn", ("b", "m", "k"), ("b", "k", "n"), ("b", "m", "n")),
    ("phb,pwb->hwb", ("p", "h", "b"), ("p", "w", "b"), ("h", "w", "b")),
]


@st.composite
def kernel_ops(draw, sizes=st.sampled_from(SIZES)):
    """``(op, env, cap, seed)``: a random memory-bound op, elementwise or a
    normalization with a reduction, and its sampling knobs."""
    dims = tuple(
        draw(st.lists(st.sampled_from("abcde"), min_size=2, max_size=3, unique=True))
    )
    env = DimEnv({d: draw(sizes) for d in dims})
    reduce_last = draw(st.booleans())
    if reduce_last and len(dims) > 1:
        ispace = IterationSpace(dims[:-1], (dims[-1],))
        op_class = OpClass.STAT_NORMALIZATION
    else:
        ispace = IterationSpace(dims)
        op_class = OpClass.ELEMENTWISE
    inputs = [TensorSpec("x", dims)]
    if draw(st.integers(min_value=0, max_value=1)):
        # A broadcast (rank-1) side input, like a bias or per-dim scale.
        inputs.append(TensorSpec("s", (dims[0],)))
    op = OpSpec(
        name="k",
        op_class=op_class,
        inputs=tuple(inputs),
        outputs=(TensorSpec("y", dims),),
        ispace=ispace,
        flop_per_point=draw(st.sampled_from([0.0, 1.0, 2.0])),
    )
    cap = draw(st.sampled_from([None, 5, 17, 50]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return op, env, cap, seed


@st.composite
def contraction_ops(draw, sizes=st.sampled_from(SIZES)):
    """``(op, env)``: one of :data:`EINSUMS` at random sizes."""
    einsum, da, db, dc = draw(st.sampled_from(EINSUMS))
    env = DimEnv({d: draw(sizes) for d in sorted(set(da) | set(db) | set(dc))})
    return contraction_spec("c", einsum, ("a", "b"), "y"), env

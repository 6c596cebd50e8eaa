"""Shared Hypothesis strategies for the engine, store, delta, codec and
wire suites.

Random operators with random dimension sizes: memory-bound kernels (with
their sampling knobs) and the contraction shapes the paper's encoder uses;
and mutations of valid JSON documents, for the parsers of outside bytes.
"""

from __future__ import annotations

import copy

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


#: Values a mutated JSON field takes: every JSON type, boundary numbers,
#: the non-finite floats ``json.loads`` accepts, an integer beyond the
#: float range, and strings that spell other types.
JSON_ODDITIES = [
    None, True, False, 0, -1, 1, 7, 2**70, 10**400, 0.0, -0.5, 1.5,
    float("nan"), float("inf"), -float("inf"), "", "x", "false", "0",
    [], [0], ["x", 1], {}, {"x": 1},
]


def _json_paths(doc, prefix=()):
    """Every path to a value inside a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ()
    )
    for key, value in items:
        yield from _json_paths(value, (*prefix, key))


@st.composite
def json_mutations(draw, doc, max_edits: int = 2):
    """A deep copy of the JSON document ``doc`` with one or two edits: a
    value replaced by one of :data:`JSON_ODDITIES`, a field or item
    deleted, or an unknown field added to an object."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, max_edits))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        oddity = copy.deepcopy(draw(st.sampled_from(JSON_ODDITIES)))
        if not path:
            doc = oddity
            continue
        *parent_path, key = path
        parent = doc
        for step in parent_path:
            parent = parent[step]
        edit = draw(st.sampled_from(("replace", "delete", "add")))
        if edit == "delete":
            del parent[key]
        elif edit == "add" and isinstance(parent, dict):
            parent["unknown_field"] = oddity
        else:
            parent[key] = oddity
    return doc

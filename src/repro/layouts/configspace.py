"""Enumeration of the feasible configuration space per operator (Sec. V).

For contractions the space is: every layout permutation triple that maps to
a (batched) GEMM, crossed with every GEMM algorithm and tensor-core mode.
For fused / normalization / element-wise kernels: all combinations of
per-operand layout permutations crossed with vectorization and warp-reduce
dimension choices.

Full Cartesian products explode for wide fused kernels (BRD touches four 3-D
tensors), so the generator supports deterministic subsampling to a size cap,
which preserves the distributional picture Figs. 4/5 rely on while keeping
sweeps tractable.  The cap and seed are explicit parameters; ``cap=None``
enumerates exhaustively, and so does a space within :data:`WHOLE_SPACE_K`
of a cap of at least :data:`WHOLE_SPACE_MIN_CAP` (:func:`sweeps_whole`).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator, Sequence

from repro.ir.dims import DimEnv
from repro.ir.operator import OpClass, OpSpec
from repro.ops.einsum_utils import parse_einsum

from .config import NUM_GEMM_ALGORITHMS, OpConfig
from .gemm_mapping import _shape_from_structure, feasible_triple_structures
from .layout import Layout, all_layouts

__all__ = [
    "contraction_triples",
    "contraction_configs",
    "kernel_space",
    "kernel_config_indices",
    "kernel_configs",
    "op_configs",
    "default_config",
    "sweeps_whole",
    "WHOLE_SPACE_K",
    "WHOLE_SPACE_MIN_CAP",
]

#: ``(numerator, denominator)`` of ``k``: a kernel space of at most ``k``
#: times its cap is swept whole (:func:`sweeps_whole`).  Keeping ``cap``
#: distinct rows of a space only a little larger than the cap draws far
#: more rows than the space has (a coupon-collector tail: about 45,000
#: draws for 20,000 of 23,328 rows), so near the cap the sample costs more
#: than the exhaustive sweep it stands in for, whose best time cannot be
#: worse.  ``k = 1.2`` takes the fused encoder's 23,328-config spaces at
#: the production cap of 20,000 and keeps its 62,208-config one sampled.
WHOLE_SPACE_K = (6, 5)

#: The least cap :data:`WHOLE_SPACE_K` applies at.  Below it a space is
#: swept whole only when it fits under the cap, as before the rule, so
#: the sweeps that tests and benchmarks pin at small caps (150-400 for
#: the paper's claims, 2,000 in the fleet, 4,000 in the delta-sweep gate)
#: do not change.  Without it, the unfused encoder's 4,608-config input
#: biases (1.152 times a cap of 4,000) would be swept whole.
WHOLE_SPACE_MIN_CAP = 10_000


def sweeps_whole(total: int, cap: int | None) -> bool:
    """Whether a kernel space of ``total`` configs is swept whole under
    ``cap``: uncapped, fits under the cap, or, at a cap of at least
    :data:`WHOLE_SPACE_MIN_CAP`, is at most ``k = WHOLE_SPACE_K`` times it
    (integer-exact).  The scalar enumeration, the bulk sampler, the sweep
    digest and the scheduler's size estimate all decide by this one rule."""
    if cap is None or total <= cap:
        return True
    num, den = WHOLE_SPACE_K
    return cap >= WHOLE_SPACE_MIN_CAP and den * total <= num * cap


def contraction_triples(op: OpSpec, env: DimEnv):
    """Feasible layout triples of a contraction, in enumeration order.

    Yields ``(layout_a, layout_b, layout_c, gemm_shape)`` for every layout
    triple that maps to a (batched) GEMM.  This is the single source of the
    contraction enumeration order: both the scalar reference sweep and the
    batched engine derive their config ordering from it, which is what makes
    their stable-sorted results bit-identical.  The feasibility scan is
    structural and cached per einsum (see
    :func:`repro.layouts.gemm_mapping.feasible_triple_structures`); only the
    concrete GEMM shapes are instantiated per env.
    """
    if op.op_class is not OpClass.TENSOR_CONTRACTION:
        raise ValueError(f"{op.name!r} is not a contraction")
    spec = parse_einsum(op.einsum)
    a_spec, b_spec = op.inputs[0], op.inputs[1]
    c_spec = op.outputs[0]
    for la, lb, lc, structure in feasible_triple_structures(
        spec, a_spec.dims, b_spec.dims, c_spec.dims
    ):
        yield la, lb, lc, _shape_from_structure(structure, env)


def contraction_configs(
    op: OpSpec,
    env: DimEnv,
    *,
    algorithms: Sequence[int] | None = None,
    tensor_core_modes: Sequence[bool] = (True, False),
) -> Iterator[OpConfig]:
    """All GEMM-mappable layout/algorithm/TC configurations of a contraction."""
    algos = list(algorithms) if algorithms is not None else list(range(NUM_GEMM_ALGORITHMS))
    for la, lb, lc, _shape in contraction_triples(op, env):
        for tc in tensor_core_modes:
            for algo in algos:
                yield OpConfig(
                    op_name=op.name,
                    input_layouts=(la, lb),
                    output_layouts=(lc,),
                    algorithm=algo,
                    use_tensor_cores=tc,
                )


def kernel_space(
    op: OpSpec, env: DimEnv
) -> tuple[list[list[Layout]], list[str | None], list[str | None]]:
    """The per-knob choice lists of a non-contraction kernel's config space.

    Returns ``(layout_choices, vec_choices, warp_choices)`` where
    ``layout_choices`` has one list per operand (inputs then outputs).
    Operands of rank <= 1 (biases, per-dim scales) have a single layout.
    """
    if op.op_class is OpClass.TENSOR_CONTRACTION:
        raise ValueError(f"use contraction_configs for {op.name!r}")
    operand_specs = list(op.inputs) + list(op.outputs)
    layout_choices: list[list[Layout]] = [
        list(all_layouts(t.dims)) if t.rank > 1 else [Layout(t.dims)]
        for t in operand_specs
    ]
    vec_choices: list[str | None] = list(op.ispace.all_dims) or [None]
    warp_choices: list[str | None] = (
        list(op.ispace.reduction) if op.ispace.reduction else [None]
    )
    return layout_choices, vec_choices, warp_choices


def kernel_config_indices(
    sizes: Sequence[int], *, cap: int | None, seed: int
) -> Iterator[tuple[int, ...]]:
    """Flat knob-index tuples of a kernel config space, in enumeration order.

    Exhaustive row-major enumeration when :func:`sweeps_whole` says so (no
    cap, a space that fits under it, or one within ``k`` times a large
    cap); otherwise a deterministic
    uniform subsample of exactly ``cap`` distinct tuples, always starting
    with the all-default point.  The scalar
    reference sweep consumes this generator; the batched engine draws the
    same rows in bulk with :func:`repro.engine.sampling.kernel_index_array`,
    so their config ordering — and hence their stable-sorted results —
    agree exactly.  A change to the draws here must be mirrored there.
    """
    total = 1
    for s in sizes:
        total *= s
    if sweeps_whole(total, cap):
        yield from itertools.product(*(range(s) for s in sizes))
        return
    rng = random.Random(seed)
    default = tuple([0] * len(sizes))
    yield default  # always include the default point
    seen = {default}
    while len(seen) < cap:
        flat = tuple(rng.randrange(s) for s in sizes)
        if flat in seen:
            continue
        seen.add(flat)
        yield flat


def kernel_configs(
    op: OpSpec,
    env: DimEnv,
    *,
    cap: int | None = 2000,
    seed: int = 0x5EED,
) -> Iterator[OpConfig]:
    """Layout/vector/warp configurations of a non-contraction kernel.

    Operands of rank <= 1 (biases, per-dim scales) have a single layout and
    are skipped in the product.  Unless :func:`sweeps_whole` takes the
    full product whole, a deterministic uniform subsample of exactly
    ``cap`` configurations is produced (always including the
    all-default-layout point).
    """
    layout_choices, vec_choices, warp_choices = kernel_space(op, env)
    sizes = [len(c) for c in layout_choices] + [len(vec_choices), len(warp_choices)]
    n_in = len(op.inputs)

    def build(indices: Sequence[int]) -> OpConfig:
        layouts = [layout_choices[i][indices[i]] for i in range(len(layout_choices))]
        vec = vec_choices[indices[len(layout_choices)]]
        warp = warp_choices[indices[len(layout_choices) + 1]]
        return OpConfig(
            op_name=op.name,
            input_layouts=tuple(layouts[:n_in]),
            output_layouts=tuple(layouts[n_in:]),
            vector_dim=vec,
            warp_reduce_dim=warp,
        )

    for flat in kernel_config_indices(sizes, cap=cap, seed=seed):
        yield build(flat)


def op_configs(op: OpSpec, env: DimEnv, **kwargs) -> Iterator[OpConfig]:
    """Dispatch to the right enumerator for the operator's class."""
    if op.op_class is OpClass.TENSOR_CONTRACTION:
        return contraction_configs(op, env)
    return kernel_configs(op, env, **kwargs)


def default_config(op: OpSpec) -> OpConfig:
    """The untuned configuration: spec-order layouts, innermost-dim
    vectorization, first reduction dim for warp reduces, heuristic GEMM algo."""
    vec = op.ispace.all_dims[-1] if op.ispace.all_dims else None
    warp = op.ispace.reduction[0] if op.ispace.reduction else None
    return OpConfig(
        op_name=op.name,
        input_layouts=tuple(Layout(t.dims) for t in op.inputs),
        output_layouts=tuple(Layout(t.dims) for t in op.outputs),
        vector_dim=vec,
        warp_reduce_dim=warp,
    )

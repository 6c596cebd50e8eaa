"""The engine's bulk config sampler and jitter hashing vs their scalar references.

``kernel_index_array`` must return exactly the rows
``kernel_config_indices`` yields, in order, and ``kernel_jitter_units``
exactly the units the scalar cost model hashes from ``OpConfig.key()`` —
the sweep bit-identity contract rests on both.
"""

import numpy as np
import pytest

from repro.engine import enumerate_kernel_space, kernel_index_array
from repro.engine.batched import kernel_jitter_units
from repro.hardware.efficiency import _unit
from repro.ir.dims import DimEnv
from repro.ir.iteration_space import IterationSpace
from repro.ir.operator import OpClass, OpSpec
from repro.ir.tensor import TensorSpec
from repro.layouts.configspace import kernel_config_indices


def _scalar_rows(sizes, cap, seed):
    rows = list(kernel_config_indices(sizes, cap=cap, seed=seed))
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(sizes))


@pytest.mark.parametrize(
    "sizes, cap, seed",
    [
        # The fused encoder's BDRLN kernel: 23328 configs, within k = 1.2
        # of a 20000 cap, so swept whole.
        ([6, 1, 6, 1, 1, 6, 6, 6, 3, 1], 20000, 7),
        ([24, 24, 24, 24, 4, 1], 2000, 0x5EED),  # two distinct thresholds
        ([24, 6, 3], 100, 1),  # one threshold: no knob ever skips a word
        ([5, 7, 120, 2, 1], 500, 3),  # four distinct thresholds
        # cap = total - 1, below the rule's least cap; with these seeds the
        # first count of distinct rows comes up short and the stream is
        # read further.
        ([3, 4], 11, 1),
        ([2, 2, 2, 2, 2, 2], 63, 0),
        ([6, 1, 2], 0, 5),  # only the default row
        ([6, 1, 2], 1, 5),
        ([6, 1, 2], 12, 5),  # exhaustive: the cap does not bind
        ([6, 1, 2], None, 5),
        # BDRLN just past the whole-space band: a long coupon-collector
        # tail spanning many stream blocks.
        ([6, 1, 6, 1, 1, 6, 6, 6, 3, 1], 19000, 7),
        ([24, 24, 24], 11520, 2),  # total == k * cap: swept whole
        ([24, 24, 24], 11519, 2),  # one below: sampled
        ([24, 24, 6, 3], 10000, 4),  # within k of the rule's least cap: whole
        ([24, 24, 6, 3], 9999, 4),  # within k of a cap below it: sampled
    ],
)
def test_index_array_matches_scalar_sampler(sizes, cap, seed):
    got = kernel_index_array(sizes, cap=cap, seed=seed)
    assert got.dtype == np.int32
    assert got.T.flags.c_contiguous  # one contiguous row per knob
    assert np.array_equal(got, _scalar_rows(sizes, cap, seed))


def test_index_array_rejects_multiword_knobs():
    with pytest.raises(ValueError):
        kernel_index_array([(1 << 32) + 1, 2], cap=10, seed=0)


def _kernel_op(name, dims, reduction):
    """A normalization-style kernel whose choice strings differ in length."""
    independent = tuple(d for d in dims if d not in reduction)
    return OpSpec(
        name=name,
        op_class=OpClass.STAT_NORMALIZATION,
        inputs=(TensorSpec("x", dims), TensorSpec("g", (dims[0],))),
        outputs=(TensorSpec("y", dims), TensorSpec("s", independent)),
        ispace=IterationSpace(independent, reduction),
        flop_per_point=1.0,
    )


@pytest.mark.parametrize(
    "name, dims, reduction, cap",
    [
        ("ln", ("b", "heads", "jj"), ("jj",), None),
        ("ψ-norm", ("batch", "u", "kk"), ("u", "kk"), 150),  # non-ASCII name
    ],
)
def test_jitter_units_match_scalar_keys(name, dims, reduction, cap):
    op = _kernel_op(name, dims, reduction)
    env = DimEnv({d: 8 + i for i, d in enumerate(dims)})
    space = enumerate_kernel_space(op, env, cap=cap, seed=11)
    expected = [_unit("kernel", space.config_at(j).key()) for j in range(space.num_configs)]
    assert kernel_jitter_units(space).tolist() == expected

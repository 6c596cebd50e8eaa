"""Hypothesis property tests: store round-trips are bit-identical.

Randomizes operators, dimension sizes and sampling knobs; every sweep is
saved to an on-disk store, reloaded, and compared against the scalar
``sweep_op_reference`` — same configs, same order, exact float equality on
every ``KernelTime`` component.  The digest is also checked to be stable
under recomputation and under irrelevant environment growth.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotuner.tuner import sweep_op_reference
from repro.engine.store import SweepStore, compute_payload, sweep_digest
from repro.engine.sweep import sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv
from repro.ir.iteration_space import IterationSpace
from repro.ir.operator import OpClass, OpSpec
from repro.ir.tensor import TensorSpec
from repro.ops.contraction import contraction_spec

COST = CostModel()

_SIZES = st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16, 24, 32, 40, 64])

_EINSUMS = [
    ("mk,kn->mn", ("m", "k"), ("k", "n"), ("m", "n")),
    ("bmk,bkn->bmn", ("b", "m", "k"), ("b", "k", "n"), ("b", "m", "n")),
    ("phb,pwb->hwb", ("p", "h", "b"), ("p", "w", "b"), ("h", "w", "b")),
]

# One store for the whole module: digests are content-addressed, so
# collisions across examples are exactly the sweeps that are identical.
_STORE_DIR = tempfile.TemporaryDirectory(prefix="repro-sweep-store-")
STORE = SweepStore(_STORE_DIR.name)


@st.composite
def kernel_ops(draw):
    """A random memory-bound op: elementwise or normalization w/ reduction."""
    dims = draw(
        st.lists(st.sampled_from("abcde"), min_size=2, max_size=3, unique=True)
    )
    dims = tuple(dims)
    env = DimEnv({d: draw(_SIZES) for d in dims})
    reduce_last = draw(st.booleans())
    if reduce_last and len(dims) > 1:
        ispace = IterationSpace(dims[:-1], (dims[-1],))
        op_class = OpClass.STAT_NORMALIZATION
    else:
        ispace = IterationSpace(dims)
        op_class = OpClass.ELEMENTWISE
    inputs = [TensorSpec("x", dims)]
    if draw(st.integers(min_value=0, max_value=1)):
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
def contraction_ops(draw):
    einsum, da, db, dc = draw(st.sampled_from(_EINSUMS))
    all_dims = sorted(set(da) | set(db) | set(dc))
    env = DimEnv({d: draw(_SIZES) for d in all_dims})
    a = TensorSpec("a", da)
    b = TensorSpec("b", db)
    op = contraction_spec("c", einsum, (a.name, b.name), "y")
    return op, env


def _round_trip(op, env, *, cap, seed):
    digest = sweep_digest(op, env, COST, cap=cap, seed=seed)
    if STORE.load(digest, COST.version) is None:
        STORE.save(digest, compute_payload(op, env, COST, cap=cap, seed=seed))
    return sweep_from_payload(op, STORE.load(digest, COST.version)), digest


def _assert_bit_identical(ref, loaded):
    assert loaded.num_configs == ref.num_configs
    assert loaded.times_us() == [m.total_us for m in ref.measurements]
    for a, b in zip(ref.measurements, loaded.measurements):
        assert a.config == b.config
        assert a.time.compute_us == b.time.compute_us
        assert a.time.memory_us == b.time.memory_us
        assert a.time.launch_us == b.time.launch_us


@settings(max_examples=25, deadline=None)
@given(kernel_ops())
def test_kernel_store_round_trip_bit_identical(params):
    op, env, cap, seed = params
    ref = sweep_op_reference(op, env, COST, cap=cap, seed=seed)
    loaded, digest = _round_trip(op, env, cap=cap, seed=seed)
    _assert_bit_identical(ref, loaded)
    # The digest is a pure function of content.
    assert digest == sweep_digest(op, env, COST, cap=cap, seed=seed)


@settings(max_examples=15, deadline=None)
@given(contraction_ops())
def test_contraction_store_round_trip_bit_identical(params):
    op, env = params
    ref = sweep_op_reference(op, env, COST)
    loaded, digest = _round_trip(op, env, cap=2000, seed=0x5EED)
    _assert_bit_identical(ref, loaded)
    # Irrelevant dimensions don't perturb the digest.
    grown = DimEnv({**env.sizes, "zq": 9})
    assert sweep_digest(op, grown, COST, cap=2000, seed=0x5EED) == digest

"""Hypothesis property tests: delta re-sweeps are bit-identical to cold.

Randomizes operators, base dimension sizes and *perturbed* sizes; the base
sweep is saved to a store, the perturbed problem is resolved through
:func:`delta_payload_from_store` (reusing the stored structural skeleton),
and the result is compared against a cold scalar ``sweep_op_reference``
sweep at the perturbed sizes — same configs, same order, exact float
equality on every ``KernelTime`` component.  This is the acceptance
property of the delta tier: structural reuse must never change a single
bit of the answer.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotuner.tuner import sweep_op_reference
from repro.engine.store import (
    SweepStore,
    compute_payload,
    compute_payload_delta,
    pack_payload_bytes,
    read_payload,
    structural_sweep_digest,
    sweep_digest,
)
from repro.engine.sweep import delta_payload_from_store, sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv
from strategies import SIZES, contraction_ops, kernel_ops

COST = CostModel()

_SIZES = st.sampled_from([*SIZES, 96, 513])

# One store for the whole module: structurally identical examples share
# their skeleton entries exactly as a long-lived daemon's store would.
_STORE_DIR = tempfile.TemporaryDirectory(prefix="repro-delta-store-")
STORE = SweepStore(_STORE_DIR.name)


def _perturbed(draw, env: DimEnv) -> DimEnv:
    """A same-named environment with at least one size changed."""
    sizes = {d: draw(_SIZES) for d in env}
    if sizes == dict(env):
        first = next(iter(sizes))
        sizes[first] += 1
    return DimEnv(sizes)


@st.composite
def kernel_cases(draw):
    """A random memory-bound op with base and perturbed sizes."""
    op, env, cap, seed = draw(kernel_ops(_SIZES))
    return op, env, _perturbed(draw, env), cap, seed


@st.composite
def contraction_cases(draw):
    op, env = draw(contraction_ops(_SIZES))
    return op, env, _perturbed(draw, env)


def _warm_base(op, env, *, cap, seed) -> None:
    digest = sweep_digest(op, env, COST, cap=cap, seed=seed)
    if digest not in STORE:
        STORE.save(digest, compute_payload(op, env, COST, cap=cap, seed=seed))


def _assert_bit_identical(ref, loaded):
    assert loaded.num_configs == ref.num_configs
    assert loaded.times_us() == [m.total_us for m in ref.measurements]
    for a, b in zip(ref.measurements, loaded.measurements):
        assert a.config == b.config
        assert a.time.compute_us == b.time.compute_us
        assert a.time.memory_us == b.time.memory_us
        assert a.time.launch_us == b.time.launch_us


@settings(max_examples=25, deadline=None)
@given(kernel_cases())
def test_kernel_delta_resweep_bit_identical_to_cold(params):
    op, base, perturbed, cap, seed = params
    _warm_base(op, base, cap=cap, seed=seed)
    delta = delta_payload_from_store(
        op, perturbed, COST, cap=cap, seed=seed, store=STORE
    )
    same_structure = structural_sweep_digest(
        op, base, COST, cap=cap, seed=seed
    ) == structural_sweep_digest(op, perturbed, COST, cap=cap, seed=seed)
    if not same_structure:
        # Size changes may flip whether ``cap`` binds; then the sampled
        # rows differ and the delta path must refuse, not approximate.
        assert delta is None
        return
    assert delta is not None
    _assert_bit_identical(
        sweep_op_reference(op, perturbed, COST, cap=cap, seed=seed),
        sweep_from_payload(op, delta),
    )


@settings(max_examples=15, deadline=None)
@given(contraction_cases())
def test_contraction_delta_resweep_bit_identical_to_cold(params):
    op, base, perturbed = params
    _warm_base(op, base, cap=2000, seed=0x5EED)
    delta = delta_payload_from_store(
        op, perturbed, COST, cap=2000, seed=0x5EED, store=STORE
    )
    # Contraction sweeps are exhaustive (cap/seed-free), so any same-shape
    # problem is a structural twin: the delta path must always engage.
    assert delta is not None
    _assert_bit_identical(
        sweep_op_reference(op, perturbed, COST),
        sweep_from_payload(op, delta),
    )


@settings(max_examples=25, deadline=None)
@given(st.one_of(kernel_cases(), contraction_cases().map(lambda c: (*c, None, 0))))
def test_structural_digest_is_the_exact_digests_prefix(params):
    op, base, perturbed, cap, seed = params
    for env in (base, perturbed):
        digest = sweep_digest(op, env, COST, cap=cap, seed=seed)
        assert len(digest) == 64
        assert digest[:32] == structural_sweep_digest(op, env, COST, cap=cap, seed=seed)
        assert STORE.path_for(digest).parent.name == digest[:32]


@settings(max_examples=10, deadline=None)
@given(
    st.one_of(contraction_cases(), kernel_cases()).map(lambda c: (c[0], c[2])),
    st.lists(_SIZES, min_size=2, max_size=3, unique=True),
)
def test_delta_from_every_stored_twin_is_the_cold_payload(case, firsts):
    """Any twin in the directory serves: all their skeletons are identical."""
    op, target = case
    first = next(iter(target))
    with tempfile.TemporaryDirectory(prefix="repro-twins-") as root:
        store = SweepStore(root)
        for size in firsts:
            env = DimEnv({**dict(target), first: size})
            store.save(
                sweep_digest(op, env, COST, cap=None, seed=0),
                compute_payload(op, env, COST, cap=None, seed=0),
            )
        digest = sweep_digest(op, target, COST, cap=None, seed=0)
        cold = compute_payload(op, target, COST, cap=None, seed=0)
        twins = sorted(Path(root, digest[:32]).glob("*.sweep"))
        assert len(twins) == len(firsts)
        for path in twins:
            base = read_payload(path, digest=path.stem, version=COST.version)
            delta = compute_payload_delta(op, target, COST, base=base)
            assert pack_payload_bytes(digest, delta) == pack_payload_bytes(digest, cold)

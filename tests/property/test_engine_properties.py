"""Hypothesis property tests: engine/reference bit-identity + invariants.

Randomizes operator shapes, dimension sizes and sampling knobs, and checks

* ``repro.engine`` sweeps are **bit-identical** to the scalar
  ``sweep_op_reference`` (same configs in the same order, same
  ``KernelTime`` components, exact float equality — no tolerances);
* the engine's bulk sampler replays the scalar sampler's draws exactly,
  for any knob sizes, cap and seed;
* a cold batch whose kernels share knob spaces (and so share their
  samples) gives each op exactly its isolated payload;
* ``SweepResult`` structural invariants hold on engine-built sweeps:
  measurements sorted ascending, ``quantile_us`` monotone in the quantile,
  ``spread >= 1``;
* any sequence of sweeps, promotions and rollbacks — some fired inside a
  sweep's evaluator, after its digests were taken — leaves every L1 and
  store entry equal to a recomputation under its own embedded version.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotuner.tuner import sweep_op_reference
from repro.engine import clear_sweep_memo, kernel_index_array
from repro.engine.memo import ENGINE_L1
from repro.engine.scheduler import local_evaluator, sweep_graph
from repro.engine.scheduler import sweep_op as engine_sweep_op
from repro.engine.space import kernel_knob_sizes
from repro.engine.store import (
    SweepStore,
    compute_payload,
    pack_payload_bytes,
    read_payload,
    sweep_digest,
)
from repro.engine.sweep import sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.hardware.params import (
    DEFAULT_PARAMS,
    install_params,
    params_from_wire,
    reset_active_params,
)
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.ir.tensor import TensorSpec
from repro.layouts.configspace import kernel_config_indices
from repro.ops.contraction import contraction_spec
from repro.ops.elementwise import bias_spec
from strategies import contraction_ops, kernel_ops

COST = CostModel()


def _cold_sweep(op, env, *, cap=2000, seed=0x5EED):
    """One engine sweep evaluated cold, past every cache tier."""
    return sweep_from_payload(
        op, compute_payload(op, env, COST, cap=cap, seed=seed)
    )


def _assert_bit_identical(ref, eng):
    assert eng.num_configs == ref.num_configs
    for a, b in zip(ref.measurements, eng.measurements):
        assert a.config == b.config
        # Exact float equality on every component — the bit-identity contract.
        assert a.time.compute_us == b.time.compute_us
        assert a.time.memory_us == b.time.memory_us
        assert a.time.launch_us == b.time.launch_us


def _assert_invariants(sweep):
    times = sweep.times_us()
    assert times == sorted(times)
    if times:
        qs = [sweep.quantile_us(q) for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)]
        assert qs == sorted(qs)
        assert qs[0] == sweep.best.total_us
        assert qs[-1] == sweep.worst.total_us
        assert sweep.spread >= 1.0
    assert sweep.num_configs == len(sweep.measurements)


@settings(max_examples=30, deadline=None)
@given(kernel_ops())
def test_kernel_sweeps_bit_identical(params):
    op, env, cap, seed = params
    ref = sweep_op_reference(op, env, COST, cap=cap, seed=seed)
    eng = _cold_sweep(op, env, cap=cap, seed=seed)
    _assert_bit_identical(ref, eng)
    _assert_invariants(eng)
    _assert_invariants(ref)


@settings(max_examples=20, deadline=None)
@given(contraction_ops())
def test_contraction_sweeps_bit_identical(params):
    op, env = params
    ref = sweep_op_reference(op, env, COST)
    eng = _cold_sweep(op, env)
    _assert_bit_identical(ref, eng)
    _assert_invariants(eng)


@settings(max_examples=15, deadline=None)
@given(kernel_ops())
def test_memoized_sweep_is_shared_and_identical(params):
    op, env, cap, seed = params
    first = engine_sweep_op(op, env, COST, cap=cap, seed=seed)
    second = engine_sweep_op(op, env, COST, cap=cap, seed=seed)
    # The L1 shares the payload: a fresh sweep over the same arrays.
    assert first.measurements.totals_array() is second.measurements.totals_array()
    _assert_bit_identical(sweep_op_reference(op, env, COST, cap=cap, seed=seed), first)


@st.composite
def _shared_knob_batches(draw):
    """``(ops, env, cap, seed)``: renamed copies of one kernel (equal knob
    sizes, varied flops) and one other kernel, under one env and knobs."""
    op, env, cap, seed = draw(kernel_ops())
    other, other_env, _, _ = draw(kernel_ops())
    flops = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=2, max_size=4))
    ops = [
        dataclasses.replace(op, name=f"k{i}", flop_per_point=f)
        for i, f in enumerate(flops)
    ] + [dataclasses.replace(other, name="other")]
    return ops, DimEnv({**other_env, **env}), cap, seed


@settings(max_examples=15, deadline=None)
@given(_shared_knob_batches())
def test_shared_samples_batch_equals_isolated_payloads(params):
    ops, env, cap, seed = params
    assert len({kernel_knob_sizes(op, env) for op in ops}) < len(ops)
    misses = {sweep_digest(op, env, COST, cap=cap, seed=seed): op for op in ops}
    evaluate = local_evaluator(env, COST, cap=cap, seed=seed, store=None)
    batch = dict(evaluate(misses))
    assert list(batch) == list(misses)
    for digest, op in misses.items():
        payload, tier = batch[digest]
        assert tier == "computed"
        isolated = compute_payload(op, env, COST, cap=cap, seed=seed)
        assert pack_payload_bytes(digest, payload) == pack_payload_bytes(
            digest, isolated
        )
        reference = sweep_op_reference(op, env, COST, cap=cap, seed=seed)
        assert sweep_from_payload(op, payload).measurements == reference.measurements


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 24, 120]), min_size=1, max_size=7),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=-(2**40), max_value=2**40),
)
def test_bulk_sampler_replays_scalar_draws(sizes, cap, seed):
    rows = list(kernel_config_indices(sizes, cap=cap, seed=seed))
    expected = np.array(rows, dtype=np.int64).reshape(len(rows), len(sizes))
    assert np.array_equal(kernel_index_array(sizes, cap=cap, seed=seed), expected)


#: The promotion target of the model-switch property: kernel jitter and
#: contraction memory efficiency both move, so every op's times change.
_CANDIDATE = params_from_wire(
    {**DEFAULT_PARAMS.to_wire(), "jitter": 0.2, "gemm_mem_eff": 0.6}
)
_MODELS = {CostModel(params=p).version: p for p in (DEFAULT_PARAMS, _CANDIDATE)}
_SWITCH_ENV = DimEnv({"p": 16, "i": 8, "b": 24})
_SWITCH_CAP = 40


def _switch_graph() -> DataflowGraph:
    """One contraction and one kernel: both sweep tiers' payload kinds."""
    g = DataflowGraph("switch")
    w = g.add_input(TensorSpec("w", ("p", "i"), is_param=True))
    x = g.add_input(TensorSpec("x", ("i", "b")))
    g.add_input(TensorSpec("bias_b", ("p",), is_param=True))
    g.add_op(contraction_spec("mm", "pi,ib->pb", (w.name, x.name), "y"))
    g.add_op(bias_spec("bias", TensorSpec("y", ("p", "b")), ("p",), "z"))
    return g


_SWITCHES = {
    "promote": lambda: install_params(_CANDIDATE),
    "rollback": reset_active_params,
}
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("sweep"), st.sampled_from([None, *_SWITCHES])),
        st.tuples(st.sampled_from(sorted(_SWITCHES)), st.none()),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=12, deadline=None)
@given(_STEPS)
def test_cached_payloads_match_their_embedded_model(steps):
    graph = _switch_graph()
    ops = [op for op in graph.ops if not op.is_view]
    clear_sweep_memo()
    try:
        with tempfile.TemporaryDirectory() as root:
            store = SweepStore(root)
            for kind, inside in steps:
                if kind != "sweep":
                    _SWITCHES[kind]()
                    continue
                cost = CostModel()
                evaluate = local_evaluator(
                    _SWITCH_ENV, cost, cap=_SWITCH_CAP, seed=0x5EED, store=store
                )
                if inside is not None:
                    # Fires after the digests, before any evaluation.
                    def evaluate(misses, inner=evaluate, switch=_SWITCHES[inside]):
                        switch()
                        return inner(misses)

                sweep_graph(
                    graph, _SWITCH_ENV, cost, cap=_SWITCH_CAP, store=store,
                    evaluate=evaluate,
                )
            entries = [(d, p) for d, (p, _) in ENGINE_L1._items.items()] + [
                (path.stem, read_payload(path, digest=path.stem, version=None))
                for path in Path(root).rglob("*.sweep")
            ]
            for digest, payload in entries:
                cost = CostModel(params=_MODELS[payload["version"]])
                (op,) = [
                    op for op in ops
                    if sweep_digest(op, _SWITCH_ENV, cost, cap=_SWITCH_CAP, seed=0x5EED)
                    == digest
                ]
                fresh = compute_payload(
                    op, _SWITCH_ENV, cost, cap=_SWITCH_CAP, seed=0x5EED
                )
                for key in ("compute_us", "memory_us", "order"):
                    assert np.array_equal(payload[key], fresh[key]), (digest, key)
    finally:
        reset_active_params()
        clear_sweep_memo()

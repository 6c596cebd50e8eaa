"""Hypothesis property tests: layered min-plus SSSP vs. the scalar walk.

Randomizes layered DAGs — layer widths, integer edge weights (integers
force exact distance ties), and missing edges — and checks that

* :func:`~repro.configsel.sssp.shortest_path_layered` and the scalar
  :func:`~repro.configsel.sssp.shortest_path` agree on the cost **exactly**
  (both associate the per-edge additions the same way) and decode the
  **same path** (argmin's first-minimizer rule equals the scalar decoder's
  first-in-edge rule when edges are inserted in row-major order);
* the decoded path is valid: its edges exist and re-summing them
  left-to-right reproduces the reported cost bit for bit;
* networkx's Dijkstra agrees on the cost;
* unreachable targets raise :class:`~repro.configsel.sssp.SSSPError` from
  both implementations.

It also randomizes small sweeps (operand layouts, tie-heavy times, pins)
and checks that the vectorized per-operator steps of
:mod:`repro.configsel.selector` return the very same measurement,
transposes and cost as the scalar scans of
:mod:`repro.configsel.reference` — the merged per-slot penalty must add
the same terms in the same order.  The same holds on engine-backed sweeps
(``sweep_from_payload``), whose interned per-slot ids and evaluation-order
arrays are a different path from the list-backed one, for a contraction
and for a kernel with many operands and a reduction, under random pins
that include layouts no configuration holds; and the batched
consistent-kernel construction equals the scalar grid loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotuner.tuner import ConfigMeasurement, SweepResult
from repro.configsel import reference
from repro.configsel.chain import ChainStep
from repro.configsel.selector import FAST_PIPELINE
from repro.engine.store import compute_payload
from repro.engine.sweep import sweep_from_payload
from repro.fusion.encoder_kernels import apply_paper_fusion
from repro.configsel.sssp import (
    ConfigGraph,
    SSSPError,
    shortest_path,
    shortest_path_layered,
    shortest_path_networkx,
)
from repro.hardware.cost_model import CostModel, KernelTime
from repro.ir.dims import bert_large_dims
from repro.layouts.config import OpConfig
from repro.layouts.layout import Layout, all_layouts
from repro.ops.contraction import contraction_spec
from repro.transformer.graph_builder import build_encoder_graph


@st.composite
def layered_dags(draw):
    """A random layered DAG as a list of (n_k, n_{k+1}) weight matrices."""
    widths = [1] + draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)
    ) + [1]
    layers = []
    for a, b in zip(widths, widths[1:]):
        weights = draw(
            st.lists(
                st.lists(
                    # Small integers make equal-cost paths common, which is
                    # exactly where tie-breaking must agree; None = no edge.
                    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
                    min_size=b,
                    max_size=b,
                ),
                min_size=a,
                max_size=a,
            )
        )
        layers.append(
            np.array(
                [[np.inf if w is None else float(w) for w in row] for row in weights]
            )
        )
    return layers


def _graph_from_layers(layers: list[np.ndarray]) -> ConfigGraph:
    """Expand the matrices into an explicit DAG, row-major edge order."""
    g = ConfigGraph()
    g.add_node((0, 0))
    g.add_node((len(layers), 0))
    for k, m in enumerate(layers):
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                if np.isfinite(m[i, j]):
                    g.add_edge((k, i), (k + 1, j), float(m[i, j]))
    return g


def _path_cost(g: ConfigGraph, path: list) -> float:
    total = 0.0
    for u, v in zip(path, path[1:]):
        assert (u, v) in g.edges, f"path uses missing edge {u} -> {v}"
        total = total + g.edges[(u, v)]
    return total


@settings(max_examples=200, deadline=None)
@given(layered_dags())
def test_layered_matches_scalar_and_networkx(layers):
    g = _graph_from_layers(layers)
    source, target = (0, 0), (len(layers), 0)
    try:
        scalar_cost, scalar_path = shortest_path(g, source, target)
    except SSSPError:
        with pytest.raises(SSSPError):
            shortest_path_layered(layers)
        with pytest.raises(SSSPError):
            shortest_path_networkx(g, source, target)
        return
    layered_cost, nodes = shortest_path_layered(layers)
    layered_path = [source] + [(k + 1, j) for k, j in enumerate(nodes)]

    # Exact agreement: same sums in the same order, same tie-breaks.
    assert layered_cost == scalar_cost
    assert layered_path == scalar_path

    # The decoded path is real and re-sums to the reported cost.
    assert _path_cost(g, layered_path) == layered_cost
    assert _path_cost(g, scalar_path) == scalar_cost

    nx_cost, nx_path = shortest_path_networkx(g, source, target)
    assert nx_cost == pytest.approx(scalar_cost)
    assert _path_cost(g, nx_path) == pytest.approx(scalar_cost)


# ---------------------------------------------------------------------------
# Per-operator inference: vectorized steps vs. the scalar reference scans
# ---------------------------------------------------------------------------

_ENV = bert_large_dims()
_COST = CostModel()
# Transposes cost ~28 us (w, x) and ~98 us (y) here, so totals on a 10 us
# grid make both the 1.5x tolerance window and the penalties decisive.
_OP = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
_OPERANDS = (*_OP.inputs, *_OP.outputs)
_CHOICES = [tuple(all_layouts(t.dims)) for t in _OPERANDS]


@st.composite
def sweeps_and_pins(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    measurements = []
    for _ in range(n):
        layouts = [draw(st.sampled_from(c)) for c in _CHOICES]
        config = OpConfig(
            op_name=_OP.name,
            input_layouts=tuple(layouts[: len(_OP.inputs)]),
            output_layouts=tuple(layouts[len(_OP.inputs):]),
        )
        total = 10.0 * draw(st.integers(min_value=1, max_value=12))
        measurements.append(
            ConfigMeasurement(config=config, time=KernelTime(total, 0.0, 0.0))
        )
    pinned = {
        t.name: draw(st.sampled_from(c))
        for t, c in zip(_OPERANDS, _CHOICES)
        if draw(st.booleans())
    }
    lin = draw(st.sampled_from(_CHOICES[1]))
    return SweepResult(op=_OP, measurements=measurements), pinned, lin


def _steps_match(op, sweep, pinned, step, lin, lnext, next_spec):
    """Every pin-driven step of both pipelines returns the same objects."""
    fast, ref = FAST_PIPELINE, reference.PIPELINE
    f_tr, r_tr = fast.transposes(_COST, _ENV), ref.transposes(_COST, _ENV)
    assert fast.best_consistent(op, sweep, pinned) is ref.best_consistent(
        op, sweep, pinned
    )
    assert fast.best_coherent(op, sweep, pinned, f_tr) is ref.best_coherent(
        op, sweep, pinned, r_tr
    )
    f_alt, f_needed, f_cost = fast.transpose_alt(op, sweep, pinned, f_tr)
    r_alt, r_needed, r_cost = ref.transpose_alt(op, sweep, pinned, r_tr)
    assert (f_alt, f_needed, f_cost) == (r_alt, r_needed, r_cost)
    assert f_alt is r_alt

    out_spec = op.outputs[step.out_index]
    picks = []
    for pipeline, tr in ((fast, f_tr), (ref, r_tr)):
        try:
            picks.append(
                pipeline.chain_pick(
                    op, sweep, step, lin, lnext, out_spec, next_spec, pinned, tr
                )
            )
        except SSSPError:
            picks.append(None)
    assert picks[0] is picks[1]


@settings(max_examples=300, deadline=None)
@given(sweeps_and_pins())
def test_inference_steps_match_reference(case):
    sweep, pinned, lin = case
    step = ChainStep(_OP.name, "x", 1, "y", 0)
    _steps_match(_OP, sweep, pinned, step, lin, None, None)


# ---------------------------------------------------------------------------
# Engine-backed sweeps: interned ids in evaluation order
# ---------------------------------------------------------------------------

_GRAPH = apply_paper_fusion(
    build_encoder_graph(qkv_fusion="qkv", include_backward=True), _ENV
)
#: A contraction over 4-D operands, and a kernel with 7 operands of two
#: shapes and two reduction dims.
_ENGINE_OPS = ("gamma", "BDRB")
_SWEEPS = {
    name: sweep_from_payload(
        _GRAPH.op(name),
        compute_payload(_GRAPH.op(name), _ENV, _COST, cap=400, seed=11),
    )
    for name in _ENGINE_OPS
}


def _foreign(dims: tuple[str, ...]) -> Layout:
    """A layout no configuration of a ``dims`` operand holds."""
    return Layout((*dims, "zz"))


@st.composite
def engine_cases(draw):
    name = draw(st.sampled_from(_ENGINE_OPS))
    op = _GRAPH.op(name)
    operands = (*op.inputs, *op.outputs)
    pinned = {}
    for t in operands:
        if draw(st.booleans()):
            pinned[t.name] = draw(
                st.one_of(
                    st.sampled_from(tuple(all_layouts(t.dims))), st.just(_foreign(t.dims))
                )
            )
    in_index = draw(st.integers(min_value=0, max_value=len(op.inputs) - 1))
    out_index = draw(st.integers(min_value=0, max_value=len(op.outputs) - 1))
    in_t, out_t = op.inputs[in_index], op.outputs[out_index]
    step = ChainStep(op.name, in_t.name, in_index, out_t.name, out_index)
    lin = draw(st.sampled_from(tuple(all_layouts(in_t.dims))))
    lnext = draw(
        st.one_of(st.none(), st.sampled_from(tuple(all_layouts(out_t.dims))))
    )
    return op, pinned, step, lin, lnext


@settings(max_examples=150, deadline=None)
@given(engine_cases())
def test_engine_backed_steps_match_reference(case):
    op, pinned, step, lin, lnext = case
    next_spec = None if lnext is None else op.outputs[step.out_index]
    _steps_match(op, _SWEEPS[op.name], pinned, step, lin, lnext, next_spec)


@st.composite
def construct_pins(draw):
    op = _GRAPH.op("BDRB")
    return op, {
        t.name: draw(st.sampled_from(tuple(all_layouts(t.dims))))
        for t in (*op.inputs, *op.outputs)
        if draw(st.booleans())
    }


@settings(max_examples=100, deadline=None)
@given(construct_pins())
def test_construct_consistent_matches_scalar_grid(case):
    op, pinned = case
    sweep = _SWEEPS[op.name]
    fast = FAST_PIPELINE.construct_consistent(op, sweep, pinned, _ENV, _COST)
    ref = reference.PIPELINE.construct_consistent(op, sweep, pinned, _ENV, _COST)
    assert fast == ref


def test_construct_consistent_when_both_variants_coincide():
    """Every operand pinned: the sweep-best and default variants are one
    layout set, so each grid point appears twice with equal times and the
    first of the tied minima must win on both sides."""
    op = _GRAPH.op("BDRB")
    sweep = _SWEEPS[op.name]
    pinned = {
        t.name: tuple(all_layouts(t.dims))[-1] for t in (*op.inputs, *op.outputs)
    }
    fast = FAST_PIPELINE.construct_consistent(op, sweep, pinned, _ENV, _COST)
    ref = reference.PIPELINE.construct_consistent(op, sweep, pinned, _ENV, _COST)
    assert fast == ref
    layouts = (*fast.config.input_layouts, *fast.config.output_layouts)
    assert layouts == tuple(pinned[t.name] for t in (*op.inputs, *op.outputs))

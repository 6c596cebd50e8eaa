"""The scalar reference pipeline of configuration selection.

:func:`~repro.configsel.selector.select_configurations` runs one skeleton
(chain transposes, chain-step picks, contractions-then-flexible inference)
over six per-step operations.  Production uses the vectorized six in
:mod:`repro.configsel.selector`; this module holds the scalar six with
the same signatures, selected with ``select_configurations(fast=False)``:

* :func:`solve_chain` — the explicit Fig.-6 DAG (:func:`build_config_graph`),
  node-by-node relaxation (:func:`~repro.configsel.sssp.shortest_path`)
  and path decoding (:func:`_decode_path`);
* :func:`chain_pick`, :func:`best_coherent`, :func:`best_consistent` and
  :func:`transpose_alt` — Python scans over the sorted measurements;
* :func:`construct_consistent` — one scalar ``cost.time_op`` call per
  point of the consistent-kernel grid.

Every transpose is priced by calling ``cost.time_transpose`` afresh
(:func:`transpose_pricer`), where production fills one table per
selection.  They are slow but obviously faithful, and the fast six must
follow them: chosen configurations, inserted transposes and the chain
cost are equal object for object (tier-1, ``repro validate --deep`` and
``benchmarks/test_configsel_speedup.py`` pin this).  Ties resolve
identically because these scans keep the first minimum in
sorted-measurement order, as ``np.argmin`` does.  Fig. 6
(:func:`~repro.analysis.figures.fig6_config_graph_stats`) reports the
shape of the explicit DAG built here.
"""

from __future__ import annotations

from typing import Callable

from repro.autotuner.tuner import ConfigMeasurement, SweepResult
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.ir.operator import OpSpec
from repro.ir.tensor import TensorSpec
from repro.layouts.config import OpConfig
from repro.layouts.layout import Layout, all_layouts

from .chain import ChainStep, project_layout
from .selector import (
    Pipeline,
    TransposeInsertion,
    _chain_penalty,
    _iter_operand_layouts,
    _needed_transposes,
)
from .sssp import ConfigGraph, SSSPError, shortest_path

__all__ = ["PIPELINE", "build_config_graph", "solve_chain", "transpose_pricer"]

_SOURCE = ("source",)
_TARGET = ("target",)


def transpose_pricer(cost: CostModel, env: DimEnv) -> Callable[[TensorSpec], float]:
    """Price each transpose with its own ``cost.time_transpose`` call: no
    table, so the fast pipeline's per-selection table has an oracle."""
    return lambda spec: cost.time_transpose(spec, env).total_us


# ---------------------------------------------------------------------------
# Chain: explicit DAG, scalar SSSP, path decoding
# ---------------------------------------------------------------------------

def build_config_graph(
    graph: DataflowGraph,
    chain: list[ChainStep],
    sweeps: dict[str, SweepResult],
    transpose_us: Callable[[TensorSpec], float],
) -> ConfigGraph:
    """The layered Fig.-6 DAG: layout nodes per chain boundary, operator
    edges weighted by layout-conditioned minima, and transpose edges.

    Dict-keyed per-layout-pair minima, one edge at a time.  Edges are
    inserted in ``all_layouts`` enumeration order so the in-edge order of
    every node — which is what :func:`~repro.configsel.sssp.shortest_path`
    breaks distance ties with — matches the row order of
    :func:`~repro.configsel.selector.build_chain_matrices` exactly.
    """
    cg = ConfigGraph()
    cg.add_node(_SOURCE)
    cg.add_node(_TARGET)

    def boundary_layouts(step_idx: int) -> list[Layout]:
        step = chain[step_idx]
        spec = graph.container(step.in_tensor)
        return list(all_layouts(spec.dims))

    # Each boundary is split into an arrival and a departure column so that
    # transpose edges (arrival layout -> departure layout) keep the graph a
    # DAG; operator edges leave departures and enter the next arrival.
    def arr(step_idx: int, layout: Layout):
        return ("t", step_idx, layout.dims)

    def dep(step_idx: int, layout: Layout):
        return ("dep", step_idx, layout.dims)

    # Source: the layer input's layout is free to choose.
    for l in boundary_layouts(0):
        cg.add_edge(_SOURCE, arr(0, l), 0.0)

    for idx, step in enumerate(chain):
        sweep = sweeps[step.op_name]
        out_spec = graph.container(step.out_tensor)
        next_spec = graph.container(chain[idx + 1].in_tensor) if idx + 1 < len(chain) else None

        # Transpose edges within this boundary (0-cost to stay put).
        in_spec = graph.container(step.in_tensor)
        t_time = transpose_us(in_spec)
        layouts = boundary_layouts(idx)
        for a in layouts:
            cg.add_edge(arr(idx, a), dep(idx, a), 0.0)
            for b in layouts:
                if a != b:
                    cg.add_edge(arr(idx, a), dep(idx, b), t_time)

        # Operator edges: (in layout at this boundary) -> (projected out
        # layout at the next boundary), weighted by the layout-conditioned
        # minimum runtime.  The per-(in, out)-layout minima come from the
        # sweep's precomputed index; projection then runs once per distinct
        # layout pair rather than once per measurement.
        grouped: dict[tuple[tuple[str, ...], tuple[str, ...] | None], float] = {}
        for (lin_dims, lout_dims), t_us in sweep.layout_pair_minima(
            step.in_index, step.out_index
        ).items():
            if next_spec is not None:
                lout = Layout(lout_dims)
                projected = (
                    lout
                    if step.out_tensor == chain[idx + 1].in_tensor
                    else project_layout(lout, out_spec, next_spec)
                )
                if projected is None:
                    continue
                key = (lin_dims, projected.dims)
            else:
                key = (lin_dims, None)
            if key not in grouped or t_us < grouped[key]:
                grouped[key] = t_us
        if not grouped:
            raise SSSPError(f"no usable configurations for chain op {step.op_name!r}")
        in_pos = {l.dims: k for k, l in enumerate(layouts)}
        out_pos = (
            {l.dims: k for k, l in enumerate(boundary_layouts(idx + 1))}
            if next_spec is not None
            else {}
        )
        for (lin_dims, lout_dims), w in sorted(
            grouped.items(),
            key=lambda kv: (in_pos[kv[0][0]], out_pos.get(kv[0][1], 0)),
        ):
            src = dep(idx, Layout(lin_dims))
            dst = _TARGET if lout_dims is None else arr(idx + 1, Layout(lout_dims))
            cg.add_edge(src, dst, w)
    return cg


def _decode_path(
    chain: list[ChainStep], path: list
) -> tuple[list[tuple[Layout, Layout | None]], list[tuple[int, Layout, Layout]]]:
    """Decode the SSSP path.

    Returns per-step ``(consumed layout, produced arrival layout or None)``
    plus the chain transposes as ``(step index, from, to)`` triples.
    """
    arrivals: dict[int, Layout] = {}
    departures: dict[int, Layout] = {}
    for nd in path:
        if isinstance(nd, tuple) and len(nd) == 3:
            kind, idx, dims = nd
            if kind == "t":
                arrivals[idx] = Layout(dims)
            elif kind == "dep":
                departures[idx] = Layout(dims)
    steps: list[tuple[Layout, Layout | None]] = []
    transposes: list[tuple[int, Layout, Layout]] = []
    for i in range(len(chain)):
        consumed = departures[i]
        if arrivals[i] != consumed:
            transposes.append((i, arrivals[i], consumed))
        steps.append((consumed, arrivals.get(i + 1)))
    return steps, transposes


def solve_chain(
    graph: DataflowGraph,
    chain: list[ChainStep],
    sweeps: dict[str, SweepResult],
    transpose_us: Callable[[TensorSpec], float],
) -> tuple[float, list[tuple[Layout, Layout | None]], list[tuple[int, Layout, Layout]]]:
    """Build the explicit DAG, walk it, and decode the boundary layouts."""
    cg = build_config_graph(graph, chain, sweeps, transpose_us)
    chain_cost, path = shortest_path(cg, _SOURCE, _TARGET)
    steps, transposes = _decode_path(chain, path)
    return chain_cost, steps, transposes


# ---------------------------------------------------------------------------
# Per-operator scans over the sorted measurements
# ---------------------------------------------------------------------------

def chain_pick(
    op: OpSpec,
    sweep: SweepResult,
    step: ChainStep,
    lin: Layout,
    lnext: Layout | None,
    out_spec: TensorSpec,
    next_spec: TensorSpec | None,
    pinned: dict[str, Layout],
    transpose_us: Callable[[TensorSpec], float],
) -> ConfigMeasurement:
    """Best penalized config matching the SSSP boundary layouts."""

    def matches(m: ConfigMeasurement) -> bool:
        if m.config.input_layouts[step.in_index] != lin:
            return False
        if lnext is not None:
            lout = m.config.output_layouts[step.out_index]
            projected = (
                lout
                if next_spec is not None and step.out_tensor == next_spec.name
                else project_layout(lout, out_spec, next_spec)
            )
            if projected != lnext:
                return False
        return True

    best: ConfigMeasurement | None = None
    candidates: list[ConfigMeasurement] = []
    for m in sweep.measurements:
        if best is not None and m.total_us > best.total_us * 1.5:
            break
        if matches(m):
            if best is None:
                best = m
            candidates.append(m)
    if best is None:
        raise SSSPError(f"decoded path has no configuration for {step.op_name!r}")
    return min(
        candidates, key=lambda m: m.total_us + _chain_penalty(op, m, pinned, transpose_us)
    )


def best_consistent(
    op: OpSpec, sweep: SweepResult, pinned: dict[str, Layout]
) -> ConfigMeasurement | None:
    for m in sweep.measurements:  # ascending time
        ok = True
        for t, l in _iter_operand_layouts(op, m):
            if t.name in pinned and pinned[t.name] != l:
                ok = False
                break
        if ok:
            return m
    return None


def best_coherent(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    transpose_us: Callable[[TensorSpec], float],
    *,
    tolerance: float = 1.5,
) -> ConfigMeasurement | None:
    """Best pin-consistent config under a layout-externality surrogate.

    GEMM distributions have several near-equal modes (Fig. 4: "many slightly
    different data layouts could be used with little impact on performance"),
    so the choice among them should account for downstream costs: an operand
    left in a non-default layout forces adjacent memory-bound kernels to
    either access it strided or transpose it.  We charge each non-default
    unpinned operand half its transpose cost and minimize the penalized
    time over all consistent configurations within ``tolerance`` of the
    fastest one.  This internalizes the paper's "locally suboptimal layouts
    ... improve performance globally" tradeoff.
    """
    best = best_consistent(op, sweep, pinned)
    if best is None:
        return None
    limit = best.total_us * tolerance

    def penalty(m: ConfigMeasurement) -> float:
        p = 0.0
        for t, l in _iter_operand_layouts(op, m):
            if t.name not in pinned and l.dims != t.dims and t.rank > 1:
                p += 0.5 * transpose_us(t)
        return p

    winner: ConfigMeasurement | None = None
    winner_score = float("inf")
    for m in sweep.measurements:
        if m.total_us > limit:
            break
        ok = all(
            pinned.get(t.name, l) == l for t, l in _iter_operand_layouts(op, m)
        )
        if not ok:
            continue
        score = m.total_us + penalty(m)
        if score < winner_score:
            winner, winner_score = m, score
    return winner or best


def transpose_alt(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    transpose_us: Callable[[TensorSpec], float],
) -> tuple[ConfigMeasurement | None, list[TransposeInsertion], float]:
    """Cheapest (kernel + pin-fixing transposes) point of the whole sweep.

    Walks the sorted measurements with a shrinking bound: transposes only
    add time, so no config slower than the best total so far can win.
    """
    best: ConfigMeasurement | None = None
    best_needed: list[TransposeInsertion] = []
    best_cost = float("inf")
    for m in sweep.measurements:
        if m.total_us >= best_cost:
            break
        needed = _needed_transposes(op, m, pinned, transpose_us)
        total = m.total_us + sum(t.time_us for t in needed)
        if total < best_cost:
            best, best_needed, best_cost = m, needed, total
    return best, best_needed, best_cost


def construct_consistent(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
) -> ConfigMeasurement | None:
    """Build the best pin-consistent configuration for a flexible kernel.

    Pinned operands keep their pinned layouts; free operands are tried both
    in the sweep-best layouts and in default layouts (coherence); the
    vectorization and warp-reduce dims are re-optimized under each choice.
    One scalar ``cost.time_op`` call per grid point; the first minimum in
    loop order wins.
    """
    best_cfg = sweep.best.config
    layout_variants: list[tuple[tuple[Layout, ...], tuple[Layout, ...]]] = []
    layout_variants.append(
        (
            tuple(pinned.get(t.name, l) for t, l in zip(op.inputs, best_cfg.input_layouts)),
            tuple(pinned.get(t.name, l) for t, l in zip(op.outputs, best_cfg.output_layouts)),
        )
    )
    layout_variants.append(
        (
            tuple(pinned.get(t.name, Layout(t.dims)) for t in op.inputs),
            tuple(pinned.get(t.name, Layout(t.dims)) for t in op.outputs),
        )
    )
    vec_options: list[str | None] = list(op.ispace.all_dims) or [None]
    warp_options: list[str | None] = list(op.ispace.reduction) or [None]
    best: ConfigMeasurement | None = None
    for in_layouts, out_layouts in layout_variants:
        for vec in vec_options:
            for warp in warp_options:
                config = OpConfig(
                    op_name=op.name,
                    input_layouts=in_layouts,
                    output_layouts=out_layouts,
                    vector_dim=vec,
                    warp_reduce_dim=warp,
                )
                kt = cost.time_op(op, config, env)
                if kt is None:
                    continue
                m = ConfigMeasurement(config=config, time=kt)
                if best is None or m.total_us < best.total_us:
                    best = m
    return best


PIPELINE = Pipeline(
    transposes=transpose_pricer,
    solve_chain=solve_chain,
    chain_pick=chain_pick,
    best_coherent=best_coherent,
    best_consistent=best_consistent,
    transpose_alt=transpose_alt,
    construct_consistent=construct_consistent,
)

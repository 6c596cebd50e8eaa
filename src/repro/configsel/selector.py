"""Global configuration selection (Sec. VI-A) and end-to-end assembly.

Builds the layered configuration DAG over the forward primary chain
(Fig. 6), runs SSSP to pick the globally best layout sequence — allowing
locally suboptimal operators when a layout change downstream pays off
("Sometimes locally suboptimal layouts need to be selected to improve
performance globally", Sec. VI-B) — then infers the configurations of all
remaining operators (backward, dW, residual side chains) from the pinned
activation layouts, inserting explicit transposes where no compatible
configuration exists.

:func:`select_configurations` is one skeleton over six per-step
operations (a :class:`Pipeline`): solve the chain, pick a chain config,
best coherent GEMM, best consistent kernel, transpose alternative, and
construct a consistent kernel.  This module holds the vectorized six.
They work on small integer ids, not on ``Layout`` objects: a sweep's
``operand_layout_arrays()`` gives each operand slot its distinct layouts
(at most rank!, 24 for rank 4) and one id per measurement, so a pin, a
boundary layout or a projected layout is judged once per distinct
layout, and a mask or a penalty is that small table gathered by the ids.
Each chain step becomes a dense ``(n_layouts_in, n_layouts_out)``
min-plus cost matrix (:func:`build_chain_matrices`), the chain is solved
with one broadcast relaxation per layer
(:func:`~repro.configsel.sssp.shortest_path_layered`), and the
consistent-kernel grid (2 layout variants x vector dims x warp dims) is
timed in one batched roofline call.  Transposes are priced from a table
filled once per selection (:func:`transpose_table`).

The scalar reference six live in :mod:`repro.configsel.reference`
(``fast=False``), mirroring the ``sweep_op`` / ``sweep_op_reference``
contract of the sweep engine.  The two are **bit-identical**: chosen
configurations, inserted transposes and the chain cost are equal object
for object.  Ties resolve identically because scalar scans keep the first
minimum in sorted-measurement order and ``np.argmin`` does the same, and
every floating-point sum is associated in the same order on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro import obs
from repro.autotuner.tuner import ConfigMeasurement, OperandLayouts, SweepResult
from repro.engine import sweep_graph
from repro.engine.batched import evaluate_kernel, roofline_totals
from repro.engine.space import KernelSpace
from repro.hardware.cost_model import CostModel, KernelTime
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.ir.operator import OpClass, OpSpec
from repro.ir.tensor import TensorSpec
from repro.layouts.layout import Layout, all_layouts

from .chain import ChainStep, primary_chain, project_layout
from .sssp import SSSPError, shortest_path_layered

__all__ = [
    "SelectedConfiguration",
    "TransposeInsertion",
    "select_configurations",
    "build_chain_matrices",
    "ChainMatrices",
    "Pipeline",
    "transpose_table",
]


# ---------------------------------------------------------------------------
# Transpose costs: one table per selection
# ---------------------------------------------------------------------------

def transpose_table(cost: CostModel, env: DimEnv) -> Callable[[TensorSpec], float]:
    """Each tensor's transpose time under one selection's model and sizes.

    A transpose's cost depends only on the tensor, never on the (from, to)
    layout pair, yet selection prices the same tensors across chain steps,
    penalties and inference.  The table computes each on first use; it
    lives as long as the selection that made it, so nothing outlives a
    request.
    """
    table: dict[TensorSpec, float] = {}

    def transpose_us(spec: TensorSpec) -> float:
        us = table.get(spec)
        if us is None:
            us = table[spec] = cost.time_transpose(spec, env).total_us
        return us

    return transpose_us


@dataclass(frozen=True)
class TransposeInsertion:
    """An explicit layout-change kernel inserted between two operators."""

    tensor: str
    from_layout: Layout
    to_layout: Layout
    time_us: float
    before_op: str


@dataclass
class SelectedConfiguration:
    """The assembled end-to-end implementation."""

    chain: list[ChainStep]
    chosen: dict[str, ConfigMeasurement]
    pinned_layouts: dict[str, Layout]
    transposes: list[TransposeInsertion] = field(default_factory=list)
    chain_cost_us: float = 0.0
    #: Content digest this selection was registered under (when
    #: ``select_configurations(register=...)`` persisted it), else None.
    registered_digest: str | None = None

    def op_time_us(self, op_name: str) -> float:
        return self.chosen[op_name].total_us

    @property
    def transpose_us(self) -> float:
        return sum(t.time_us for t in self.transposes)

    @property
    def total_us(self) -> float:
        """End-to-end predicted time: all kernels plus inserted transposes."""
        return sum(m.total_us for m in self.chosen.values()) + self.transpose_us


class Pipeline(NamedTuple):
    """How transposes are priced, and the six per-step operations
    :func:`select_configurations` runs.

    The vectorized six live here; :data:`repro.configsel.reference.PIPELINE`
    holds the scalar six with the same signatures.  ``transpose_us`` below
    is what ``transposes(cost, env)`` returned for the selection: a
    ``TensorSpec -> float`` function.
    """

    #: ``(cost, env) -> transpose_us``, called once per selection.
    transposes: Callable
    #: ``(graph, chain, sweeps, transpose_us) -> (chain cost, boundary
    #: layouts per step, chain transposes)``.
    solve_chain: Callable
    #: ``(op, sweep, step, lin, lnext, out_spec, next_spec, pinned,
    #: transpose_us) -> ConfigMeasurement`` honoring the SSSP boundary
    #: layouts.
    chain_pick: Callable
    #: ``(op, sweep, pinned, transpose_us) -> ConfigMeasurement | None``.
    best_coherent: Callable
    #: ``(op, sweep, pinned) -> ConfigMeasurement | None``.
    best_consistent: Callable
    #: ``(op, sweep, pinned, transpose_us) -> (config | None, transposes,
    #: kernel + transpose cost)``.
    transpose_alt: Callable
    #: ``(op, sweep, pinned, env, cost) -> ConfigMeasurement | None``: the
    #: best pin-consistent configuration of a flexible kernel, built rather
    #: than looked up.
    construct_consistent: Callable


# ---------------------------------------------------------------------------
# Chain graph: dense min-plus matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainMatrices:
    """The Fig.-6 layered DAG in dense min-plus form.

    ``boundaries[i]`` enumerates the layouts of chain step ``i``'s input
    tensor (``all_layouts`` order — the row/column order of every matrix);
    ``transpose_us[i]`` is the uniform off-diagonal weight of the boundary's
    transpose block; ``op_cost[i]`` the ``(n_i, n_{i+1})`` operator-edge
    matrix (the final step's matrix has one target column).
    """

    boundaries: list[tuple[Layout, ...]]
    transpose_us: list[float]
    op_cost: list[np.ndarray]


def build_chain_matrices(
    graph: DataflowGraph,
    chain: list[ChainStep],
    sweeps: dict[str, SweepResult],
    transpose_us: Callable[[TensorSpec], float],
) -> ChainMatrices:
    """Chain-step cost matrices straight from the sweep's array views.

    For each step, every measurement contributes its ``total_us`` to the
    ``(in layout, projected out layout)`` cell it occupies and each cell
    keeps its minimum — the same per-layout-pair minima the scalar
    :func:`~repro.configsel.reference.build_config_graph` derives
    measurement by measurement, computed here with one NumPy
    gather/scatter per step.  Boundary positions and ``project_layout``
    are evaluated once per distinct layout of the slot, not per
    measurement.
    """
    boundaries = [
        tuple(all_layouts(graph.container(step.in_tensor).dims)) for step in chain
    ]
    positions = [{l.dims: k for k, l in enumerate(b)} for b in boundaries]
    op_cost: list[np.ndarray] = []
    for idx, step in enumerate(chain):
        op = graph.op(step.op_name)
        arrays = sweeps[step.op_name].operand_layout_arrays()
        vocabs = arrays.vocabs
        slot_out = len(op.inputs) + step.out_index

        rows_of = np.array(
            [
                positions[idx].get(v.dims, -1) if v is not None else -1
                for v in vocabs[step.in_index]
            ],
            dtype=np.int64,
        )
        if idx + 1 < len(chain):
            out_spec = graph.container(step.out_tensor)
            next_spec = graph.container(chain[idx + 1].in_tensor)
            identity = step.out_tensor == chain[idx + 1].in_tensor

            def col_of(v: Layout | None) -> int:
                if v is None:
                    return -1
                projected = v if identity else project_layout(v, out_spec, next_spec)
                if projected is None:
                    return -1
                return positions[idx + 1].get(projected.dims, -1)

            cols_of = np.array([col_of(v) for v in vocabs[slot_out]], dtype=np.int64)
            n_cols = len(boundaries[idx + 1])
        else:
            cols_of = np.zeros(len(vocabs[slot_out]), dtype=np.int64)
            n_cols = 1

        rows = np.take(rows_of, arrays.ids[step.in_index])
        cols = np.take(cols_of, arrays.ids[slot_out])
        valid = (rows >= 0) & (cols >= 0)
        m = np.full((len(boundaries[idx]), n_cols), np.inf)
        # On the flat view: a 1-D ``minimum.at`` is several times faster.
        np.minimum.at(m.ravel(), rows[valid] * n_cols + cols[valid], arrays.totals[valid])
        if not np.isfinite(m).any():
            raise SSSPError(f"no usable configurations for chain op {step.op_name!r}")
        op_cost.append(m)
    return ChainMatrices(
        boundaries=boundaries,
        transpose_us=[transpose_us(graph.container(s.in_tensor)) for s in chain],
        op_cost=op_cost,
    )


def _solve_chain_fast(
    graph: DataflowGraph,
    chain: list[ChainStep],
    sweeps: dict[str, SweepResult],
    transpose_us: Callable[[TensorSpec], float],
) -> tuple[float, list[tuple[Layout, Layout | None]], list[tuple[int, Layout, Layout]]]:
    """Solve the chain on the dense matrices and decode boundary layouts.

    Expands each boundary into its transpose block (0 diagonal, uniform
    off-diagonal) followed by its operator matrix, runs the layered
    min-plus relaxation, and reads the chosen arrival/departure layout per
    boundary from the stored argmins — the exact structure (and tie
    behavior) of the scalar graph walk.
    """
    # Both phases are called through this module's globals: the
    # benchmark's per-layer timers (benchmarks/perf/layers.py) replace
    # ``build_chain_matrices`` and ``shortest_path_layered`` here.
    mats = build_chain_matrices(graph, chain, sweeps, transpose_us)
    layers: list[np.ndarray] = [np.zeros((1, len(mats.boundaries[0])))]
    for idx in range(len(chain)):
        n = len(mats.boundaries[idx])
        t = np.full((n, n), mats.transpose_us[idx])
        np.fill_diagonal(t, 0.0)
        layers.append(t)
        layers.append(mats.op_cost[idx])
    chain_cost, nodes = shortest_path_layered(layers)

    steps: list[tuple[Layout, Layout | None]] = []
    transposes: list[tuple[int, Layout, Layout]] = []
    for i in range(len(chain)):
        arrived = mats.boundaries[i][nodes[2 * i]]
        consumed = mats.boundaries[i][nodes[2 * i + 1]]
        if arrived != consumed:
            transposes.append((i, arrived, consumed))
        nxt = (
            mats.boundaries[i + 1][nodes[2 * i + 2]] if i + 1 < len(chain) else None
        )
        steps.append((consumed, nxt))
    return chain_cost, steps, transposes


# ---------------------------------------------------------------------------
# Vectorized per-operator inference (masked argmins over sweep arrays)
# ---------------------------------------------------------------------------

def _operands(op: OpSpec):
    return (*op.inputs, *op.outputs)


def _matching(vocab: list, ids: np.ndarray, pred: Callable) -> np.ndarray:
    """Per config: does its layout in this slot satisfy ``pred``?

    ``pred`` is judged once per distinct layout; the mask is then one
    comparison per accepted id, or per rejected id when fewer are.
    """
    hits = [pred(v) for v in vocab]
    flip = 2 * sum(hits) > len(hits)
    mask = np.zeros(ids.shape, dtype=bool)
    for k, hit in enumerate(hits):
        if hit != flip:
            mask |= ids == k
    return ~mask if flip else mask


def _fast_consistent_mask(
    op: OpSpec, arrays: OperandLayouts, pinned: dict[str, Layout]
) -> np.ndarray:
    """Boolean per-config mask: every pinned operand in its pin."""
    mask = np.ones(arrays.totals.shape[0], dtype=bool)
    for s, t in enumerate(_operands(op)):
        pin = pinned.get(t.name)
        if pin is not None:
            mask &= _matching(
                arrays.vocabs[s], arrays.ids[s], lambda v: v is None or v == pin
            )
    return mask


def _fast_penalty(
    op: OpSpec,
    arrays: OperandLayouts,
    rows: np.ndarray,
    pinned: dict[str, Layout],
    transpose_us: Callable[[TensorSpec], float],
    *,
    pinned_full: bool,
    free_half: bool,
) -> np.ndarray:
    """Per-config layout penalty of the configs ``rows``.

    ``pinned_full`` charges a pinned operand held in another layout its
    full transpose cost; ``free_half`` charges an unpinned operand of rank
    > 1 held in a non-default layout half of it.  Each operand slot adds
    its charge where its ids say the charge applies; slots accumulate in
    operand order, so every sum associates as the scalar per-measurement
    loops do.
    """
    pen = np.zeros(rows.size)
    for s, t in enumerate(_operands(op)):
        pin = pinned.get(t.name)
        if pin is not None:
            if not pinned_full:
                continue
            charge = transpose_us(t)
            charged = _matching(
                arrays.vocabs[s], arrays.ids[s][rows], lambda v: not (v is None or v == pin)
            )
        elif free_half and t.rank > 1:
            charge = 0.5 * transpose_us(t)
            charged = _matching(
                arrays.vocabs[s],
                arrays.ids[s][rows],
                lambda v: v is not None and v.dims != t.dims,
            )
        else:
            continue
        pen = pen + charged * charge
    return pen


def _pick(
    sweep: SweepResult,
    arrays: OperandLayouts,
    cand: np.ndarray,
    score: np.ndarray | None = None,
) -> ConfigMeasurement:
    """The measurement minimizing ``score`` over the configs ``cand``
    (ascending evaluation indices, or a prefix of the sorted order;
    ``score`` ``None``: their totals).

    Ties go to the first in sorted order — the least total, then the least
    evaluation index — which is the config the scalar scans and an
    ``np.argmin`` over sorted measurements keep.
    """
    if score is not None:
        cand = cand[score == score.min()]
    if cand.size > 1:
        totals = arrays.totals[cand]
        cand = cand[totals == totals.min()]
    return sweep.measurements[arrays.position(int(cand[0]))]


def _near_ties(arrays: OperandLayouts, mask: np.ndarray, tolerance: float) -> np.ndarray:
    """The configs of ``mask`` within ``tolerance`` of its fastest one."""
    limit = arrays.totals[mask].min() * tolerance
    return np.flatnonzero(mask & (arrays.totals <= limit))


def _fast_best_consistent(
    op: OpSpec, sweep: SweepResult, pinned: dict[str, Layout]
) -> ConfigMeasurement | None:
    arrays = sweep.operand_layout_arrays()
    cand = np.flatnonzero(_fast_consistent_mask(op, arrays, pinned))
    if cand.size == 0:
        return None
    return _pick(sweep, arrays, cand)


def _fast_best_coherent(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    transpose_us: Callable[[TensorSpec], float],
    *,
    tolerance: float = 1.5,
) -> ConfigMeasurement | None:
    """Best pin-consistent config within ``tolerance`` of the fastest one,
    charging each non-default unpinned operand half its transpose cost
    (see :func:`repro.configsel.reference.best_coherent`)."""
    arrays = sweep.operand_layout_arrays()
    mask = _fast_consistent_mask(op, arrays, pinned)
    if not mask.any():
        return None
    cand = _near_ties(arrays, mask, tolerance)
    pen = _fast_penalty(
        op, arrays, cand, pinned, transpose_us, pinned_full=False, free_half=True
    )
    return _pick(sweep, arrays, cand, arrays.totals[cand] + pen)


#: How many sorted configs :func:`_fast_transpose_alt` scores to bound its
#: search (a 20,000-config sweep then scores about a fifth of its configs).
_ALT_HEAD = 64


def _fast_transpose_alt(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    transpose_us: Callable[[TensorSpec], float],
) -> tuple[ConfigMeasurement | None, list[TransposeInsertion], float]:
    """Cheapest (kernel + pin-fixing transposes) point of the whole sweep.

    The scalar scan walks the sorted measurements accumulating a
    shrinking bound; the closed form is a plain argmin of
    ``total_us + transpose cost of every pinned mismatch``.  Transposes
    only add time, so the best score among the first ``_ALT_HEAD`` sorted
    configs bounds it: only the configs of a smaller total can beat that
    one, and only those are scored.
    """
    arrays = sweep.operand_layout_arrays()
    sorted_totals = sweep.totals_array()
    if sorted_totals.size == 0:
        return None, [], float("inf")

    def scores(rows: np.ndarray) -> np.ndarray:
        return arrays.totals[rows] + _fast_penalty(
            op, arrays, rows, pinned, transpose_us, pinned_full=True, free_half=False
        )

    head = arrays.first(min(_ALT_HEAD, sorted_totals.size))
    bound = int(np.searchsorted(sorted_totals, scores(head).min(), side="left"))
    cand = arrays.first(max(bound, head.size))
    score = scores(cand)
    m = _pick(sweep, arrays, cand, score)
    return m, _needed_transposes(op, m, pinned, transpose_us), float(score.min())


def _fast_chain_pick(
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
    """Boundary match, then the argmin of ``total_us`` plus
    :func:`_chain_penalty` among near-ties (within 1.5x)."""
    arrays = sweep.operand_layout_arrays()
    vocabs, ids = arrays.vocabs, arrays.ids
    mask = _matching(
        vocabs[step.in_index], ids[step.in_index], lambda v: v is not None and v == lin
    )
    if lnext is not None:
        slot_out = len(op.inputs) + step.out_index

        def ok(v: Layout | None) -> bool:
            if v is None:
                return False
            projected = (
                v
                if next_spec is not None and step.out_tensor == next_spec.name
                else project_layout(v, out_spec, next_spec)
            )
            return projected == lnext

        mask &= _matching(vocabs[slot_out], ids[slot_out], ok)
    if not mask.any():
        raise SSSPError(f"decoded path has no configuration for {step.op_name!r}")
    cand = _near_ties(arrays, mask, 1.5)
    pen = _fast_penalty(
        op, arrays, cand, pinned, transpose_us, pinned_full=True, free_half=True
    )
    return _pick(sweep, arrays, cand, arrays.totals[cand] + pen)


def _fast_construct_consistent(
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
    The grid — 2 layout variants x vector dims x warp dims, in the scalar
    loop's order (:func:`repro.configsel.reference.construct_consistent`) —
    is one :class:`~repro.engine.space.KernelSpace` timed by the batched
    roofline, which is bit-identical to ``cost.time_op``; ``np.argmin``
    keeps the scalar loop's first minimum.
    """
    variants = (
        tuple(pinned.get(t.name, l) for t, l in _iter_operand_layouts(op, sweep.best)),
        tuple(pinned.get(t.name, Layout(t.dims)) for t in _operands(op)),
    )
    # Per slot, its one or two layouts; each variant's row holds their ids.
    choices = [list(dict.fromkeys(slot)) for slot in zip(*variants)]
    vec_choices: list[str | None] = list(op.ispace.all_dims) or [None]
    warp_choices: list[str | None] = list(op.ispace.reduction) or [None]
    idx = np.array(
        [
            [c.index(l) for c, l in zip(choices, variant)] + [v, w]
            for variant in variants
            for v in range(len(vec_choices))
            for w in range(len(warp_choices))
        ],
        dtype=np.int64,
    )
    space = KernelSpace(
        op=op,
        layout_choices=choices,
        vec_choices=vec_choices,
        warp_choices=warp_choices,
        idx=idx,
    )
    compute_us, memory_us = evaluate_kernel(space, env, cost.gpu, cost.params)
    launch_us = cost.gpu.kernel_launch_us
    j = int(np.argmin(roofline_totals(launch_us, compute_us, memory_us)))
    return ConfigMeasurement(
        config=space.config_at(j),
        time=KernelTime(
            compute_us=float(compute_us[j]),
            memory_us=float(memory_us[j]),
            launch_us=launch_us,
        ),
    )


FAST_PIPELINE = Pipeline(
    transposes=transpose_table,
    solve_chain=_solve_chain_fast,
    chain_pick=_fast_chain_pick,
    best_coherent=_fast_best_coherent,
    best_consistent=_fast_best_consistent,
    transpose_alt=_fast_transpose_alt,
    construct_consistent=_fast_construct_consistent,
)


# ---------------------------------------------------------------------------
# Helpers shared by the skeleton and both pipelines
# ---------------------------------------------------------------------------

def _chain_penalty(
    op: OpSpec,
    m: ConfigMeasurement,
    pinned: dict[str, Layout],
    transpose_us: Callable[[TensorSpec], float],
) -> float:
    """Layout penalty of a chain-step candidate.

    Mismatching an already-pinned operand needs a real transpose: charge
    it in full.  Leaving a free operand in a non-default layout costs its
    neighbours: charge half (coherence for later inference).
    """
    p = 0.0
    for t, l in _iter_operand_layouts(op, m):
        if t.name in pinned:
            if pinned[t.name] != l:
                p += transpose_us(t)
        elif l.dims != t.dims and t.rank > 1:
            p += 0.5 * transpose_us(t)
    return p


def _needed_transposes(
    op: OpSpec,
    m: ConfigMeasurement,
    pinned: dict[str, Layout],
    transpose_us: Callable[[TensorSpec], float],
) -> list[TransposeInsertion]:
    """Transposes required to run ``m`` against the current pins."""
    return [
        TransposeInsertion(
            tensor=t.name,
            from_layout=pinned[t.name],
            to_layout=layout,
            time_us=transpose_us(t),
            before_op=op.name,
        )
        for t, layout in _iter_operand_layouts(op, m)
        if t.name in pinned and pinned[t.name] != layout
    ]


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def select_configurations(
    graph: DataflowGraph,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    sweeps: dict[str, SweepResult] | None = None,
    source: str = "x",
    cap: int | None = 1000,
    seed: int = 0x5EED,
    jobs: int | None = None,
    fast: bool = True,
    register=None,
) -> SelectedConfiguration:
    """Run Step 4: global layout selection and full-graph assembly.

    Sweeps route through the engine scheduler (two-tier cache, structural
    dedup); ``jobs`` parallelizes cold sweeps without changing results.
    ``fast=False`` runs the scalar reference pipeline of
    :mod:`repro.configsel.reference` instead of the vectorized one; the
    two are bit-identical, so it exists only to check that contract.

    ``register`` persists the finished selection as a content-addressed
    :class:`~repro.registry.ScheduleEntry`: pass a
    :class:`~repro.registry.ScheduleRegistry`, or ``True`` to use the
    process-active registry (silently skipped when none is configured).
    The entry's digest lands in ``registered_digest``.  ``seed`` is the
    sampling seed the sweeps — and the registered digest — are keyed by.
    """
    cost = cost or CostModel()
    if fast:
        pipeline = FAST_PIPELINE
    else:
        from .reference import PIPELINE as pipeline
    if sweeps is None:
        sweeps = sweep_graph(graph, env, cost, cap=cap, seed=seed, jobs=jobs)
    with obs.span(
        "configsel.select", ops=len(sweeps), source=source
    ):
        return _select_configurations_swept(
            graph, env, cost, sweeps=sweeps, source=source, cap=cap,
            seed=seed, pipeline=pipeline, register=register,
        )


def _select_configurations_swept(
    graph: DataflowGraph,
    env: DimEnv,
    cost: CostModel,
    *,
    sweeps: dict[str, SweepResult],
    source: str,
    cap: int | None,
    seed: int,
    pipeline: Pipeline,
    register,
) -> SelectedConfiguration:
    transpose_us = pipeline.transposes(cost, env)
    chain = primary_chain(graph, source=source)
    chain_cost, boundary, chain_transposes = pipeline.solve_chain(
        graph, chain, sweeps, transpose_us
    )

    chosen: dict[str, ConfigMeasurement] = {}
    pinned: dict[str, Layout] = {}
    transposes: list[TransposeInsertion] = []
    for idx, from_l, to_l in chain_transposes:
        spec = graph.container(chain[idx].in_tensor)
        transposes.append(
            TransposeInsertion(
                tensor=spec.name,
                from_layout=from_l,
                to_layout=to_l,
                time_us=transpose_us(spec),
                before_op=chain[idx].op_name,
            )
        )

    # 1. Chain operators: honor the SSSP-selected boundary layouts.  Among
    #    near-tie configurations matching the boundary we prefer default
    #    layouts for the free operands (coherence for later inference).
    for step_idx, (step, (lin, lnext)) in enumerate(zip(chain, boundary)):
        sweep = sweeps[step.op_name]
        op = graph.op(step.op_name)
        out_spec = graph.container(step.out_tensor)
        next_spec = (
            graph.container(chain[step_idx + 1].in_tensor)
            if lnext is not None
            else None
        )
        pick = pipeline.chain_pick(
            op, sweep, step, lin, lnext, out_spec, next_spec, pinned, transpose_us
        )

        # Flexible chain kernels: also try free operands in default layouts
        # with re-optimized vector/warp dims (the sparse sampled sweep may
        # miss the coherent point entirely).
        if (
            op.op_class is not OpClass.TENSOR_CONTRACTION
            and lnext is not None
            and next_spec is not None
            and step.out_tensor == next_spec.name
        ):
            temp_pins = dict(pinned)
            temp_pins[step.in_tensor] = lin
            temp_pins[step.out_tensor] = lnext
            constructed = pipeline.construct_consistent(
                op, sweep, temp_pins, env, cost
            )
            if constructed is not None and (
                constructed.total_us + _chain_penalty(op, constructed, pinned, transpose_us)
                < pick.total_us + _chain_penalty(op, pick, pinned, transpose_us)
            ):
                pick = constructed
        chosen[step.op_name] = pick
        # Record real transposes for operands that were pinned earlier and
        # mismatch (e.g. the residual skip of BDRLN1 reading ``x`` in a
        # different layout than the projection chose).
        transposes.extend(_needed_transposes(op, pick, pinned, transpose_us))
        _pin_config(op, pick, pinned, overwrite=False)
        # The SSSP boundary decision overrides any earlier soft pin.
        pinned[step.in_tensor] = lin

    # 2. Remaining operators, contractions first: the expensive GEMMs get
    #    the layout freedom; the flexible memory-bound kernels then adapt to
    #    whatever layouts are pinned (they accept any combination).
    remaining = [op for op in graph.ops if not op.is_view and op.name not in chosen]
    contractions = [
        op for op in remaining if op.op_class is OpClass.TENSOR_CONTRACTION
    ]
    flexible = [op for op in remaining if op.op_class is not OpClass.TENSOR_CONTRACTION]

    for op in contractions:
        sweep = sweeps[op.name]
        # Running in a different layout plus explicit transposes may beat the
        # best pin-consistent GEMM (the paper's transpose-vs-layout
        # tradeoff).  Scanning all configurations lets the fallback choose
        # *which* operand to transpose — mismatching a small weight-gradient
        # tensor is far cheaper than mismatching a sequence-sized activation.
        consistent = pipeline.best_coherent(op, sweep, pinned, transpose_us)
        best_alt, best_alt_needed, best_alt_cost = pipeline.transpose_alt(
            op, sweep, pinned, transpose_us
        )
        if consistent is not None and consistent.total_us <= best_alt_cost:
            chosen[op.name] = consistent
            _pin_config(op, consistent, pinned, overwrite=False)
        else:
            assert best_alt is not None
            chosen[op.name] = best_alt
            transposes.extend(best_alt_needed)
            _pin_config(op, best_alt, pinned, overwrite=False)

    for op in flexible:
        sweep = sweeps[op.name]
        match = pipeline.best_consistent(op, sweep, pinned)
        constructed = pipeline.construct_consistent(op, sweep, pinned, env, cost)
        if constructed is not None and (
            match is None or constructed.total_us < match.total_us
        ):
            match = constructed
        if match is None:
            match = sweep.best
        # A badly pinned operand can make even the re-optimized consistent
        # kernel slow; transposing some operands and running a faster config
        # may win (the same tradeoff the SSSP transpose edges encode).  The
        # scan picks which operands to transpose.
        alt, alt_needed, alt_cost = pipeline.transpose_alt(
            op, sweep, pinned, transpose_us
        )
        if alt is not None and alt_cost < match.total_us:
            chosen[op.name] = alt
            transposes.extend(alt_needed)
            _pin_config(op, alt, pinned, overwrite=False)
        else:
            chosen[op.name] = match
            _pin_config(op, match, pinned, overwrite=False)

    selected = SelectedConfiguration(
        chain=chain,
        chosen=chosen,
        pinned_layouts=pinned,
        transposes=transposes,
        chain_cost_us=chain_cost,
    )
    if register:
        # Lazy import: the registry package pulls in the service protocol,
        # which this hot module must not load unless registration is asked.
        from repro.registry import get_schedule_registry, register_selection

        registry = register if register is not True else get_schedule_registry()
        if registry is not None:
            entry = register_selection(
                registry,
                graph,
                env,
                cost,
                selected,
                cap=cap,
                seed=seed,
                source=source,
                registrar="select_configurations",
            )
            selected.registered_digest = entry.digest
    return selected


def _iter_operand_layouts(op: OpSpec, m: ConfigMeasurement):
    for t, l in zip(op.inputs, m.config.input_layouts):
        yield t, l
    for t, l in zip(op.outputs, m.config.output_layouts):
        yield t, l


def _pin_config(
    op: OpSpec, m: ConfigMeasurement, pinned: dict[str, Layout], *, overwrite: bool = True
) -> None:
    for t, l in _iter_operand_layouts(op, m):
        if overwrite or t.name not in pinned:
            pinned[t.name] = l

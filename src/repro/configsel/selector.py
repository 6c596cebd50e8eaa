"""Global configuration selection (Sec. VI-A) and end-to-end assembly.

Builds the layered configuration DAG over the forward primary chain
(Fig. 6), runs SSSP to pick the globally best layout sequence — allowing
locally suboptimal operators when a layout change downstream pays off
("Sometimes locally suboptimal layouts need to be selected to improve
performance globally", Sec. VI-B) — then infers the configurations of all
remaining operators (backward, dW, residual side chains) from the pinned
activation layouts, inserting explicit transposes where no compatible
configuration exists.

:func:`select_configurations` is one skeleton over five per-step
operations (a :class:`Pipeline`): solve the chain, pick a chain config,
best coherent GEMM, best consistent kernel, and transpose alternative.
This module holds the vectorized five: each chain step becomes a dense
``(n_layouts_in, n_layouts_out)`` min-plus cost matrix
(:func:`build_chain_matrices`), the chain is solved with one broadcast
relaxation per layer (:func:`~repro.configsel.sssp.shortest_path_layered`),
and remaining-operator inference runs as masked argmins over the sweep's
array views (:meth:`~repro.autotuner.tuner.SweepResult.totals_array` /
``operand_layout_arrays``) instead of per-measurement Python loops.

The scalar reference five live in :mod:`repro.configsel.reference`
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
from repro.autotuner.tuner import ConfigMeasurement, SweepResult
from repro.engine import sweep_graph
from repro.hardware.cost_model import CostModel
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
]


# ---------------------------------------------------------------------------
# Transpose-cost memo
# ---------------------------------------------------------------------------

#: Transpose cost depends only on the tensor's dims/sizes/dtype and the
#: GPU — never on the particular (from, to) layout pair — yet selection
#: re-costs the same tensors across chain steps, penalties and inference.
#: One process-wide memo turns those repeats into dict hits.  Bounded: the
#: daemon optimizes arbitrary client-supplied dims and GPU specs, and a
#: weeks-lived process must not grow with request variety.
_TRANSPOSE_MEMO: dict[tuple, float] = {}
_TRANSPOSE_MEMO_LIMIT = 65536


def _transpose_us(cost: CostModel, spec: TensorSpec, env: DimEnv) -> float:
    key = (cost.gpu, spec.dtype, spec.dims, tuple(env[d] for d in spec.dims))
    cached = _TRANSPOSE_MEMO.get(key)
    if cached is None:
        if len(_TRANSPOSE_MEMO) >= _TRANSPOSE_MEMO_LIMIT:
            _TRANSPOSE_MEMO.clear()
        cached = _TRANSPOSE_MEMO[key] = cost.time_transpose(spec, env).total_us
    return cached


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

    def stage_total_us(self, graph: DataflowGraph, *, backward: bool) -> float:
        total = 0.0
        for name, m in self.chosen.items():
            op = graph.op(name)
            if op.stage.is_backward == backward:
                total += m.total_us
        for t in self.transposes:
            op = graph.op(t.before_op)
            if op.stage.is_backward == backward:
                total += t.time_us
        return total


class Pipeline(NamedTuple):
    """The five per-step operations :func:`select_configurations` runs.

    The vectorized five live here; :data:`repro.configsel.reference.PIPELINE`
    holds the scalar five with the same signatures.
    """

    #: ``(graph, chain, sweeps, env, cost) -> (chain cost, boundary
    #: layouts per step, chain transposes)``.
    solve_chain: Callable
    #: ``(op, sweep, step, lin, lnext, out_spec, next_spec, pinned, env,
    #: cost) -> ConfigMeasurement`` honoring the SSSP boundary layouts.
    chain_pick: Callable
    #: ``(op, sweep, pinned, env, cost) -> ConfigMeasurement | None``.
    best_coherent: Callable
    #: ``(op, sweep, pinned) -> ConfigMeasurement | None``.
    best_consistent: Callable
    #: ``(op, sweep, pinned, env, cost) -> (config | None, transposes,
    #: kernel + transpose cost)``.
    transpose_alt: Callable


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
    env: DimEnv,
    cost: CostModel,
) -> ChainMatrices:
    """Chain-step cost matrices straight from the sweep's array views.

    For each step, every measurement contributes its ``total_us`` to the
    ``(in layout, projected out layout)`` cell it occupies and each cell
    keeps its minimum — the same per-layout-pair minima the scalar
    :func:`~repro.configsel.reference.build_config_graph` derives
    measurement by measurement, computed here with one NumPy
    gather/scatter per step.
    """
    boundaries = [
        tuple(all_layouts(graph.container(step.in_tensor).dims)) for step in chain
    ]
    positions = [{l.dims: k for k, l in enumerate(b)} for b in boundaries]
    transpose_us = [
        _transpose_us(cost, graph.container(step.in_tensor), env) for step in chain
    ]
    op_cost: list[np.ndarray] = []
    for idx, step in enumerate(chain):
        sweep = sweeps[step.op_name]
        op = graph.op(step.op_name)
        totals = sweep.totals_array()
        vocabs, ids = sweep.operand_layout_arrays()
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

        rows = rows_of[ids[step.in_index]]
        cols = cols_of[ids[slot_out]]
        valid = (rows >= 0) & (cols >= 0)
        m = np.full((len(boundaries[idx]), n_cols), np.inf)
        np.minimum.at(m, (rows[valid], cols[valid]), totals[valid])
        if not np.isfinite(m).any():
            raise SSSPError(f"no usable configurations for chain op {step.op_name!r}")
        op_cost.append(m)
    return ChainMatrices(
        boundaries=boundaries, transpose_us=transpose_us, op_cost=op_cost
    )


def _solve_chain_fast(
    graph: DataflowGraph,
    chain: list[ChainStep],
    sweeps: dict[str, SweepResult],
    env: DimEnv,
    cost: CostModel,
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
    mats = build_chain_matrices(graph, chain, sweeps, env, cost)
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


def _fast_consistent_mask(
    op: OpSpec, sweep: SweepResult, pinned: dict[str, Layout]
) -> np.ndarray:
    """Boolean per-measurement mask: every pinned operand in its pin."""
    vocabs, ids = sweep.operand_layout_arrays()
    mask: np.ndarray | None = None
    for s, t in enumerate(_operands(op)):
        pin = pinned.get(t.name)
        if pin is None:
            continue
        ok = np.array([v is None or v == pin for v in vocabs[s]], dtype=bool)
        col = ok[ids[s]]
        mask = col if mask is None else mask & col
    if mask is None:
        return np.ones(sweep.totals_array().shape[0], dtype=bool)
    return mask


def _fast_penalty(
    op: OpSpec,
    sweep: SweepResult,
    rows: np.ndarray | None,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
    *,
    pinned_full: bool,
    free_half: bool,
) -> np.ndarray:
    """Per-measurement layout penalty of ``rows`` (``None``: every row).

    ``pinned_full`` charges a pinned operand held in another layout its
    full transpose cost; ``free_half`` charges an unpinned operand of rank
    > 1 held in a non-default layout half of it.  Each operand slot turns
    its layout vocabulary into a penalty per vocabulary entry and gathers
    it per row; slots accumulate in operand order, so every sum
    associates as the scalar per-measurement loops do.
    """
    vocabs, ids = sweep.operand_layout_arrays()
    pen = np.zeros(sweep.totals_array().shape[0] if rows is None else rows.size)
    for s, t in enumerate(_operands(op)):
        pin = pinned.get(t.name)
        if pin is not None:
            if not pinned_full:
                continue
            full = _transpose_us(cost, t, env)
            vp = np.array([0.0 if (v is None or v == pin) else full for v in vocabs[s]])
        elif free_half and t.rank > 1:
            half = 0.5 * _transpose_us(cost, t, env)
            vp = np.array(
                [half if (v is not None and v.dims != t.dims) else 0.0 for v in vocabs[s]]
            )
        else:
            continue
        pen = pen + vp[ids[s] if rows is None else ids[s][rows]]
    return pen


def _fast_best_consistent(
    op: OpSpec, sweep: SweepResult, pinned: dict[str, Layout]
) -> ConfigMeasurement | None:
    idxs = np.flatnonzero(_fast_consistent_mask(op, sweep, pinned))
    if idxs.size == 0:
        return None
    return sweep.measurements[int(idxs[0])]


def _fast_best_coherent(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
    *,
    tolerance: float = 1.5,
) -> ConfigMeasurement | None:
    """Best pin-consistent config within ``tolerance`` of the fastest one,
    charging each non-default unpinned operand half its transpose cost
    (see :func:`repro.configsel.reference.best_coherent`)."""
    idxs = np.flatnonzero(_fast_consistent_mask(op, sweep, pinned))
    if idxs.size == 0:
        return None
    totals = sweep.totals_array()
    limit = totals[int(idxs[0])] * tolerance
    cand = idxs[idxs < np.searchsorted(totals, limit, side="right")]
    pen = _fast_penalty(
        op, sweep, cand, pinned, env, cost, pinned_full=False, free_half=True
    )
    return sweep.measurements[int(cand[np.argmin(totals[cand] + pen)])]


def _fast_transpose_alt(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
) -> tuple[ConfigMeasurement | None, list[TransposeInsertion], float]:
    """Cheapest (kernel + pin-fixing transposes) point of the whole sweep.

    The scalar scan walks the sorted measurements accumulating a
    shrinking bound; the closed form is a plain argmin of
    ``total_us + transpose cost of every pinned mismatch``, which this
    computes with one gather per operand slot.
    """
    totals = sweep.totals_array()
    if totals.size == 0:
        return None, [], float("inf")
    cand = totals + _fast_penalty(
        op, sweep, None, pinned, env, cost, pinned_full=True, free_half=False
    )
    i = int(np.argmin(cand))
    m = sweep.measurements[i]
    return m, _needed_transposes(op, m, pinned, env, cost), float(cand[i])


def _fast_chain_pick(
    op: OpSpec,
    sweep: SweepResult,
    step: ChainStep,
    lin: Layout,
    lnext: Layout | None,
    out_spec: TensorSpec,
    next_spec: TensorSpec | None,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
) -> ConfigMeasurement:
    """Boundary match, then the argmin of ``total_us`` plus
    :func:`_chain_penalty` among near-ties (within 1.5x)."""
    totals = sweep.totals_array()
    vocabs, ids = sweep.operand_layout_arrays()
    in_ok = np.array(
        [v is not None and v == lin for v in vocabs[step.in_index]], dtype=bool
    )
    mask = in_ok[ids[step.in_index]]
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

        out_ok = np.array([ok(v) for v in vocabs[slot_out]], dtype=bool)
        mask &= out_ok[ids[slot_out]]
    cand = np.flatnonzero(mask)
    if cand.size == 0:
        raise SSSPError(f"decoded path has no configuration for {step.op_name!r}")
    limit = totals[int(cand[0])] * 1.5
    cand = cand[cand < np.searchsorted(totals, limit, side="right")]
    pen = _fast_penalty(
        op, sweep, cand, pinned, env, cost, pinned_full=True, free_half=True
    )
    return sweep.measurements[int(cand[np.argmin(totals[cand] + pen)])]


FAST_PIPELINE = Pipeline(
    solve_chain=_solve_chain_fast,
    chain_pick=_fast_chain_pick,
    best_coherent=_fast_best_coherent,
    best_consistent=_fast_best_consistent,
    transpose_alt=_fast_transpose_alt,
)


# ---------------------------------------------------------------------------
# Helpers shared by the skeleton and both pipelines
# ---------------------------------------------------------------------------

def _chain_penalty(
    op: OpSpec,
    m: ConfigMeasurement,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
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
                p += _transpose_us(cost, t, env)
        elif l.dims != t.dims and t.rank > 1:
            p += 0.5 * _transpose_us(cost, t, env)
    return p


def _needed_transposes(
    op: OpSpec,
    m: ConfigMeasurement,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
) -> list[TransposeInsertion]:
    """Transposes required to run ``m`` against the current pins."""
    return [
        TransposeInsertion(
            tensor=t.name,
            from_layout=pinned[t.name],
            to_layout=layout,
            time_us=_transpose_us(cost, t, env),
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
    chain = primary_chain(graph, source=source)
    chain_cost, boundary, chain_transposes = pipeline.solve_chain(
        graph, chain, sweeps, env, cost
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
                time_us=_transpose_us(cost, spec, env),
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
            op, sweep, step, lin, lnext, out_spec, next_spec, pinned, env, cost
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
            constructed = _construct_consistent(op, sweep, temp_pins, env, cost)
            if constructed is not None and (
                constructed.total_us + _chain_penalty(op, constructed, pinned, env, cost)
                < pick.total_us + _chain_penalty(op, pick, pinned, env, cost)
            ):
                pick = constructed
        chosen[step.op_name] = pick
        # Record real transposes for operands that were pinned earlier and
        # mismatch (e.g. the residual skip of BDRLN1 reading ``x`` in a
        # different layout than the projection chose).
        transposes.extend(_needed_transposes(op, pick, pinned, env, cost))
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
        consistent = pipeline.best_coherent(op, sweep, pinned, env, cost)
        best_alt, best_alt_needed, best_alt_cost = pipeline.transpose_alt(
            op, sweep, pinned, env, cost
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
        constructed = _construct_consistent(op, sweep, pinned, env, cost)
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
            op, sweep, pinned, env, cost
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


def _construct_consistent(
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
    Shared verbatim by the scalar and fast pipelines.
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
    from repro.layouts.config import OpConfig

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

"""Exhaustive operator tuning (Step 3 of the recipe, Sec. V).

For every operator the tuner measures (under the cost model) every feasible
configuration — layouts, vectorization/warp dims, GEMM algorithm, tensor-core
mode — and records the full runtime distribution.  The distributions are the
paper's violin plots: Fig. 4 (contractions) and Fig. 5 (fused kernels); the
per-(input,output)-layout minima feed the configuration-selection graph of
Step 4.

Two implementations produce the same result:

* :func:`sweep_op` routes through the batched engine
  (:mod:`repro.engine`): the config space is enumerated once into arrays,
  the roofline is evaluated vectorized, measurements materialize lazily and
  evaluated payloads are cached in memory and, optionally, on disk.
* :func:`sweep_op_reference` is the original scalar per-config loop, kept
  as the semantic contract: the engine must be **bit-identical** to it
  (tier-1 and the property suite pin this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.hardware.cost_model import CostModel, KernelTime
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.ir.operator import OpClass, OpSpec
from repro.layouts.config import OpConfig
from repro.layouts.configspace import contraction_configs, kernel_configs

__all__ = [
    "ConfigMeasurement",
    "OperandLayouts",
    "SweepResult",
    "sweep_op",
    "sweep_op_reference",
    "sweep_graph",
]


@dataclass(frozen=True)
class ConfigMeasurement:
    """One point of a sweep: a configuration and its predicted time."""

    config: OpConfig
    time: KernelTime

    @property
    def total_us(self) -> float:
        return self.time.total_us


class OperandLayouts(NamedTuple):
    """A sweep's operand layouts as small integer ids, one per config.

    ``vocabs[s]`` lists the distinct layouts of operand slot ``s`` (the
    op's inputs, then its outputs); a ``None`` entry stands for configs
    that do not carry slot ``s`` (operand arity can differ across
    algorithm variants), which selection treats as unconstrained.
    ``ids[s]`` maps each config to its ``vocabs[s]`` index and ``totals``
    holds its ``total_us``, both in evaluation order.  ``order`` is the
    evaluation index at each sorted position (``measurements`` order), or
    ``None`` where evaluation order is sorted order.  So the first config
    in sorted order among any set is the one of least total, then least
    evaluation index.
    """

    vocabs: list[list]
    ids: list[np.ndarray]
    totals: np.ndarray
    order: np.ndarray | None

    def first(self, k: int) -> np.ndarray:
        """The evaluation indices of the first ``k`` configs in sorted order."""
        return np.arange(k) if self.order is None else self.order[:k]

    def position(self, j: int) -> int:
        """The sorted position (``measurements`` index) of config ``j``."""
        return j if self.order is None else int(np.flatnonzero(self.order == j)[0])


@dataclass
class SweepResult:
    """The full runtime distribution of one operator's configuration space."""

    op: OpSpec
    measurements: list[ConfigMeasurement] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Engine-built sweeps arrive pre-sorted (their sequence's sort() is
        # a no-op); plain lists are sorted here as before.
        self.measurements.sort(key=lambda m: m.total_us)
        self._pair_minima: dict[tuple[int, int], dict] = {}
        self._totals_arr: np.ndarray | None = None
        self._operand_arrays: OperandLayouts | None = None

    # -- distribution queries ------------------------------------------------
    @property
    def best(self) -> ConfigMeasurement:
        if not self.measurements:
            raise ValueError(f"no feasible configurations for {self.op.name!r}")
        return self.measurements[0]

    @property
    def worst(self) -> ConfigMeasurement:
        if not self.measurements:
            raise ValueError(f"no feasible configurations for {self.op.name!r}")
        return self.measurements[-1]

    @property
    def num_configs(self) -> int:
        return len(self.measurements)

    def times_us(self) -> list[float]:
        fast = getattr(self.measurements, "times_us", None)
        if fast is not None:
            # Engine sweeps keep the sorted totals as an array; reading them
            # avoids materializing any measurement objects.
            return fast()
        return [m.total_us for m in self.measurements]

    def totals_array(self) -> np.ndarray:
        """Sorted ``total_us`` values as one float64 array.

        Engine sweeps hand back their sorted-totals array without
        materializing any measurement; plain lists are converted (and
        cached) on first use.  The configuration-selection fast path reads
        this instead of looping ``measurements`` in Python.
        """
        if self._totals_arr is None:
            fast = getattr(self.measurements, "totals_array", None)
            if fast is not None:
                self._totals_arr = fast()
            else:
                self._totals_arr = np.array(
                    [m.total_us for m in self.measurements], dtype=float
                )
        return self._totals_arr

    def operand_layout_arrays(self) -> OperandLayouts:
        """Per-operand layout ids, per-config totals, and the sort order.

        Engine-backed sweeps read them straight from the config space,
        which interned each operand slot's layouts where it built them, in
        evaluation order (no per-measurement gather); list-backed sweeps
        are indexed in one pass, in sorted order.  Layout predicates
        (consistency with pins, penalty terms) then become one small
        vocabulary scan plus a NumPy comparison per accepted id instead of
        a Python loop over every measurement.
        """
        if self._operand_arrays is None:
            fast = getattr(self.measurements, "operand_layout_index", None)
            arrays = fast() if fast is not None else None
            if arrays is None:
                vocabs, ids = self._index_operand_layouts()
                arrays = OperandLayouts(vocabs, ids, self.totals_array(), None)
            self._operand_arrays = arrays
        return self._operand_arrays

    def _index_operand_layouts(self) -> tuple[list, list]:
        n_in = len(self.op.inputs)
        n_out = len(self.op.outputs)
        slots = n_in + n_out
        n = len(self.measurements)
        vocabs: list[list] = [[] for _ in range(slots)]
        lookup: list[dict] = [{} for _ in range(slots)]
        ids = [np.empty(n, dtype=np.int64) for _ in range(slots)]
        for i, m in enumerate(self.measurements):
            ins = m.config.input_layouts
            outs = m.config.output_layouts
            for s in range(slots):
                if s < n_in:
                    layout = ins[s] if s < len(ins) else None
                else:
                    o = s - n_in
                    layout = outs[o] if o < len(outs) else None
                key = layout.dims if layout is not None else None
                k = lookup[s].get(key)
                if k is None:
                    k = lookup[s][key] = len(vocabs[s])
                    vocabs[s].append(layout)
                ids[s][i] = k
        return vocabs, ids

    def quantile_us(self, q: float) -> float:
        """Runtime at quantile ``q`` of the (sorted) distribution."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.measurements:
            raise ValueError(f"no feasible configurations for {self.op.name!r}")
        idx = round(q * (len(self.measurements) - 1))
        return self.measurements[idx].total_us

    def at_quantile(self, q: float) -> ConfigMeasurement:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        idx = round(q * (len(self.measurements) - 1))
        return self.measurements[idx]

    @property
    def spread(self) -> float:
        """worst/best runtime ratio (the length of the violin's tail)."""
        return self.worst.total_us / self.best.total_us

    # -- layout-conditioned minima (for the configuration graph) ---------------
    def layout_pair_minima(
        self, in_index: int, out_index: int
    ) -> dict[tuple[tuple[str, ...], tuple[str, ...]], float]:
        """Minimum runtime per (input[in_index], output[out_index]) layout pair.

        One cached pass over the sorted measurements (first hit per key is
        the minimum); the explicit Fig.-6 configuration graph
        (:func:`repro.configsel.reference.build_config_graph`) reads these
        minima per chain boundary instead of re-scanning every measurement.
        """
        key = (in_index, out_index)
        cached = self._pair_minima.get(key)
        if cached is None:
            cached = {}
            for m in self.measurements:
                c = m.config
                pair = (c.input_layouts[in_index].dims, c.output_layouts[out_index].dims)
                if pair not in cached:
                    cached[pair] = m.total_us
            self._pair_minima[key] = cached
        return cached


def sweep_op(
    op: OpSpec,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    cap: int | None = 2000,
    seed: int = 0x5EED,
) -> SweepResult:
    """Measure every feasible configuration of one operator (batched engine).

    Bit-identical to :func:`sweep_op_reference`; resolved through the
    engine's cache tiers.
    """
    from repro.engine.scheduler import sweep_op as _engine_sweep_op

    return _engine_sweep_op(op, env, cost, cap=cap, seed=seed)


def sweep_op_reference(
    op: OpSpec,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    cap: int | None = 2000,
    seed: int = 0x5EED,
) -> SweepResult:
    """The scalar reference sweep: one cost-model call per configuration.

    This is the engine's correctness contract — slow but obviously faithful
    to the per-config cost model.  Keep it in sync with nothing: the engine
    must follow *it*.
    """
    cost = cost or CostModel()
    if op.op_class is OpClass.TENSOR_CONTRACTION:
        configs = contraction_configs(op, env)
    else:
        configs = kernel_configs(op, env, cap=cap, seed=seed)
    measurements: list[ConfigMeasurement] = []
    for config in configs:
        kt = cost.time_op(op, config, env)
        if kt is None:
            continue
        measurements.append(ConfigMeasurement(config=config, time=kt))
    return SweepResult(op=op, measurements=measurements)


def sweep_graph(
    graph: DataflowGraph,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    cap: int | None = 2000,
    jobs: int | None = None,
) -> dict[str, SweepResult]:
    """Sweep every non-view operator of a graph; keyed by op name.

    Routes through the engine scheduler: structurally identical operators
    share one sweep, results persist in the engine's cache tiers, and cold
    sweeps run on ``jobs`` worker processes (``None`` defers to
    ``set_default_jobs``; results are identical at any job count).
    """
    from repro.engine.scheduler import sweep_graph as _engine_sweep_graph

    return _engine_sweep_graph(graph, env, cost, cap=cap, jobs=jobs)

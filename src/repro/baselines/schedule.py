"""Framework schedules: apply a policy to a graph, produce timed kernels.

A :class:`Schedule` is the list of kernels a framework actually launches
for one training iteration of the layer, each with its configuration,
predicted time, achieved %-of-peak and MUE — i.e. one side of Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.autotuner.tuner import SweepResult
from repro.configsel.selector import SelectedConfiguration, select_configurations
from repro.engine import sweep_graph
from repro.hardware.cost_model import CostModel
from repro.hardware.mue import op_mue
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.ir.operator import OpClass, OpSpec
from repro.layouts.config import OpConfig

from .policy import FrameworkPolicy

__all__ = ["ScheduledKernel", "Schedule", "build_schedule"]


@dataclass(frozen=True)
class ScheduledKernel:
    """One launched kernel with its predicted performance."""

    op: OpSpec
    config: OpConfig | None
    time_us: float
    flop: float
    io_bytes: int
    percent_peak: float
    mue: float

    @property
    def name(self) -> str:
        return self.op.name

    @property
    def kernel_label(self) -> str:
        return self.op.kernel_label or self.op.name


@dataclass
class Schedule:
    """All kernels one framework launches for the layer's fwd+bwd pass."""

    framework: str
    graph: DataflowGraph
    kernels: list[ScheduledKernel] = field(default_factory=list)
    extra_us: float = 0.0  # inserted transposes etc.

    @property
    def total_us(self) -> float:
        return sum(k.time_us for k in self.kernels) + self.extra_us

    def stage_us(self, *, backward: bool) -> float:
        t = sum(
            k.time_us for k in self.kernels if k.op.stage.is_backward == backward
        )
        if backward:
            t += self.extra_backward_us
        else:
            t += self.extra_forward_us
        return t

    # Transposes are attributed to the stage of the op they precede; the
    # builder fills these in.
    extra_forward_us: float = 0.0
    extra_backward_us: float = 0.0

    def class_runtime(self) -> dict[OpClass, float]:
        """Runtime per operator class (Table I's "% Runtime" numerator)."""
        acc: dict[OpClass, float] = {}
        for k in self.kernels:
            acc[k.op.op_class] = acc.get(k.op.op_class, 0.0) + k.time_us
        return acc

    def kernel_by_name(self, name: str) -> ScheduledKernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"no kernel {name!r} in schedule {self.framework!r}")


def _kernel_record(
    op: OpSpec,
    config: OpConfig | None,
    time_us: float,
    env: DimEnv,
    cost: CostModel,
) -> ScheduledKernel:
    flop = op.flops(env)
    io = op.io_bytes(env)
    return ScheduledKernel(
        op=op,
        config=config,
        time_us=time_us,
        flop=flop,
        io_bytes=io,
        percent_peak=cost.percent_of_peak(op, flop, time_us),
        mue=op_mue(op, time_us, env, cost.gpu),
    )


def build_schedule(
    graph: DataflowGraph,
    policy: FrameworkPolicy,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    sweeps: dict[str, SweepResult] | None = None,
    cap: int | None = 600,
    seed: int = 0x5EED,
    jobs: int | None = None,
    register=None,
) -> Schedule:
    """Time every kernel of ``graph`` under the framework's policy.

    ``graph`` must already reflect the policy's fusion choices (use
    :func:`repro.baselines.frameworks.framework_schedule` for the full
    pipeline from the policy alone).  Whole-graph sweeps route through the
    engine scheduler; ``jobs`` fans cold sweeps out over worker processes
    without changing any result.  ``"selected"``-mode policies take their
    layouts from :func:`~repro.configsel.selector.select_configurations`.
    ``register`` (a :class:`~repro.registry.ScheduleRegistry` or ``True``
    for the process-active one) persists the ``"selected"``-mode selection
    in the schedule registry; other layout modes have no global selection
    to register and ignore it.
    """
    cost = cost or CostModel()
    schedule = Schedule(framework=policy.name, graph=graph)

    if policy.layout_mode == "selected":
        if sweeps is None:
            sweeps = sweep_graph(graph, env, cost, cap=cap, seed=seed, jobs=jobs)
        sel: SelectedConfiguration = select_configurations(
            graph, env, cost, sweeps=sweeps, cap=cap, seed=seed,
            register=register,
        )
        for op in graph.ops:
            if op.is_view:
                continue
            m = sel.chosen[op.name]
            time_us = m.total_us + policy.per_kernel_overhead_us
            schedule.kernels.append(_kernel_record(op, m.config, time_us, env, cost))
        fwd_extra = sum(
            t.time_us
            for t in sel.transposes
            if not graph.op(t.before_op).stage.is_backward
        )
        schedule.extra_forward_us = fwd_extra
        schedule.extra_backward_us = sel.transpose_us - fwd_extra
        schedule.extra_us = sel.transpose_us
        return schedule

    if policy.layout_mode == "quantile":
        if sweeps is None:
            sweeps = sweep_graph(graph, env, cost, cap=cap, jobs=jobs)
        for op in graph.ops:
            if op.is_view:
                continue
            sweep = sweeps[op.name]
            q = (
                policy.contraction_quantile
                if op.op_class is OpClass.TENSOR_CONTRACTION
                else policy.kernel_quantile
            )
            m = sweep.at_quantile(q)
            time_us = m.total_us + policy.per_kernel_overhead_us
            schedule.kernels.append(_kernel_record(op, m.config, time_us, env, cost))
        return schedule

    # default layouts
    from repro.layouts.configspace import default_config

    for op in graph.ops:
        if op.is_view:
            continue
        config = default_config(op)
        kt = cost.time_op(op, config, env)
        if kt is None:
            raise RuntimeError(f"default layout infeasible for {op.name!r}")
        time_us = kt.total_us + policy.per_kernel_overhead_us
        schedule.kernels.append(_kernel_record(op, config, time_us, env, cost))
    return schedule

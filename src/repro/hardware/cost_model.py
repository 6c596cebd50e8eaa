"""Roofline cost model: the hardware-measurement substitute.

Predicted kernel time is

    ``t = launch_overhead + max(flop / (peak_flops · eff_c),
                                bytes / (peak_bw · eff_m))``

with efficiencies from :mod:`repro.hardware.efficiency`.  The max() is the
roofline: a kernel is *memory bound* when the bandwidth term dominates and
*compute bound* otherwise — exactly the dichotomy the paper's MUE-vs-%peak
analysis draws (Sec. IV-B: "a kernel is memory bound if its MUE is larger
than the achieved peak flop/s").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.dims import DimEnv
from repro.ir.operator import OpClass, OpSpec
from repro.ir.tensor import TensorSpec
from repro.layouts.config import OpConfig
from repro.layouts.configspace import default_config
from repro.layouts.layout import transpose_cost_bytes

from .efficiency import Efficiency, op_efficiency
from .params import DEFAULT_VERSION, EfficiencyParams, active_model, candidate_version
from .spec import GPUSpec, V100

__all__ = ["KernelTime", "CostModel", "COST_MODEL_VERSION"]

#: Version tag of the analytic cost model (roofline formula, efficiency
#: constants, jitter keying, enumeration semantics).  Persisted sweep
#: artifacts and the in-process payload L1 embed the version of the
#: request's :class:`CostModel` snapshot (``CostModel.version``); a mismatch
#: means cached numbers were produced by a different model and must be
#: re-measured, not silently reused.
#:
#: **Bump rule (parameterized models):** this constant is the version of
#: the *default* :class:`~repro.hardware.params.EfficiencyParams` model.
#: Increment it whenever a change alters any predicted kernel time under
#: the default params — efficiency formulas in
#: :mod:`repro.hardware.efficiency`, the default constants in
#: :mod:`repro.hardware.params`, the roofline composition in this module,
#: GPU spec defaults, or the configuration enumeration (ordering changes
#: that re-rank equal-time configs count too).  Pure refactors that keep
#: every sweep bit-identical (the engine/reference contract) must NOT bump
#: it.  *Fitted* parameter sets never bump this constant: an online
#: calibration **promotion is the bump** — the rollout manager serves the
#: candidate under its derived tag (``"1-cal-<digest12>"``), which flows
#: through every digest and wire key exactly as an integer bump would,
#: and rolling back simply restores the prior served version.  Default
#: params never mint a tag and never bump.
COST_MODEL_VERSION = DEFAULT_VERSION


@dataclass(frozen=True)
class KernelTime:
    """Predicted timing decomposition of one kernel launch."""

    compute_us: float
    memory_us: float
    launch_us: float

    @property
    def total_us(self) -> float:
        return self.launch_us + max(self.compute_us, self.memory_us)

    @property
    def bound(self) -> str:
        """Which roofline term dominates: "compute", "memory", or "launch"."""
        body = max(self.compute_us, self.memory_us)
        if self.launch_us > body:
            return "launch"
        return "compute" if self.compute_us >= self.memory_us else "memory"

    def __add__(self, other: "KernelTime") -> "KernelTime":
        """Sequential composition (sums all components; totals add)."""
        return KernelTime(
            compute_us=self.compute_us + other.compute_us,
            memory_us=self.memory_us + other.memory_us,
            launch_us=self.launch_us + other.launch_us,
        )


class CostModel:
    """Predicts kernel times for operators under configurations on a GPU.

    A cost model is one request's **snapshot** of the served model: the
    constructor resolves ``params`` once (``None``: the process-active
    params, with the version they were installed under) and derives
    ``version``, the tag every digest, payload stamp and wire response of
    the request embeds.  It no longer follows a promotion made after it
    was built — a request in flight finishes under the model it started
    with, and the next request builds a new snapshot.
    """

    def __init__(
        self, gpu: GPUSpec = V100, params: EfficiencyParams | None = None
    ) -> None:
        self.gpu = gpu
        if params is None:
            self.params, self.version = active_model()
        else:
            self.params, self.version = params, candidate_version(params)

    # -- core prediction -----------------------------------------------------
    def time_op(
        self,
        op: OpSpec,
        config: OpConfig | None = None,
        env: DimEnv | None = None,
        *,
        extra_overhead_us: float = 0.0,
    ) -> KernelTime | None:
        """Predicted time of one operator as a single kernel.

        Returns ``None`` for contraction configurations that are not
        GEMM-mappable (infeasible points of the sweep).
        """
        if env is None:
            raise ValueError("env is required")
        if config is None:
            config = default_config(op)
        eff = op_efficiency(op, config, env, self.gpu, self.params)
        if eff is None:
            return None
        return self._time_from_eff(op.flops(env), op.io_bytes(env), eff, op.op_class,
                                   extra_overhead_us)

    def _time_from_eff(
        self,
        flop: float,
        nbytes: float,
        eff: Efficiency,
        op_class: OpClass,
        extra_overhead_us: float = 0.0,
    ) -> KernelTime:
        peak = self.gpu.peak_flops(tensor_cores=eff.tensor_cores)
        compute_us = 1e6 * flop / (peak * eff.compute) if flop > 0 else 0.0
        memory_us = 1e6 * nbytes / (self.gpu.mem_bandwidth * eff.memory)
        return KernelTime(
            compute_us=compute_us,
            memory_us=memory_us,
            launch_us=self.gpu.kernel_launch_us + extra_overhead_us,
        )

    # -- auxiliary kernels ------------------------------------------------------
    def time_transpose(self, spec: TensorSpec, env: DimEnv) -> KernelTime:
        """An out-of-place layout change: a well-coalesced copy kernel.

        Used by the configuration-selection graph, where changing layouts
        between operators costs a transpose (Sec. VI: "the benefit of running
        two operators in different layouts may outweigh the overhead of
        transposing data").
        """
        nbytes = transpose_cost_bytes(spec, env)
        # Dedicated transpose kernels tile through shared memory and reach a
        # high fraction of peak bandwidth.
        eff = Efficiency(compute=0.4, memory=0.80, tensor_cores=False)
        return self._time_from_eff(0.0, nbytes, eff, OpClass.ELEMENTWISE)

    def achieved_bandwidth(self, nbytes: float, time_us: float) -> float:
        """Bytes/s realized by a kernel that moved ``nbytes`` in ``time_us``."""
        if time_us <= 0:
            raise ValueError("time must be positive")
        return nbytes / (time_us * 1e-6)

    def achieved_flops(self, flop: float, time_us: float) -> float:
        if time_us <= 0:
            raise ValueError("time must be positive")
        return flop / (time_us * 1e-6)

    def percent_of_peak(self, op: OpSpec, flop: float, time_us: float,
                        *, tensor_cores: bool | None = None) -> float:
        """Percent of the class-appropriate peak (Table III's "% peak").

        The paper uses the tensor-core peak for contractions and the FP16
        peak for everything else (Sec. III-D).
        """
        if tensor_cores is None:
            tensor_cores = op.op_class is OpClass.TENSOR_CONTRACTION
        peak = self.gpu.peak_flops(tensor_cores=tensor_cores)
        return 100.0 * self.achieved_flops(flop, time_us) / peak

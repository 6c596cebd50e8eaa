"""GPU machine models.

The paper's experiments ran on NVIDIA V100-SXM2-16GB GPUs (Lassen,
Sec. III-D) with a 125 Tflop/s Tensor Core peak and a 31.4 Tflop/s FP16
peak; HBM2 bandwidth on that part is 900 GB/s.  Since no GPU is available to
this reproduction, these specifications parameterize the analytic roofline
cost model that substitutes for hardware measurements (see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["GPUSpec", "V100", "A100"]

_INF = math.inf


@dataclass(frozen=True)
class GPUSpec:
    """Peak rates and overheads of one GPU model."""

    name: str
    #: Tensor Core half-precision peak, flop/s.
    tensor_core_flops: float
    #: FP16 FMA (non-TC) peak, flop/s.
    fp16_flops: float
    #: FP32 peak, flop/s.
    fp32_flops: float
    #: Main-memory (HBM) bandwidth, bytes/s.
    mem_bandwidth: float
    #: Fixed cost of launching one kernel, microseconds.
    kernel_launch_us: float = 5.0
    #: Threads per warp (warp-allreduce width, Sec. IV-A).
    warp_size: int = 32
    #: Device memory capacity, bytes.
    mem_capacity: int = 16 * 2**30
    #: Streaming multiprocessors; GEMM tile waves quantize to this.
    sm_count: int = 80
    #: GEMM thread-block output tile (rows x cols) used for wave counting.
    gemm_tile: tuple[int, int] = (256, 128)

    def __post_init__(self) -> None:
        # A NaN fails every comparison, so each rate is positive and finite.
        if not (0 < self.tensor_core_flops < _INF and 0 < self.fp16_flops < _INF
                and 0 < self.fp32_flops < _INF and 0 < self.mem_bandwidth < _INF
                and 0 < self.mem_capacity < _INF):
            raise ValueError("rates, bandwidth and capacity must be positive and finite")
        if not 0 <= self.kernel_launch_us < _INF:
            raise ValueError("launch overhead must be non-negative and finite")
        # GEMM waves divide by these: a zero, fractional or boolean count
        # would divide by zero or silently re-price every GEMM.
        tile = self.gemm_tile
        counts = (self.warp_size, self.sm_count, *tile)
        if not (len(tile) == 2 and min(counts) >= 1 and type(self.warp_size)
                is type(self.sm_count) is type(tile[0]) is type(tile[1]) is int):
            raise ValueError(
                "warp_size, sm_count and both gemm_tile sides must be positive "
                f"integers, got {counts}"
            )

    def peak_flops(self, *, tensor_cores: bool, fp32: bool = False) -> float:
        """Peak flop/s for a kernel's execution mode."""
        if fp32:
            return self.fp32_flops
        return self.tensor_core_flops if tensor_cores else self.fp16_flops


#: The paper's evaluation GPU (Sec. III-D).
V100 = GPUSpec(
    name="V100-SXM2-16GB",
    tensor_core_flops=125e12,
    fp16_flops=31.4e12,
    fp32_flops=15.7e12,
    mem_bandwidth=900e9,
    kernel_launch_us=5.0,
    mem_capacity=16 * 2**30,
)

#: A newer part, for "what changes on different hardware" experiments.
A100 = GPUSpec(
    name="A100-SXM4-40GB",
    tensor_core_flops=312e12,
    fp16_flops=78e12,
    fp32_flops=19.5e12,
    mem_bandwidth=1555e9,
    kernel_launch_us=4.0,
    mem_capacity=40 * 2**30,
    sm_count=108,
)

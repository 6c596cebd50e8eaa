"""Unit tests for the simulated GPU substrate (spec, efficiency, cost, MUE)."""

import pytest

from repro.hardware.cost_model import CostModel, KernelTime
from repro.hardware.efficiency import (
    Efficiency,
    best_algorithm,
    contraction_efficiency,
    heuristic_algorithm,
    kernel_efficiency,
)
from repro.hardware.mue import mue, op_mue
from repro.hardware.params import DEFAULT_PARAMS
from repro.hardware.spec import A100, GPUSpec, V100
from repro.ir.dims import bert_large_dims
from repro.ir.tensor import TensorSpec
from repro.layouts.config import NUM_GEMM_ALGORITHMS, OpConfig
from repro.layouts.configspace import contraction_configs, default_config, kernel_configs
from repro.layouts.gemm_mapping import GemmShape
from repro.ops.contraction import contraction_spec
from repro.ops.elementwise import bias_spec
from repro.ops.softmax import softmax_spec

ENV = bert_large_dims()


class TestGPUSpec:
    def test_v100_matches_paper(self):
        """Sec. III-D: 125 Tflop/s tensor-core peak, 31.4 Tflop/s FP16 peak."""
        assert V100.tensor_core_flops == 125e12
        assert V100.fp16_flops == 31.4e12
        assert V100.mem_bandwidth == 900e9

    def test_peak_selection(self):
        assert V100.peak_flops(tensor_cores=True) == 125e12
        assert V100.peak_flops(tensor_cores=False) == 31.4e12
        assert V100.peak_flops(tensor_cores=True, fp32=True) == 15.7e12

    def test_a100_is_faster(self):
        assert A100.tensor_core_flops > V100.tensor_core_flops
        assert A100.mem_bandwidth > V100.mem_bandwidth

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUSpec("bad", -1, 1, 1, 1)
        with pytest.raises(ValueError):
            GPUSpec("bad", 1, 1, 1, 0)


class TestKernelTime:
    def test_total_is_launch_plus_roofline_max(self):
        kt = KernelTime(compute_us=10, memory_us=30, launch_us=5)
        assert kt.total_us == 35
        assert kt.bound == "memory"

    def test_compute_bound(self):
        assert KernelTime(50, 10, 5).bound == "compute"

    def test_launch_bound(self):
        assert KernelTime(1, 2, 5).bound == "launch"

    def test_addition(self):
        a = KernelTime(1, 2, 3)
        b = KernelTime(10, 20, 30)
        c = a + b
        assert (c.compute_us, c.memory_us, c.launch_us) == (11, 22, 33)


class TestContractionEfficiency:
    def _qkv(self):
        return contraction_spec("qkv", "cphi,ibj->cphbj", ("w", "x"), "out")

    def test_large_gemm_reaches_paper_range(self):
        """Table III: tuned contractions hit ~50-70% of tensor-core peak."""
        op = self._qkv()
        best = 0.0
        for config in contraction_configs(op, ENV):
            eff = contraction_efficiency(op, config, ENV, V100, DEFAULT_PARAMS)
            if eff and eff.tensor_cores:
                best = max(best, eff.compute)
        assert 0.5 <= best <= 0.75

    def test_small_dim_underutilizes_tensor_cores(self):
        """Sec. IV-B: QKT's small dims leave tensor cores underutilized."""
        qkt = contraction_spec("qkt", "phbk,phbj->hbjk", ("kk", "qq"), "beta")
        best = 0.0
        for config in contraction_configs(qkt, ENV):
            eff = contraction_efficiency(qkt, config, ENV, V100, DEFAULT_PARAMS)
            if eff and eff.tensor_cores:
                best = max(best, eff.compute)
        assert best < 0.35

    def test_infeasible_layout_returns_none(self):
        from repro.layouts.layout import Layout

        # A two-dim M group (a, m) split apart by the K dim b cannot form a
        # single strided matrix: no GEMM mapping exists.
        op = contraction_spec("mm", "amb,bc->amc", ("x", "y"), "z")
        env = ENV.with_sizes(a=8, m=8, b=64, c=64)
        bad = OpConfig(
            op_name="mm",
            input_layouts=(Layout(("a", "b", "m")), Layout(("b", "c"))),
            output_layouts=(Layout(("a", "m", "c")),),
        )
        assert contraction_efficiency(op, bad, env, V100, DEFAULT_PARAMS) is None

    def test_fp16_mode_slower_than_tc_for_large(self):
        op = self._qkv()
        cfg_tc = default_config(op)
        eff_tc = contraction_efficiency(op, cfg_tc, ENV, V100, DEFAULT_PARAMS)
        from dataclasses import replace

        cfg_fp = replace(cfg_tc, use_tensor_cores=False)
        eff_fp = contraction_efficiency(op, cfg_fp, ENV, V100, DEFAULT_PARAMS)
        # Per-peak efficiencies are similar but the TC peak is 4x higher:
        # absolute flop/s must be much higher with tensor cores.
        assert eff_tc.tensor_cores and not eff_fp.tensor_cores
        assert eff_tc.compute * 125e12 > 2 * eff_fp.compute * 31.4e12

    def test_deterministic(self):
        op = self._qkv()
        cfg = default_config(op)
        e1 = contraction_efficiency(op, cfg, ENV, V100, DEFAULT_PARAMS)
        e2 = contraction_efficiency(op, cfg, ENV, V100, DEFAULT_PARAMS)
        assert e1 == e2

    def test_algorithms_differ(self):
        """Sec. V-A: algorithm choice changes performance measurably."""
        op = self._qkv()
        from dataclasses import replace

        base = default_config(op)
        effs = {
            contraction_efficiency(
                op, replace(base, algorithm=a), ENV, V100, DEFAULT_PARAMS
            ).compute
            for a in range(NUM_GEMM_ALGORITHMS)
        }
        assert len(effs) > 1
        spread = max(effs) / min(effs)
        assert 1.0 < spread < 1.25  # paper: heuristic up to 14.24% off best

    def test_heuristic_vs_best_algorithm(self):
        shape = GemmShape(m=4096, n=1024, k=1024, batch=1, trans_a=False, trans_b=False)
        h = heuristic_algorithm(shape)
        b = best_algorithm(shape, DEFAULT_PARAMS)
        assert 0 <= h < NUM_GEMM_ALGORITHMS
        assert 0 <= b < NUM_GEMM_ALGORITHMS


class TestKernelEfficiency:
    def _bias(self):
        x = TensorSpec("qq", ("p", "h", "b", "j"))
        return bias_spec("aib", x, ("p", "h"), "out")

    def test_vectorized_beats_strided(self):
        op = self._bias()
        configs = list(kernel_configs(op, ENV, cap=None))
        effs = [kernel_efficiency(op, c, ENV, DEFAULT_PARAMS).memory for c in configs]
        assert max(effs) > 0.8
        assert min(effs) < 0.1  # Fig. 5's catastrophic long tails

    def test_contraction_rejected(self):
        op = contraction_spec("mm", "ab,bc->ac", ("x", "y"), "z")
        with pytest.raises(ValueError):
            kernel_efficiency(op, default_config(op), ENV, DEFAULT_PARAMS)

    def test_warp_reduce_register_bonus(self):
        """Sec. V-B: matching reduce and vector dims saves registers.

        The per-config jitter (~±10%) swamps the bonus on any single
        configuration, so compare means over many layouts.
        """
        import statistics

        x = TensorSpec("beta", ("h", "b", "j", "k"))
        op = softmax_spec("sm", x, "alpha", axis_dim="k")
        from dataclasses import replace

        same, diff = [], []
        for cfg in kernel_configs(op, ENV, cap=300):
            if cfg.vector_dim != "k":
                continue
            c_same = replace(cfg, warp_reduce_dim="k")
            c_diff = replace(cfg, warp_reduce_dim=None)
            same.append(kernel_efficiency(op, c_same, ENV, DEFAULT_PARAMS).memory)
            diff.append(kernel_efficiency(op, c_diff, ENV, DEFAULT_PARAMS).memory)
        assert statistics.mean(same) > statistics.mean(diff)

    def test_efficiency_bounds(self):
        op = self._bias()
        for c in kernel_configs(op, ENV, cap=200):
            eff = kernel_efficiency(op, c, ENV, DEFAULT_PARAMS)
            assert 0.0 < eff.memory <= 0.95
            assert 0.0 < eff.compute <= 1.0


class TestCostModel:
    def test_memory_bound_bias_near_bandwidth(self):
        """Fused AIB-like bias: Table III shows ~66-90 us for 50 MB."""
        x = TensorSpec("qq", ("p", "h", "b", "j"))
        op = bias_spec("bias", x, ("p", "h"), "out")
        cm = CostModel(V100)
        best = min(
            (cm.time_op(op, c, ENV).total_us for c in kernel_configs(op, ENV, cap=None)),
        )
        assert 15 < best < 45  # one tensor (1/3 of AIB) at high bandwidth

    def test_contraction_compute_bound(self):
        cm = CostModel(V100)
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        kt = cm.time_op(op, default_config(op), ENV)
        assert kt.bound == "compute"

    def test_transpose_time_scales_with_bytes(self):
        cm = CostModel(V100)
        small = TensorSpec("s", ("p", "h"))
        big = TensorSpec("b", ("h", "b", "j", "k"))
        assert cm.time_transpose(big, ENV).total_us > cm.time_transpose(small, ENV).total_us

    def test_percent_of_peak_uses_class_peak(self):
        cm = CostModel(V100)
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        pct_tc = cm.percent_of_peak(op, 125e12, 1e6)  # 125 Tflop in 1 s
        assert pct_tc == pytest.approx(100.0)
        x = TensorSpec("x", ("i", "b", "j"))
        bop = bias_spec("b", x, ("i",), "y")
        pct_fp = cm.percent_of_peak(bop, 31.4e12, 1e6)
        assert pct_fp == pytest.approx(100.0)

    def test_a100_is_faster_for_same_op(self):
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        t_v100 = CostModel(V100).time_op(op, default_config(op), ENV).total_us
        t_a100 = CostModel(A100).time_op(op, default_config(op), ENV).total_us
        assert t_a100 < t_v100

    def test_extra_overhead_added(self):
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        cm = CostModel(V100)
        base = cm.time_op(op, default_config(op), ENV).total_us
        extra = cm.time_op(op, default_config(op), ENV, extra_overhead_us=7.0).total_us
        assert extra == pytest.approx(base + 7.0)


class TestMUE:
    def test_perfect_implementation_scores_100(self):
        # Q = D = 90 MB moved in exactly bytes/bandwidth seconds.
        q = 90e6
        t_us = 1e6 * q / V100.mem_bandwidth
        assert mue(q, q, t_us, V100) == pytest.approx(100.0)

    def test_redundant_movement_halves_score(self):
        q = 45e6
        d = 90e6
        t_us = 1e6 * d / V100.mem_bandwidth
        assert mue(q, d, t_us, V100) == pytest.approx(50.0)

    def test_d_below_q_rejected(self):
        with pytest.raises(ValueError):
            mue(100.0, 50.0, 1.0, V100)

    def test_op_mue_paper_example(self):
        """Input-bias kernel: paper reports MUE 78 at 66 us (Table III)."""
        x = TensorSpec("qkv_lin", ("c", "p", "h", "b", "j"))
        op = bias_spec("aib", x, ("p", "h"), "out")
        score = op_mue(op, 66.0, ENV, V100)
        assert 60 < score <= 100

    def test_score_capped_at_100(self):
        assert mue(1e9, 1e9, 0.001, V100) == 100.0

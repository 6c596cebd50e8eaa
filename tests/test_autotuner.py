"""Tests for the sweep machinery and violin summaries."""

import pytest

from repro.autotuner.tuner import sweep_graph, sweep_op
from repro.autotuner.violin import render_ascii, summarize
from repro.fusion.encoder_kernels import apply_paper_fusion
from repro.hardware.cost_model import CostModel
from repro.ir.dims import bert_large_dims
from repro.ir.tensor import TensorSpec
from repro.ops.contraction import contraction_spec
from repro.ops.elementwise import bias_spec
from repro.transformer.graph_builder import build_encoder_graph

ENV = bert_large_dims()
COST = CostModel()


@pytest.fixture(scope="module")
def bias_sweep():
    x = TensorSpec("qq", ("p", "h", "b", "j"))
    op = bias_spec("aib", x, ("p", "h"), "out")
    return sweep_op(op, ENV, COST, cap=300)


@pytest.fixture(scope="module")
def gemm_sweep():
    op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
    return sweep_op(op, ENV, COST)


class TestSweep:
    def test_sorted_ascending(self, bias_sweep):
        times = bias_sweep.times_us()
        assert times == sorted(times)

    def test_best_worst(self, bias_sweep):
        assert bias_sweep.best.total_us == bias_sweep.times_us()[0]
        assert bias_sweep.worst.total_us == bias_sweep.times_us()[-1]
        assert bias_sweep.spread > 1.0

    def test_quantiles_monotone(self, bias_sweep):
        qs = [bias_sweep.quantile_us(q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert qs == sorted(qs)
        assert qs[0] == bias_sweep.best.total_us
        assert qs[-1] == bias_sweep.worst.total_us

    def test_quantile_bounds_checked(self, bias_sweep):
        with pytest.raises(ValueError):
            bias_sweep.quantile_us(1.5)

    def test_gemm_sweep_skips_infeasible(self, gemm_sweep):
        # All recorded measurements were feasible GEMM mappings.
        assert gemm_sweep.num_configs > 0
        for m in gemm_sweep.measurements[:20]:
            assert m.time.total_us > 0

    def test_sweep_graph_covers_kernels_not_views(self):
        g = apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv"), ENV)
        sweeps = sweep_graph(g, ENV, COST, cap=50)
        kernel_names = {op.name for op in g.ops if not op.is_view}
        assert set(sweeps) == kernel_names


class TestViolin:
    def test_summary_fields(self, bias_sweep):
        s = summarize(bias_sweep)
        assert s.best_us <= s.q25_us <= s.median_us <= s.q75_us <= s.worst_us
        assert sum(s.histogram) == s.num_configs
        assert s.spread == pytest.approx(s.worst_us / s.best_us)

    def test_long_tail_flag(self, bias_sweep):
        s = summarize(bias_sweep)
        assert s.long_tailed  # bias layouts span far more than 10x

    def test_render_contains_stats(self, bias_sweep):
        text = render_ascii(summarize(bias_sweep))
        assert "configs" in text
        assert "#" in text

    def test_degenerate_distribution(self):
        # Single-config sweep: histogram collapses into one bucket.
        from repro.autotuner.tuner import ConfigMeasurement, SweepResult
        from repro.hardware.cost_model import KernelTime
        from repro.layouts.configspace import default_config

        x = TensorSpec("x", ("a", "b"))
        op = bias_spec("b", x, ("a",), "y")
        m = ConfigMeasurement(
            config=default_config(op), time=KernelTime(1.0, 2.0, 0.5)
        )
        s = summarize(SweepResult(op=op, measurements=[m]))
        assert s.num_configs == 1
        assert s.histogram[0] == 1
        assert s.spread == 1.0

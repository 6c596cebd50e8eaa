"""Tests for graph export, roofline analysis, and refinement."""

import json

import pytest

from repro.autotuner.tuner import sweep_graph
from repro.configsel.refinement import refine_selection
from repro.configsel.selector import select_configurations
from repro.fusion.encoder_kernels import apply_paper_fusion
from repro.hardware.cost_model import CostModel
from repro.hardware.roofline import graph_roofline, op_roofline, ridge_intensity
from repro.hardware.spec import A100, V100
from repro.ir.dims import bert_large_dims
from repro.ir.export import to_dot, to_json
from repro.ir.operator import OpClass
from repro.transformer.graph_builder import build_encoder_graph, build_mha_graph

ENV = bert_large_dims()
COST = CostModel()


class TestExport:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_mha_graph(qkv_fusion="qkv", include_backward=False)

    def test_dot_is_well_formed(self, graph):
        dot = to_dot(graph, ENV)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count("{") == dot.count("}")

    def test_dot_contains_ops_and_tensors(self, graph):
        dot = to_dot(graph, ENV)
        assert '"op_qkv_proj"' in dot
        assert '"t_beta"' in dot
        assert "Gflop" in dot and "Mw" in dot

    def test_dot_views_excluded_by_default(self, graph):
        assert "slice_qq" not in to_dot(graph, ENV)
        assert "op_slice_qq" in to_dot(graph, ENV, include_views=True)

    def test_json_roundtrips(self, graph):
        data = json.loads(to_json(graph, ENV))
        assert data["name"] == graph.name
        names = [o["name"] for o in data["operators"]]
        assert "qkv_proj" in names and "softmax" in names
        qkv = next(o for o in data["operators"] if o["name"] == "qkv_proj")
        assert qkv["class"] == "tensor contraction"
        assert qkv["flop"] == pytest.approx(graph.op("qkv_proj").flops(ENV))
        assert data["containers"]["beta"]["dims"] == ["h", "b", "j", "k"]


class TestRoofline:
    def test_ridge_points(self):
        """V100 ridge: 125T/900G = ~139 flop/B for TC, ~35 for FP16."""
        assert ridge_intensity(V100, tensor_cores=True) == pytest.approx(138.9, abs=0.5)
        assert ridge_intensity(V100, tensor_cores=False) == pytest.approx(34.9, abs=0.5)

    def test_encoder_diagnosis_matches_paper(self):
        """All normalization/element-wise ops are memory bound; the large
        linear contractions are compute bound."""
        g = build_encoder_graph(qkv_fusion="qkv")
        points = {p.op_name: p for p in graph_roofline(g, ENV)}
        for name, p in points.items():
            if p.op_class is not OpClass.TENSOR_CONTRACTION:
                assert p.memory_bound, name
        assert not points["linear1"].memory_bound
        assert not points["qkv_proj"].memory_bound

    def test_qkt_is_borderline(self):
        """QKT's intensity (~51 flop/B) is well under the TC ridge — the
        paper's 'low in flop/s and MUE' case."""
        g = build_encoder_graph(qkv_fusion="qkv")
        p = op_roofline(g.op("qkt"), ENV)
        assert p.memory_bound
        assert 0.2 < p.headroom < 0.8

    def test_attainable_capped_by_peak(self):
        g = build_encoder_graph(qkv_fusion="qkv")
        p = op_roofline(g.op("linear1"), ENV)
        assert p.attainable_flops == V100.tensor_core_flops

    def test_a100_ridge_higher(self):
        """More compute per byte of bandwidth: the A100 ridge moves right,
        making *more* operators memory bound (Sec. VIII-B)."""
        assert ridge_intensity(A100) > ridge_intensity(V100)


class TestRefinement:
    def test_refinement_is_monotone(self):
        g = apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv"), ENV)
        sweeps = sweep_graph(g, ENV, COST, cap=200)
        sel = select_configurations(g, ENV, COST, sweeps=sweeps, cap=200)
        res = refine_selection(g, sel, sweeps, ENV, COST, max_rounds=2,
                               candidates_per_op=16)
        assert res.refined_total_us <= res.initial_total_us
        assert res.rounds >= 1
        # The refined assignment still covers every kernel.
        kernel_names = {op.name for op in g.ops if not op.is_view}
        assert set(res.selection.chosen) == kernel_names

    def test_refinement_deterministic(self):
        g = apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv"), ENV)
        sweeps = sweep_graph(g, ENV, COST, cap=150)
        sel = select_configurations(g, ENV, COST, sweeps=sweeps, cap=150)
        r1 = refine_selection(g, sel, sweeps, ENV, COST, max_rounds=1,
                              candidates_per_op=8)
        r2 = refine_selection(g, sel, sweeps, ENV, COST, max_rounds=1,
                              candidates_per_op=8)
        assert r1.refined_total_us == r2.refined_total_us
        assert r1.moves == r2.moves

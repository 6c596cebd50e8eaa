"""Tests for chain extraction, SSSP, and global configuration selection."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.autotuner.tuner import sweep_graph
from repro.configsel.chain import ChainError, primary_chain, project_layout
from repro.configsel.selector import (
    build_chain_matrices,
    select_configurations,
)
from repro.configsel.sssp import (
    ConfigGraph,
    SSSPError,
    shortest_path,
    shortest_path_layered,
    shortest_path_networkx,
)
from repro.fusion.encoder_kernels import apply_paper_fusion
from repro.hardware.cost_model import CostModel
from repro.ir.dims import bert_large_dims
from repro.ir.tensor import TensorSpec
from repro.layouts.layout import Layout
from repro.transformer.graph_builder import build_encoder_graph, build_mha_graph

ENV = bert_large_dims()
COST = CostModel()


@pytest.fixture(scope="module")
def fused_encoder():
    return apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv"), ENV)


@pytest.fixture(scope="module")
def encoder_sweeps(fused_encoder):
    return sweep_graph(fused_encoder, ENV, COST, cap=400)


@pytest.fixture(scope="module")
def selection(fused_encoder, encoder_sweeps):
    return select_configurations(
        fused_encoder, ENV, COST, sweeps=encoder_sweeps, cap=400
    )


class TestProjectLayout:
    def test_identity(self):
        a = TensorSpec("x", ("i", "b", "j"))
        b = TensorSpec("xk", ("i", "b", "k"))
        out = project_layout(Layout(("j", "b", "i")), a, b)
        assert out == Layout(("k", "b", "i"))

    def test_drop_stacking_dim(self):
        base = TensorSpec("qkv", ("c", "p", "h", "b", "j"))
        view = TensorSpec("qq", ("p", "h", "b", "j"))
        out = project_layout(Layout(("c", "b", "j", "p", "h")), base, view)
        assert out == Layout(("b", "j", "p", "h"))

    def test_interleaved_stacking_dim_unprojectable(self):
        base = TensorSpec("qkv", ("c", "p", "h"))
        view = TensorSpec("qq", ("p", "h"))
        # c interleaved between payload dims: projection still drops it and
        # yields a valid permutation of (p, h).
        out = project_layout(Layout(("p", "c", "h")), base, view)
        assert out == Layout(("p", "h"))

    def test_rank_too_small(self):
        base = TensorSpec("q", ("p", "h"))
        view = TensorSpec("big", ("p", "h", "b"))
        assert project_layout(Layout(("p", "h")), base, view) is None


class TestPrimaryChain:
    def test_fused_encoder_chain(self, fused_encoder):
        chain = primary_chain(fused_encoder)
        names = [s.op_name for s in chain]
        assert names == [
            "qkv_proj", "AIB", "qkt", "SM", "gamma", "attn_out",
            "BDRLN1", "linear1", "BRD", "linear2", "BDRLN2",
        ]

    def test_unfused_encoder_chain_passes_through_all_stages(self):
        g = build_encoder_graph(qkv_fusion="unfused")
        names = [s.op_name for s in primary_chain(g)]
        assert names[0] == "q_proj"
        assert names[-1] == "ln2"
        assert "softmax" in names

    def test_mha_chain(self):
        g = apply_paper_fusion(build_mha_graph(qkv_fusion="qkv"), ENV)
        names = [s.op_name for s in primary_chain(g)]
        assert names[0] == "qkv_proj"
        assert names[-1] == "attn_out_bias" or "attn_out" in names

    def test_missing_source_raises(self, fused_encoder):
        with pytest.raises((ChainError, KeyError)):
            primary_chain(fused_encoder, source="nonexistent")

    def test_chain_tensors_connect(self, fused_encoder):
        chain = primary_chain(fused_encoder)
        for step in chain:
            op = fused_encoder.op(step.op_name)
            assert op.inputs[step.in_index].name == step.in_tensor
            assert op.outputs[step.out_index].name == step.out_tensor


class TestSSSP:
    def _diamond(self):
        g = ConfigGraph()
        g.add_edge("s", "a", 1.0)
        g.add_edge("s", "b", 5.0)
        g.add_edge("a", "t", 10.0)
        g.add_edge("b", "t", 1.0)
        return g

    def test_shortest_path_diamond(self):
        cost, path = shortest_path(self._diamond(), "s", "t")
        assert cost == 6.0
        assert path == ["s", "b", "t"]

    def test_matches_networkx(self):
        g = self._diamond()
        own, _ = shortest_path(g, "s", "t")
        nx, _ = shortest_path_networkx(g, "s", "t")
        assert own == pytest.approx(nx)

    def test_parallel_edges_keep_min(self):
        g = ConfigGraph()
        g.add_edge("s", "t", 5.0)
        g.add_edge("s", "t", 2.0)
        cost, _ = shortest_path(g, "s", "t")
        assert cost == 2.0

    def test_unreachable(self):
        g = ConfigGraph()
        g.add_edge("s", "a", 1.0)
        g.add_node("t")
        with pytest.raises(SSSPError, match="unreachable"):
            shortest_path(g, "s", "t")

    def test_cycle_detected(self):
        g = ConfigGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "a", 1.0)
        with pytest.raises(SSSPError, match="cycle"):
            shortest_path(g, "a", "b")

    def test_negative_weight_rejected(self):
        g = ConfigGraph()
        with pytest.raises(SSSPError):
            g.add_edge("a", "b", -1.0)

    def test_brute_force_agreement_on_layered_graph(self):
        """DAG relaxation equals exhaustive path enumeration."""
        import itertools
        import random

        rnd = random.Random(0)
        layers = [["s"], ["a0", "a1", "a2"], ["b0", "b1"], ["t"]]
        g = ConfigGraph()
        weights = {}
        for l1, l2 in zip(layers, layers[1:]):
            for u in l1:
                for v in l2:
                    w = rnd.uniform(1, 10)
                    g.add_edge(u, v, w)
                    weights[(u, v)] = w
        best = min(
            weights[("s", a)] + weights[(a, b)] + weights[(b, "t")]
            for a in layers[1]
            for b in layers[2]
        )
        cost, _ = shortest_path(g, "s", "t")
        assert cost == pytest.approx(best)


class TestLayeredSSSP:
    def test_diamond_equivalent(self):
        # Two parallel middle nodes: s -> {a: 1, b: 5} -> t {a: 10, b: 1}.
        layers = [np.array([[1.0, 5.0]]), np.array([[10.0], [1.0]])]
        cost, nodes = shortest_path_layered(layers)
        assert cost == 6.0
        assert nodes == [1, 0]  # b, then the target

    def test_matches_scalar_on_dense_layers(self):
        rng = np.random.default_rng(7)
        sizes = [1, 3, 4, 2, 1]
        layers = [
            rng.uniform(1, 10, size=(a, b)) for a, b in zip(sizes, sizes[1:])
        ]
        g = ConfigGraph()
        for k, m in enumerate(layers):
            for i in range(m.shape[0]):
                for j in range(m.shape[1]):
                    g.add_edge((k, i), (k + 1, j), float(m[i, j]))
        scost, spath = shortest_path(g, (0, 0), (len(sizes) - 1, 0))
        lcost, nodes = shortest_path_layered(layers)
        assert lcost == scost  # same sums, same association order
        assert [(k + 1, j) for k, j in enumerate(nodes)] == spath[1:]

    def test_tie_breaks_match_scalar(self):
        # Integer weights force exact ties; both sides must pick the same
        # (first-in-order) predecessor.
        rng = np.random.default_rng(11)
        sizes = [1, 4, 4, 4, 1]
        layers = [
            rng.integers(1, 3, size=(a, b)).astype(float)
            for a, b in zip(sizes, sizes[1:])
        ]
        g = ConfigGraph()
        for k, m in enumerate(layers):
            for i in range(m.shape[0]):
                for j in range(m.shape[1]):
                    g.add_edge((k, i), (k + 1, j), float(m[i, j]))
        scost, spath = shortest_path(g, (0, 0), (len(sizes) - 1, 0))
        lcost, nodes = shortest_path_layered(layers)
        assert lcost == scost
        assert [(k + 1, j) for k, j in enumerate(nodes)] == spath[1:]

    def test_unreachable(self):
        layers = [np.array([[np.inf, np.inf]]), np.array([[1.0], [1.0]])]
        with pytest.raises(SSSPError, match="unreachable"):
            shortest_path_layered(layers)

    def test_negative_weight_rejected(self):
        with pytest.raises(SSSPError, match="negative"):
            shortest_path_layered([np.array([[-1.0]])])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SSSPError, match="chain"):
            shortest_path_layered([np.zeros((1, 2)), np.zeros((3, 1))])

    def test_source_and_target_must_be_singletons(self):
        with pytest.raises(SSSPError, match="source"):
            shortest_path_layered([np.zeros((2, 1))])
        with pytest.raises(SSSPError, match="target"):
            shortest_path_layered([np.zeros((1, 2))])


class TestFastPath:
    """The vectorized selection pipeline against the scalar reference."""

    def test_fast_matches_scalar_encoder(self, fused_encoder, encoder_sweeps):
        fast = select_configurations(
            fused_encoder, ENV, COST, sweeps=encoder_sweeps, cap=400, fast=True
        )
        scalar = select_configurations(
            fused_encoder, ENV, COST, sweeps=encoder_sweeps, cap=400, fast=False
        )
        assert fast.chain_cost_us == scalar.chain_cost_us
        assert fast.transposes == scalar.transposes
        assert fast.chosen == scalar.chosen
        assert fast == scalar

    def test_fast_matches_scalar_mha(self):
        g = apply_paper_fusion(build_mha_graph(qkv_fusion="qkv"), ENV)
        sweeps = sweep_graph(g, ENV, COST, cap=200)
        fast = select_configurations(g, ENV, COST, sweeps=sweeps, cap=200, fast=True)
        scalar = select_configurations(
            g, ENV, COST, sweeps=sweeps, cap=200, fast=False
        )
        assert fast == scalar

    def test_chain_matrices_match_config_graph(self, fused_encoder, encoder_sweeps):
        """Every finite matrix cell is exactly one scalar-graph edge."""
        from repro.configsel.reference import _SOURCE, _TARGET, build_config_graph

        chain = primary_chain(fused_encoder)
        mats = build_chain_matrices(fused_encoder, chain, encoder_sweeps, ENV, COST)
        cg = build_config_graph(fused_encoder, chain, encoder_sweeps, ENV, COST)
        for idx in range(len(chain)):
            layouts = mats.boundaries[idx]
            m = mats.op_cost[idx]
            for i, lin in enumerate(layouts):
                for j in range(m.shape[1]):
                    src = ("dep", idx, lin.dims)
                    if idx + 1 < len(chain):
                        dst = ("t", idx + 1, mats.boundaries[idx + 1][j].dims)
                    else:
                        dst = _TARGET
                    edge = cg.edges.get((src, dst))
                    if np.isfinite(m[i, j]):
                        assert edge == m[i, j]
                    else:
                        assert edge is None
        # And the layered solve agrees with the scalar walk on cost.
        scalar_cost, _ = shortest_path(cg, _SOURCE, _TARGET)
        from repro.configsel.selector import _solve_chain_fast

        fast_cost, _, _ = _solve_chain_fast(
            fused_encoder, chain, encoder_sweeps, ENV, COST
        )
        assert fast_cost == scalar_cost


class TestSelection:
    def test_covers_every_kernel(self, fused_encoder, selection):
        kernel_ops = [op.name for op in fused_encoder.ops if not op.is_view]
        assert set(selection.chosen) == set(kernel_ops)

    def test_total_within_paper_band_of_per_op_best(self, encoder_sweeps, selection):
        """Sec. VI-A: within 4% of per-op best; our assembly stays under 15%."""
        best_sum = sum(sw.best.total_us for sw in encoder_sweeps.values())
        assert selection.total_us / best_sum < 1.15

    def test_sssp_cross_check(self, fused_encoder, encoder_sweeps):
        from repro.configsel.chain import primary_chain
        from repro.configsel.reference import _SOURCE, _TARGET, build_config_graph

        chain = primary_chain(fused_encoder)
        cg = build_config_graph(fused_encoder, chain, encoder_sweeps, ENV, COST)
        own, _ = shortest_path(cg, _SOURCE, _TARGET)
        nx, _ = shortest_path_networkx(cg, _SOURCE, _TARGET)
        assert own == pytest.approx(nx)

    def test_pinned_layouts_are_consistent(self, fused_encoder, selection):
        """Every chosen config honors the pinned layout of its operands,
        unless an explicit transpose was inserted for that tensor."""
        transposed = {(t.before_op, t.tensor) for t in selection.transposes}
        for name, m in selection.chosen.items():
            op = fused_encoder.op(name)
            for t, l in zip(op.inputs, m.config.input_layouts):
                pin = selection.pinned_layouts.get(t.name)
                if pin is not None and pin != l:
                    assert (name, t.name) in transposed

    def test_forward_faster_than_default_schedule(self, fused_encoder, selection):
        """Global selection beats running everything in default layouts."""
        from repro.layouts.configspace import default_config

        default_total = 0.0
        for op in fused_encoder.ops:
            if op.is_view:
                continue
            kt = COST.time_op(op, default_config(op), ENV)
            assert kt is not None
            default_total += kt.total_us
        assert selection.total_us < default_total

    def test_alternate_dims_selection_works(self):
        """Sec. VI-C: the recipe re-tunes for B=96, L=128."""
        from repro.ir.dims import bert_alternate_dims

        env2 = bert_alternate_dims()
        g = apply_paper_fusion(build_encoder_graph(qkv_fusion="qkv"), env2)
        sel = select_configurations(g, env2, COST, cap=200)
        assert sel.total_us > 0
        assert len(sel.chosen) == sum(1 for op in g.ops if not op.is_view)


class TestOnePipeline:
    """CI guard: production selects through one pipeline.  The scalar
    reference is imported only where it is the point: the selector's
    ``fast=False``, ``validate --deep`` and Fig. 6's explicit DAG."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
    REFERENCE = "repro.configsel.reference"
    MAY_IMPORT = {"configsel/selector.py", "validation/cost.py", "analysis/figures.py"}

    def _modules(self):
        for path in sorted(self.SRC.rglob("*.py")):
            yield path.relative_to(self.SRC).as_posix(), path.read_text()

    def _imports(self, rel: str, text: str) -> set[str]:
        """Absolute names of every module (or module member) ``text`` imports."""
        package = ["repro", *rel.split("/")[:-1]]
        names: set[str] = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join([*base, *([node.module] if node.module else [])])
                names.add(module)
                names.update(f"{module}.{alias.name}" for alias in node.names)
        return names

    def test_only_allowed_modules_import_the_reference(self):
        importers = {
            rel
            for rel, text in self._modules()
            if any(
                n == self.REFERENCE or n.startswith(self.REFERENCE + ".")
                for n in self._imports(rel, text)
            )
        }
        assert importers <= self.MAY_IMPORT, importers
        # The scan resolves relative imports: the selector's own lazy
        # ``from .reference import ...`` must be seen.
        assert "configsel/selector.py" in importers

    def test_no_selection_switch_remains(self):
        offenders = [
            rel
            for rel, text in self._modules()
            if "use_fast" in text or "REPRO_CONFIGSEL_FAST" in text
        ]
        assert offenders == []

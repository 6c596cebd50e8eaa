"""Tests for the batched sweep engine: memoization, laziness, layout queries."""

from repro.autotuner.tuner import (
    ConfigMeasurement,
    SweepResult,
    sweep_graph,
    sweep_op,
    sweep_op_reference,
)
from repro.configsel import reference
from repro.configsel.selector import _fast_best_consistent
from repro.engine import clear_sweep_memo, sweep_memo_stats
from repro.engine.scheduler import sweep_op as engine_sweep_op
from repro.engine.store import compute_payload
from repro.engine.sweep import PreSortedMeasurements, sweep_from_payload
from repro.hardware.cost_model import CostModel, KernelTime
from repro.hardware.params import (
    DEFAULT_PARAMS,
    install_params,
    params_from_wire,
    reset_active_params,
)
from repro.ir.dims import bert_large_dims, small_test_dims
from repro.ir.tensor import TensorSpec
from repro.layouts.config import OpConfig
from repro.layouts.layout import Layout
from repro.ops.contraction import contraction_spec
from repro.ops.elementwise import bias_spec
from repro.transformer.graph_builder import build_encoder_graph

ENV = bert_large_dims()
COST = CostModel()


def _bias_op():
    x = TensorSpec("qq", ("p", "h", "b", "j"))
    return bias_spec("aib", x, ("p", "h"), "out")


def _cold_sweep(op, cap=2000):
    """One sweep evaluated cold, past every cache tier."""
    return sweep_from_payload(
        op, compute_payload(op, ENV, COST, cap=cap, seed=0x5EED)
    )


class TestEngineIdentity:
    def test_kernel_sweep_bit_identical(self):
        op = _bias_op()
        ref = sweep_op_reference(op, ENV, COST, cap=300)
        eng = _cold_sweep(op, cap=300)
        assert eng.num_configs == ref.num_configs
        for a, b in zip(ref.measurements, eng.measurements):
            assert a.config == b.config
            assert a.time == b.time

    def test_contraction_sweep_bit_identical(self):
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        ref = sweep_op_reference(op, ENV, COST)
        eng = _cold_sweep(op)
        assert eng.num_configs == ref.num_configs
        for a, b in zip(ref.measurements, eng.measurements):
            assert a.config == b.config
            assert a.time == b.time

    def test_public_sweep_op_routes_through_engine(self):
        op = _bias_op()
        s = sweep_op(op, ENV, COST, cap=100)
        assert isinstance(s.measurements, PreSortedMeasurements)

    def test_sweep_graph_covers_kernels(self):
        g = build_encoder_graph(qkv_fusion="qkv", include_backward=False)
        sweeps = sweep_graph(g, ENV, COST, cap=50)
        assert set(sweeps) == {op.name for op in g.ops if not op.is_view}


class TestMemo:
    """The engine's payload L1: sweeps are rebuilt, payloads are shared."""

    def test_memo_returns_same_object(self):
        clear_sweep_memo()
        op = _bias_op()
        first = engine_sweep_op(op, ENV, COST, cap=120)
        second = engine_sweep_op(op, ENV, COST, cap=120)
        stats = sweep_memo_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["size"] > 0
        # A fresh SweepResult over the one cached payload's arrays.
        assert first is not second
        assert (
            first.measurements.totals_array()
            is second.measurements.totals_array()
        )
        assert first.times_us() == second.times_us()

    def test_memo_distinguishes_env(self):
        clear_sweep_memo()
        op = _bias_op()
        a = engine_sweep_op(op, ENV, COST, cap=120)
        b = engine_sweep_op(op, small_test_dims(), COST, cap=120)
        assert sweep_memo_stats()["hits"] == 0
        assert a.measurements.totals_array() is not b.measurements.totals_array()

    def test_memo_distinguishes_kernel_cap(self):
        clear_sweep_memo()
        op = _bias_op()
        a = engine_sweep_op(op, ENV, COST, cap=60)
        b = engine_sweep_op(op, ENV, COST, cap=120)
        assert sweep_memo_stats()["hits"] == 0
        assert a.num_configs != b.num_configs

    def test_contraction_memo_ignores_cap(self):
        clear_sweep_memo()
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        a = engine_sweep_op(op, ENV, COST, cap=60)
        b = engine_sweep_op(op, ENV, COST, cap=2000)
        # Contraction sweeps are exhaustive; cap never applies.
        assert sweep_memo_stats()["hits"] == 1
        assert a.measurements.totals_array() is b.measurements.totals_array()

    def test_promote_and_rollback_change_every_key(self):
        clear_sweep_memo()
        op = _bias_op()
        default = engine_sweep_op(op, ENV, COST, cap=120)
        candidate = params_from_wire({**DEFAULT_PARAMS.to_wire(), "jitter": 0.2})
        install_params(candidate)
        try:
            # A model built after the promotion snapshots the candidate.
            cost = CostModel()
            promoted = engine_sweep_op(op, ENV, cost, cap=120)
            # A new key: evaluated under the candidate, not served from L1.
            assert sweep_memo_stats()["hits"] == 0
            reference = sweep_op_reference(op, ENV, cost, cap=120)
            assert promoted.times_us() == reference.times_us()
            assert promoted.times_us() != default.times_us()
            # One built before it keeps pricing under the default model.
            kept = engine_sweep_op(op, ENV, COST, cap=120)
            assert sweep_memo_stats()["hits"] == 1
            kept_totals = kept.measurements.totals_array()
            assert kept_totals is default.measurements.totals_array()
        finally:
            reset_active_params()
        # Rollback: the default model's key, and its entry, are back.
        back = engine_sweep_op(op, ENV, CostModel(), cap=120)
        assert sweep_memo_stats()["hits"] == 2
        assert back.measurements.totals_array() is default.measurements.totals_array()


class TestLaziness:
    def test_best_materializes_one_measurement(self):
        op = _bias_op()
        s = _cold_sweep(op, cap=200)
        ms = s.measurements
        assert isinstance(ms, PreSortedMeasurements)
        built = lambda: sum(1 for x in ms._items if x is not None)  # noqa: E731
        assert built() == 0
        s.best  # noqa: B018
        assert built() == 1
        s.quantile_us(0.5)
        assert built() <= 2

    def test_times_us_materializes_nothing(self):
        op = _bias_op()
        s = _cold_sweep(op, cap=200)
        times = s.times_us()
        assert times == sorted(times) and len(times) == s.num_configs
        assert all(x is None for x in s.measurements._items)

    def test_slicing_and_negative_indexing(self):
        op = _bias_op()
        s = _cold_sweep(op, cap=50)
        head = s.measurements[:5]
        assert [m.total_us for m in head] == s.times_us()[:5]
        assert s.measurements[-1].total_us == s.worst.total_us


class TestOperandLayoutQueries:
    def _mixed_arity_sweep(self):
        """Measurements whose configs have different operand arity."""
        op = _bias_op()
        x_layout = Layout(("p", "h", "b", "j"))
        narrow = ConfigMeasurement(
            config=OpConfig(op_name="aib", input_layouts=(x_layout,), output_layouts=()),
            time=KernelTime(1.0, 1.0, 1.0),
        )
        wide = ConfigMeasurement(
            config=OpConfig(
                op_name="aib",
                input_layouts=(x_layout, Layout(("p", "h"))),
                output_layouts=(),
            ),
            time=KernelTime(2.0, 2.0, 2.0),
        )
        return SweepResult(op=op, measurements=[narrow, wide])

    def test_operand_layout_arrays_map_short_configs_to_none(self):
        sweep = self._mixed_arity_sweep()
        vocabs, ids, _totals, _order = sweep.operand_layout_arrays()
        # Operand 1 only exists in the slower, wider config: the narrow one
        # maps to a None entry, which selection treats as unconstrained.
        assert [vocabs[1][k] for k in ids[1]] == [None, Layout(("p", "h"))]
        assert [vocabs[0][k] for k in ids[0]] == [Layout(("p", "h", "b", "j"))] * 2
        pinned = {sweep.op.inputs[1].name: Layout(("h", "p"))}
        fast = _fast_best_consistent(sweep.op, sweep, pinned)
        assert fast is reference.best_consistent(sweep.op, sweep, pinned)
        assert fast is sweep.measurements[0]

    def test_layout_pair_minima_matches_linear_scan(self):
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        sweep = sweep_op(op, ENV, COST)
        minima = sweep.layout_pair_minima(0, 0)
        expect: dict = {}
        for m in sweep.measurements:
            key = (m.config.input_layouts[0].dims, m.config.output_layouts[0].dims)
            if key not in expect or m.total_us < expect[key]:
                expect[key] = m.total_us
        assert minima == expect
        assert sweep.layout_pair_minima(0, 0) is minima  # cached

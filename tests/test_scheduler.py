"""Tests for the parallel graph-sweep scheduler.

Determinism (``jobs=1`` vs ``jobs=4`` byte-equal), structural dedup
(identically shaped contractions share one evaluation and one store
entry), per-batch sample sharing, cache-tier interplay, and job-count
resolution.
"""

from __future__ import annotations

import ast
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.engine.sampling as sampling_mod
import repro.engine.scheduler as sched_mod
from repro import obs
from repro.engine import (
    clear_sweep_memo,
    get_sweep_store,
    kernel_index_array,
    resolve_jobs,
    set_default_jobs,
    set_sweep_store,
    sweep_graph,
    sweep_memo_stats,
)
from repro.autotuner.tuner import sweep_op_reference
from repro.engine.memo import ENGINE_L1, new_payload_cache
from repro.engine.space import kernel_knob_sizes
from repro.engine.store import (
    SweepStore,
    compute_payload,
    pack_payload_bytes,
    read_payload,
    sweep_digest,
)
from repro.engine.sweep import sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.hardware.params import (
    DEFAULT_PARAMS,
    install_params,
    params_from_wire,
    reset_active_params,
)
from repro.fusion.encoder_kernels import apply_paper_fusion
from repro.ir.dims import bert_large_dims
from repro.ir.graph import DataflowGraph
from repro.ir.operator import OpClass
from repro.ir.tensor import TensorSpec
from repro.ops.contraction import contraction_spec
from repro.ops.elementwise import bias_spec
from repro.transformer.graph_builder import build_encoder_graph, build_mha_graph

ENV = bert_large_dims()
COST = CostModel()
CAP = 60
SEED = 0x5EED


@pytest.fixture(autouse=True)
def _isolate():
    clear_sweep_memo()
    old = get_sweep_store()
    set_sweep_store(None)
    set_default_jobs(None)
    yield
    set_sweep_store(old)
    set_default_jobs(None)
    clear_sweep_memo()


def _cold_sweeps(g) -> dict:
    """Every op of ``g`` swept cold, serially, past every cache tier."""
    return {
        op.name: sweep_from_payload(
            op, compute_payload(op, ENV, COST, cap=CAP, seed=SEED)
        )
        for op in g.ops
        if not op.is_view
    }


def _assert_sweeps_equal(a, b):
    assert set(a) == set(b)
    for name in a:
        assert a[name].num_configs == b[name].num_configs, name
        assert a[name].times_us() == b[name].times_us(), name
        for x, y in zip(a[name].measurements, b[name].measurements):
            assert x.config == y.config, name
            assert x.time == y.time, name


def _twin_contraction_graph() -> DataflowGraph:
    """Two structurally identical GEMMs under different op/tensor names."""
    g = DataflowGraph("twins")
    g.add_input(TensorSpec("w1", ("p", "i"), is_param=True))
    g.add_input(TensorSpec("x1", ("i", "b")))
    g.add_input(TensorSpec("w2", ("p", "i"), is_param=True))
    g.add_input(TensorSpec("x2", ("i", "b")))
    g.add_op(contraction_spec("layer1_mm", "pi,ib->pb", ("w1", "x1"), "y1"))
    g.add_op(contraction_spec("layer2_mm", "pi,ib->pb", ("w2", "x2"), "y2"))
    return g


class TestDeterminism:
    def test_jobs_1_vs_jobs_4_byte_equal(self, monkeypatch):
        # Force the pool despite the small cap: the point is byte-equality
        # of the parallel path, not its amortization threshold.
        monkeypatch.setattr(sched_mod, "_MIN_PARALLEL_CONFIGS", 0)
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        serial = sweep_graph(g, ENV, COST, cap=CAP, jobs=1)
        clear_sweep_memo()
        parallel = sweep_graph(g, ENV, COST, cap=CAP, jobs=4)
        _assert_sweeps_equal(serial, parallel)

    def test_scheduler_equals_per_op_serial_path(self, monkeypatch):
        monkeypatch.setattr(sched_mod, "_MIN_PARALLEL_CONFIGS", 0)
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        scheduled = sweep_graph(g, ENV, COST, cap=CAP, jobs=2)
        _assert_sweeps_equal(scheduled, _cold_sweeps(g))

    def test_results_keyed_in_graph_order(self):
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        sweeps = sweep_graph(g, ENV, COST, cap=CAP)
        expected = [op.name for op in g.ops if not op.is_view]
        assert list(sweeps) == expected


class TestDedup:
    def test_structural_twins_share_one_store_entry(self, tmp_path):
        g = _twin_contraction_graph()
        store = SweepStore(tmp_path)
        sweeps = sweep_graph(g, ENV, COST, cap=CAP, store=store)
        assert store.stats()["entries"] == 1  # one evaluation for two ops
        assert len(sweeps) == 2

    def test_deduped_sweeps_match_independent_cold_sweeps(self):
        g = _twin_contraction_graph()
        deduped = sweep_graph(g, ENV, COST, cap=CAP)
        _assert_sweeps_equal(deduped, _cold_sweeps(g))

    def test_dedup_preserves_per_op_config_names(self):
        sweeps = sweep_graph(_twin_contraction_graph(), ENV, COST, cap=CAP)
        assert sweeps["layer1_mm"].best.config.op_name == "layer1_mm"
        assert sweeps["layer2_mm"].best.config.op_name == "layer2_mm"
        assert (
            sweeps["layer1_mm"].best.total_us == sweeps["layer2_mm"].best.total_us
        )


def _fused_encoder() -> DataflowGraph:
    """The paper's fused encoder fwd+bwd: at ``CAP`` its kernel spaces are
    capped, and three pairs of kernels share knob sizes."""
    return apply_paper_fusion(
        build_encoder_graph(qkv_fusion="qkv", include_backward=True), ENV
    )


def _count_draws(monkeypatch) -> list[tuple]:
    """Record the arguments of every draw the sampler actually makes."""
    draws: list[tuple] = []
    draw = sampling_mod._index_array

    def counting(sizes, *, cap, seed):
        draws.append((tuple(sizes), cap, seed))
        return draw(sizes, cap=cap, seed=seed)

    monkeypatch.setattr(sampling_mod, "_index_array", counting)
    return draws


def _payload(op) -> dict:
    return ENGINE_L1.get(sweep_digest(op, ENV, COST, cap=CAP, seed=SEED), record=False)


class TestSampleSharing:
    """A cold batch draws each distinct ``(sizes, cap, seed)`` once."""

    def _kernels(self, g) -> list:
        return [
            op for op in g.ops
            if not op.is_view and op.op_class is not OpClass.TENSOR_CONTRACTION
        ]

    def test_each_distinct_key_is_drawn_once(self, monkeypatch):
        draws = _count_draws(monkeypatch)
        g = _fused_encoder()
        sweep_graph(g, ENV, COST, cap=CAP, jobs=1)
        keys = [(kernel_knob_sizes(op, ENV), CAP, SEED) for op in self._kernels(g)]
        assert len(set(keys)) < len(keys)  # the graph repeats knob spaces
        assert sorted(draws) == sorted(set(keys))

    def test_same_key_kernels_share_one_read_only_array(self):
        g = _fused_encoder()
        sweep_graph(g, ENV, COST, cap=CAP, jobs=1)
        by_sizes: dict[tuple, list] = {}
        for op in self._kernels(g):
            by_sizes.setdefault(kernel_knob_sizes(op, ENV), []).append(op)
        pairs = [ops for ops in by_sizes.values() if len(ops) > 1]
        assert pairs
        for first, *rest in pairs:
            idx = _payload(first)["idx"]
            assert len(idx) == CAP  # capped: a real draw, not an enumeration
            assert not idx.flags.writeable
            for op in rest:
                assert _payload(op)["idx"] is idx

    def test_grouped_pool_is_byte_identical_to_serial(self, monkeypatch):
        monkeypatch.setattr(sched_mod, "_MIN_PARALLEL_CONFIGS", 0)
        g = _fused_encoder()
        ops = [op for op in g.ops if not op.is_view]
        packed = []
        for jobs in (1, 2):
            clear_sweep_memo()
            sweep_graph(g, ENV, COST, cap=CAP, jobs=jobs)
            packed.append(
                [
                    pack_payload_bytes(
                        sweep_digest(op, ENV, COST, cap=CAP, seed=SEED), _payload(op)
                    )
                    for op in ops
                ]
            )
        assert packed[0] == packed[1]

    def test_grouped_pool_task_keeps_one_job_span_per_op(self, monkeypatch):
        monkeypatch.setattr(sched_mod, "_MIN_PARALLEL_CONFIGS", 0)
        g = _fused_encoder()
        tracer = obs.set_tracing(True)
        try:
            tracer.clear()
            with obs.span("test.root") as root:
                sweep_graph(g, ENV, COST, cap=CAP, jobs=2)
            spans = tracer.trace(root.trace_id)
        finally:
            obs.set_tracing(None)
        jobs = sorted(s["attrs"]["op"] for s in spans if s["name"] == "engine.sweep_job")
        _, reps = sched_mod.graph_sweep_jobs(g, ENV, COST.gpu, cap=CAP, seed=SEED)
        assert jobs == sorted(op.name for op in reps.values())


class TestSampleScope:
    """No sample outlives its batch."""

    def test_a_second_batch_draws_again(self, monkeypatch):
        draws = _count_draws(monkeypatch)
        g = _fused_encoder()
        sweep_graph(g, ENV, COST, cap=CAP, jobs=1)
        first = list(draws)
        clear_sweep_memo()
        sweep_graph(g, ENV, COST, cap=CAP, jobs=1)
        assert first and draws == first + first

    def test_outside_a_batch_every_call_is_fresh(self):
        a = kernel_index_array((6, 1, 6, 6, 3), cap=CAP, seed=SEED)
        b = kernel_index_array((6, 1, 6, 6, 3), cap=CAP, seed=SEED)
        assert a is not b
        assert a.flags.writeable and b.flags.writeable
        assert (a == b).all()

    def test_a_batch_share_is_private_to_its_thread(self):
        # The daemon sweeps concurrent requests on threads: one request's
        # open share must not serve (read-only) samples to another.
        barrier = threading.Barrier(2, timeout=10)
        sizes = (6, 1, 6, 6, 3)

        def inside():
            with sampling_mod.shared_samples():
                first = kernel_index_array(sizes, cap=CAP, seed=SEED)
                barrier.wait()
                barrier.wait()
                return first is kernel_index_array(sizes, cap=CAP, seed=SEED)

        def outside():
            barrier.wait()  # while the other thread's share is open
            fresh = kernel_index_array(sizes, cap=CAP, seed=SEED)
            barrier.wait()
            return fresh.flags.writeable

        with ThreadPoolExecutor(max_workers=2) as pool:
            shared, fresh = pool.submit(inside), pool.submit(outside)
            assert shared.result(timeout=10)
            assert fresh.result(timeout=10)

    def test_the_sampler_holds_no_process_wide_cache(self):
        # A process-wide cache keeps earlier seeds' samples alive (peak
        # RSS rose 17% on the cold benchmark); the share is batch-scoped.
        source = Path(sampling_mod.__file__).read_text()
        assert "lru_cache" not in source
        assert "BoundedCache" not in source
        dict_makers = {"dict", "defaultdict", "OrderedDict", "Counter"}
        module_dicts = [
            node.lineno
            for node in ast.parse(source).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and node.value is not None
            and (
                isinstance(node.value, (ast.Dict, ast.DictComp))
                or isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) in dict_makers
            )
        ]
        assert module_dicts == []


class TestCacheTiers:
    def test_second_call_hits_the_memo(self):
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        first = sweep_graph(g, ENV, COST, cap=CAP)
        misses = sweep_memo_stats()["misses"]
        second = sweep_graph(g, ENV, COST, cap=CAP)
        assert sweep_memo_stats()["misses"] == misses  # every digest an L1 hit
        for name in first:
            assert (
                first[name].measurements.totals_array()
                is second[name].measurements.totals_array()
            )

    def test_warm_store_serves_a_cold_process(self, tmp_path):
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        store = SweepStore(tmp_path)
        first = sweep_graph(g, ENV, COST, cap=CAP, store=store)
        saves = store.stats()["saves"]
        assert saves > 0
        clear_sweep_memo()  # new-process simulation
        second = sweep_graph(g, ENV, COST, cap=CAP, store=store)
        assert store.stats()["saves"] == saves  # nothing recomputed
        assert store.stats()["hits"] >= saves
        _assert_sweeps_equal(first, second)

    def test_parallel_cold_run_populates_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sched_mod, "_MIN_PARALLEL_CONFIGS", 0)
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        store = SweepStore(tmp_path)
        sweep_graph(g, ENV, COST, cap=CAP, jobs=2, store=store)
        n_ops = sum(1 for op in g.ops if not op.is_view)
        assert store.stats()["entries"] == n_ops

    def test_disable_store_sentinel_forces_store_free(self, tmp_path):
        store = SweepStore(tmp_path)
        set_sweep_store(store)
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        sweeps = sweep_graph(g, ENV, COST, cap=CAP, store=sched_mod.DISABLE_STORE)
        assert len(sweeps) > 0
        assert store.stats()["saves"] == 0  # active store untouched

    def test_small_cold_work_stays_serial_even_with_jobs(self, monkeypatch):
        # Below the amortization threshold a pool must never spin up.
        def _boom(*a, **k):
            raise AssertionError("process pool spawned for trivial work")

        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", _boom)
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        sweeps = sweep_graph(g, ENV, COST, cap=CAP, jobs=4)
        assert len(sweeps) > 0


class TestJobsResolution:
    def test_explicit_argument_wins(self):
        set_default_jobs(7)
        assert resolve_jobs(3) == 3

    def test_default_jobs_applies_without_an_argument(self):
        set_default_jobs(2)
        assert resolve_jobs(None) == 2

    def test_serial_without_configuration(self):
        assert resolve_jobs(None) == 1

    def test_nonpositive_means_cpu_count(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)


class TestSerialFallback:
    """Sandboxes without working process pools degrade to serial, warned."""

    def test_pool_construction_oserror_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(sched_mod, "_MIN_PARALLEL_CONFIGS", 0)

        class _NoProcesses:
            def __init__(self, *args, **kwargs):
                raise OSError("[Errno 38] Function not implemented")

        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", _NoProcesses)
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            sweeps = sweep_graph(g, ENV, COST, cap=CAP, jobs=4)
        _assert_sweeps_equal(sweeps, _cold_sweeps(g))

    def test_broken_pool_mid_flight_falls_back_to_serial(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        monkeypatch.setattr(sched_mod, "_MIN_PARALLEL_CONFIGS", 0)

        class _DiesMidFlight:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", _DiesMidFlight)
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            sweeps = sweep_graph(g, ENV, COST, cap=CAP, jobs=2)
        _assert_sweeps_equal(sweeps, _cold_sweeps(g))

    def test_fallback_still_populates_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sched_mod, "_MIN_PARALLEL_CONFIGS", 0)

        class _NoProcesses:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pools here")

        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", _NoProcesses)
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        store = SweepStore(tmp_path)
        with pytest.warns(RuntimeWarning):
            sweep_graph(g, ENV, COST, cap=CAP, jobs=2, store=store)
        n_ops = sum(1 for op in g.ops if not op.is_view)
        assert store.stats()["entries"] == n_ops

    def test_serial_jobs_never_touch_the_pool(self, monkeypatch):
        monkeypatch.setattr(sched_mod, "_MIN_PARALLEL_CONFIGS", 0)

        def _boom(*args, **kwargs):
            raise AssertionError("jobs=1 must not construct a pool")

        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", _boom)
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        sweeps = sweep_graph(g, ENV, COST, cap=CAP, jobs=1)
        assert len(sweeps) > 0


class TestStreamingEvaluator:
    """``resolve`` saves each pair an evaluator yields as it arrives."""

    def test_each_payload_is_stored_before_the_next_is_evaluated(self, tmp_path):
        g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
        ops = [op for op in g.ops if not op.is_view][:2]
        reps = {
            sweep_digest(op, ENV, COST, cap=CAP, seed=SEED): op for op in ops
        }
        assert len(reps) == 2
        (a, op_a), (b, op_b) = reps.items()
        store, l1 = SweepStore(tmp_path), new_payload_cache()

        def evaluate(misses):
            assert list(misses) == [a, b]
            # Out of order, as a fan-out completes.
            yield b, (compute_payload(op_b, ENV, COST, cap=CAP, seed=SEED), "computed")
            assert b in store
            assert l1.get(b, record=False) is not None
            assert a not in store
            yield a, (compute_payload(op_a, ENV, COST, cap=CAP, seed=SEED), "computed")

        resolved = sched_mod.resolve(
            reps, version=COST.version, l1=l1, store=store, evaluate=evaluate
        )
        assert list(resolved) == [a, b]  # reps order, not arrival order
        assert [tier for _, tier in resolved.values()] == ["computed"] * 2
        assert a in store and l1.get(a, record=False) is not None


class TestOneChain:
    """CI guard: the tier chain is written out once, in the scheduler."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

    def _calls(self, names: str, under: str = "") -> dict[str, list[str]]:
        """``{module: ["line: name", ...]}`` of the calls of ``names``."""
        call = re.compile(rf"(?<!def )({names})\(")
        calls: dict[str, list[str]] = {}
        for path in sorted((self.SRC / under).rglob("*.py")):
            rel = path.relative_to(self.SRC).as_posix()
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for match in call.finditer(line):
                    calls.setdefault(rel, []).append(f"{lineno}: {match.group(1)}")
        return calls

    def test_only_the_scheduler_loads_saves_or_deltas(self):
        calls = self._calls(r"delta_payload_from_store|store\.load|store\.save")
        assert set(calls) == {"engine/scheduler.py"}, calls
        # One L2 read, one save and one delta attempt: one chain.
        assert len(calls["engine/scheduler.py"]) == 3, calls

    def test_one_graph_driver(self):
        # The fleet batch is a sweep_graph call with a remote evaluator,
        # not a second dedup-and-resolve loop.  sweep_graph runs the digest
        # loop through the private helper graph_sweep_jobs shares.
        calls = self._calls("graph_sweep_jobs|_graph_digests")
        assert set(calls) == {"engine/scheduler.py"}, calls

    def test_the_service_selects_configurations_once(self):
        # /v1/optimize, /v1/optimize_batch and /v1/register share one
        # tuning routine.
        calls = self._calls("select_configurations", under="service")
        assert sum(map(len, calls.values())) == 1, calls


class TestOneModelPerSweep:
    """A promote or rollback that lands mid-sweep never mixes two models."""

    CANDIDATE = params_from_wire({**DEFAULT_PARAMS.to_wire(), "jitter": 0.2})

    def test_promotion_inside_the_evaluator_is_not_served_after_rollback(
        self, tmp_path, monkeypatch
    ):
        op = bias_spec("aib", TensorSpec("qq", ("p", "h", "b", "j")), ("p", "h"), "out")
        store = SweepStore(tmp_path)
        inner = sched_mod.local_evaluator

        def promoting(*args, **kwargs):
            evaluate = inner(*args, **kwargs)

            def racing(misses):
                # The promote lands after the digest, before evaluation.
                install_params(self.CANDIDATE)
                return evaluate(misses)

            return racing

        monkeypatch.setattr(sched_mod, "local_evaluator", promoting)
        try:
            sched_mod.sweep_op(op, ENV, CostModel(), cap=CAP, store=store)
        finally:
            reset_active_params()  # the rollback
            monkeypatch.undo()
        default = CostModel()
        served = sched_mod.sweep_op(op, ENV, default, cap=CAP, store=store)
        reference = sweep_op_reference(op, ENV, default, cap=CAP, seed=SEED)
        assert served.measurements == reference.measurements
        candidate = CostModel(params=self.CANDIDATE)
        version_of = {
            sweep_digest(op, ENV, cost, cap=CAP, seed=SEED): cost.version
            for cost in (default, candidate)
        }
        entries = [(d, p) for d, (p, _) in ENGINE_L1._items.items()] + [
            (path.stem, read_payload(path, digest=path.stem, version=None))
            for path in tmp_path.rglob("*.sweep")
        ]
        assert len(entries) == 2
        for digest, payload in entries:
            assert payload["version"] == version_of[digest]


class TestOneModelSnapshot:
    """CI guard: request-path code reads its ``CostModel``, not the global."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
    GLOBALS = {"active_model", "active_params", "active_cost_model_version"}
    PROTOCOL_BUILDERS = {
        "sweep_request_digest",
        "optimize_request_digest",
        "sweep_response_from_sweep",
        "optimize_response_from_sweeps",
    }

    def _global_reads(self, tree) -> list[int]:
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self.GLOBALS
        ]

    def _functions(self, rel: str) -> dict[str, ast.FunctionDef]:
        tree = ast.parse((self.SRC / rel).read_text())
        return {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }

    def test_no_global_reads_on_the_request_path(self):
        paths = [
            path
            for under in ("engine", "registry", "validation", "configsel")
            for path in sorted((self.SRC / under).rglob("*.py"))
        ] + [self.SRC / "hardware" / "efficiency.py"]
        reads = {
            path.relative_to(self.SRC).as_posix(): lines
            for path in paths
            if (lines := self._global_reads(ast.parse(path.read_text())))
        }
        assert reads == {}, reads

    def test_protocol_builders_take_the_version_from_cost(self):
        functions = self._functions("service/protocol.py")
        reads = {
            name: self._global_reads(functions[name])
            for name in self.PROTOCOL_BUILDERS
        }
        assert all(not lines for lines in reads.values()), reads

    def test_only_the_cost_model_constructor_captures(self):
        functions = self._functions("hardware/cost_model.py")
        reads = {
            name: lines
            for name, node in functions.items()
            if (lines := self._global_reads(node))
        }
        assert list(reads) == ["__init__"], reads
        assert len(reads["__init__"]) == 1, reads

    @pytest.mark.parametrize("rel", ["hardware/efficiency.py", "engine/batched.py"])
    def test_params_is_never_optional(self, rel):
        defaulted = []
        for name, node in self._functions(rel).items():
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            if any(a.arg in ("params", "p") for a in with_default):
                defaulted.append(name)
        assert defaulted == [], defaulted

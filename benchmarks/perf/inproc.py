"""The in-process workloads: tune-cold, retune-store and reload-store.

Each operation runs the paper's recipe on one seeded problem: build the
MHA and the encoder layer (forward + backward) at one ``(B, L)``, apply the
paper's fusion, sweep every operator (``sweep_graph``, ``jobs=2``) and run
global configuration selection.  The L1 memo is cleared first, so every
operation resolves its sweeps below L1:

* ``tune-cold``  — store disabled: enumeration + batched roofline + pool;
* ``retune-store`` — on-disk store seeded with a structural twin: every
  operation is a delta re-sweep plus store writes;
* ``reload-store`` — every sweep is an exact L2 read of an entry written
  during set-up.

Both models are tuned in every operation, so each operation does the same
amount of work whatever the seed draws (the config count depends on the
model, never on ``B`` or ``L``).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor

import layers
from bench import timed_loop

from repro import obs
from repro.autotuner.tuner import sweep_op_reference
from repro.configsel import select_configurations
from repro.engine import SweepStore, clear_sweep_memo, sweep_graph
from repro.engine.scheduler import DISABLE_STORE
from repro.fusion import apply_paper_fusion
from repro.hardware.cost_model import CostModel
from repro.ir.dims import bert_large_dims
from repro.ir.operator import OpClass
from repro.transformer import graph_builder

MODELS = ("mha", "encoder")
BATCHES = (8, 16, 32, 96)
SEQS = (128, 256, 384, 512)
JOBS = 2
#: Kernels of the gate's MHA graph checked against the scalar reference
#: (all of its contractions are checked).
KERNELS_CHECKED = 2
#: Cap of the un-timed warm-up problem: contraction sweeps are exhaustive
#: at any cap, so a small one fills the structural caches cheaply.
WARM_CAP = 60

_COST = CostModel()
_BUILDERS = {
    "mha": lambda: graph_builder.build_mha_graph(qkv_fusion="qkv", include_backward=True),
    "encoder": lambda: graph_builder.build_encoder_graph(
        qkv_fusion="qkv", include_backward=True
    ),
}


def fused_graph(model: str, env):
    with obs.span("transformer.graph_builder", model=model):
        graph = _BUILDERS[model]()
    with obs.span("fusion", model=model):
        return apply_paper_fusion(graph, env)


def tune(model: str, env, *, cap: int, seed: int, store, fast: bool = True):
    """One graph through the recipe: ``(graph, sweeps, selection)``."""
    graph = fused_graph(model, env)
    sweeps = sweep_graph(
        graph, env, _COST, cap=cap, seed=seed, jobs=JOBS,
        store=DISABLE_STORE if store is None else store,
    )
    selection = select_configurations(
        graph, env, _COST, sweeps=sweeps, cap=cap, seed=seed, fast=fast
    )
    return graph, sweeps, selection


def selection_fingerprint(selection) -> str:
    h = hashlib.sha256()
    for name in sorted(selection.chosen):
        m = selection.chosen[name]
        h.update(f"{name}={m.config.key()}={m.total_us!r};".encode())
    for t in selection.transposes:
        h.update(f"T{t.tensor}:{t.from_layout}>{t.to_layout}@{t.before_op}={t.time_us!r};".encode())
    h.update(f"chain={selection.chain_cost_us!r}".encode())
    return h.hexdigest()


def result_fingerprint(sweeps, selection) -> str:
    """Exact content hash of one tuned graph: every sorted time array, each
    winning config, and the global selection."""
    h = hashlib.sha256()
    for name in sorted(sweeps):
        s = sweeps[name]
        h.update(name.encode())
        h.update(s.measurements.totals_array().tobytes())
        h.update(s.best.config.key().encode())
    h.update(selection_fingerprint(selection).encode())
    return h.hexdigest()


def measurements_fingerprint(measurements) -> str:
    """Hash of every measurement, in order: config identity and exact times."""
    h = hashlib.sha256()
    for m in measurements:
        t = m.time
        h.update(f"{m.config.key()}|{t.compute_us!r}|{t.memory_us!r}|{t.launch_us!r}\n".encode())
    return h.hexdigest()


def _reference_fingerprint(args) -> tuple[str, str]:
    """Scalar reference sweep of one op (runs in a pool worker)."""
    op, env, cap, seed = args
    ref = sweep_op_reference(op, env, CostModel(), cap=cap, seed=seed)
    return op.name, measurements_fingerprint(ref.measurements)


def check_against_references(problem, *, cap: int, rng, outcome) -> list[str]:
    """Tune one problem store-free and compare it with the scalar paths.

    The MHA graph's contractions and ``KERNELS_CHECKED`` seeded kernels
    must sweep exactly as ``sweep_op_reference`` does, and each graph's
    fast selection must equal ``select_configurations(fast=False)`` on the
    same sweeps.  A scalar kernel sweep takes about a second at cap=20000,
    hence the sample; the scalar sweeps run in two worker processes.
    Returns the store-free result fingerprints of both models.
    """
    env, seed = problem["env"], problem["seed"]
    clear_sweep_memo()
    fingerprints, tuned = [], {}
    for model in MODELS:
        graph, sweeps, fast = tune(model, env, cap=cap, seed=seed, store=None)
        tuned[model] = graph, sweeps
        fingerprints.append(result_fingerprint(sweeps, fast))
        scalar = select_configurations(
            graph, env, _COST, sweeps=sweeps, cap=cap, seed=seed, fast=False
        )
        if selection_fingerprint(fast) != selection_fingerprint(scalar):
            outcome.fail(f"{model}: fast selection differs from fast=False")
    graph, sweeps = tuned["mha"]
    ops = [op for op in graph.ops if not op.is_view]
    kernels = [op for op in ops if op.op_class is not OpClass.TENSOR_CONTRACTION]
    sampled = {op.name for op in rng.sample(kernels, min(KERNELS_CHECKED, len(kernels)))}
    ops = [op for op in ops if op.op_class is OpClass.TENSOR_CONTRACTION or op.name in sampled]
    # fork, as the scheduler's own pools do (no other thread runs now): a
    # spawn pool starts multiprocessing's resource tracker, which outlives
    # the benchmark process instead of being waited for.
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=JOBS, mp_context=ctx) as pool:
        reference = pool.map(_reference_fingerprint, [(op, env, cap, seed) for op in ops])
        engine = {op.name: measurements_fingerprint(sweeps[op.name].measurements) for op in ops}
        for name, fp in reference:
            if engine[name] != fp:
                outcome.fail(f"engine sweep of {name} differs from sweep_op_reference")
    return fingerprints


def _problem(rng: random.Random, batch: int, seq: int) -> dict:
    return {"env": bert_large_dims(batch=batch, seq=seq), "seed": rng.randrange(1 << 16)}


def draw_problems(rng: random.Random, n: int) -> list[dict]:
    return [_problem(rng, rng.choice(BATCHES), rng.choice(SEQS)) for _ in range(n)]


def draw_perturbations(rng: random.Random, batch: int, seq: int) -> list[tuple[int, int]]:
    """Every small move of ``(B, L)`` around a base, in seeded order."""
    moves = [
        (batch + db, seq + dl)
        for db in range(-6, 7)
        for dl in range(-96, 97, 8)
        if (db, dl) != (0, 0)
    ]
    rng.shuffle(moves)
    return moves


class InProcess:
    """Shared set-up and operations of the three in-process workloads."""

    def __init__(self, name: str, cfg) -> None:
        self.name = name
        self.cfg = cfg
        self.cap = cfg.cap
        self.rng = random.Random(cfg.seed)
        self.store = None
        self.expected: dict[int, list[str]] = {}

    # -- set-up ----------------------------------------------------------------
    def setup(self, outcome) -> None:
        rng = self.rng
        if self.name == "tune-cold":
            # Warm the structural caches (feasibility scans, layout tables)
            # on an un-timed problem, so operation 0 costs what operation 5
            # does.
            warm = _problem(rng, 4, 64)
            for model in MODELS:
                tune(model, warm["env"], cap=WARM_CAP, seed=warm["seed"], store=None)
            self.problems = draw_problems(rng, 4096)
            return
        self.store = SweepStore(self.cfg.workdir / "store")
        base_b, base_l = rng.choice(BATCHES[:3]), rng.choice(SEQS)
        base = _problem(rng, base_b, base_l)
        self.tune_pair(base)  # cold: the structural twins every retune uses
        sampling_seed = base["seed"]
        self.problems = [
            {"env": bert_large_dims(batch=b, seq=l), "seed": sampling_seed}
            for b, l in draw_perturbations(rng, base_b, base_l)
        ]
        if self.name == "reload-store":
            # Entries to cycle through; each reload reads back exactly what
            # its (cold or delta) tune wrote.
            self.problems = [base] + self.problems[:1]
            for i, p in enumerate(self.problems):
                self.expected[i] = self.tune_pair(p)

    # -- one operation ---------------------------------------------------------
    def tune_pair(self, problem) -> list[str]:
        clear_sweep_memo()
        out = []
        for model in MODELS:
            _, sweeps, selection = tune(
                model, problem["env"], cap=self.cap, seed=problem["seed"], store=self.store
            )
            out.append(result_fingerprint(sweeps, selection))
        return out

    def op(self, i: int) -> list[str]:
        return self.tune_pair(self.problems[i % len(self.problems)])

    def check(self, outcome, i: int, result: list[str]) -> None:
        key = i % len(self.problems)
        expected = self.expected.setdefault(key, result)
        if result != expected:
            outcome.fail(f"{self.name} op {i}: result differs from an earlier identical op")

    def run_timed(self, check, seconds, min_ops, first, outcome) -> None:
        timed_loop(self.op, check, seconds, min_ops, outcome, first)

    def traced_pass(self, check, seconds, first, outcome, spans) -> dict[str, float]:
        return layers.inproc_traced_pass(self, check, seconds, first, outcome, spans)

    def daemon_peak_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        pass

    def gate(self, outcome) -> None:
        """Correctness gate, outside the timed region: operation 0's output
        (cold, delta re-swept or reloaded) equals a store-free tune that
        itself matches the scalar references."""
        cold = check_against_references(
            self.problems[0], cap=self.cap, rng=self.rng, outcome=outcome
        )
        if cold != self.expected[0]:
            outcome.fail(f"{self.name} op 0 differs from a store-free cold tune")

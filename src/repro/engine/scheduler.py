"""Sweep resolution: the one tier chain, dedup and process fan-out.

Every sweep payload the program serves is resolved by :func:`resolve`, the
only place the cache tiers are written out:

1. **L1** — a byte-bounded payload LRU keyed by sweep digest
   (:mod:`repro.engine.memo`): the engine's own, or the one a tuning
   daemon passes in;
2. **L2** — the persistent store, when one is active.  An entry that fails
   validation (``CacheMismatch``) is a miss: it is recomputed and
   overwritten, never reused;
3. **the caller's evaluator**, on a store miss.  Locally
   (:func:`local_evaluator`) that is a delta re-sweep from a structural
   twin in the store, else a cold batched evaluation, fanned out over a
   ``ProcessPoolExecutor`` when ``jobs > 1``; the fleet coordinator
   passes :func:`sweep_graph` a remote fetch instead;
4. **save** — every evaluated payload is written to the store and the L1
   as the evaluator yields it.

It returns each digest's payload with the tier that served it.
:func:`sweep_op`, :func:`sweep_graph` and :func:`contraction_time_split`
are the engine's entry points into it; the daemon's ``/v1/sweep`` calls it
with a single-flight guard, so concurrent callers of one digest evaluate
once.

``sweep_graph`` deduplicates first: operators with the same content digest
(:func:`repro.engine.store.sweep_digest`) resolve once.  Contraction
digests are name-free, so structurally identical GEMMs
(``q_proj``/``k_proj``/``v_proj``, N stacked encoder layers) pay for a
single sweep.  Pool workers return serializable payloads (the same form
the store persists), and each operator's sweep is rebuilt from its
payload in graph order, so the result is byte-for-byte equal to the serial
path no matter the job count — ``jobs`` changes wall-clock, never results.
``jobs=None`` defers to ``set_default_jobs`` (the CLI's ``--jobs``), else
serial; ``jobs <= 0`` means one worker per CPU.

A cold batch draws each distinct kernel sampling key (knob sizes, cap,
seed) once (:func:`repro.engine.sampling.shared_samples`): the serial path
evaluates the whole batch in one sharing scope, and the pool path groups
the batch's ops by sampling key, one pool task per group (each
contraction alone), so same-key jobs run on one worker.  Each op is still
one ``compute_payload`` call under its own ``engine.sweep_job`` span, and
the samples are dropped with the batch.
"""

from __future__ import annotations

import os
import warnings
from collections import Counter
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable

import numpy as np

from repro import obs
from repro.hardware.cost_model import CostModel
from repro.hardware.spec import GPUSpec
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.ir.operator import OpClass, OpSpec

from .memo import ENGINE_L1, BoundedCache
from .sampling import shared_samples
from .space import kernel_knob_sizes
from .store import (
    CacheMismatch,
    SweepStore,
    compute_payload,
    get_sweep_store,
    sorted_totals,
    sweep_digest,
)
from .sweep import delta_payload_from_store, sweep_from_payload

__all__ = [
    "DISABLE_STORE",
    "contraction_time_split",
    "graph_sweep_jobs",
    "local_evaluator",
    "resolve",
    "resolve_jobs",
    "set_default_jobs",
    "sweep_graph",
    "sweep_op",
]

#: Sentinel for the entry points' ``store=``: run store-free even when a
#: process-wide store is active (``store=None`` means "use the active one").
DISABLE_STORE = object()

_DEFAULT_JOBS: int | None = None


def set_default_jobs(jobs: int | None) -> None:
    """Set the process-wide default worker count (the CLI's ``--jobs``;
    ``None``: serial)."""
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = jobs


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve an effective worker count.

    Order: explicit argument, :func:`set_default_jobs`, serial.  Zero or
    negative means one worker per CPU.
    """
    if jobs is None:
        jobs = 1 if _DEFAULT_JOBS is None else _DEFAULT_JOBS
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _compute_group(
    ops: list[OpSpec],
    env: DimEnv,
    cost: CostModel,
    *,
    cap: int | None,
    seed: int,
    **parent,
) -> list[dict]:
    """Evaluate ``ops`` in order, sharing their kernel samples, one
    ``engine.sweep_job`` span each (``parent=``: the spans' parent)."""
    payloads = []
    with shared_samples():
        for op in ops:
            with obs.span("engine.sweep_job", op=op.name, **parent):
                payloads.append(compute_payload(op, env, cost, cap=cap, seed=seed))
    return payloads


def _payload_job(args: tuple) -> tuple[list[dict], list | None]:
    """Worker entry point: evaluate one sampling-key group into payloads.

    ``ctx`` is the parent's serialized trace context: ``None`` means the
    parent isn't tracing and this is the zero-overhead path; a string (a
    ``traceparent`` header value, possibly empty) means the job runs under
    a private tracer whose finished spans — each op's job span plus
    everything the engine opens beneath it — ship back with the payloads
    for the parent to ingest.  Contextvars don't cross process boundaries;
    this explicit re-parenting is how pool workers join the request's tree.
    """
    ops, env, cost, cap, seed, ctx = args
    if ctx is None:
        return _compute_group(ops, env, cost, cap=cap, seed=seed), None
    from repro.obs import trace as _trace

    tracer = _trace.Tracer()
    # Install as the process tracer for the job's duration so nested
    # instrumentation (sweep/store spans and events) lands in the private
    # ring and ships back too; pool workers are reused, so restore.
    previous = _trace.get_tracer()
    _trace._TRACER = tracer
    try:
        payloads = _compute_group(
            ops, env, cost, cap=cap, seed=seed, parent=ctx or None
        )
    finally:
        _trace._TRACER = previous
    return payloads, tracer.finished()


#: Estimated total configs below which a process pool costs more than it
#: saves.  Measured on 2 vCPUs at cap=20000 over the benchmark's batch and
#: sequence sizes, samples shared per batch (a cold sweep costs 1.9-2.1
#: µs/config serially): the fused MHA fwd+bwd graph (128k configs, ~240
#: ms serial) takes 5-10% longer on 2 workers; the fused encoder layer
#: (242k, ~0.5 s serial) takes 10-15% less.
_MIN_PARALLEL_CONFIGS = 200_000


def _estimated_configs(op: OpSpec, env: DimEnv, cap: int | None) -> int:
    """Cheap size estimate of one op's sweep (drives the pool threshold).

    Uses the cached structural feasibility scan for contractions and the
    cached full-space size for kernels; under the fork start method the
    warmed caches are inherited by the workers, so nothing is recomputed.
    """
    from repro.layouts.config import NUM_GEMM_ALGORITHMS
    from repro.layouts.gemm_mapping import feasible_triple_structures
    from repro.ops.einsum_utils import parse_einsum

    from .store import _kernel_space_size

    if op.op_class is OpClass.TENSOR_CONTRACTION:
        triples = feasible_triple_structures(
            parse_einsum(op.einsum),
            op.inputs[0].dims,
            op.inputs[1].dims,
            op.outputs[0].dims,
        )
        return len(triples) * 2 * NUM_GEMM_ALGORITHMS
    size = _kernel_space_size(op, env)
    return size if cap is None else min(size, cap)


def _sampling_groups(
    ops: list[OpSpec], env: DimEnv, *, cap: int | None, seed: int
) -> list[list[int]]:
    """Indices into ``ops`` grouped by the exact arguments their cold
    sweeps pass :func:`~repro.engine.sampling.kernel_index_array`, in
    first-appearance order; a contraction samples nothing and is alone."""
    groups: dict[tuple, list[int]] = {}
    for i, op in enumerate(ops):
        if op.op_class is OpClass.TENSOR_CONTRACTION:
            key: tuple = ("contraction", i)
        else:
            key = (kernel_knob_sizes(op, env), cap, seed)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _compute_payloads(
    ops: list[OpSpec],
    env: DimEnv,
    cost: CostModel,
    *,
    cap: int | None,
    seed: int,
    jobs: int,
) -> list[dict]:
    """Evaluate payloads for ``ops`` under ``cost``, in order, optionally in
    parallel (workers price under the caller's snapshot, never their own).

    Each distinct sampling key is drawn once per batch: serially the batch
    shares one scope; in the pool each sampling-key group is one task.
    The pool only spins up when the estimated cold work amortizes its
    startup cost — tiny sweeps are faster serial even at ``jobs > 1``.
    """
    groups = _sampling_groups(ops, env, cap=cap, seed=seed)
    if (
        jobs > 1
        and len(groups) > 1
        and sum(_estimated_configs(op, env, cap) for op in ops)
        >= _MIN_PARALLEL_CONFIGS
    ):
        # Serialize the ambient trace context for the workers (None when
        # tracing is off — the workers' zero-overhead path).
        ctx = (
            (obs.current_traceparent() or "")
            if obs.tracing_enabled()
            else None
        )
        args = [([ops[i] for i in g], env, cost, cap, seed, ctx) for g in groups]
        try:
            with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
                outcomes = list(pool.map(_payload_job, args))
        except (OSError, BrokenProcessPool) as exc:
            # Sandboxes without working process pools degrade to serial;
            # results are identical either way.
            warnings.warn(
                f"sweep scheduler: process pool unavailable ({exc}); "
                "falling back to serial evaluation",
                RuntimeWarning,
                stacklevel=3,
            )
        else:
            shipped = [s for _, spans in outcomes if spans for s in spans]
            if shipped:
                obs.get_tracer().ingest(shipped)
            by_index = {
                i: payload
                for group, (payloads, _) in zip(groups, outcomes)
                for i, payload in zip(group, payloads)
            }
            return [by_index[i] for i in range(len(ops))]
    return _compute_group(ops, env, cost, cap=cap, seed=seed)


def graph_sweep_jobs(
    graph: DataflowGraph,
    env: DimEnv,
    gpu: GPUSpec,
    *,
    cap: int | None = 2000,
    seed: int = 0x5EED,
) -> tuple[dict[str, str], dict[str, OpSpec]]:
    """Decompose a graph into its deduplicated per-op sweep jobs.

    Returns ``(op_digests, representatives)``: every non-view operator
    mapped to its store digest, and one representative operator per
    distinct digest (in graph order).  This is the same digest-level
    dedup :func:`sweep_graph` performs before evaluating — exposed so
    callers can see the distinct jobs a graph sweep resolves, under a
    cost model snapshot taken here.
    """
    return _graph_digests(graph, env, CostModel(gpu), cap=cap, seed=seed)


def _graph_digests(
    graph: DataflowGraph, env: DimEnv, cost: CostModel, *, cap: int | None, seed: int
) -> tuple[dict[str, str], dict[str, OpSpec]]:
    """:func:`graph_sweep_jobs` under the caller's snapshot ``cost``."""
    op_digests: dict[str, str] = {}
    representatives: dict[str, OpSpec] = {}
    for op in graph.ops:
        if op.is_view:
            continue
        digest = sweep_digest(op, env, cost, cap=cap, seed=seed)
        op_digests[op.name] = digest
        representatives.setdefault(digest, op)
    return op_digests, representatives


def _store(store: SweepStore | None | object) -> SweepStore | None:
    """The store an entry point's ``store=`` argument selects."""
    if store is DISABLE_STORE:
        return None
    return get_sweep_store() if store is None else store  # type: ignore[return-value]


#: ``evaluate(misses) -> iterable of (digest, (payload, tier))``: what
#: :func:`resolve` runs for the digests neither the L1 nor the store holds.
#: Pairs may arrive in any order; each is saved as it arrives.
Evaluator = Callable[[dict], Iterable[tuple[str, tuple[object, str]]]]


def resolve(
    reps: Mapping[str, object],
    *,
    version: int | str,
    l1: BoundedCache,
    store: SweepStore | None,
    evaluate: Evaluator,
    single_flight: Callable | None = None,
) -> dict[str, tuple[object, str]]:
    """Resolve digests through the tier chain: L1 → L2 → ``evaluate`` → save.

    ``reps`` maps each distinct digest to what ``evaluate`` needs to
    produce it (a representative operator); ``version`` is the cost-model
    version of the caller's snapshot, which every digest embeds and every
    store entry must carry.  Returns ``{digest: (value, tier)}`` in
    ``reps`` order; the tier is ``"l1"``, ``"l2"``,
    ``"coalesced"`` or the one ``evaluate`` reports (``"delta"`` /
    ``"computed"``).  Digests that miss both caches are evaluated in one
    ``evaluate`` call (which is how a cold graph fans out over the pool or
    the fleet); each payload it yields is saved to the store and put in
    the L1 as it arrives, while the rest may still be in flight.

    ``single_flight(digest, lead) -> (value, leader)`` (a
    :meth:`~repro.service.coalesce.SingleFlight.do`) resolves each L1 miss
    under a per-digest flight instead: concurrent callers of one digest
    evaluate once, and followers report ``"coalesced"``.  With
    ``store=None`` the values need not be payloads (the daemon caches whole
    responses this way).
    """
    resolved: dict[str, tuple[object, str]] = {}
    misses: dict[str, object] = {}
    for digest, rep in reps.items():
        value = l1.get(digest)
        if value is None:
            misses[digest] = rep
        else:
            resolved[digest] = value, "l1"

    def below_l1(batch: dict[str, object]) -> dict[str, tuple[object, str]]:
        out: dict[str, tuple[object, str]] = {}
        rest: dict[str, object] = {}
        for digest, rep in batch.items():
            try:
                payload = None if store is None else store.load(digest, version)
            except CacheMismatch:
                payload = None  # recomputed and overwritten below
            if payload is None:
                rest[digest] = rep
            else:
                l1.put(digest, payload)
                out[digest] = payload, "l2"
        if rest:
            for digest, (payload, tier) in evaluate(rest):
                if store is not None:
                    store.save(digest, payload)
                # Into the L1 before a flight retires: a request arriving
                # after the flight ends must find the value there.
                l1.put(digest, payload)
                out[digest] = payload, tier
        return out

    if single_flight is None:
        resolved.update(below_l1(misses))
    else:
        for digest, rep in misses.items():

            def lead(digest=digest, rep=rep):
                # Re-check: a previous flight may have filled the L1 since
                # the miss above (record=False: that miss was counted).
                value = l1.get(digest, record=False)
                if value is not None:
                    return value, "l1"
                return below_l1({digest: rep})[digest]

            (value, tier), leader = single_flight(digest, lead)
            resolved[digest] = value, tier if leader else "coalesced"
    return {digest: resolved[digest] for digest in reps}


def local_evaluator(
    env: DimEnv,
    cost: CostModel,
    *,
    cap: int | None,
    seed: int,
    store: SweepStore | None,
    jobs: int = 1,
) -> Evaluator:
    """The engine's own evaluator for :func:`resolve`: delta, then cold,
    both priced under the snapshot ``cost`` the digests were taken with.

    Each missed digest is first delta-re-swept from a structural twin in
    ``store`` (same op, other dim sizes), which saves the enumeration; the
    rest are evaluated cold, in parallel when ``jobs > 1`` and the batch
    is big enough to amortize a process pool.
    """

    def evaluate(misses: dict[str, OpSpec]):
        out: dict[str, tuple[dict, str]] = {}
        cold: dict[str, OpSpec] = {}
        for digest, op in misses.items():
            payload = None if store is None else delta_payload_from_store(
                op, env, cost, cap=cap, seed=seed, store=store
            )
            if payload is None:
                cold[digest] = op
            else:
                out[digest] = payload, "delta"
        computed = _compute_payloads(
            list(cold.values()), env, cost, cap=cap, seed=seed, jobs=jobs
        )
        out.update((d, (p, "computed")) for d, p in zip(cold, computed))
        return out.items()

    return evaluate


def _resolve_op(
    op: OpSpec,
    env: DimEnv,
    cost: CostModel,
    *,
    cap: int | None,
    seed: int,
    store: SweepStore | None | object,
) -> dict:
    """One operator's payload through the engine L1 and the tier chain."""
    store = _store(store)
    digest = sweep_digest(op, env, cost, cap=cap, seed=seed)
    resolved = resolve(
        {digest: op},
        version=cost.version,
        l1=ENGINE_L1,
        store=store,
        evaluate=local_evaluator(env, cost, cap=cap, seed=seed, store=store),
    )
    return resolved[digest][0]


def sweep_op(
    op: OpSpec,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    cap: int | None = 2000,
    seed: int = 0x5EED,
    store: SweepStore | None | object = None,
):
    """Batched equivalent of the scalar exhaustive sweep.

    Bit-identical to :func:`repro.autotuner.tuner.sweep_op_reference`.  The
    payload is resolved through the tier chain (engine L1, then the store
    when one is active); ``store`` overrides the process-active store for
    this call (:data:`DISABLE_STORE`: none).  A cold sweep that bypasses
    every tier is ``sweep_from_payload(op, compute_payload(...))``.
    """
    cost = cost or CostModel()
    payload = _resolve_op(op, env, cost, cap=cap, seed=seed, store=store)
    return sweep_from_payload(op, payload)


def contraction_time_split(
    op: OpSpec,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    store: SweepStore | None | object = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A contraction sweep's sorted totals, split by requested TC mode.

    Returns ``(tc_totals_us, fp16_totals_us)``, each ascending — the two
    distributions of a Fig.-4 tile.  The payload-layout knowledge (the
    totals are derived in ``order``, ``tc_flags`` is in evaluation order)
    stays inside the engine.
    """
    cost = cost or CostModel()
    payload = _resolve_op(op, env, cost, cap=None, seed=0, store=store)
    totals = sorted_totals(payload)
    tc_mask = payload["tc_flags"][payload["order"]]
    return totals[tc_mask], totals[~tc_mask]


def sweep_graph(
    graph: DataflowGraph,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    cap: int | None = 2000,
    seed: int = 0x5EED,
    jobs: int | None = None,
    store: SweepStore | None | object = None,
    l1: BoundedCache | None = None,
    evaluate: Evaluator | None = None,
):
    """Sweep every non-view operator of a graph; keyed by op name.

    Byte-for-byte equal to sweeping each operator serially with
    :func:`sweep_op`, but deduplicated by digest, resolved through the tier
    chain in one batch and (for ``jobs > 1``) evaluated in parallel worker
    processes.  ``store=None`` resolves the process-active store; pass
    :data:`DISABLE_STORE` to force a store-free run even when one is
    active.  ``l1`` is the payload L1 to resolve through (default: the
    engine's).  ``evaluate`` produces the digests neither holds (default:
    :func:`local_evaluator`; the fleet coordinator passes a remote fetch).
    ``cost`` is the model snapshot the whole graph is keyed and priced
    under (default: one taken here); a passed ``evaluate`` prices under it.
    """
    cost = cost or CostModel()
    ops = [op for op in graph.ops if not op.is_view]
    store = _store(store)
    if evaluate is None:
        evaluate = local_evaluator(
            env, cost, cap=cap, seed=seed, store=store, jobs=resolve_jobs(jobs)
        )

    with obs.span("engine.sweep_graph", ops=len(ops)) as graph_span:
        op_digests, reps = _graph_digests(graph, env, cost, cap=cap, seed=seed)
        resolved = resolve(
            reps,
            version=cost.version,
            l1=ENGINE_L1 if l1 is None else l1,
            store=store,
            evaluate=evaluate,
        )
        tiers = Counter(tier for _, tier in resolved.values())
        graph_span.set_attr(
            "memo_hits",
            sum(resolved[d][1] == "l1" for d in op_digests.values()),
        )
        graph_span.set_attr("distinct_digests", len(reps) - tiers["l1"])
        graph_span.set_attr("l2_hits", tiers["l2"])
        graph_span.set_attr("delta_hits", tiers["delta"])
        graph_span.set_attr("cold", tiers["computed"])
        return {
            op.name: sweep_from_payload(op, resolved[op_digests[op.name]][0])
            for op in ops
        }

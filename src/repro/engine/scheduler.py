"""Whole-graph sweep scheduling: dedup, two-tier cache, process fan-out.

``sweep_graph`` is the single entry point every whole-graph consumer (the
tuner/violins, the framework baselines, the configuration selector, the
figure and sensitivity sweeps) routes through.  For each non-view operator
it resolves, in order:

1. **L1** — the in-process memo (:mod:`repro.engine.memo`);
2. **dedup** — operators with the same content digest
   (:func:`repro.engine.store.sweep_digest`) are evaluated once.
   Contraction digests are name-free, so structurally identical GEMMs
   (``q_proj``/``k_proj``/``v_proj``, N stacked encoder layers) pay for a
   single sweep;
3. **L2** — the persistent store, when one is active;
4. **cold evaluation** — remaining digests are batch-evaluated, fanned out
   over a ``ProcessPoolExecutor`` when ``jobs > 1``.

Workers return serializable payloads (the same form the store persists),
and the parent merges them in graph order, so the result is byte-for-byte
equal to the serial path no matter the job count — ``jobs`` changes
wall-clock, never results.  ``jobs=None`` defers to ``set_default_jobs``
(the CLI's ``--jobs``) and then the ``REPRO_JOBS`` environment variable;
``jobs <= 0`` means one worker per CPU.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro import obs
from repro.autotuner.cache import CacheMismatch
from repro.hardware.cost_model import CostModel
from repro.hardware.spec import GPUSpec
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.ir.operator import OpClass, OpSpec

from .memo import memo_get, memo_key, memo_put
from .store import SweepStore, compute_payload, get_sweep_store, sweep_digest
from .sweep import delta_payload_from_store, sweep_from_payload, sweep_op

__all__ = [
    "DISABLE_STORE",
    "graph_sweep_jobs",
    "resolve_jobs",
    "set_default_jobs",
    "sweep_graph",
]

#: Environment variable giving the default worker count (CLI: ``--jobs``).
JOBS_ENV_VAR = "REPRO_JOBS"

#: Sentinel for ``sweep_graph(store=...)``: run store-free even when a
#: process-wide store is active (``store=None`` means "use the active one").
DISABLE_STORE = object()

_DEFAULT_JOBS: int | None = None


def set_default_jobs(jobs: int | None) -> None:
    """Set the process-wide default worker count (``None`` re-enables
    ``REPRO_JOBS`` / serial resolution)."""
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = jobs


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve an effective worker count.

    Order: explicit argument, :func:`set_default_jobs`, ``REPRO_JOBS``,
    serial.  Zero or negative means one worker per CPU.
    """
    if jobs is None:
        jobs = _DEFAULT_JOBS
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = 1
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _payload_job(args: tuple) -> tuple[dict, list | None]:
    """Worker entry point: evaluate one sweep into its payload.

    ``ctx`` is the parent's serialized trace context: ``None`` means the
    parent isn't tracing and this is the zero-overhead path; a string (a
    ``traceparent`` header value, possibly empty) means the job runs under
    a private tracer whose finished spans — the job span plus everything
    the engine opens beneath it — ship back with the payload for the
    parent to ingest.  Contextvars don't cross process boundaries; this
    explicit re-parenting is how pool workers join the request's tree.
    """
    op, env, gpu, cap, seed, ctx = args
    if ctx is None:
        return compute_payload(op, env, gpu, cap=cap, seed=seed), None
    from repro.obs import trace as _trace

    tracer = _trace.Tracer()
    # Install as the process tracer for the job's duration so nested
    # instrumentation (sweep/store spans and events) lands in the private
    # ring and ships back too; pool workers are reused, so restore.
    previous = _trace.get_tracer()
    _trace._TRACER = tracer
    try:
        with tracer.span(
            "engine.sweep_job", parent=ctx or None, op=op.name
        ):
            payload = compute_payload(op, env, gpu, cap=cap, seed=seed)
    finally:
        _trace._TRACER = previous
    return payload, tracer.finished()


#: Estimated total configs below which a process pool costs more than it
#: saves.  Measured on 2 vCPUs at cap=20000 (a cold sweep costs 2-2.5
#: µs/config serially): the fused MHA fwd+bwd graph (128k configs) takes
#: the same time serial and on 2 workers; the fused encoder layer (242k)
#: takes 0.5-0.6 s serial and 20-30% less on 2 workers.
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


def _compute_payloads(
    ops: list[OpSpec],
    env: DimEnv,
    gpu: GPUSpec,
    *,
    cap: int | None,
    seed: int,
    jobs: int,
) -> list[dict]:
    """Evaluate payloads for ``ops``, in order, optionally in parallel.

    The pool only spins up when the estimated cold work amortizes its
    startup cost — tiny sweeps are faster serial even at ``jobs > 1``.
    """
    if (
        jobs > 1
        and len(ops) > 1
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
        args = [(op, env, gpu, cap, seed, ctx) for op in ops]
        try:
            with ProcessPoolExecutor(max_workers=min(jobs, len(ops))) as pool:
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
            return [payload for payload, _ in outcomes]
    payloads = []
    for op in ops:
        with obs.span("engine.sweep_job", op=op.name):
            payloads.append(compute_payload(op, env, gpu, cap=cap, seed=seed))
    return payloads


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
    dedup :func:`sweep_graph` performs before evaluating — exposed so the
    fleet coordinator can shard exactly the jobs a local run would have
    evaluated, one wire request per *distinct* digest.
    """
    op_digests: dict[str, str] = {}
    representatives: dict[str, OpSpec] = {}
    for op in graph.ops:
        if op.is_view:
            continue
        digest = sweep_digest(op, env, gpu, cap=cap, seed=seed)
        op_digests[op.name] = digest
        representatives.setdefault(digest, op)
    return op_digests, representatives


def sweep_graph(
    graph: DataflowGraph,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    cap: int | None = 2000,
    seed: int = 0x5EED,
    memo: bool = True,
    jobs: int | None = None,
    store: SweepStore | None | object = None,
):
    """Sweep every non-view operator of a graph; keyed by op name.

    Byte-for-byte equal to sweeping each operator serially with
    :func:`repro.engine.sweep.sweep_op`, but deduplicated, two-tier cached
    and (for ``jobs > 1``) evaluated in parallel worker processes.
    ``memo=False`` bypasses every cache *and* the dedup/fan-out machinery —
    the pinned serial, store-free path.  ``store=None`` resolves the
    process-active store; pass :data:`DISABLE_STORE` to force a store-free
    run even when one is active.
    """
    cost = cost or CostModel()
    ops = [op for op in graph.ops if not op.is_view]
    if not memo:
        return {
            op.name: sweep_op(op, env, cost, cap=cap, seed=seed, memo=False)
            for op in ops
        }
    gpu = cost.gpu
    if store is DISABLE_STORE:
        store = None
    elif store is None:
        store = get_sweep_store()

    with obs.span("engine.sweep_graph", ops=len(ops)) as graph_span:
        results: dict[str, object] = {}
        groups: dict[str, list[tuple[OpSpec, object]]] = {}  # digest -> members
        for op in ops:
            key = memo_key(op, env, gpu, cap=cap, seed=seed)
            sweep = memo_get(key)
            if sweep is not None:
                results[op.name] = sweep
                continue
            digest = sweep_digest(op, env, gpu, cap=cap, seed=seed)
            groups.setdefault(digest, []).append((op, key))

        payloads: dict[str, dict] = {}
        cold: list[str] = []
        delta_hits = 0
        for digest, members in groups.items():
            payload = None
            if store is not None:
                try:
                    payload = store.load(digest)
                except CacheMismatch:
                    payload = None  # recompute and overwrite below
                if payload is None:
                    # Exact miss: a structural twin (same op, different dim
                    # sizes) still saves the enumeration — delta re-sweep and
                    # persist under the exact digest before cold fan-out.
                    rep = members[0][0]
                    payload = delta_payload_from_store(
                        rep, env, gpu, cap=cap, seed=seed, store=store
                    )
                    if payload is not None:
                        delta_hits += 1
                        store.save(digest, payload)
            if payload is None:
                cold.append(digest)
            else:
                payloads[digest] = payload

        if cold:
            representatives = [groups[d][0][0] for d in cold]
            computed = _compute_payloads(
                representatives, env, gpu, cap=cap, seed=seed,
                jobs=resolve_jobs(jobs),
            )
            for digest, payload in zip(cold, computed):
                payloads[digest] = payload
                if store is not None:
                    store.save(digest, payload)

        graph_span.set_attr("memo_hits", len(results))
        graph_span.set_attr("distinct_digests", len(groups))
        graph_span.set_attr(
            "l2_hits", len(groups) - len(cold) - delta_hits
        )
        graph_span.set_attr("delta_hits", delta_hits)
        graph_span.set_attr("cold", len(cold))

        for digest, members in groups.items():
            payload = payloads[digest]
            for op, key in members:
                sweep = sweep_from_payload(op, payload)
                memo_put(key, sweep)
                results[op.name] = sweep
        return {op.name: results[op.name] for op in ops}

"""The service wire protocol: canonical JSON requests and responses.

The request schema deliberately mirrors the canonicalization of
:func:`repro.engine.store.sweep_digest`: a ``/v1/sweep`` request carries an
operator signature, the dim sizes it reads, a :class:`GPUSpec` and the
sampling knobs — exactly the tuple the L2 store digests.  ``op_from_wire``
rebuilds a real :class:`OpSpec` from the wire form, so the server keys its
caches with the *store's own* digest function; the wire key and the store
key are the same object, and a request served over HTTP hits the same
store entry a batch ``sweep_graph`` run would have written.

Responses are built through :func:`sweep_response_from_sweep`, a pure
function of a :class:`~repro.autotuner.tuner.SweepResult` — the server
feeds it engine sweeps, tests feed it scalar
:func:`~repro.autotuner.tuner.sweep_op_reference` sweeps, and because the
engine is bit-identical to the reference the resulting
:func:`canonical_json_bytes` are equal byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from dataclasses import fields as dataclass_fields

from repro.engine.store import _op_dims
from repro.hardware.cost_model import CostModel
from repro.hardware.params import active_cost_model_version
from repro.hardware.spec import A100, V100, GPUSpec
from repro.ir.dims import DimEnv, bert_large_dims
from repro.ir.graph import DataflowGraph
from repro.ir.iteration_space import IterationSpace
from repro.ir.operator import OpClass, OpSpec
from repro.ir.tensor import TensorSpec
from repro.ir.dtypes import FP16, FP32, FP64, DType
from repro.layouts.config import OpConfig
from repro.wire import At, ProtocolError

__all__ = [
    "BINARY_CONTENT_TYPE",
    "PROTOCOL_VERSION",
    "REQUEST",
    "OptimizeRequest",
    "ProtocolError",
    "SweepRequest",
    "accepts_packed",
    "canonical_json_bytes",
    "etag_matches",
    "fleet_heartbeat_wire",
    "fleet_register_wire",
    "parse_fleet_heartbeat",
    "parse_fleet_register",
    "payload_from_packed",
    "sweep_etag",
    "config_to_wire",
    "gpu_from_wire",
    "gpu_to_wire",
    "measurement_to_wire",
    "op_from_wire",
    "op_to_wire",
    "optimize_request_digest",
    "optimize_request_wire",
    "optimize_response_from_sweeps",
    "parse_optimize_request",
    "parse_sweep_request",
    "selection_to_wire",
    "sweep_request_digest",
    "sweep_request_wire",
    "sweep_response_from_sweep",
]

#: Wire schema version; embedded in every request and response.
PROTOCOL_VERSION = 1

#: Media type of the packed binary ``/v1/sweep`` representation: the wire
#: bytes are exactly the L2 store's payload file (the checksummed container
#: of :func:`~repro.engine.store.pack_payload_bytes`), so a server with a
#: warm store ``sendfile``s that file to the socket (the bytes never pass
#: through Python) and the client decodes it with the store's own reader.
#: The name predates the container; what it names is the store's current
#: payload format, which the decoder checks.
BINARY_CONTENT_TYPE = "application/x-repro-npz"

#: Default number of ranked configurations returned by ``/v1/sweep``.
DEFAULT_TOP_K = 3
MAX_TOP_K = 50

#: Default sampled-config caps when a request omits ``cap`` — the same
#: values the client builders and the CLI use, so a hand-written body and a
#: client-built one land on the same cache keys.
DEFAULT_SWEEP_CAP = 2000
DEFAULT_OPTIMIZE_CAP = 400

#: Graph builders servable by ``/v1/optimize``.
OPTIMIZE_MODELS = ("mha", "encoder", "decoder")
QKV_FUSIONS = ("unfused", "qk", "qkv")

_DTYPES: dict[str, DType] = {d.name: d for d in (FP16, FP32, FP64)}
_OP_CLASSES: dict[str, OpClass] = {c.value: c for c in OpClass}
_NAMED_GPUS: dict[str, GPUSpec] = {"V100": V100, "A100": A100}
_GPU_NAMES = {gpu: name for name, gpu in _NAMED_GPUS.items()}


#: Where a request body is read from: every failed read raises ProtocolError.
REQUEST = At(ProtocolError, "request")
_OP, _GPU, _DIMS = REQUEST.at("op"), REQUEST.at("gpu"), REQUEST.at("dims")


def canonical_json_bytes(obj) -> bytes:
    """The one serialization every response uses: sorted keys, no spaces.

    Determinism matters: concurrent clients of one digest must receive
    byte-identical payloads (pinned by the load benchmark).
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Wire forms of the IR pieces a sweep reads
# ---------------------------------------------------------------------------

def tensor_to_wire(t: TensorSpec) -> dict:
    return {
        "name": t.name,
        "dims": list(t.dims),
        "dtype": t.dtype.name,
        "is_param": t.is_param,
    }


def tensor_from_wire(wire, at: At) -> TensorSpec:
    t = at.object(wire)
    return at.build(
        TensorSpec,  # positional: the four fields in declaration order
        at.string(t, "name"),
        at.strings(t, "dims"),
        at.choice(t, "dtype", _DTYPES, FP16.name),
        at.boolean(t, "is_param", False),
    )


def op_to_wire(op: OpSpec) -> dict:
    """Serialize the sweep-relevant structure of one operator.

    ``stage``, ``fused_from`` and ``kernel_label`` never reach the cost
    model (they are excluded from the store digest for the same reason)
    and are not carried on the wire.
    """
    wire = {
        "name": op.name,
        "class": op.op_class.value,
        "inputs": [tensor_to_wire(t) for t in op.inputs],
        "outputs": [tensor_to_wire(t) for t in op.outputs],
        "independent": list(op.ispace.independent),
        "reduction": list(op.ispace.reduction),
        "flop_per_point": op.flop_per_point,
        "is_view": op.is_view,
    }
    if op.einsum is not None:
        wire["einsum"] = op.einsum
    if op.members:
        wire["members"] = [op_to_wire(m) for m in op.members]
    return wire


def op_from_wire(wire, at: At = _OP) -> OpSpec:
    """Rebuild an :class:`OpSpec` from its wire form.

    The round trip preserves every field the store digest reads, so
    ``sweep_digest(op_from_wire(op_to_wire(op)), ...) == sweep_digest(op,
    ...)`` — the protocol's central invariant (pinned in tests).
    """
    w = at.object(wire)
    return at.build(
        OpSpec,
        name=at.string(w, "name"),
        op_class=at.choice(w, "class", _OP_CLASSES, what="operator class"),
        inputs=tuple(
            tensor_from_wire(t, at.at("inputs", i))
            for i, t in enumerate(at.array(w, "inputs"))
        ),
        outputs=tuple(
            tensor_from_wire(t, at.at("outputs", i))
            for i, t in enumerate(at.array(w, "outputs"))
        ),
        ispace=at.build(
            IterationSpace,
            at.strings(w, "independent"),
            at.strings(w, "reduction", ()),
        ),
        flop_per_point=float(at.number(w, "flop_per_point", 1.0)),
        einsum=at.string(w, "einsum", None, null=True),
        is_view=at.boolean(w, "is_view", False),
        members=tuple(
            op_from_wire(m, at.at("members", i))
            for i, m in enumerate(at.array(w, "members", ()))
        ),
    )


def gpu_to_wire(gpu: GPUSpec) -> dict:
    """The full spec: what registry entries and request digests hash."""
    wire = asdict(gpu)
    wire["gemm_tile"] = list(gpu.gemm_tile)
    return wire


def _gpu_request_wire(gpu: GPUSpec) -> str | dict:
    """A request's GPU: a preset's name, else its full spec."""
    return _GPU_NAMES.get(gpu) or gpu_to_wire(gpu)


def gpu_from_wire(wire, at: At = _GPU) -> GPUSpec:
    """A GPU from the wire: absent (V100), a known name (``"V100"``) or a
    full spec, whose ranges :class:`GPUSpec` itself checks."""
    if wire is None:
        return V100
    return at.named(wire, _NAMED_GPUS, "GPU name", _gpu_from_object)


def _gpu_from_object(wire: dict, at: At) -> GPUSpec:
    if not wire.keys() <= _GPU_READS.keys():
        at.fail(f"has unknown fields {sorted(wire.keys() - _GPU_READS.keys())}")
    return at.build(
        GPUSpec,  # positional: _GPU_READS holds the fields in order
        *[read(at, wire, name, default) for name, (read, default) in _GPU_READS.items()],
    )


#: How each GPUSpec field is read — a number but for the name and the tile
#: — with its default.  The ranges, integrality among them, are the spec's.
_GPU_READS = {
    f.name: ({"name": At.string, "gemm_tile": At.numbers}.get(f.name, At.number), f.default)
    for f in dataclass_fields(GPUSpec)
}


def _dims_from_wire(sizes: dict) -> DimEnv:
    if not sizes:
        _DIMS.fail("must be a non-empty object of dim sizes")
    return _DIMS.build(DimEnv, sizes)


# ---------------------------------------------------------------------------
# /v1/sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRequest:
    """A parsed, validated ``POST /v1/sweep`` body."""

    op: OpSpec
    env: DimEnv
    gpu: GPUSpec
    cap: int | None
    seed: int
    top_k: int


def sweep_request_wire(
    op: OpSpec,
    env: DimEnv,
    gpu: GPUSpec = V100,
    *,
    cap: int | None = DEFAULT_SWEEP_CAP,
    seed: int = 0x5EED,
    top_k: int = DEFAULT_TOP_K,
) -> dict:
    """Client-side builder of a ``/v1/sweep`` body."""
    return {
        "protocol": PROTOCOL_VERSION,
        "op": op_to_wire(op),
        "dims": dict(env),
        "gpu": _gpu_request_wire(gpu),
        "cap": cap,
        "seed": seed,
        "top_k": top_k,
    }


def parse_sweep_request(body: dict) -> SweepRequest:
    at = REQUEST
    body = _request_object(body)
    op = op_from_wire(body.get("op"))
    if op.is_view:
        at.fail("is a view: view operators have no configurations to sweep", "op")
    env = _dims_from_wire(at.mapping(body, "dims"))
    missing = sorted(_op_dims(op) - set(env))
    if missing:
        at.fail(f"is missing sizes for {missing}", "dims")
    return SweepRequest(
        op=op,
        env=env,
        gpu=gpu_from_wire(body.get("gpu")),
        cap=at.integer(body, "cap", DEFAULT_SWEEP_CAP, min=1, null=True),
        seed=at.integer(body, "seed", 0x5EED),
        top_k=min(at.integer(body, "top_k", DEFAULT_TOP_K, min=1), MAX_TOP_K),
    )


def sweep_request_digest(req: SweepRequest, cost: CostModel) -> str:
    """The cache key of one sweep request under the handler's ``cost``
    snapshot — the store's own digest.

    This is the whole point of the protocol design: the wire key *is* the
    L2 store key, so the daemon, the CLI and the nightly benchmarks all
    share one content-addressed namespace.
    """
    from repro.engine.store import sweep_digest

    return sweep_digest(req.op, req.env, cost, cap=req.cap, seed=req.seed)


# ---------------------------------------------------------------------------
# /v1/optimize
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizeRequest:
    """A parsed, validated ``POST /v1/optimize`` body."""

    model: str
    qkv_fusion: str
    include_backward: bool
    fused: bool
    env: DimEnv
    gpu: GPUSpec
    cap: int | None
    seed: int


def optimize_request_wire(
    *,
    model: str = "encoder",
    qkv_fusion: str = "qkv",
    include_backward: bool = True,
    fused: bool = True,
    env: DimEnv | None = None,
    gpu: GPUSpec = V100,
    cap: int | None = DEFAULT_OPTIMIZE_CAP,
    seed: int = 0x5EED,
) -> dict:
    """Client-side builder of a ``/v1/optimize`` body."""
    return {
        "protocol": PROTOCOL_VERSION,
        "model": model,
        "qkv_fusion": qkv_fusion,
        "include_backward": include_backward,
        "fused": fused,
        "dims": dict(env if env is not None else bert_large_dims()),
        "gpu": _gpu_request_wire(gpu),
        "cap": cap,
        "seed": seed,
    }


def parse_optimize_request(body: dict) -> OptimizeRequest:
    at = REQUEST
    body = _request_object(body)
    sizes = at.mapping(body, "dims", None, null=True)
    return OptimizeRequest(
        model=at.choice(body, "model", OPTIMIZE_MODELS, "encoder"),
        qkv_fusion=at.choice(body, "qkv_fusion", QKV_FUSIONS, "qkv"),
        include_backward=at.boolean(body, "include_backward", True),
        fused=at.boolean(body, "fused", True),
        env=bert_large_dims() if sizes is None else _dims_from_wire(sizes),
        gpu=gpu_from_wire(body.get("gpu")),
        cap=at.integer(body, "cap", DEFAULT_OPTIMIZE_CAP, min=1, null=True),
        seed=at.integer(body, "seed", 0x5EED),
    )


def _request_object(body) -> dict:
    """The body as an object, checked to speak this protocol version."""
    body = REQUEST.object(body)
    protocol = body.get("protocol", PROTOCOL_VERSION)
    if protocol != PROTOCOL_VERSION:
        REQUEST.fail(
            f"uses unsupported protocol version {protocol!r}; "
            f"this server speaks {PROTOCOL_VERSION}"
        )
    return body


def build_request_graph(req: OptimizeRequest) -> DataflowGraph:
    """Materialize the dataflow graph an optimize request names."""
    from repro.fusion import apply_paper_fusion
    from repro.transformer.graph_builder import (
        build_encoder_graph,
        build_gpt_decoder_graph,
        build_mha_graph,
    )

    builders = {
        "mha": build_mha_graph,
        "encoder": build_encoder_graph,
        "decoder": build_gpt_decoder_graph,
    }
    graph = builders[req.model](
        qkv_fusion=req.qkv_fusion, include_backward=req.include_backward
    )
    missing = sorted(
        {d for op in graph.ops for d in _op_dims(op)} - set(req.env)
    )
    if missing:
        raise ProtocolError(f"dims is missing sizes for {missing}")
    if req.fused:
        graph = apply_paper_fusion(graph, req.env)
    return graph


def optimize_request_digest(req: OptimizeRequest, cost: CostModel) -> str:
    """Stable coalescing/cache key of one optimize request.

    Sweep-level reuse already happens through the store digests; this key
    only needs to identify the *whole response*, so it hashes the parsed
    request (not the raw body — unknown fields and key order don't split
    the cache) plus the version of the handler's ``cost`` snapshot, so a
    calibration promotion atomically orphans every cached optimize
    response.
    """
    key = {
        "kind": "optimize",
        "protocol": PROTOCOL_VERSION,
        "version": cost.version,
        "model": req.model,
        "qkv_fusion": req.qkv_fusion,
        "include_backward": req.include_backward,
        "fused": req.fused,
        "env": sorted(req.env.items()),
        "gpu": gpu_to_wire(req.gpu),
        "cap": req.cap,
        "seed": req.seed,
    }
    return hashlib.sha256(canonical_json_bytes(key)).hexdigest()


# ---------------------------------------------------------------------------
# Fleet membership: /v1/fleet/register and /v1/fleet/heartbeat
# ---------------------------------------------------------------------------

def fleet_register_wire(
    *,
    worker_id: str,
    url: str,
    ready: bool = False,
    cost_model_version: int | str | None = None,
) -> dict:
    """Client-side builder of a ``/v1/fleet/register`` body.

    ``cost_model_version`` defaults to the process-active served version so
    the coordinator can report fleet-wide version skew.
    """
    if cost_model_version is None:
        cost_model_version = active_cost_model_version()
    return {
        "protocol": PROTOCOL_VERSION,
        "worker_id": worker_id,
        "url": url,
        "ready": ready,
        "cost_model_version": cost_model_version,
    }


def parse_fleet_register(body: dict) -> tuple[str, str, bool, int | str | None]:
    """Validate a register body into ``(worker_id, url, ready, version)``.

    The version is optional (older workers omit it — reported as ``None``,
    which the coordinator surfaces as unknown skew).
    """
    at = REQUEST
    body = at.object(body)
    url = at.string(body, "url")
    if not url.startswith(("http://", "https://")):
        at.fail(f"must be an http(s) URL, got {url!r}", "url")
    return (
        at.name(body, "worker_id"),
        url.rstrip("/"),
        at.boolean(body, "ready", False),
        at.version(body, "cost_model_version", None, null=True),
    )


def fleet_heartbeat_wire(
    *,
    worker_id: str,
    ready: bool,
    cost_model_version: int | str | None = None,
) -> dict:
    """Client-side builder of a ``/v1/fleet/heartbeat`` body."""
    if cost_model_version is None:
        cost_model_version = active_cost_model_version()
    return {
        "protocol": PROTOCOL_VERSION,
        "worker_id": worker_id,
        "ready": ready,
        "cost_model_version": cost_model_version,
    }


def parse_fleet_heartbeat(body: dict) -> tuple[str, bool, int | str | None]:
    """Validate a heartbeat body into ``(worker_id, ready, version)``."""
    at = REQUEST
    body = at.object(body)
    return (
        at.name(body, "worker_id"),
        at.boolean(body, "ready", False),
        at.version(body, "cost_model_version", None, null=True),
    )


# ---------------------------------------------------------------------------
# ETag revalidation and the packed binary representation
# ---------------------------------------------------------------------------

def sweep_etag(digest: str, *, top_k: int | None = None) -> str:
    """The strong entity tag of one ``/v1/sweep`` representation.

    The sweep digest already content-addresses the full measurement set,
    but the *JSON body* also depends on ``top_k`` (it truncates the ranked
    list), so the JSON tag carries it; the packed binary body is the whole
    payload regardless of ``top_k``, so its tag is the bare digest.
    """
    if top_k is None:
        return f'"{digest}"'
    return f'"{digest}.k{top_k}"'


def etag_matches(if_none_match: str | None, etag: str) -> bool:
    """RFC 7232 ``If-None-Match`` evaluation against one strong ETag.

    Accepts ``*``, comma-separated candidate lists, and weak-comparison
    ``W/`` prefixes (a weak tag matches its strong twin under the
    weak-comparison rules 304 revalidation uses).
    """
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def accepts_packed(accept: str | None) -> bool:
    """Whether an ``Accept`` header opts into the packed binary response."""
    if not accept:
        return False
    return any(
        part.split(";", 1)[0].strip().lower() == BINARY_CONTENT_TYPE
        for part in accept.split(",")
    )


def payload_from_packed(
    data: bytes, *, digest: str | None = None, version: int | str | None = None
) -> dict:
    """Decode and validate one packed ``/v1/sweep`` response body.

    The bytes are an L2 store payload file, read by the store's one
    decoder (:func:`~repro.engine.store.read_payload`), so a corrupt,
    truncated or misranked wire body surfaces as :class:`ProtocolError` —
    never as a silently wrong measurement downstream.  ``version`` is the
    cost-model version the caller prices under (the fleet coordinator's
    request snapshot), so a skewed worker's bytes stay out; a client serves
    no model and leaves it ``None``, checking only the digest.
    """
    from repro.engine.store import CacheMismatch, read_payload

    try:
        return read_payload(data, digest=digest, version=version)
    except CacheMismatch as exc:
        raise ProtocolError(f"packed sweep response failed validation: {exc}") from exc


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------

def config_to_wire(config: OpConfig) -> dict:
    return {
        "op": config.op_name,
        "input_layouts": [list(l.dims) for l in config.input_layouts],
        "output_layouts": [list(l.dims) for l in config.output_layouts],
        "vector_dim": config.vector_dim,
        "warp_reduce_dim": config.warp_reduce_dim,
        "algorithm": config.algorithm,
        "use_tensor_cores": config.use_tensor_cores,
    }


def measurement_to_wire(m) -> dict:
    """One ranked configuration with its predicted time split."""
    return {
        "config": config_to_wire(m.config),
        "compute_us": m.time.compute_us,
        "memory_us": m.time.memory_us,
        "launch_us": m.time.launch_us,
        "total_us": m.time.total_us,
    }


def sweep_response_from_sweep(
    sweep, cost: CostModel, *, digest: str, top_k: int
) -> dict:
    """The ``/v1/sweep`` response body, as a pure function of a sweep and
    the ``cost`` snapshot it was priced under.

    Takes any :class:`~repro.autotuner.tuner.SweepResult` — an engine
    sweep, a store round-trip, or a scalar reference sweep — and produces
    the identical structure, which is how the byte-identity acceptance
    test is phrased.
    """
    k = min(top_k, sweep.num_configs)
    return {
        "protocol": PROTOCOL_VERSION,
        "cost_model_version": cost.version,
        "digest": digest,
        "op": sweep.op.name,
        "num_configs": sweep.num_configs,
        "best": measurement_to_wire(sweep.best),
        "top": [measurement_to_wire(sweep.measurements[i]) for i in range(k)],
        "quantiles_us": {
            "p50": sweep.quantile_us(0.5),
            "p90": sweep.quantile_us(0.9),
            "worst": sweep.worst.total_us,
        },
    }


def selection_to_wire(selection) -> dict:
    """Wire form of a :class:`~repro.configsel.selector.SelectedConfiguration`.

    Deterministic: chain and transposes are emitted in selection order, the
    chosen map keys by op name (canonical JSON sorts them).
    """
    return {
        "chain": [s.op_name for s in selection.chain],
        "chain_cost_us": selection.chain_cost_us,
        "total_us": selection.total_us,
        "transpose_us": selection.transpose_us,
        "transposes": [
            {
                "tensor": t.tensor,
                "from_layout": list(t.from_layout.dims),
                "to_layout": list(t.to_layout.dims),
                "time_us": t.time_us,
                "before_op": t.before_op,
            }
            for t in selection.transposes
        ],
        "chosen": {
            name: measurement_to_wire(m) for name, m in selection.chosen.items()
        },
    }


def optimize_response_from_sweeps(
    graph: DataflowGraph, sweeps: dict, cost: CostModel, *, digest: str, selection=None
) -> dict:
    """The ``/v1/optimize`` response: the tuned schedule, op by op, under
    the ``cost`` snapshot the sweeps were priced with.

    Kernel order is graph order, so the body is deterministic and the
    canonical serialization is byte-stable across servers and runs.
    ``selection`` (a ``SelectedConfiguration``, optional) adds the global
    layout assignment — the end-to-end Sec. VI-A result — under
    ``"selection"``; ``None`` when selection was not run or not possible
    for the requested graph.
    """
    kernels = []
    forward_us = 0.0
    backward_us = 0.0
    for op in graph.ops:
        if op.is_view:
            continue
        sweep = sweeps[op.name]
        best = sweep.best
        kernels.append(
            {
                "op": op.name,
                "class": op.op_class.value,
                "stage": op.stage.value,
                "kernel_label": op.kernel_label,
                "num_configs": sweep.num_configs,
                "best": measurement_to_wire(best),
            }
        )
        if op.stage.is_backward:
            backward_us += best.total_us
        else:
            forward_us += best.total_us
    return {
        "protocol": PROTOCOL_VERSION,
        "cost_model_version": cost.version,
        "digest": digest,
        "graph": graph.name,
        "num_kernels": len(kernels),
        "kernels": kernels,
        "forward_us": forward_us,
        "backward_us": backward_us,
        "total_us": forward_us + backward_us,
        "selection": None if selection is None else selection_to_wire(selection),
    }

"""The service wire protocol: canonical JSON requests and responses.

The request schema deliberately mirrors the canonicalization of
:func:`repro.engine.store.sweep_digest`: a ``/v1/sweep`` request carries an
operator signature, the dim sizes it reads, a :class:`GPUSpec` and the
sampling knobs — exactly the tuple the L2 store digests.  ``op_from_wire``
rebuilds a real :class:`OpSpec` from the wire form, so the server keys its
caches with the *store's own* digest function; the wire key and the store
key are the same object, and a request served over HTTP hits the same
``.npz`` entry a batch ``sweep_graph`` run would have written.

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

from repro.engine.store import _op_dims
from repro.hardware.params import active_cost_model_version
from repro.hardware.spec import A100, V100, GPUSpec
from repro.ir.dims import DimEnv, bert_large_dims
from repro.ir.graph import DataflowGraph
from repro.ir.iteration_space import IterationSpace
from repro.ir.operator import OpClass, OpSpec
from repro.ir.tensor import TensorSpec
from repro.ir.dtypes import FP16, FP32, FP64, DType
from repro.layouts.config import OpConfig

__all__ = [
    "BINARY_CONTENT_TYPE",
    "PROTOCOL_VERSION",
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
#: bytes are exactly the L2 store's ``.npz`` payload file, so a server with
#: a warm store streams the response zero-copy from disk and the client
#: decodes it with the store's own reader.
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

_DTYPES: dict[str, DType] = {d.name: d for d in (FP16, FP32, FP64)}
_NAMED_GPUS: dict[str, GPUSpec] = {"V100": V100, "A100": A100}


class ProtocolError(ValueError):
    """A malformed or unserviceable request body (HTTP 400)."""


def canonical_json_bytes(obj) -> bytes:
    """The one serialization every response uses: sorted keys, no spaces.

    Determinism matters: concurrent clients of one digest must receive
    byte-identical payloads (pinned by the load benchmark).
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Wire forms of the IR pieces a sweep reads
# ---------------------------------------------------------------------------

def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ProtocolError(f"{where} must be a JSON object, got {type(mapping).__name__}")
    if key not in mapping:
        raise ProtocolError(f"{where} is missing required field {key!r}")
    return mapping[key]


def _str_tuple(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(x, str) for x in value
    ):
        raise ProtocolError(f"{where} must be a list of strings")
    return tuple(value)


def tensor_to_wire(t: TensorSpec) -> dict:
    return {
        "name": t.name,
        "dims": list(t.dims),
        "dtype": t.dtype.name,
        "is_param": t.is_param,
    }


def tensor_from_wire(wire: dict, where: str = "tensor") -> TensorSpec:
    dtype_name = wire.get("dtype", FP16.name)
    dtype = _DTYPES.get(dtype_name)
    if dtype is None:
        raise ProtocolError(
            f"{where}: unknown dtype {dtype_name!r}; known: {sorted(_DTYPES)}"
        )
    try:
        return TensorSpec(
            name=_require(wire, "name", where),
            dims=_str_tuple(_require(wire, "dims", where), f"{where}.dims"),
            dtype=dtype,
            is_param=bool(wire.get("is_param", False)),
        )
    except ProtocolError:
        raise
    except ValueError as exc:
        raise ProtocolError(f"{where}: {exc}") from exc


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


def op_from_wire(wire: dict, where: str = "op") -> OpSpec:
    """Rebuild an :class:`OpSpec` from its wire form.

    The round trip preserves every field the store digest reads, so
    ``sweep_digest(op_from_wire(op_to_wire(op)), ...) == sweep_digest(op,
    ...)`` — the protocol's central invariant (pinned in tests).
    """
    class_value = _require(wire, "class", where)
    try:
        op_class = OpClass(class_value)
    except ValueError:
        raise ProtocolError(
            f"{where}: unknown operator class {class_value!r}; "
            f"known: {sorted(c.value for c in OpClass)}"
        ) from None
    einsum = wire.get("einsum")
    if einsum is not None and not isinstance(einsum, str):
        raise ProtocolError(f"{where}.einsum must be a string")
    members = wire.get("members", [])
    if not isinstance(members, list):
        raise ProtocolError(f"{where}.members must be a list")
    try:
        return OpSpec(
            name=_require(wire, "name", where),
            op_class=op_class,
            inputs=tuple(
                tensor_from_wire(t, f"{where}.inputs[{i}]")
                for i, t in enumerate(_require(wire, "inputs", where))
            ),
            outputs=tuple(
                tensor_from_wire(t, f"{where}.outputs[{i}]")
                for i, t in enumerate(_require(wire, "outputs", where))
            ),
            ispace=IterationSpace(
                independent=_str_tuple(
                    _require(wire, "independent", where), f"{where}.independent"
                ),
                reduction=_str_tuple(
                    wire.get("reduction", ()), f"{where}.reduction"
                ),
            ),
            flop_per_point=float(wire.get("flop_per_point", 1.0)),
            einsum=einsum,
            is_view=bool(wire.get("is_view", False)),
            members=tuple(
                op_from_wire(m, f"{where}.members[{i}]")
                for i, m in enumerate(members)
            ),
        )
    except ProtocolError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{where}: {exc}") from exc


def gpu_to_wire(gpu: GPUSpec) -> dict:
    wire = asdict(gpu)
    wire["gemm_tile"] = list(gpu.gemm_tile)
    return wire


def gpu_from_wire(wire, where: str = "gpu") -> GPUSpec:
    """A GPU from the wire: a known name (``"V100"``) or a full spec."""
    if wire is None:
        return V100
    if isinstance(wire, str):
        spec = _NAMED_GPUS.get(wire)
        if spec is None:
            raise ProtocolError(
                f"{where}: unknown GPU name {wire!r}; known: {sorted(_NAMED_GPUS)}"
            )
        return spec
    if not isinstance(wire, dict):
        raise ProtocolError(f"{where} must be a GPU name or a spec object")
    fields = dict(wire)
    if "gemm_tile" in fields:
        tile = fields["gemm_tile"]
        if not isinstance(tile, (list, tuple)) or len(tile) != 2:
            raise ProtocolError(f"{where}.gemm_tile must be a [rows, cols] pair")
        fields["gemm_tile"] = (int(tile[0]), int(tile[1]))
    try:
        return GPUSpec(**fields)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{where}: {exc}") from exc


def _dims_from_wire(wire, where: str = "dims") -> DimEnv:
    if not isinstance(wire, dict) or not wire:
        raise ProtocolError(f"{where} must be a non-empty object of dim sizes")
    try:
        return DimEnv({str(k): v for k, v in wire.items()})
    except ValueError as exc:
        raise ProtocolError(f"{where}: {exc}") from exc


def _parse_cap(body: dict, *, default: int) -> int | None:
    cap = body.get("cap", default)
    if cap is None:
        return None
    if not isinstance(cap, int) or isinstance(cap, bool) or cap <= 0:
        raise ProtocolError("cap must be a positive integer or null")
    return cap


def _parse_seed(body: dict) -> int:
    seed = body.get("seed", 0x5EED)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError("seed must be an integer")
    return seed


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
        "gpu": gpu_to_wire(gpu),
        "cap": cap,
        "seed": seed,
        "top_k": top_k,
    }


def parse_sweep_request(body: dict) -> SweepRequest:
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    protocol = body.get("protocol", PROTOCOL_VERSION)
    if protocol != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {protocol!r}; "
            f"this server speaks {PROTOCOL_VERSION}"
        )
    op = op_from_wire(_require(body, "op", "request"))
    if op.is_view:
        raise ProtocolError("view operators have no configurations to sweep")
    env = _dims_from_wire(_require(body, "dims", "request"))
    missing = sorted(_op_dims(op) - set(env))
    if missing:
        raise ProtocolError(f"dims is missing sizes for {missing}")
    top_k = body.get("top_k", DEFAULT_TOP_K)
    if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
        raise ProtocolError("top_k must be a positive integer")
    return SweepRequest(
        op=op,
        env=env,
        gpu=gpu_from_wire(body.get("gpu")),
        cap=_parse_cap(body, default=DEFAULT_SWEEP_CAP),
        seed=_parse_seed(body),
        top_k=min(top_k, MAX_TOP_K),
    )


def sweep_request_digest(req: SweepRequest) -> str:
    """The cache key of one sweep request — the store's own digest.

    This is the whole point of the protocol design: the wire key *is* the
    L2 store key, so the daemon, the CLI and the nightly benchmarks all
    share one content-addressed namespace.
    """
    from repro.engine.store import sweep_digest

    return sweep_digest(req.op, req.env, req.gpu, cap=req.cap, seed=req.seed)


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
        "gpu": gpu_to_wire(gpu),
        "cap": cap,
        "seed": seed,
    }


def parse_optimize_request(body: dict) -> OptimizeRequest:
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    protocol = body.get("protocol", PROTOCOL_VERSION)
    if protocol != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {protocol!r}; "
            f"this server speaks {PROTOCOL_VERSION}"
        )
    model = body.get("model", "encoder")
    if model not in OPTIMIZE_MODELS:
        raise ProtocolError(
            f"unknown model {model!r}; known: {list(OPTIMIZE_MODELS)}"
        )
    qkv_fusion = body.get("qkv_fusion", "qkv")
    if qkv_fusion not in ("unfused", "qk", "qkv"):
        raise ProtocolError(
            f"unknown qkv_fusion {qkv_fusion!r}; known: ['unfused', 'qk', 'qkv']"
        )
    dims = body.get("dims")
    if dims is None:
        env = bert_large_dims()
    else:
        env = _dims_from_wire(dims)
    return OptimizeRequest(
        model=model,
        qkv_fusion=qkv_fusion,
        include_backward=bool(body.get("include_backward", True)),
        fused=bool(body.get("fused", True)),
        env=env,
        gpu=gpu_from_wire(body.get("gpu")),
        cap=_parse_cap(body, default=DEFAULT_OPTIMIZE_CAP),
        seed=_parse_seed(body),
    )


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


def optimize_request_digest(req: OptimizeRequest) -> str:
    """Stable coalescing/cache key of one optimize request.

    Sweep-level reuse already happens through the store digests; this key
    only needs to identify the *whole response*, so it hashes the parsed
    request (not the raw body — unknown fields and key order don't split
    the cache) plus the *served* cost-model version, so a calibration
    promotion atomically orphans every cached optimize response.
    """
    key = {
        "kind": "optimize",
        "protocol": PROTOCOL_VERSION,
        "version": active_cost_model_version(),
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

def _parse_member_version(body: dict, where: str) -> int | str | None:
    """The cost-model version a fleet member claims to serve.

    Optional (older workers omit it — reported as ``None``, which the
    coordinator surfaces as unknown skew); when present it must be an int
    or a non-empty string tag such as ``"1-cal-<digest12>"``.
    """
    version = body.get("cost_model_version")
    if version is None:
        return None
    if isinstance(version, bool) or not isinstance(version, (int, str)):
        raise ProtocolError(
            f"{where}.cost_model_version must be an integer or string tag"
        )
    if isinstance(version, str) and not version:
        raise ProtocolError(f"{where}.cost_model_version must be non-empty")
    return version


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
    """Validate a register body into ``(worker_id, url, ready, version)``."""
    worker_id = _require(body, "worker_id", "register")
    if not isinstance(worker_id, str) or not worker_id:
        raise ProtocolError("worker_id must be a non-empty string")
    url = _require(body, "url", "register")
    if not isinstance(url, str) or not url.startswith(("http://", "https://")):
        raise ProtocolError(f"url must be an http(s) URL, got {url!r}")
    return (
        worker_id,
        url.rstrip("/"),
        bool(body.get("ready", False)),
        _parse_member_version(body, "register"),
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
    worker_id = _require(body, "worker_id", "heartbeat")
    if not isinstance(worker_id, str) or not worker_id:
        raise ProtocolError("worker_id must be a non-empty string")
    return (
        worker_id,
        bool(body.get("ready", False)),
        _parse_member_version(body, "heartbeat"),
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


def payload_from_packed(data: bytes, *, digest: str | None = None) -> dict:
    """Decode and validate one packed ``/v1/sweep`` response body.

    The bytes are an L2 store ``.npz`` file; this runs the store's own
    deserializer *and* its structural validation (bounds-checked index
    arrays, digest agreement when ``digest`` is given), so a corrupt or
    truncated wire body surfaces as :class:`ProtocolError` — never as a
    silently wrong measurement downstream.
    """
    import io

    from repro.engine.store import CacheMismatch, _validate_payload, read_payload_npz

    try:
        payload = read_payload_npz(io.BytesIO(data))
        _validate_payload(payload, digest, "<packed response>")
    except CacheMismatch as exc:
        raise ProtocolError(f"packed sweep response failed validation: {exc}") from exc
    except ProtocolError:
        raise
    except Exception as exc:  # zipfile/json/numpy decode failures
        raise ProtocolError(f"packed sweep response is not a payload npz: {exc}") from exc
    return payload


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


def sweep_response_from_sweep(sweep, *, digest: str, top_k: int) -> dict:
    """The ``/v1/sweep`` response body, as a pure function of a sweep.

    Takes any :class:`~repro.autotuner.tuner.SweepResult` — an engine
    sweep, a store round-trip, or a scalar reference sweep — and produces
    the identical structure, which is how the byte-identity acceptance
    test is phrased.
    """
    k = min(top_k, sweep.num_configs)
    return {
        "protocol": PROTOCOL_VERSION,
        "cost_model_version": active_cost_model_version(),
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
    graph: DataflowGraph, sweeps: dict, *, digest: str, selection=None
) -> dict:
    """The ``/v1/optimize`` response: the tuned schedule, op by op.

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
        "cost_model_version": active_cost_model_version(),
        "digest": digest,
        "graph": graph.name,
        "num_kernels": len(kernels),
        "kernels": kernels,
        "forward_us": forward_us,
        "backward_us": backward_us,
        "total_us": forward_us + backward_us,
        "selection": None if selection is None else selection_to_wire(selection),
    }

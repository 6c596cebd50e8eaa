"""The schedule artifact: canonical wire form and content digest.

A :class:`ScheduleEntry` records one answer to one tuning problem.  The
problem identity — what :func:`schedule_digest` hashes — is the canonical
tuple ``(graph wire form, dim sizes, GPUSpec, selection knobs,
COST_MODEL_VERSION)``, mirroring the sweep store's
:func:`~repro.engine.store.sweep_digest` one level up: the sweep digest
addresses one operator's timed configuration space, the schedule digest
addresses one whole graph's selected configuration.  Unlike sweep digests,
schedule digests keep operator *names* and *stages*: a selection assigns
configurations to named operators, and the primary chain is a property of
the forward stage.

The entry's value side is everything a validator needs to re-derive the
claim from scratch:

* ``graph`` — the full dataflow graph in wire form (the service protocol's
  operator serialization plus the ``stage`` that selection reads);
* ``selection`` — per-op configurations with their exact
  compute/memory/launch/total splits *in assignment order* (the claimed
  total is an ordered float sum, and bit-exact recomputation must
  associate identically), inserted transposes, pinned layouts, the chain
  and the claimed totals;
* ``provenance`` — the L2 sweep digests the selection consumed, the
  registrar, package version and registration timestamp.

Serialization is canonical JSON (sorted keys, fixed separators) so the
entry's bytes — like every service response — are deterministic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.autotuner.tuner import ConfigMeasurement
from repro.hardware.cost_model import KernelTime
from repro.hardware.spec import GPUSpec
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.ir.operator import Stage
from repro.layouts.config import HEURISTIC_ALGORITHM, OpConfig
from repro.layouts.layout import Layout
from repro.service.protocol import (
    canonical_json_bytes,
    config_to_wire,
    gpu_from_wire,
    gpu_to_wire,
    measurement_to_wire,
    op_from_wire,
    op_to_wire,
    tensor_from_wire,
    tensor_to_wire,
)
from repro.wire import At

__all__ = [
    "REGISTRY_FORMAT",
    "ScheduleEntry",
    "config_from_wire",
    "graph_from_wire",
    "graph_to_wire",
    "measurement_from_wire",
    "schedule_digest",
    "selection_to_entry_wire",
]

#: Entry schema version; bump when the wire layout changes.
REGISTRY_FORMAT = 1

_STAGES = {s.value: s for s in Stage}


class EntryError(ValueError):
    """A malformed entry wire form."""


#: Default places of an entry read in process; a registry file or a
#: request passes its own.
_ENTRY = At(EntryError, "entry")
_GRAPH = At(EntryError, "graph")


# ---------------------------------------------------------------------------
# Graph wire form: the protocol's op serialization + stage
# ---------------------------------------------------------------------------

def graph_to_wire(graph: DataflowGraph) -> dict:
    """Serialize a dataflow graph, including the stages selection reads.

    The service protocol's :func:`op_to_wire` deliberately drops ``stage``
    (the cost model never reads it), but schedule validation re-runs
    configuration selection, and the primary chain is extracted from the
    *forward* stage — so the registry's graph wire form carries it.
    """
    ops = []
    for op in graph.ops:
        wire = op_to_wire(op)
        wire["stage"] = op.stage.value
        ops.append(wire)
    return {
        "name": graph.name,
        "inputs": [tensor_to_wire(t) for t in graph.graph_inputs],
        "ops": ops,
    }


def graph_from_wire(wire, at: At = _GRAPH) -> DataflowGraph:
    """Rebuild a dataflow graph; a malformed one raises ``at``'s error."""
    w = at.object(wire)
    graph = DataflowGraph(at.string(w, "name", "graph"))
    for i, t in enumerate(at.array(w, "inputs", ())):
        at.build(graph.add_input, tensor_from_wire(t, at.at("inputs", i)))
    for i, op_wire in enumerate(at.array(w, "ops", ())):
        op_at = at.at("ops", i)
        op = op_from_wire(op_wire, op_at)
        stage = op_at.choice(op_wire, "stage", _STAGES, Stage.FORWARD.value)
        if stage is not op.stage:
            op = dataclasses.replace(op, stage=stage)
        at.build(graph.add_op, op)
    return graph


# ---------------------------------------------------------------------------
# Selection wire form
# ---------------------------------------------------------------------------

def _layout_from_wire(dims, at: At) -> Layout:
    return at.build(Layout, at.strings_value(dims))


def config_from_wire(wire, at: At) -> OpConfig:
    """Inverse of the protocol's :func:`config_to_wire`."""
    w = at.object(wire)
    return at.build(
        OpConfig,
        op_name=at.string(w, "op"),
        input_layouts=tuple(
            _layout_from_wire(l, at.at("input_layouts", i))
            for i, l in enumerate(at.array(w, "input_layouts"))
        ),
        output_layouts=tuple(
            _layout_from_wire(l, at.at("output_layouts", i))
            for i, l in enumerate(at.array(w, "output_layouts"))
        ),
        vector_dim=at.string(w, "vector_dim", None, null=True),
        warp_reduce_dim=at.string(w, "warp_reduce_dim", None, null=True),
        algorithm=at.integer(w, "algorithm", HEURISTIC_ALGORITHM),
        use_tensor_cores=at.boolean(w, "use_tensor_cores", True),
    )


def measurement_from_wire(wire, at: At) -> ConfigMeasurement:
    """Inverse of the protocol's :func:`measurement_to_wire`."""
    w = at.object(wire)
    return ConfigMeasurement(
        config=config_from_wire(w.get("config"), at.at("config")),
        time=KernelTime(
            compute_us=float(at.number(w, "compute_us")),
            memory_us=float(at.number(w, "memory_us")),
            launch_us=float(at.number(w, "launch_us")),
        ),
    )


def selection_to_entry_wire(selection) -> dict:
    """The registry's wire form of a ``SelectedConfiguration``.

    Richer than the protocol's ``selection_to_wire``: assignment order is
    explicit (an ordered ``chosen`` *list*, because the claimed total is an
    ordered float sum) and the pinned per-tensor layouts are carried so the
    structural validator can audit them.
    """
    chosen = []
    for name, m in selection.chosen.items():
        wire = measurement_to_wire(m)
        wire["op"] = name
        chosen.append(wire)
    return {
        "chain": [s.op_name for s in selection.chain],
        "chain_cost_us": selection.chain_cost_us,
        "chosen": chosen,
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
        "pinned_layouts": {
            name: list(layout.dims)
            for name, layout in sorted(selection.pinned_layouts.items())
        },
        "transpose_us": selection.transpose_us,
        "total_us": selection.total_us,
    }


# ---------------------------------------------------------------------------
# The content digest: the identity of one tuning problem
# ---------------------------------------------------------------------------

def schedule_digest(
    graph: DataflowGraph,
    env: DimEnv,
    gpu: GPUSpec,
    *,
    cap: int | None,
    seed: int,
    version: int | str,
    source: str = "x",
) -> str:
    """Stable content digest of one schedule's tuning problem.

    Hashes ``(graph wire form, dim sizes, GPUSpec, knobs, cost-model
    version)`` — everything that determines the selection — so the digest
    is process- and session-independent (pinned by a spawned-interpreter
    test, like the sweep store's).  Builders pass the ``version`` of the
    cost model snapshot they tuned under, so a calibration promotion
    changes every fresh digest; loaders pass an entry's *recorded* version
    so key verification still works on stale entries (staleness is a
    validator's report, not a load failure).
    """
    key = {
        "kind": "schedule",
        "format": REGISTRY_FORMAT,
        "version": version,
        "graph": graph_to_wire(graph),
        "env": sorted((d, env[d]) for d in _graph_dims(graph)),
        "gpu": gpu_to_wire(gpu),
        "knobs": {"cap": cap, "seed": seed, "source": source},
    }
    return hashlib.sha256(canonical_json_bytes(key)).hexdigest()


def _graph_dims(graph: DataflowGraph) -> set[str]:
    from repro.engine.store import _op_dims

    dims: set[str] = set()
    for op in graph.ops:
        dims.update(_op_dims(op))
    return dims


# ---------------------------------------------------------------------------
# The entry
# ---------------------------------------------------------------------------

@dataclass
class ScheduleEntry:
    """One registered schedule: problem, solution, and provenance."""

    digest: str
    cost_model_version: int | str  # int for defaults, "1-cal-…" tags for fitted
    graph: dict  # wire form (graph_to_wire)
    env: dict[str, int]
    gpu: dict  # wire form (gpu_to_wire)
    knobs: dict  # {"cap": int | None, "seed": int, "source": str}
    selection: dict  # wire form (selection_to_entry_wire)
    provenance: dict = field(default_factory=dict)
    registry_format: int = REGISTRY_FORMAT

    # -- identity ------------------------------------------------------------
    @property
    def total_us(self) -> float:
        return float(self.selection["total_us"])

    def build_graph(self, at: At = _ENTRY) -> DataflowGraph:
        return graph_from_wire(self.graph, at.at("graph"))

    def recompute_digest(
        self, graph: DataflowGraph | None = None, at: At = _ENTRY
    ) -> str:
        """The digest this entry's own content implies (under its recorded
        cost-model version — staleness must not masquerade as tampering).

        ``at`` is where the entry was read from, so a malformed graph, GPU
        or knob raises that boundary's error.
        """
        graph = graph or self.build_graph(at)
        env = at.at("env").build(DimEnv, self.env)
        missing = sorted(_graph_dims(graph) - set(env))
        if missing:
            at.fail(f"is missing sizes for {missing}", "env")
        cap, seed, source = self.knob_values(at)
        return schedule_digest(
            graph,
            env,
            gpu_from_wire(self.gpu, at.at("gpu")),
            cap=cap,
            seed=seed,
            source=source,
            version=self.cost_model_version,
        )

    def knob_values(self, at: At = _ENTRY) -> tuple[int | None, int, str]:
        """The selection knobs ``(cap, seed, source)``."""
        knobs = at.at("knobs")
        return (
            knobs.integer(self.knobs, "cap", None, null=True),
            knobs.integer(self.knobs, "seed", 0),
            knobs.string(self.knobs, "source", "x"),
        )

    # -- serialization -------------------------------------------------------
    def to_wire(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_wire())

    @classmethod
    def from_wire(cls, wire, at: At = _ENTRY) -> "ScheduleEntry":
        w = at.object(wire)
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in w]
        if missing:
            at.fail(f"is missing required fields {missing}")
        fmt = w["registry_format"]
        if fmt != REGISTRY_FORMAT:
            at.fail(f"uses registry format {fmt!r}, not {REGISTRY_FORMAT!r}")
        sel, sel_at = at.mapping(w, "selection"), at.at("selection")
        sel_at.number(sel, "total_us")
        sel_at.number(sel, "transpose_us", 0.0)
        sel_at.number(sel, "chain_cost_us", 0.0)
        sel_at.array(sel, "chosen")
        sel_at.strings(sel, "chain", ())
        return cls(
            digest=at.string(w, "digest"),
            registry_format=REGISTRY_FORMAT,
            # int for default-params models, string tags ("1-cal-<digest12>")
            # for promoted calibration candidates — both are valid identities.
            cost_model_version=at.version(w, "cost_model_version"),
            graph=at.mapping(w, "graph"),
            env=at.mapping(w, "env"),
            gpu=w["gpu"],
            knobs=at.mapping(w, "knobs"),
            selection=sel,
            provenance=at.mapping(w, "provenance"),
        )

    @classmethod
    def from_bytes(cls, raw: bytes, at: At = _ENTRY) -> "ScheduleEntry":
        try:
            wire = json.loads(raw)
        except ValueError as exc:
            at.fail(f"is not valid JSON: {exc}")
        return cls.from_wire(wire, at)

    # -- typed views of the selection ---------------------------------------
    def chosen_measurements(self) -> dict[str, ConfigMeasurement]:
        """Assignment-order ``{op name: measurement}`` (dict preserves it)."""
        at = _ENTRY.at("selection")
        out: dict[str, ConfigMeasurement] = {}
        for i, wire in enumerate(at.array(self.selection, "chosen")):
            item = at.at("chosen", i)
            name = item.name(item.object(wire), "op")
            if name in out:
                at.fail(f"has duplicate op {name!r}", "chosen")
            out[name] = measurement_from_wire(wire, item)
        return out

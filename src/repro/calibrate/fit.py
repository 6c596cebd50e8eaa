"""Fit a candidate cost model to retained measurements, deterministically.

The fit deliberately never touches the sweep engine: the engine's L1
and L2 store are keyed by the *served* model version, and scoring a
candidate through them would poison both.  Instead, targets come from
:func:`repro.baselines.frameworks.framework_graph` (graph construction +
fusion only — no sweeps), each predicted by a scalar
:class:`~repro.hardware.cost_model.CostModel` carrying the candidate's
explicit parameters under the untuned default configuration.  That makes
a prediction a pure function of ``(params, gpu, env)`` — same feedback
store in, byte-identical :class:`CandidateModel` out, which the property
suite pins.

The fitting itself is a two-knob roofline correction: records are
classified by which roofline term dominates their operators under the
*base* parameters, and the compute-side / memory-side efficiency groups
are each scaled by the inverse geometric-mean measured/predicted ratio of
their class (clamped to sane efficiency bounds).  Launch-bound records
carry no efficiency signal and are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.calibration import PAPER_TABLE3_US
from repro.analysis.tables import TABLE3_ROWS
from repro.hardware.cost_model import CostModel
from repro.hardware.params import (
    EfficiencyParams,
    ParamsError,
    active_params,
    candidate_version,
    params_from_wire,
)
from repro.hardware.spec import V100, GPUSpec
from repro.ir.dims import DimEnv, bert_large_dims
from repro.ir.operator import OpSpec
from repro.wire import At

__all__ = [
    "CandidateModel",
    "CalibrationTarget",
    "calibration_targets",
    "fit_candidate",
    "predict_target",
    "score_params",
]

#: Efficiency fields scaled when compute-bound predictions are off.
_COMPUTE_FIELDS = ("gemm_tc_base", "gemm_fp16_base", "kernel_compute_eff")
#: Efficiency fields scaled when memory-bound predictions are off.
_MEMORY_FIELDS = ("gemm_mem_eff", "vectorized_eff", "coalesced_eff")
#: Correction factors are clamped here: a corpus that suggests a >4x
#: efficiency rewrite is evidence of bad measurements, not a bad model.
_MAX_SCALE = 4.0
#: Efficiencies never fitted below this floor (or above 1.0).
_MIN_EFF = 1e-3

_CANDIDATE = At(ParamsError, "candidate")


@dataclass(frozen=True)
class CalibrationTarget:
    """One predictable Table III cell: a label, a side, its operators."""

    label: str
    side: str  # "pt" or "ours"
    ops: tuple[OpSpec, ...]


def calibration_targets(env: DimEnv | None = None) -> tuple[CalibrationTarget, ...]:
    """Every Table III cell the model can predict, sweep-free.

    The PyTorch side of a row sums its unfused operators; the "ours" side
    is the single fused kernel.  Rows whose label the paper table does not
    time, or whose operators the builder graphs omit, are skipped.
    """
    from repro.baselines.frameworks import framework_graph
    from repro.baselines.policy import OURS, PYTORCH

    if env is None:
        env = bert_large_dims()
    pt_graph = framework_graph(PYTORCH, env)
    ours_graph = framework_graph(OURS, env)
    targets: list[CalibrationTarget] = []
    for label, pt_ops, ours_kernel in TABLE3_ROWS:
        if label not in PAPER_TABLE3_US:
            continue
        try:
            pt = tuple(pt_graph.op(name) for name in pt_ops)
            ours = (ours_graph.op(ours_kernel),)
        except KeyError:
            continue
        targets.append(CalibrationTarget(label, "pt", pt))
        targets.append(CalibrationTarget(label, "ours", ours))
    return tuple(targets)


def predict_target(
    target: CalibrationTarget,
    env: DimEnv,
    cost: CostModel,
) -> tuple[float, str] | None:
    """``(predicted_us, dominant_bound)`` for one target, or None.

    The bound is the roofline classification of the target's *dominant*
    operator — the one the correction should move.  An un-costable
    operator (no GEMM mapping under the default configuration) makes the
    whole target unpredictable.
    """
    total = 0.0
    dominant: tuple[float, str] | None = None
    for op in target.ops:
        if op.is_view:
            continue
        kt = cost.time_op(op, None, env)
        if kt is None:
            return None
        total += kt.total_us
        if dominant is None or kt.total_us > dominant[0]:
            dominant = (kt.total_us, kt.bound)
    if dominant is None or total <= 0:
        return None
    return total, dominant[1]


def _prediction_table(
    params: EfficiencyParams,
    *,
    env: DimEnv,
    gpu: GPUSpec,
    targets: tuple[CalibrationTarget, ...],
) -> dict[tuple[str, str], tuple[float, str]]:
    cost = CostModel(gpu, params=params)
    table: dict[tuple[str, str], tuple[float, str]] = {}
    for target in targets:
        predicted = predict_target(target, env, cost)
        if predicted is not None:
            table[(target.label, target.side)] = predicted
    return table


def _sorted_records(records: list[dict]) -> list[dict]:
    # Canonical order: the fit must not depend on submission order.
    return sorted(
        records,
        key=lambda r: (
            str(r.get("label")),
            str(r.get("side")),
            float(r.get("measured_us", 0.0)),
            str(r.get("provenance", "")),
        ),
    )


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def score_params(
    params: EfficiencyParams,
    records: list[dict],
    *,
    env: DimEnv | None = None,
    gpu: GPUSpec = V100,
    targets: tuple[CalibrationTarget, ...] | None = None,
) -> dict:
    """Calibration error of ``params`` against retained measurements.

    The error is the geometric mean of ``max(r, 1/r)`` over every scorable
    record's measured/predicted ratio — 1.0 is a perfect model, direction-
    blind so over- and under-prediction cannot cancel.
    """
    if env is None:
        env = bert_large_dims()
    if targets is None:
        targets = calibration_targets(env)
    table = _prediction_table(params, env=env, gpu=gpu, targets=targets)
    ratios: list[float] = []
    skipped = 0
    for rec in _sorted_records(records):
        predicted = table.get((rec.get("label"), rec.get("side")))
        if predicted is None:
            skipped += 1
            continue
        r = float(rec["measured_us"]) / predicted[0]
        ratios.append(max(r, 1.0 / r))
    if not ratios:
        return {"error": None, "scored": 0, "skipped": skipped}
    return {
        "error": _geomean(ratios),
        "scored": len(ratios),
        "skipped": skipped,
    }


@dataclass(frozen=True)
class CandidateModel:
    """A proposed cost model: parameters, derived version tag, provenance.

    The version is *always* derived from the parameters
    (:func:`~repro.hardware.params.candidate_version`), so a candidate
    cannot claim an arbitrary tag; :meth:`from_wire` re-derives and
    rejects forgeries.
    """

    params: EfficiencyParams
    provenance: dict

    @property
    def version(self) -> int | str:
        return candidate_version(self.params)

    def to_wire(self) -> dict:
        return {
            "params": self.params.to_wire(),
            "version": self.version,
            "provenance": dict(self.provenance),
        }

    @classmethod
    def build(cls, params: EfficiencyParams, provenance: dict | None = None):
        return cls(params=params, provenance=provenance or {})

    @classmethod
    def from_wire(cls, wire, at: At = _CANDIDATE) -> "CandidateModel":
        w = at.object(wire)
        params = params_from_wire(w.get("params"), at.at("params"))
        derived = candidate_version(params)
        version = w.get("version", derived)
        if version != derived:
            at.fail(
                f"version {version!r} does not match the version derived "
                f"from its parameters ({derived!r})"
            )
        return cls(params=params, provenance=at.mapping(w, "provenance", {}))


def fit_candidate(
    records: list[dict],
    *,
    env: DimEnv | None = None,
    gpu: GPUSpec = V100,
    base: EfficiencyParams | None = None,
) -> CandidateModel:
    """Propose a candidate model from retained measurements.

    Deterministic by construction: records are canonically sorted, the
    corrections are closed-form geometric means, and the provenance
    carries no timestamps — the same feedback corpus always yields the
    byte-identical candidate.
    """
    from .feedback import FeedbackStore

    if not records:
        raise ValueError("cannot fit a candidate from an empty feedback store")
    if env is None:
        env = bert_large_dims()
    if base is None:
        base = active_params()
    targets = calibration_targets(env)
    table = _prediction_table(base, env=env, gpu=gpu, targets=targets)
    by_bound: dict[str, list[float]] = {"compute": [], "memory": []}
    for rec in _sorted_records(records):
        predicted = table.get((rec.get("label"), rec.get("side")))
        if predicted is None:
            continue
        predicted_us, bound = predicted
        if bound not in by_bound:
            continue  # launch-bound: no efficiency signal
        by_bound[bound].append(float(rec["measured_us"]) / predicted_us)

    def _scale(ratios: list[float]) -> float:
        if not ratios:
            return 1.0
        return min(_MAX_SCALE, max(1.0 / _MAX_SCALE, _geomean(ratios)))

    compute_scale = _scale(by_bound["compute"])
    memory_scale = _scale(by_bound["memory"])
    updates: dict[str, float] = {}
    for field_name, scale in (
        *((f, compute_scale) for f in _COMPUTE_FIELDS),
        *((f, memory_scale) for f in _MEMORY_FIELDS),
    ):
        # measured/predicted > 1 → model too fast → lower the efficiency.
        fitted = getattr(base, field_name) / scale
        updates[field_name] = min(1.0, max(_MIN_EFF, fitted))
    params = EfficiencyParams(
        **{
            f: updates.get(f, getattr(base, f))
            for f in EfficiencyParams.__dataclass_fields__
        }
    )
    base_score = score_params(base, records, env=env, gpu=gpu, targets=targets)
    fitted_score = score_params(params, records, env=env, gpu=gpu, targets=targets)
    provenance = {
        "records": len(records),
        "corpus_digest": FeedbackStore().corpus_digest(_sorted_records(records)),
        "base_version": candidate_version(base),
        "base_error": base_score["error"],
        "fitted_error": fitted_score["error"],
        "compute_scale": compute_scale,
        "memory_scale": memory_scale,
    }
    return CandidateModel.build(params, provenance)

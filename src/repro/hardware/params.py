"""Parameterized efficiency constants and the process-active cost model.

The analytic efficiency model of :mod:`repro.hardware.efficiency` was born
with its calibrated constants hard-coded at module scope.  Online
calibration (:mod:`repro.calibrate`) needs to *re-fit* those constants
from measured feedback and roll the result out safely, so they live here
as one frozen, hashable :class:`EfficiencyParams` value instead.

Two invariants keep the rest of the system honest:

* :data:`DEFAULT_PARAMS` is bit-identical to the historical constants.
  Under it every sweep reproduces ``sweep_op_reference`` exactly and the
  served cost-model version stays :data:`DEFAULT_VERSION` — the engine /
  reference property suites pin this without modification.
* Any *other* params value serves under a **derived version tag**
  (``"1-cal-<digest12>"``), never under the default integer version.
  Every cache digest, L1 key and wire key embeds the served version, so
  installing a candidate atomically orphans all default-model artifacts
  through the existing ``CacheMismatch`` path — and rolling back is
  metadata-only, because the old version's entries were never touched.

The process-active model is one atomically-swapped reference: it says
which model *new* requests get.  A request reads it once, when it builds
its :class:`~repro.hardware.cost_model.CostModel`, and from then on every
digest, evaluation, payload stamp and load check of that request uses the
snapshot's ``params`` and ``version`` — a promotion or rollback that lands
mid-request cannot mix two models' numbers under one key.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

from repro.wire import At

__all__ = [
    "DEFAULT_PARAMS",
    "DEFAULT_VERSION",
    "EfficiencyParams",
    "ParamsError",
    "active_cost_model_version",
    "active_model",
    "active_params",
    "candidate_version",
    "install_params",
    "params_digest",
    "params_from_wire",
    "reset_active_params",
]

#: The cost-model version served by :data:`DEFAULT_PARAMS`.  This is the
#: value ``repro.hardware.cost_model.COST_MODEL_VERSION`` re-exports; the
#: two must stay one constant.
DEFAULT_VERSION = 1


class ParamsError(ValueError):
    """A malformed or out-of-range params wire form."""


_PARAMS = At(ParamsError, "params")

_RANGE_FIELDS = ("layout_factor_range", "algo_factor_range")
#: Fields that feed an ``Efficiency`` value directly or through products of
#: sub-unit factors: must stay in (0, 1] or the model raises downstream.
_UNIT_FIELDS = (
    "gemm_tc_base",
    "gemm_fp16_base",
    "gemm_mem_eff",
    "vectorized_eff",
    "coalesced_eff",
    "kernel_compute_eff",
)


@dataclass(frozen=True)
class EfficiencyParams:
    """Every calibrated constant of the analytic efficiency model.

    Frozen and hashable: a params value participates in ``lru_cache`` keys
    inside :mod:`repro.hardware.efficiency`, so two models never share a
    cached factor.  Field names mirror the historical ``_UPPER_CASE``
    constants; the semantics are documented there.
    """

    # -- tensor contractions (simulated cuBLAS) ------------------------------
    gemm_tc_base: float = 0.72
    gemm_fp16_base: float = 0.80
    gemm_tc_sat_ref: float = 256.0
    gemm_tc_sat_exp: float = 0.9
    gemm_fp16_sat_exp: float = 0.2
    gemm_mem_eff: float = 0.70
    layout_factor_range: tuple[float, float] = (0.80, 1.0)
    algo_factor_range: tuple[float, float] = (0.84, 1.0)

    # -- memory-bound kernels ------------------------------------------------
    vectorized_eff: float = 0.92
    coalesced_eff: float = 0.55
    strided_coef: float = 0.5
    strided_floor: float = 0.015
    register_bonus: float = 1.08
    narrow_warp_penalty: float = 0.7
    kernel_compute_eff: float = 0.40
    jitter: float = 0.10

    def __post_init__(self) -> None:
        """Every constant positive and finite; efficiencies and factor
        ranges (``0 < lo <= hi``) at most 1, or the model raises downstream."""
        for f in fields(self):
            value = getattr(self, f.name)
            lo, hi = value if f.name in _RANGE_FIELDS else (value, value)
            top = 1.0 if f.name in _RANGE_FIELDS + _UNIT_FIELDS else math.inf
            if not (0.0 < lo <= hi <= top and hi < math.inf):
                raise ValueError(f"{f.name} is out of range: {value!r}")

    def to_wire(self) -> dict:
        """JSON-able form (tuples become lists; canonical for digesting)."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


#: The historical hand-calibrated model: serves version :data:`DEFAULT_VERSION`.
DEFAULT_PARAMS = EfficiencyParams()

def params_from_wire(wire, at: At = _PARAMS) -> EfficiencyParams:
    """Rebuild and validate params; a bad one raises ``at``'s error
    (:class:`ParamsError` by default).

    Strict on purpose: a fitted candidate travels through journals, the
    rollout state file and the wire, and a NaN or out-of-range constant
    must be rejected at the boundary, not crash a sweep later.
    """
    w = at.object(wire)
    unknown = sorted(w.keys() - EfficiencyParams.__dataclass_fields__.keys())
    if unknown:
        at.fail(f"has unknown fields {unknown}")
    return at.build(
        EfficiencyParams,
        **{
            name: tuple(map(float, at.numbers(w, name)))
            if name in _RANGE_FIELDS
            else float(at.number(w, name))
            for name in w
        },
    )


def params_digest(params: EfficiencyParams) -> str:
    """SHA-256 over the canonical JSON wire form: the params identity."""
    blob = json.dumps(
        params.to_wire(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def candidate_version(params: EfficiencyParams) -> str:
    """The version tag a non-default params value serves under.

    Derived, not allocated: the same fitted constants always produce the
    same tag, so re-proposing an identical candidate is idempotent across
    daemons and restarts.  :data:`DEFAULT_PARAMS` maps to the plain integer
    :data:`DEFAULT_VERSION` — default params never mint a tag.
    """
    if params == DEFAULT_PARAMS:
        return DEFAULT_VERSION  # type: ignore[return-value]
    return f"{DEFAULT_VERSION}-cal-{params_digest(params)[:12]}"


# ---------------------------------------------------------------------------
# The process-active model
# ---------------------------------------------------------------------------

#: The params new requests get and the version they serve under, derived
#: once at install: one tuple, swapped atomically, read without a lock.
_active: tuple[EfficiencyParams, int | str] = (DEFAULT_PARAMS, DEFAULT_VERSION)


def active_model() -> tuple[EfficiencyParams, int | str]:
    """The active ``(params, served version)`` pair, read as one value —
    what a :class:`~repro.hardware.cost_model.CostModel` built now
    snapshots (request-path code reads its model's, never this)."""
    return _active


def active_params() -> EfficiencyParams:
    """The active params (see :func:`active_model`)."""
    return _active[0]


def active_cost_model_version() -> int | str:
    """The *served* cost-model version: :func:`candidate_version` of the
    active params — the integer :data:`DEFAULT_VERSION` under the defaults,
    a derived ``"1-cal-<hex12>"`` tag after a candidate promotion.  Derived
    once by :func:`install_params`, so reading it never hashes."""
    return _active[1]


def install_params(params: EfficiencyParams) -> int | str:
    """Swap the process-active model; returns its served version.

    This is the rollout manager's last step, *after* its journal and state
    file are durable — the in-memory swap must never run ahead of the
    on-disk commit point, or a crash right here would recover to a model
    the process never admitted to serving.  Requests already in flight
    finish under the snapshot they started with.
    """
    global _active
    _active = (params, candidate_version(params))
    return _active[1]


def reset_active_params() -> None:
    """Back to the default model (tests and daemon shutdown hygiene)."""
    install_params(DEFAULT_PARAMS)

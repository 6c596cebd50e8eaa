"""Layered validation of registered schedules: trust nothing, re-derive.

A registry entry is a *claim* — this configuration assignment is
well-formed, costs exactly this much under exactly this cost-model
version.  Each validator re-derives one layer of that claim:

==============  ===========================================================
validator       catches
==============  ===========================================================
``structural``  unassigned/unknown operators, layouts that aren't
                permutations of their operand's dims, out-of-space
                vector/warp knobs, dangling or endpoint-mismatched
                transposes, pinned layouts nothing realizes, operand
                layouts that deviate from their tensor's pin with no
                bridging transpose (incoherent edges)
``cost``        any stored compute/memory/launch split or transpose time
                that differs — bit-exact — from a fresh scalar-reference
                recomputation; claimed totals that aren't the ordered sum
                of their parts; under ``deep=True``, full reselection
                through both the fast layered path and the scalar
                reference disagreeing with the entry
``staleness``   ``COST_MODEL_VERSION`` / registry-format drift (an
                actionable re-register report, never a crash), provenance
                citing sweeps the caller's L2 store no longer holds
==============  ===========================================================

:func:`validate_entry` runs them all and merges one
:class:`~repro.validation.base.ValidationReport`; issues stay attributed
to their validator, so tests can assert a seeded violation is caught by
exactly the right one.
"""

from __future__ import annotations

from repro.engine.store import SweepStore
from repro.registry.entry import ScheduleEntry

from .base import (
    BaseValidator,
    Severity,
    ValidationContext,
    ValidationError,
    ValidationIssue,
    ValidationReport,
)
from .cost import CostValidator
from .staleness import StalenessValidator
from .structural import StructuralValidator

__all__ = [
    "BaseValidator",
    "CostValidator",
    "DEFAULT_VALIDATORS",
    "Severity",
    "StalenessValidator",
    "StructuralValidator",
    "ValidationContext",
    "ValidationError",
    "ValidationIssue",
    "ValidationReport",
    "validate_entry",
]

#: The standard stack, cheapest first.
DEFAULT_VALIDATORS: tuple[BaseValidator, ...] = (
    StructuralValidator(),
    CostValidator(),
    StalenessValidator(),
)


def validate_entry(
    entry: ScheduleEntry,
    *,
    store: SweepStore | None,
    deep: bool = False,
    validators: tuple[BaseValidator, ...] | None = None,
) -> ValidationReport:
    """Run the validator stack over one entry and merge the findings.

    ``store`` is the caller's sweep store (``None``: none) — the daemon's
    own, or the CLI's active one; validation never reads the process
    default behind the caller's back.

    ``deep=True`` additionally re-runs configuration selection end to end
    (both pipelines) inside the cost validator — expensive, but the
    strongest possible attestation.  An entry whose graph cannot even be
    rebuilt yields a single-error report rather than raising: callers
    (``repro validate --all``, the daemon's revalidation loop) must keep
    scanning.
    """
    stack = DEFAULT_VALIDATORS if validators is None else validators
    report = ValidationReport(digest=entry.digest)
    try:
        ctx = ValidationContext(entry, store=store, deep=deep)
    except ValidationError as exc:
        report.validators = [v.name for v in stack]
        report.issues.append(
            ValidationIssue(
                Severity.ERROR, "structural", "graph-unbuildable", str(exc)
            )
        )
        return report
    for v in stack:
        report.validators.append(v.name)
        report.extend(v.validate(ctx))
    return report

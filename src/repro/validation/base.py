"""The validation framework: issues, reports, and the validator contract.

One :class:`BaseValidator` subclass owns one *class* of invariant —
structural well-formedness, bit-exact cost agreement, version freshness —
and turns violations into :class:`ValidationIssue` values rather than
exceptions.  A corrupt or stale entry must produce an actionable report
(what is wrong, where, and what to do about it), never a stack trace:
``repro validate --all`` has to keep scanning past the first bad entry,
and the daemon's background revalidation has to keep serving.

Severities: ``ERROR`` fails validation; ``WARNING`` passes but flags
something an operator should look at (e.g. provenance citing sweeps the
active store no longer holds); ``INFO`` records a deliberate skip (e.g.
the cost validator declining to recompute under a drifted model version —
that drift is the staleness validator's finding, and double-reporting it
as a cost mismatch would misdiagnose tampering).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.configsel.selector import TransposeInsertion
from repro.engine.store import SweepStore
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.layouts.layout import Layout
from repro.registry.entry import EntryError, ScheduleEntry, _layout_from_wire
from repro.service.protocol import gpu_from_wire
from repro.wire import At

__all__ = [
    "BaseValidator",
    "Severity",
    "ValidationContext",
    "ValidationError",
    "ValidationIssue",
    "ValidationReport",
]


class ValidationError(ValueError):
    """An entry too malformed to even contextualize (no graph to check)."""


class Severity(enum.IntEnum):
    """Issue severities, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR", in reports
        return self.name.lower()


@dataclass(frozen=True)
class ValidationIssue:
    """One finding: which validator, what rule, where, and the story."""

    severity: Severity
    validator: str
    code: str
    message: str
    op: str | None = None

    def render(self) -> str:
        where = f" [{self.op}]" if self.op else ""
        return f"{self.severity}({self.validator}/{self.code}){where}: {self.message}"


@dataclass
class ValidationReport:
    """Everything the validators found about one entry."""

    digest: str
    issues: list[ValidationIssue] = field(default_factory=list)
    validators: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Valid means *no errors* — warnings and infos don't fail."""
        return all(i.severity is not Severity.ERROR for i in self.issues)

    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity is Severity.ERROR]

    def warnings(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity is Severity.WARNING]

    def by_validator(self, name: str) -> list[ValidationIssue]:
        return [i for i in self.issues if i.validator == name]

    def extend(self, issues) -> None:
        self.issues.extend(issues)

    def summary(self) -> str:
        """Human-readable multi-line report (the CLI's output body)."""
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"{verdict} {self.digest} "
            f"({len(self.errors())} errors, {len(self.warnings())} warnings; "
            f"validators: {', '.join(self.validators) or 'none'})"
        ]
        lines += [f"  {i.render()}" for i in self.issues]
        return "\n".join(lines)

    def to_wire(self) -> dict:
        """JSON-able form (the service's ``/v1/register`` rejection body)."""
        return {
            "digest": self.digest,
            "ok": self.ok,
            "validators": list(self.validators),
            "issues": [
                {
                    "severity": str(i.severity),
                    "validator": i.validator,
                    "code": i.code,
                    "message": i.message,
                    "op": i.op,
                }
                for i in self.issues
            ],
        }


class ValidationContext:
    """Everything an entry claims, re-materialized once for all validators.

    Parsing happens here — graph, measurements, pins, transposes — so each
    validator checks semantics, not JSON.  A selection too malformed to
    parse surfaces as ``chosen_error`` (the structural validator reports
    it); the *graph* failing to build raises :class:`ValidationError`,
    because no validator can run without one.  ``store`` is the caller's
    sweep store (``None``: none): provenance is checked against it and a
    deep reselection resolves through it.
    """

    def __init__(
        self, entry: ScheduleEntry, *, store: SweepStore | None, deep: bool = False
    ) -> None:
        self.entry = entry
        self.store = store
        self.deep = deep
        at = At(ValidationError, "entry")
        self.graph: DataflowGraph = entry.build_graph(at)
        self.env = at.at("env").build(DimEnv, entry.env)
        self.cost = CostModel(gpu_from_wire(entry.gpu, at.at("gpu")))

        self.chosen: dict = {}
        self.chosen_error: str | None = None
        try:
            self.chosen = entry.chosen_measurements()
        except EntryError as exc:
            self.chosen_error = str(exc)

        selection = At(EntryError, "selection")
        self.pinned: dict[str, Layout] = {}
        self.pinned_error: str | None = None
        try:
            pinned = selection.at("pinned_layouts")
            for name, dims in selection.mapping(
                entry.selection, "pinned_layouts", {}
            ).items():
                self.pinned[name] = _layout_from_wire(dims, pinned.at(name))
        except EntryError as exc:
            self.pinned_error = str(exc)

        self.transposes: list[TransposeInsertion] = []
        self.transposes_error: str | None = None
        try:
            for i, wire in enumerate(
                selection.array(entry.selection, "transposes", ())
            ):
                at = selection.at("transposes", i)
                w = at.object(wire)
                self.transposes.append(
                    TransposeInsertion(
                        tensor=at.string(w, "tensor"),
                        from_layout=_layout_from_wire(
                            w.get("from_layout"), at.at("from_layout")
                        ),
                        to_layout=_layout_from_wire(
                            w.get("to_layout"), at.at("to_layout")
                        ),
                        time_us=float(at.number(w, "time_us")),
                        before_op=at.string(w, "before_op"),
                    )
                )
        except EntryError as exc:
            self.transposes_error = str(exc)


class BaseValidator:
    """One class of invariant; subclasses implement :meth:`validate`.

    ``validate`` returns issues, it never raises: anything a validator
    cannot check (missing fields, unparseable sections) is itself a
    finding.  The ``error``/``warning``/``info`` helpers stamp issues with
    the validator's name so merged reports stay attributable.
    """

    #: Stable identifier used in issue attribution and CLI filtering.
    name = "base"

    def validate(self, ctx: ValidationContext) -> list[ValidationIssue]:
        raise NotImplementedError

    # -- issue constructors --------------------------------------------------
    def error(self, code: str, message: str, *, op: str | None = None) -> ValidationIssue:
        return ValidationIssue(Severity.ERROR, self.name, code, message, op)

    def warning(self, code: str, message: str, *, op: str | None = None) -> ValidationIssue:
        return ValidationIssue(Severity.WARNING, self.name, code, message, op)

    def info(self, code: str, message: str, *, op: str | None = None) -> ValidationIssue:
        return ValidationIssue(Severity.INFO, self.name, code, message, op)

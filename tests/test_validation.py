"""Tests for the layered validation framework (:mod:`repro.validation`).

Every validator class must demonstrably reject a seeded violation — and
*only* the right validator may reject it, so reports stay attributable:
a structural mutation may not surface as a cost finding, version drift may
not masquerade as tampering.  The deep cost check re-runs configuration
selection through both the fast layered pipeline and the retained scalar
reference and demands bit-exact agreement with the entry.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.configsel.selector import select_configurations
from repro.engine import SweepStore, clear_sweep_memo
from repro.hardware.cost_model import COST_MODEL_VERSION, CostModel
from repro.ir.dims import bert_large_dims
from repro.registry import ScheduleEntry, ScheduleRegistry, build_entry
from repro.transformer.graph_builder import build_mha_graph
from repro.validation import (
    CostValidator,
    Severity,
    StalenessValidator,
    StructuralValidator,
    ValidationContext,
    validate_entry,
)

ENV = bert_large_dims()
COST = CostModel()
CAP = 48


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_sweep_memo()
    yield
    clear_sweep_memo()


@pytest.fixture(scope="module")
def clean_entry():
    """One well-formed registered entry (fused MHA forward, with a transpose)."""
    from repro.fusion import apply_paper_fusion

    clear_sweep_memo()
    graph = apply_paper_fusion(
        build_mha_graph(qkv_fusion="qkv", include_backward=False), ENV
    )
    sel = select_configurations(graph, ENV, COST, cap=CAP)
    assert sel.transposes  # the seeded violations below need one
    entry = build_entry(graph, ENV, COST, sel, cap=CAP)
    clear_sweep_memo()
    return entry


def _mutate(entry: ScheduleEntry, fn) -> ScheduleEntry:
    """A deep-copied entry with ``fn`` applied to its wire form."""
    wire = copy.deepcopy(entry.to_wire())
    fn(wire)
    return ScheduleEntry.from_wire(wire)


def _error_codes(report, validator: str) -> set[str]:
    return {i.code for i in report.by_validator(validator) if i.severity is Severity.ERROR}


def _error_validators(report) -> set[str]:
    return {i.validator for i in report.errors()}


# ---------------------------------------------------------------------------
# The clean entry
# ---------------------------------------------------------------------------

class TestCleanEntry:
    def test_passes_all_validators(self, clean_entry):
        report = validate_entry(clean_entry, store=None)
        assert report.ok, report.summary()
        assert report.errors() == [] and report.warnings() == []
        assert report.validators == ["structural", "cost", "staleness"]

    def test_deep_validation_bit_exact_against_both_pipelines(self, clean_entry):
        """The acceptance bar: full reselection through the fast layered
        path AND the scalar reference reproduces the entry bit for bit."""
        report = validate_entry(clean_entry, store=None, deep=True)
        assert report.ok, report.summary()

    def test_report_wire_form(self, clean_entry):
        wire = validate_entry(clean_entry, store=None).to_wire()
        assert wire["ok"] is True
        assert wire["digest"] == clean_entry.digest
        assert wire["issues"] == []


# ---------------------------------------------------------------------------
# Structural violations
# ---------------------------------------------------------------------------

class TestStructuralValidator:
    def test_unassigned_op_caught(self, clean_entry):
        def drop_first(wire):
            del wire["selection"]["chosen"][0]
            # keep the totals consistent so cost stays silent
            sel = wire["selection"]
            sel["total_us"] = (
                sum(m["total_us"] for m in sel["chosen"]) + sel["transpose_us"]
            )

        report = validate_entry(_mutate(clean_entry, drop_first), store=None)
        assert not report.ok
        assert "unassigned-op" in _error_codes(report, "structural")

    def test_unknown_op_caught_by_structural_only(self, clean_entry):
        def rename(wire):
            wire["selection"]["chosen"][0]["op"] = "ghost_op"

        report = validate_entry(_mutate(clean_entry, rename), store=None)
        codes = _error_codes(report, "structural")
        assert {"unknown-op", "unassigned-op"} <= codes
        # The cost validator skips ops it cannot find; totals are unchanged.
        assert _error_validators(report) == {"structural"}

    def test_reassigned_pinned_layout_caught_by_structural_only(self, clean_entry):
        ctx = ValidationContext(clean_entry, store=None)
        tensor = next(
            t for t, pin in ctx.pinned.items()
            if len(pin.dims) >= 2 and tuple(reversed(pin.dims)) != pin.dims
        )

        def flip_pin(wire):
            pins = wire["selection"]["pinned_layouts"]
            pins[tensor] = list(reversed(pins[tensor]))

        report = validate_entry(_mutate(clean_entry, flip_pin), store=None)
        assert not report.ok
        assert _error_validators(report) == {"structural"}
        assert _error_codes(report, "structural") & {
            "pin-unrealized",
            "edge-incoherent",
        }

    def test_dangling_transpose_caught(self, clean_entry):
        def dangle(wire):
            wire["selection"]["transposes"][0]["before_op"] = "ghost_op"

        report = validate_entry(_mutate(clean_entry, dangle), store=None)
        assert "transpose-dangling" in _error_codes(report, "structural")

    def test_transpose_endpoint_mismatch_caught(self, clean_entry):
        def retarget(wire):
            t = wire["selection"]["transposes"][0]
            t["to_layout"], t["from_layout"] = t["from_layout"], t["to_layout"]

        report = validate_entry(_mutate(clean_entry, retarget), store=None)
        assert _error_codes(report, "structural") & {
            "transpose-endpoint",
            "edge-incoherent",
        }

    def test_bad_layout_permutation_caught(self, clean_entry):
        def corrupt_layout(wire):
            cfg = wire["selection"]["chosen"][0]["config"]
            cfg["input_layouts"][0] = ["bogus_dim"]

        report = validate_entry(_mutate(clean_entry, corrupt_layout), store=None)
        assert "layout-dims" in _error_codes(report, "structural")

    def test_unparseable_selection_is_structural(self, clean_entry):
        def corrupt(wire):
            wire["selection"]["chosen"][0]["config"] = "not a config"

        report = validate_entry(_mutate(clean_entry, corrupt), store=None)
        assert _error_codes(report, "structural") == {"selection-unparseable"}
        assert report.by_validator("cost") == []  # cost defers, not double-reports

    def test_unbuildable_graph_is_a_report_not_a_crash(self, clean_entry):
        def corrupt(wire):
            wire["graph"]["ops"][0]["stage"] = "sideways"

        report = validate_entry(_mutate(clean_entry, corrupt), store=None)
        assert not report.ok
        assert _error_codes(report, "structural") == {"graph-unbuildable"}


# ---------------------------------------------------------------------------
# Cost violations
# ---------------------------------------------------------------------------

class TestCostValidator:
    def test_edited_total_caught_by_cost_only(self, clean_entry):
        def bump(wire):
            wire["selection"]["total_us"] += 1.0

        report = validate_entry(_mutate(clean_entry, bump), store=None)
        assert not report.ok
        assert _error_validators(report) == {"cost"}
        assert _error_codes(report, "cost") == {"total-drift"}

    def test_edited_kernel_split_caught_by_cost_only(self, clean_entry):
        def bump(wire):
            wire["selection"]["chosen"][0]["compute_us"] += 0.5

        report = validate_entry(_mutate(clean_entry, bump), store=None)
        assert _error_validators(report) == {"cost"}
        codes = _error_codes(report, "cost")
        assert "kernel-time-drift" in codes
        assert "total-drift" in codes  # the ordered sum moved with it

    def test_edited_transpose_time_caught_by_cost_only(self, clean_entry):
        def bump(wire):
            wire["selection"]["transposes"][0]["time_us"] += 0.25

        report = validate_entry(_mutate(clean_entry, bump), store=None)
        assert _error_validators(report) == {"cost"}
        codes = _error_codes(report, "cost")
        assert "transpose-time-drift" in codes
        assert "transpose-total-drift" in codes

    def test_swapped_configuration_time_disagrees(self, clean_entry):
        """A kernel re-timed under a *different* stored configuration: the
        recomputation (fresh scalar-reference ``time_op``) must disagree."""
        ctx = ValidationContext(clean_entry, store=None)
        names = list(ctx.chosen)
        a = next(
            n for n in names
            if any(
                ctx.chosen[n].time != ctx.chosen[m].time
                for m in names
                if m != n
            )
        )
        b = next(n for n in names if n != a and ctx.chosen[n].time != ctx.chosen[a].time)

        def swap_times(wire):
            chosen = {m["op"]: m for m in wire["selection"]["chosen"]}
            for f in ("compute_us", "memory_us", "launch_us", "total_us"):
                chosen[a][f], chosen[b][f] = chosen[b][f], chosen[a][f]

        report = validate_entry(_mutate(clean_entry, swap_times), store=None)
        assert "kernel-time-drift" in _error_codes(report, "cost")

    def test_deep_reselect_catches_consistent_lies(self, clean_entry):
        """An entry whose parts are internally consistent but describe a
        schedule selection never produced: only ``deep`` catches it."""
        ctx = ValidationContext(clean_entry, store=None)
        # Claim different knobs: seed drift means reselection disagrees.
        lied = dataclasses.replace(
            clean_entry,
            knobs={**clean_entry.knobs, "cap": 12},
        )
        lied = dataclasses.replace(lied, digest=lied.recompute_digest())
        shallow = validate_entry(lied, store=None)
        assert shallow.ok, shallow.summary()  # the lie is self-consistent
        deep = validate_entry(lied, store=None, deep=True)
        if deep.ok:
            pytest.skip("cap=12 selects the same schedule on this graph")
        assert _error_validators(deep) == {"cost"}
        assert _error_codes(deep, "cost") <= {
            "reselect-total-drift",
            "reselect-chain-drift",
            "reselect-config-drift",
        }


# ---------------------------------------------------------------------------
# Staleness
# ---------------------------------------------------------------------------

class TestStalenessValidator:
    def test_version_drift_caught_by_staleness_only(self, clean_entry):
        stale = dataclasses.replace(
            clean_entry, cost_model_version=COST_MODEL_VERSION + 7
        )
        report = validate_entry(stale, store=None)
        assert not report.ok
        assert _error_validators(report) == {"staleness"}
        assert _error_codes(report, "staleness") == {"cost-model-version"}

    def test_version_drift_report_is_actionable(self, clean_entry):
        """The report tells the operator what to do, including the fresh
        digest the re-registered schedule will live at."""
        stale = dataclasses.replace(
            clean_entry, cost_model_version=COST_MODEL_VERSION + 7
        )
        report = validate_entry(stale, store=None)
        [issue] = [i for i in report.errors() if i.code == "cost-model-version"]
        fresh = clean_entry.recompute_digest()  # recorded version == current
        assert fresh in issue.message  # where to re-register
        assert "re-tune" in issue.message.lower() or "re-register" in issue.message.lower()

    def test_version_drift_suppresses_cost_recompute(self, clean_entry):
        """Stale timings are the staleness validator's finding; the cost
        validator records an INFO skip instead of misreporting tampering."""
        stale = dataclasses.replace(
            clean_entry,
            cost_model_version=COST_MODEL_VERSION + 7,
            selection={**clean_entry.selection, "total_us": 1.0},  # a "lie"
        )
        report = validate_entry(stale, store=None)
        cost_issues = report.by_validator("cost")
        assert [i.code for i in cost_issues] == ["recompute-skipped"]
        assert cost_issues[0].severity is Severity.INFO

    def test_registry_format_drift_caught(self, clean_entry):
        odd = dataclasses.replace(clean_entry, registry_format=99)
        report = validate_entry(odd, store=None)
        assert "registry-format" in _error_codes(report, "staleness")

    def test_orphaned_provenance_warns(self, clean_entry, tmp_path):
        """Provenance citing sweeps the caller's store no longer holds is a
        warning — the schedule still validates, but it cannot be re-derived
        from stored sweeps."""
        report = validate_entry(clean_entry, store=SweepStore(tmp_path / "empty"))
        assert report.ok  # warnings do not fail validation
        assert {i.code for i in report.warnings()} == {"provenance-orphaned"}

    def test_the_daemon_checks_provenance_against_its_own_store(
        self, clean_entry, tmp_path, monkeypatch
    ):
        """A daemon built on store ``S`` validates against ``S``, even with
        no process-wide store installed."""
        from repro.engine import store as store_mod
        from repro.service.server import TuningService

        monkeypatch.setattr(store_mod, "_ACTIVE", None)
        svc = TuningService(
            store=SweepStore(tmp_path / "store"),
            registry=ScheduleRegistry(tmp_path / "registry"),
            calibration_dir=None,
        )
        reply = svc.handle_register({"entry": clean_entry.to_wire()})
        assert reply["registered"]
        codes = {issue["code"] for issue in reply["report"]["issues"]}
        assert codes == {"provenance-orphaned"}

    def test_missing_provenance_warns(self, clean_entry):
        bare = dataclasses.replace(clean_entry, provenance={})
        report = validate_entry(bare, store=None)
        assert report.ok
        assert "provenance-missing" in {i.code for i in report.warnings()}


# ---------------------------------------------------------------------------
# Registry round trips of mutated entries
# ---------------------------------------------------------------------------

class TestSeededViolationsThroughRegistry:
    def test_solution_tampering_loads_but_fails_validation(
        self, clean_entry, tmp_path
    ):
        """The digest covers the *problem*; solution tampering is invisible
        to the hash and must be caught by validation instead."""
        registry = ScheduleRegistry(tmp_path / "registry")
        tampered = _mutate(
            clean_entry, lambda w: w["selection"].__setitem__("total_us", 1.0)
        )
        registry.register(tampered)
        loaded = registry.load(tampered.digest)  # hash still verifies
        report = validate_entry(loaded, store=None)
        assert not report.ok
        assert _error_validators(report) == {"cost"}

    def test_each_validator_rejects_its_seeded_violation(self, clean_entry):
        """The acceptance matrix: one seeded violation per validator class,
        each rejected by exactly that class."""
        seeded = {
            "structural": _mutate(
                clean_entry,
                lambda w: w["selection"]["chosen"][0].__setitem__("op", "ghost"),
            ),
            "cost": _mutate(
                clean_entry,
                lambda w: w["selection"].__setitem__(
                    "total_us", w["selection"]["total_us"] * 2
                ),
            ),
            "staleness": dataclasses.replace(
                clean_entry, cost_model_version=COST_MODEL_VERSION + 1
            ),
        }
        for expected, entry in seeded.items():
            report = validate_entry(entry, store=None)
            assert not report.ok
            assert _error_validators(report) == {expected}, (
                expected,
                report.summary(),
            )

    def test_custom_validator_stack(self, clean_entry):
        report = validate_entry(
            clean_entry,
            store=None,
            validators=(StructuralValidator(), StalenessValidator()),
        )
        assert report.validators == ["structural", "staleness"]
        assert report.by_validator("cost") == []
        report = validate_entry(
            clean_entry, store=None, validators=(CostValidator(),)
        )
        assert report.validators == ["cost"]
        assert report.ok

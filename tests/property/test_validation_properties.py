"""Hypothesis property tests: mutations vs. the validator matrix.

The framing invariant of the validation framework: *any* single mutation
of a registered schedule entry is caught by exactly the validator that
owns that layer — a cost edit never surfaces as a structural finding,
layout tampering never as a cost finding, version drift never as either —
and an untouched entry always passes.  Randomizes which field is mutated,
by how much, and where, over one real registered entry.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.configsel.selector import select_configurations
from repro.engine import clear_sweep_memo
from repro.fusion import apply_paper_fusion
from repro.hardware.cost_model import COST_MODEL_VERSION, CostModel
from repro.ir.dims import DimEnv, bert_large_dims
from repro.registry import ScheduleEntry, build_entry, schedule_digest
from repro.transformer.graph_builder import build_mha_graph
from repro.validation import Severity, ValidationContext, validate_entry

ENV = bert_large_dims()
COST = CostModel()
CAP = 40


@pytest.fixture(scope="module")
def seeded():
    """One clean registered entry plus the mutation targets it offers."""
    clear_sweep_memo()
    graph = apply_paper_fusion(
        build_mha_graph(qkv_fusion="qkv", include_backward=False), ENV
    )
    sel = select_configurations(graph, ENV, COST, cap=CAP)
    entry = build_entry(graph, ENV, COST, sel, cap=CAP)
    clear_sweep_memo()

    ctx = ValidationContext(entry, store=None)
    # Layouts each tensor is actually accessed in, as structural sees them.
    realized: dict[str, set[tuple[str, ...]]] = {}
    for name, m in ctx.chosen.items():
        op = ctx.graph.op(name)
        for t, layout in zip(
            tuple(op.inputs) + tuple(op.outputs),
            tuple(m.config.input_layouts) + tuple(m.config.output_layouts),
        ):
            realized.setdefault(t.name, set()).add(layout.dims)
    # Pins whose reversal is provably a fresh, unrealized layout: reversing
    # them must trip pin-unrealized (and only structural findings).
    safe_pins = sorted(
        t
        for t, pin in ctx.pinned.items()
        if tuple(reversed(pin.dims)) != pin.dims
        and tuple(reversed(pin.dims)) not in realized.get(t, set())
        and pin.dims in realized.get(t, set())
    )
    assert safe_pins, "fixture graph must offer a reversible pin"
    assert entry.selection["transposes"], "fixture graph must insert a transpose"
    report = validate_entry(entry, store=None)
    assert report.ok, report.summary()
    return entry, safe_pins


def _mutations(entry: ScheduleEntry, safe_pins: list[str]):
    """Strategy over (expected validator, wire mutation) pairs."""
    n_chosen = len(entry.selection["chosen"])
    n_trans = len(entry.selection["transposes"])
    delta = st.floats(min_value=0.5, max_value=1e6, allow_nan=False)

    def cost_total(d):
        return "cost", lambda w: w["selection"].__setitem__(
            "total_us", w["selection"]["total_us"] + d
        )

    def cost_kernel(i, f, d):
        return "cost", lambda w: w["selection"]["chosen"][i].__setitem__(
            f, w["selection"]["chosen"][i][f] + d
        )

    def cost_transpose(i, d):
        return "cost", lambda w: w["selection"]["transposes"][i].__setitem__(
            "time_us", w["selection"]["transposes"][i]["time_us"] + d
        )

    def structural_pin(tensor):
        def flip(w):
            pins = w["selection"]["pinned_layouts"]
            pins[tensor] = list(reversed(pins[tensor]))

        return "structural", flip

    def structural_rename(i):
        return "structural", lambda w: w["selection"]["chosen"][i].__setitem__(
            "op", f"ghost-{i}"
        )

    def staleness_version(k):
        return "staleness", lambda w: w.__setitem__(
            "cost_model_version", COST_MODEL_VERSION + k
        )

    return st.one_of(
        st.builds(cost_total, delta),
        st.builds(
            cost_kernel,
            st.integers(0, n_chosen - 1),
            st.sampled_from(("compute_us", "memory_us", "launch_us")),
            delta,
        ),
        st.builds(cost_transpose, st.integers(0, n_trans - 1), delta),
        st.builds(structural_pin, st.sampled_from(safe_pins)),
        st.builds(structural_rename, st.integers(0, n_chosen - 1)),
        st.builds(staleness_version, st.integers(1, 10_000)),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_single_mutation_caught_by_exactly_the_right_validator(seeded, data):
    entry, safe_pins = seeded
    expected, mutate = data.draw(_mutations(entry, safe_pins))
    wire = copy.deepcopy(entry.to_wire())
    mutate(wire)
    mutated = ScheduleEntry.from_wire(wire)

    report = validate_entry(mutated, store=None)
    assert not report.ok, (expected, report.summary())
    owners = {i.validator for i in report.errors()}
    assert owners == {expected}, (expected, report.summary())
    # The cost validator's deliberate skip under version drift is an INFO,
    # never an error — drift must not be double-reported as tampering.
    if expected == "staleness":
        cost_codes = [i.code for i in report.by_validator("cost")]
        assert cost_codes in ([], ["recompute-skipped"])
        assert all(
            i.severity is Severity.INFO for i in report.by_validator("cost")
        )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_=st.integers(0, 3))
def test_untouched_entry_always_passes(seeded, _):
    """Serialization round trips never manufacture a finding."""
    entry, _pins = seeded
    round_tripped = ScheduleEntry.from_bytes(entry.to_bytes())
    report = validate_entry(round_tripped, store=None)
    assert report.ok, report.summary()
    assert report.errors() == []


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_digest_invariant_under_env_ordering(data):
    """The content digest canonicalizes: dim-size insertion order and
    extra unused dims never split the address space."""
    graph = build_mha_graph(qkv_fusion="qkv", include_backward=False)
    knobs = dict(cap=CAP, seed=3, version=COST.version)
    base = schedule_digest(graph, ENV, COST.gpu, **knobs)
    items = data.draw(st.permutations(sorted(ENV.items())))
    shuffled = DimEnv(dict(items))
    assert schedule_digest(graph, shuffled, COST.gpu, **knobs) == base
    extra = dict(items)
    extra[data.draw(st.sampled_from(("zz_unused", "qq_unused")))] = data.draw(
        st.integers(1, 4096)
    )
    assert schedule_digest(graph, DimEnv(extra), COST.gpu, **knobs) == base

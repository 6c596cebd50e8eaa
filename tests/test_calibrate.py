"""Online calibration: feedback store, fitting, and staged rollout.

Covers the full shadow → canary → promote machine without any daemon
subprocess: adversarial ``/v1/report`` bodies (each a structured 400 that
leaves the feedback store untouched), crash-safe JSONL persistence with
per-record digests, deterministic fitting, and the rollout state machine
including kill-mid-promotion recovery — simulated in-process by driving
``RolloutManager`` against on-disk state files from both sides of the
commit point.
"""

from __future__ import annotations

import json

import pytest

from repro.calibrate import (
    FeedbackError,
    FeedbackStore,
    RolloutError,
    RolloutManager,
    fit_candidate,
    record_digest,
    score_params,
    table3_corpus,
    validate_record,
)
from repro.calibrate.fit import CandidateModel
from repro.calibrate.rollout import JOURNAL_FILE_NAME, STATE_FILE_NAME
from repro.hardware.params import (
    DEFAULT_PARAMS,
    DEFAULT_VERSION,
    ParamsError,
    active_cost_model_version,
    active_params,
    candidate_version,
    install_params,
    params_from_wire,
)
from repro.service.protocol import ProtocolError
from repro.service.server import TuningService


@pytest.fixture(autouse=True)
def _restore_active_params():
    """Every test starts and ends serving the historical defaults."""
    install_params(DEFAULT_PARAMS)
    yield
    install_params(DEFAULT_PARAMS)


def _record(**over) -> dict:
    rec = {
        "label": "QK^T",
        "side": "ours",
        "measured_us": 200.0,
        "cost_model_version": DEFAULT_VERSION,
        "provenance": "test",
    }
    rec.update(over)
    return rec


# ---------------------------------------------------------------------------
# params identity
# ---------------------------------------------------------------------------


def test_default_params_serve_version_one():
    assert active_params() == DEFAULT_PARAMS
    assert active_cost_model_version() == DEFAULT_VERSION == 1


def test_candidate_version_is_tagged_and_stable():
    tweaked = params_from_wire(
        {**DEFAULT_PARAMS.to_wire(), "coalesced_eff": 0.5}
    )
    tag = candidate_version(tweaked)
    assert isinstance(tag, str) and tag.startswith("1-cal-")
    assert tag == candidate_version(tweaked)  # pure function of params
    assert candidate_version(DEFAULT_PARAMS) == DEFAULT_VERSION


def test_install_params_flips_served_version_and_back():
    tweaked = params_from_wire(
        {**DEFAULT_PARAMS.to_wire(), "vectorized_eff": 0.6}
    )
    install_params(tweaked)
    assert active_cost_model_version() == candidate_version(tweaked)
    install_params(DEFAULT_PARAMS)
    assert active_cost_model_version() == DEFAULT_VERSION


# ---------------------------------------------------------------------------
# record validation (adversarial /v1/report bodies)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "broken",
    [
        "not a dict",
        _record(label="No Such Benchmark"),
        _record(side="theirs"),
        _record(measured_us=float("nan")),
        _record(measured_us=float("inf")),
        _record(measured_us=-3.0),
        _record(measured_us=0),
        _record(measured_us=True),
        _record(measured_us="fast"),
        _record(cost_model_version=True),
        _record(cost_model_version=2.5),
        _record(provenance=""),
        _record(provenance=7),
        _record(surprise="field"),
    ],
    ids=[
        "non-dict", "unknown-label", "unknown-side", "nan", "inf",
        "negative", "zero", "bool-timing", "str-timing", "bool-version",
        "float-version", "empty-provenance", "non-str-provenance",
        "unknown-field",
    ],
)
def test_validate_record_rejects(broken):
    with pytest.raises(FeedbackError):
        validate_record(broken)


def test_validate_record_rejects_version_mismatch():
    rec = _record(cost_model_version="1-cal-somethingelse")
    with pytest.raises(FeedbackError, match="cost-model version"):
        validate_record(rec, served_version=DEFAULT_VERSION)
    # ...but matches pass, and unknown versions pass when unpinned.
    validate_record(_record(), served_version=DEFAULT_VERSION)
    validate_record(rec)


def test_handle_report_adversarial_bodies_leave_store_unchanged(tmp_path):
    svc = TuningService(store=None, calibration_dir=tmp_path)
    good = table3_corpus()
    svc.handle_report({"records": good[:4]})
    before = svc.feedback.records()
    assert len(before) == 4

    bad_bodies = [
        "not json object",
        {"records": "not a list"},
        {"records": []},
        {"records": [_record(measured_us=float("nan"))]},
        {"records": [_record(label="No Such Benchmark")]},
        {"records": good[:1] + [_record(side="theirs")]},  # partial batch
        {"records": [_record(cost_model_version="1-cal-bogus000000")]},
    ]
    for body in bad_bodies:
        with pytest.raises(ProtocolError):
            svc.handle_report(body)
        # All-or-nothing: not even the valid prefix of a batch lands.
        assert svc.feedback.records() == before
    # The three malformed-shape bodies fail before record validation; the
    # other four each count one rejected report.
    assert svc.metrics.calibration_counts()["report_rejected"] == 4


def test_report_stamps_served_version_and_digests(tmp_path):
    svc = TuningService(store=None, calibration_dir=tmp_path)
    resp = svc.handle_report({"records": table3_corpus()})
    assert resp["accepted"] == resp["total"] == len(table3_corpus())
    assert resp["cost_model_version"] == DEFAULT_VERSION
    for rec in svc.feedback.records():
        assert rec["digest"] == record_digest(rec)


# ---------------------------------------------------------------------------
# feedback store persistence
# ---------------------------------------------------------------------------


def test_feedback_store_round_trips(tmp_path):
    store = FeedbackStore(tmp_path)
    store.append(table3_corpus())
    again = FeedbackStore(tmp_path)
    assert again.records() == store.records()
    assert again.corpus_digest() == store.corpus_digest()


def test_feedback_store_tolerates_torn_tail(tmp_path):
    store = FeedbackStore(tmp_path)
    store.append(table3_corpus()[:6])
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write('{"label": "MHA forward", "side"')  # torn mid-write
    assert len(FeedbackStore(tmp_path).records()) == 6


def test_feedback_store_rejects_mid_file_corruption(tmp_path):
    store = FeedbackStore(tmp_path)
    store.append(table3_corpus()[:6])
    lines = store.path.read_text(encoding="utf-8").splitlines()
    doctored = json.loads(lines[2])
    doctored["measured_us"] *= 10  # digest no longer matches
    lines[2] = json.dumps(doctored)
    store.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FeedbackError, match="digest"):
        FeedbackStore(tmp_path).records()


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_is_deterministic_and_improves_table3_error():
    corpus = table3_corpus()
    cand = fit_candidate(corpus)
    again = fit_candidate(list(reversed(corpus)))  # order-insensitive
    assert cand.to_wire() == again.to_wire()
    assert cand.version == candidate_version(cand.params)

    base = score_params(DEFAULT_PARAMS, corpus)
    fitted = score_params(cand.params, corpus)
    assert base["error"] is not None and fitted["error"] is not None
    assert fitted["error"] < base["error"]
    assert cand.provenance["base_error"] == pytest.approx(base["error"])
    assert cand.provenance["fitted_error"] == pytest.approx(fitted["error"])


def test_fit_keeps_efficiencies_physical():
    corpus = [
        # Wildly wrong timings must not push efficiencies past 1 or to 0.
        {**rec, "measured_us": rec["measured_us"] * 1e6}
        for rec in table3_corpus()
    ]
    cand = fit_candidate(corpus)
    for field, value in cand.params.to_wire().items():
        if field.endswith("_eff") or field.endswith("_base"):
            assert 0.0 < value <= 1.0, (field, value)


def test_candidate_from_wire_rejects_forged_version():
    cand = fit_candidate(table3_corpus())
    wire = cand.to_wire()
    wire["version"] = "1-cal-000000000000"
    with pytest.raises(ParamsError, match="version"):
        CandidateModel.from_wire(wire)
    assert CandidateModel.from_wire(cand.to_wire()) == cand


# ---------------------------------------------------------------------------
# rollout state machine
# ---------------------------------------------------------------------------


def _canary_manager(tmp_path=None, fraction="1.0") -> RolloutManager:
    """A manager built under deterministic ``REPRO_CANARY_*`` settings."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CANARY_FRACTION", fraction)
        mp.setenv("REPRO_CANARY_MIN_SAMPLES", "3")
        mp.setenv("REPRO_CANARY_MAX_DIVERGENCE", "0.5")
        return RolloutManager(tmp_path)


def _proposed(tmp_path=None, **over):
    mgr = _canary_manager(tmp_path, **over)
    corpus = table3_corpus()
    cand = fit_candidate(corpus)
    mgr.propose(cand, corpus)
    return mgr, cand


def test_shadow_gate_rejects_regressing_candidate():
    mgr = _canary_manager()
    worse = params_from_wire(
        {**DEFAULT_PARAMS.to_wire(), "gemm_mem_eff": 0.001, "vectorized_eff": 0.001}
    )
    cand = CandidateModel.build(worse)
    with pytest.raises(RolloutError, match="shadow"):
        mgr.propose(cand, table3_corpus())
    assert mgr.status()["phase"] == "idle"
    # force bypasses the gate (how the chaos suite injects regressions)
    mgr.propose(cand, table3_corpus(), force=True)
    assert mgr.status()["phase"] == "canary"


def test_shadow_gate_rejects_noop_and_empty():
    mgr = _canary_manager()
    with pytest.raises(RolloutError):
        mgr.propose(CandidateModel.build(DEFAULT_PARAMS), table3_corpus())
    with pytest.raises(RolloutError):
        mgr.propose(fit_candidate(table3_corpus()), [])


def test_canary_promotes_after_min_samples(tmp_path):
    mgr, cand = _proposed(tmp_path)
    assert mgr.record_canary(0.1) == "canary"
    assert mgr.record_canary(0.2) == "canary"
    assert mgr.record_canary(0.1) == "promoted"
    assert active_cost_model_version() == cand.version
    assert mgr.status()["phase"] == "idle"
    events = [e["event"] for e in mgr.journal_events()]
    assert events[-2:] == ["promote_intent", "promote_committed"]


def test_canary_regression_auto_rolls_back(tmp_path):
    mgr, cand = _proposed(tmp_path)
    mgr.record_canary(0.1)
    assert mgr.record_canary(5.0) == "rolled_back"
    # Not a single served response was scored by the candidate: the active
    # model answered every request, and the regression kills the canary
    # before it can ever promote.
    assert active_cost_model_version() == DEFAULT_VERSION
    assert mgr.status()["phase"] == "idle"
    assert mgr.candidate_params() is None


def test_manual_promote_and_rollback(tmp_path):
    mgr, cand = _proposed(tmp_path)
    mgr.promote()
    assert active_cost_model_version() == cand.version

    install_params(DEFAULT_PARAMS)
    mgr2, _ = _proposed(tmp_path / "second")
    mgr2.rollback()
    assert active_cost_model_version() == DEFAULT_VERSION
    with pytest.raises(RolloutError):
        mgr2.promote()  # nothing in canary anymore


def test_hash_slice_respects_fraction():
    mgr, _ = _proposed(fraction="0.25")
    # Spread the leading 32 bits across the whole hash space.
    digests = [f"{(i * 0x00100001) & 0xFFFFFFFF:08x}{'0' * 56}" for i in range(4096)]
    hits = sum(mgr.should_canary(d) for d in digests)
    assert 0 < hits < len(digests)
    assert hits / len(digests) == pytest.approx(0.25, abs=0.05)
    assert not RolloutManager(None).should_canary(digests[0])  # idle: never


# ---------------------------------------------------------------------------
# crash recovery: exactly one of {prior, promoted}
# ---------------------------------------------------------------------------


def test_recovery_before_commit_serves_prior(tmp_path):
    _proposed(tmp_path)  # state file says canary; promotion never committed
    install_params(DEFAULT_PARAMS)
    mgr = RolloutManager(tmp_path)
    assert active_cost_model_version() == DEFAULT_VERSION
    assert mgr.status()["phase"] == "canary"  # canary survives the crash
    assert [e["event"] for e in mgr.journal_events()][-1] == "recovered"


def test_recovery_after_commit_serves_promoted(tmp_path):
    mgr, cand = _proposed(tmp_path)
    mgr.record_canary(0.1)
    mgr.record_canary(0.1)
    mgr.record_canary(0.1)  # commits + installs
    install_params(DEFAULT_PARAMS)  # simulate fresh process
    mgr2 = RolloutManager(tmp_path)
    assert active_cost_model_version() == cand.version
    assert mgr2.status()["phase"] == "idle"


def test_recovery_rejects_corrupt_state(tmp_path):
    _proposed(tmp_path)
    (tmp_path / STATE_FILE_NAME).write_text("{ nope", encoding="utf-8")
    with pytest.raises(RolloutError, match="state"):
        RolloutManager(tmp_path)


def test_recovery_derives_the_served_version_from_the_params(tmp_path):
    # A state file serving fitted params under the default tag would put
    # default-model and fitted-model store entries in one namespace.
    fitted = fit_candidate(table3_corpus()).params
    state = {
        "phase": "idle",
        "served_version": DEFAULT_VERSION,
        "served_params": fitted.to_wire(),
        "candidate": None,
        "canary": {"samples": 0, "regressions": 0, "max_divergence_seen": 0.0},
        "last_transition": "promote",
    }
    (tmp_path / STATE_FILE_NAME).write_text(json.dumps(state), encoding="utf-8")
    with pytest.raises(RolloutError, match="served_version"):
        RolloutManager(tmp_path)
    assert active_params() == DEFAULT_PARAMS  # nothing was installed
    # The params' own tag recovers; so do default params under the default.
    state["served_version"] = candidate_version(fitted)
    (tmp_path / STATE_FILE_NAME).write_text(json.dumps(state), encoding="utf-8")
    RolloutManager(tmp_path)
    assert active_params() == fitted
    assert active_cost_model_version() == candidate_version(fitted)
    state.update(served_version="1-cal-000000000000", served_params=None)
    (tmp_path / STATE_FILE_NAME).write_text(json.dumps(state), encoding="utf-8")
    with pytest.raises(RolloutError, match="served_version"):
        RolloutManager(tmp_path)


def test_journal_is_append_only_jsonl(tmp_path):
    mgr, _ = _proposed(tmp_path)
    mgr.rollback()
    lines = (tmp_path / JOURNAL_FILE_NAME).read_text(
        encoding="utf-8"
    ).splitlines()
    events = [json.loads(line)["event"] for line in lines]
    assert "shadow_pass" in events and "rollback" in events


# ---------------------------------------------------------------------------
# service wiring
# ---------------------------------------------------------------------------


def test_propose_endpoint_fits_and_enters_canary(tmp_path):
    svc = TuningService(store=None, calibration_dir=tmp_path)
    svc.handle_report({"records": table3_corpus()})
    out = svc.handle_calibrate_propose({})
    assert out["proposed"] and out["rollout"]["phase"] == "canary"
    assert out["candidate_version"].startswith("1-cal-")
    assert svc.handle_rollout_status()["rollout"]["phase"] == "canary"
    # regressing explicit params without force → structured 400
    with pytest.raises(ProtocolError):
        svc.handle_calibrate_propose(
            {"params": {**DEFAULT_PARAMS.to_wire(), "vectorized_eff": 0.001}}
        )


def test_rollout_action_endpoint(tmp_path):
    svc = TuningService(store=None, calibration_dir=tmp_path)
    svc.handle_report({"records": table3_corpus()})
    svc.handle_calibrate_propose({})
    out = svc.handle_rollout_action({"action": "rollback"})
    assert out["rollout"]["phase"] == "idle"
    with pytest.raises(ProtocolError):
        svc.handle_rollout_action({"action": "promote"})
    with pytest.raises(ProtocolError):
        svc.handle_rollout_action({"action": "reboot"})


def test_healthz_reports_served_version_and_phase():
    svc = TuningService(store=None, calibration_dir=None)
    health = svc.healthz()
    assert health["cost_model_version"] == DEFAULT_VERSION
    assert health["rollout_phase"] == "idle"

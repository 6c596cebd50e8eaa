"""Hypothesis property tests: every parser of outside JSON stays typed.

Each suite starts from a valid document, applies one or two random edits
(:func:`strategies.json_mutations`: a value swapped for another JSON type,
a boundary or non-finite number, a field or item deleted, an unknown field
added) and feeds the result to the parser.  The parser either raises its
boundary's error — ``ProtocolError`` for request bodies, ``EntryError``
for entries, ``ParamsError`` for params and candidates, ``FeedbackError``
for the feedback file, ``RolloutError`` for the rollout state — or returns
a value that round-trips through its ``*_wire`` builder.  No other
exception may escape.  Parsed sweep requests at a small cap are also
served through ``handle_sweep``, which must answer them.  Over HTTP, a
mutated sweep or optimize body answers the same status and bytes every
time it is sent, on a daemon that has seen it before as on a fresh one:
the daemon remembers what a body decides to, never what it refused.
"""

from __future__ import annotations

import functools
import http.client
import json
import tempfile
import threading
from pathlib import Path

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.calibrate import (
    CandidateModel,
    FeedbackError,
    FeedbackStore,
    RolloutError,
    RolloutManager,
    fit_candidate,
    table3_corpus,
    validate_record,
)
from repro.configsel.selector import select_configurations
from repro.engine import clear_sweep_memo
from repro.fusion import apply_paper_fusion
from repro.hardware.cost_model import CostModel
from repro.hardware.params import ParamsError, params_from_wire, reset_active_params
from repro.hardware.spec import A100
from repro.ir.dims import bert_large_dims
from repro.registry import ScheduleEntry, build_entry
from repro.registry.entry import EntryError
from repro.service import ProtocolError, TuningService
from repro.service.protocol import (
    BINARY_CONTENT_TYPE,
    fleet_heartbeat_wire,
    fleet_register_wire,
    gpu_to_wire,
    optimize_request_wire,
    parse_fleet_heartbeat,
    parse_fleet_register,
    parse_optimize_request,
    parse_sweep_request,
    sweep_request_wire,
)
from repro.service.server import make_server
from repro.transformer.graph_builder import build_mha_graph
from strategies import json_mutations

ENV = bert_large_dims()
CAP = 60
FUZZ = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _mutants(doc):
    """Mutations of ``doc``, each also passed through the JSON text codec
    (so ``NaN`` arrives as ``json.loads`` parses it from a request)."""
    return json_mutations(doc).map(lambda d: json.loads(json.dumps(d)))


@functools.cache
def _sweep_bodies() -> tuple[dict, ...]:
    graph = apply_paper_fusion(
        build_mha_graph(qkv_fusion="qkv", include_backward=False), ENV
    )
    ops = [graph.op("SM"), next(op for op in graph.ops if op.einsum)]
    bodies = [sweep_request_wire(op, ENV, A100, cap=CAP, seed=1) for op in ops]
    # The builder names the preset GPU; mutate its full spec too.
    return tuple(bodies + [{**body, "gpu": gpu_to_wire(A100)} for body in bodies])


def _round_trips_sweep(req) -> None:
    again = parse_sweep_request(
        sweep_request_wire(
            req.op, req.env, req.gpu, cap=req.cap, seed=req.seed, top_k=req.top_k
        )
    )
    assert again == req


@FUZZ
@given(data=st.data())
def test_sweep_request_is_typed_or_refused(data):
    body = data.draw(_mutants(data.draw(st.sampled_from(_sweep_bodies()))))
    try:
        req = parse_sweep_request(body)
    except ProtocolError:
        return
    _round_trips_sweep(req)


@functools.cache
def _service() -> TuningService:
    return TuningService(store=None, registry=None, calibration_dir=None)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_parsed_small_sweeps_are_served(data):
    """What the parser admits at cap <= 60, the daemon answers (a 200):
    no request byte reaches the handler's 500 branch."""
    body = data.draw(_mutants(data.draw(st.sampled_from(_sweep_bodies()))))
    try:
        req = parse_sweep_request(body)
    except ProtocolError:
        return
    if req.cap is None or req.cap > CAP:
        return
    response = _service().handle_sweep(body)
    assert response["num_configs"] >= 1
    clear_sweep_memo()


_OPTIMIZE = optimize_request_wire(model="mha", include_backward=False, gpu=A100, cap=CAP)


@FUZZ
@given(
    body=st.sampled_from((_OPTIMIZE, {**_OPTIMIZE, "gpu": gpu_to_wire(A100)})).flatmap(
        _mutants
    )
)
def test_optimize_request_is_typed_or_refused(body):
    try:
        req = parse_optimize_request(body)
    except ProtocolError:
        return
    fields = {k: getattr(req, k) for k in req.__dataclass_fields__}
    assert parse_optimize_request(optimize_request_wire(**fields)) == req


def _storeless() -> TuningService:
    return TuningService(store=None, registry=None, calibration_dir=None)


@pytest.fixture(scope="module")
def daemons():
    """Two live daemons: ``seen`` keeps its service (and what it decided)
    for the whole module; ``fresh`` is given a new service per example."""
    servers = {"seen": make_server(_storeless()), "fresh": make_server(_storeless())}
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers.values()
    ]
    for thread in threads:
        thread.start()
    try:
        yield servers
    finally:
        for server in servers.values():
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=10)


def _post(server, path: str, raw: bytes, headers: dict) -> tuple[int, bytes]:
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.request("POST", path, body=raw, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _wire_bodies():
    """``(path, mutated body, headers)``: a sweep (JSON or packed) or an
    optimize body, as bytes."""
    sweep = st.tuples(
        st.just("/v1/sweep"),
        st.sampled_from(_sweep_bodies()).flatmap(_mutants),
        st.sampled_from([{}, {"Accept": BINARY_CONTENT_TYPE}]),
    )
    optimize = st.tuples(
        st.just("/v1/optimize"),
        st.sampled_from(
            (_OPTIMIZE, {**_OPTIMIZE, "gpu": gpu_to_wire(A100)})
        ).flatmap(_mutants),
        st.just({}),
    )
    return st.one_of(sweep, optimize)


def _expensive(path: str, body) -> bool:
    """A body that parses with a cap above the suite's: tuning it would
    cost seconds, and the size guards have their own tests."""
    parse = parse_sweep_request if path == "/v1/sweep" else parse_optimize_request
    try:
        req = parse(body)
    except ProtocolError:
        return False
    return req.cap is None or req.cap > CAP


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(sent=_wire_bodies())
def test_a_repeated_body_answers_what_a_fresh_daemon_answers(daemons, sent):
    path, body, headers = sent
    if _expensive(path, body):
        return
    raw = json.dumps(body).encode()
    daemons["fresh"].service = _storeless()
    first = _post(daemons["seen"], path, raw, headers)
    assert _post(daemons["seen"], path, raw, headers) == first
    assert _post(daemons["fresh"], path, raw, headers) == first
    assert first[0] in (200, 400)


_REGISTER = fleet_register_wire(
    worker_id="w1", url="http://127.0.0.1:9", ready=True, cost_model_version="1-cal-x"
)
_HEARTBEAT = fleet_heartbeat_wire(worker_id="w1", ready=False, cost_model_version=1)


@FUZZ
@given(register=_mutants(_REGISTER), heartbeat=_mutants(_HEARTBEAT))
def test_fleet_membership_is_typed_or_refused(register, heartbeat):
    try:
        worker_id, url, ready, version = parse_fleet_register(register)
    except ProtocolError:
        pass
    else:
        wire = fleet_register_wire(
            worker_id=worker_id, url=url, ready=ready, cost_model_version=version
        )
        assert parse_fleet_register(wire)[:3] == (worker_id, url, ready)
        assert version is None or parse_fleet_register(wire)[3] == version
    try:
        worker_id, ready, version = parse_fleet_heartbeat(heartbeat)
    except ProtocolError:
        return
    wire = fleet_heartbeat_wire(
        worker_id=worker_id, ready=ready, cost_model_version=version
    )
    assert parse_fleet_heartbeat(wire)[:2] == (worker_id, ready)
    assert version is None or parse_fleet_heartbeat(wire)[2] == version


@functools.cache
def _candidate() -> CandidateModel:
    return fit_candidate(table3_corpus())


@FUZZ
@given(data=st.data())
def test_params_and_candidates_are_typed_or_refused(data):
    params = data.draw(_mutants(_candidate().params.to_wire()))
    try:
        parsed = params_from_wire(params)
    except ParamsError:
        pass
    else:
        assert params_from_wire(parsed.to_wire()) == parsed
    candidate = data.draw(_mutants(_candidate().to_wire()))
    try:
        model = CandidateModel.from_wire(candidate)
    except ParamsError:
        return
    assert CandidateModel.from_wire(model.to_wire()) == model


@functools.cache
def _entry() -> ScheduleEntry:
    clear_sweep_memo()
    graph = build_mha_graph(qkv_fusion="qkv", include_backward=False)
    cost = CostModel()
    selection = select_configurations(graph, ENV, cost, cap=8)
    entry = build_entry(graph, ENV, cost, selection, cap=8)
    clear_sweep_memo()
    return entry


@FUZZ
@given(data=st.data())
def test_schedule_entry_is_typed_or_refused(data):
    wire = data.draw(_mutants(_entry().to_wire()))
    try:
        entry = ScheduleEntry.from_wire(wire)
    except EntryError:
        return
    assert ScheduleEntry.from_wire(entry.to_wire()) == entry
    # The lazily read halves — graph, GPU, knobs, the chosen measurements —
    # fail as EntryError too, never as anything else.
    try:
        assert len(entry.recompute_digest()) == 64
        entry.chosen_measurements()
    except EntryError:
        pass


@FUZZ
@given(data=st.data())
def test_feedback_records_are_typed_or_refused(data):
    wire = data.draw(_mutants(data.draw(st.sampled_from(table3_corpus()))))
    try:
        record = validate_record(wire)
    except FeedbackError:
        return
    assert validate_record(record) == record


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_feedback_file_is_typed_or_refused(data):
    with tempfile.TemporaryDirectory() as tmp:
        store = FeedbackStore(tmp)
        store.append(table3_corpus()[:3])
        lines = store.path.read_text(encoding="utf-8").splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = json.dumps(data.draw(_mutants(json.loads(lines[i]))))
        store.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            records = FeedbackStore(tmp).records()
        except FeedbackError:
            return
        again = FeedbackStore(Path(tmp) / "again")
        again.append([{k: v for k, v in r.items() if k != "digest"} for r in records])
        assert again.records() == records


@functools.cache
def _rollout_states() -> tuple[dict, ...]:
    """The state file after a shadow pass (canary) and after a promote."""
    states = []
    with tempfile.TemporaryDirectory() as tmp:
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("REPRO_CANARY_FRACTION", "1.0")
                mp.setenv("REPRO_CANARY_MIN_SAMPLES", "1")
                mgr = RolloutManager(tmp)
            mgr.propose(_candidate(), table3_corpus())
            states.append(json.loads(mgr.state_path.read_bytes()))
            mgr.promote()
            states.append(json.loads(mgr.state_path.read_bytes()))
        finally:
            reset_active_params()
    return tuple(states)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rollout_state_file_is_typed_or_refused(data):
    state = data.draw(_mutants(data.draw(st.sampled_from(_rollout_states()))))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "rollout_state.json").write_text(json.dumps(state))
        try:
            status = RolloutManager(tmp).status()
        except RolloutError:
            return
        finally:
            reset_active_params()
        try:
            # Recovery reads the file, never rewrites it: a second start
            # recovers the same state.
            assert RolloutManager(tmp).status() == status
        finally:
            reset_active_params()

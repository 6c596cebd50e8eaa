"""Outside bytes are read through one typed reader (:mod:`repro.wire`).

Each case below is a request or file that a hand-written parser used to
let through: it escaped as a bare ``AttributeError``/``ValueError``/
``ZeroDivisionError`` (HTTP 500), or was served with a 200 under a value
no GPU has.  Now bad request bytes raise ``ProtocolError`` from the parser
and answer 400 over HTTP, the same operator wire in a registry entry raises
``EntryError``, and a ``GPUSpec`` refuses impossible hardware wherever it is
built.
"""

from __future__ import annotations

import copy
import http.client
import json
from dataclasses import replace

import pytest

from repro.calibrate import RolloutError, RolloutManager
from repro.configsel.selector import select_configurations
from repro.hardware.cost_model import CostModel
from repro.hardware.spec import V100
from repro.ir.dims import bert_large_dims
from repro.registry import ScheduleRegistry, build_entry
from repro.registry.entry import EntryError, graph_from_wire, graph_to_wire
from repro.service import ProtocolError, TuningService
from repro.service.fleet.coordinator import FleetService
from repro.service.protocol import (
    fleet_register_wire,
    gpu_to_wire,
    parse_fleet_heartbeat,
    parse_fleet_register,
    parse_optimize_request,
    parse_sweep_request,
    sweep_request_wire,
)
from repro.service.server import serve_background
from repro.transformer.graph_builder import build_mha_graph
from repro.wire import At, env_number

ENV = bert_large_dims()
CAP = 60


def _sweep_body() -> dict:
    """A sweep body whose GPU is spelled out in full (the builder names it)."""
    op = build_mha_graph(qkv_fusion="unfused", include_backward=False).op("q_proj")
    return {**sweep_request_wire(op, ENV, cap=CAP, seed=0), "gpu": gpu_to_wire(V100)}


def _with_gpu(**fields) -> dict:
    body = _sweep_body()
    body["gpu"].update(fields)
    return body


def _non_object_input() -> dict:
    body = _sweep_body()
    body["op"]["inputs"][1] = "x"
    return body


def _joined_dims() -> dict:
    """``["ph", "i"]`` spells the einsum term ``phi`` but names other dims."""
    body = _sweep_body()
    body["op"]["inputs"][0]["dims"] = ["ph", "i"]
    return body


#: Request bodies that a 200 or a 500 used to answer.
BAD_SWEEPS = {
    "non-object op input": _non_object_input,
    "multi-letter dims joined to an einsum term": _joined_dims,
    "gemm_tile entry not a number": lambda: _with_gpu(gemm_tile=["x", 1]),
    "zero gemm_tile": lambda: _with_gpu(gemm_tile=[0, 0]),
    "zero sm_count": lambda: _with_gpu(sm_count=0),
    "fractional sm_count": lambda: _with_gpu(sm_count=1.5),
    "boolean sm_count": lambda: _with_gpu(sm_count=True),
    "zero warp_size": lambda: _with_gpu(warp_size=0),
    "negative warp_size": lambda: _with_gpu(warp_size=-32),
    "negative mem_capacity": lambda: _with_gpu(mem_capacity=-1),
}

#: Raw JSON text: ``json.loads`` accepts the ``NaN``/``Infinity`` literals.
NON_FINITE = {
    "NaN mem_bandwidth": ('"mem_bandwidth": 900000000000.0', '"mem_bandwidth": NaN'),
    "Infinity mem_bandwidth": (
        '"mem_bandwidth": 900000000000.0',
        '"mem_bandwidth": Infinity',
    ),
    "NaN flop_per_point": ('"flop_per_point": 2.0', '"flop_per_point": NaN'),
}


def _non_finite_text(name: str) -> bytes:
    old, new = NON_FINITE[name]
    text = json.dumps(_sweep_body())
    assert old in text
    return text.replace(old, new).encode()


class TestRequestParsersRaiseProtocolError:
    @pytest.mark.parametrize("name", sorted(BAD_SWEEPS))
    def test_bad_sweep_body(self, name):
        with pytest.raises(ProtocolError):
            parse_sweep_request(BAD_SWEEPS[name]())

    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_non_finite_number(self, name):
        with pytest.raises(ProtocolError, match="finite"):
            parse_sweep_request(json.loads(_non_finite_text(name)))

    def test_non_object_input_names_its_path(self):
        with pytest.raises(ProtocolError, match=r"request\.op\.inputs\[1\]"):
            parse_sweep_request(_non_object_input())

    def test_string_false_is_not_a_boolean(self):
        with pytest.raises(ProtocolError, match="include_backward"):
            parse_optimize_request({"model": "mha", "include_backward": "false"})
        for parse, body in (
            (parse_fleet_register, {"worker_id": "w1", "url": "http://h:1"}),
            (parse_fleet_heartbeat, {"worker_id": "w1"}),
        ):
            with pytest.raises(ProtocolError, match="ready"):
                parse({**body, "ready": "false"})

    def test_valid_bodies_still_parse(self):
        req = parse_sweep_request(_sweep_body())
        assert req.gpu == V100 and req.cap == CAP
        assert parse_optimize_request({"include_backward": False}).include_backward is False
        wire = fleet_register_wire(worker_id="w1", url="http://h:1", ready=True)
        assert parse_fleet_register(wire)[2] is True


def test_registry_graph_raises_entry_error():
    wire = graph_to_wire(build_mha_graph(qkv_fusion="unfused", include_backward=False))
    assert graph_from_wire(copy.deepcopy(wire)).ops
    wire["ops"][0]["inputs"][0] = ["not", "an", "object"]
    with pytest.raises(EntryError, match=r"graph\.ops\[0\]\.inputs\[0\]"):
        graph_from_wire(wire)


class TestGPUSpecOwnsItsRanges:
    @pytest.mark.parametrize(
        "fields",
        [
            {"sm_count": 0},
            {"sm_count": 1.5},
            {"sm_count": True},
            {"warp_size": 0},
            {"warp_size": -32},
            {"gemm_tile": (0, 0)},
            {"gemm_tile": (256,)},
            {"mem_capacity": -1},
            {"mem_bandwidth": float("nan")},
            {"tensor_core_flops": float("inf")},
        ],
    )
    def test_impossible_hardware_is_refused(self, fields):
        with pytest.raises(ValueError):
            replace(V100, **fields)

    def test_free_launches_stay_legal(self):
        assert replace(V100, kernel_launch_us=0.0).kernel_launch_us == 0.0


def test_registered_selection_totals_and_chain_are_typed(tmp_path):
    """The validators sum ``transpose_us`` and walk ``chain``: a string
    total or a non-list chain is the request's fault (it escaped as a
    ``ValueError``/``TypeError`` 500), and a string ``chain_cost_us`` was
    stored."""
    graph = build_mha_graph(qkv_fusion="qkv", include_backward=False)
    cost = CostModel()
    entry = build_entry(
        graph, ENV, cost, select_configurations(graph, ENV, cost, cap=8), cap=8
    )
    svc = TuningService(
        store=None, registry=ScheduleRegistry(tmp_path), calibration_dir=None
    )
    for key, value in (("transpose_us", "x"), ("chain_cost_us", "x"), ("chain", 5)):
        wire = copy.deepcopy(entry.to_wire())
        wire["selection"][key] = value
        with pytest.raises(ProtocolError, match=rf"selection\.{key}"):
            svc.handle_register({"entry": wire})
    assert svc.handle_register({"entry": entry.to_wire()})["registered"]


def test_rollout_state_that_is_not_an_object_is_a_rollout_error(tmp_path):
    for text in ("[]", '"x"', "3"):
        (tmp_path / "rollout_state.json").write_text(text, encoding="utf-8")
        with pytest.raises(RolloutError, match="rollout state"):
            RolloutManager(tmp_path)


def test_env_number_reads_ints_and_floats(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_N", " 7 ")
    assert env_number("REPRO_TEST_N", 1, int) == 7
    monkeypatch.setenv("REPRO_TEST_N", "7.5")
    with pytest.raises(ValueError, match="REPRO_TEST_N must be an integer"):
        env_number("REPRO_TEST_N", 1, int)
    assert env_number("REPRO_TEST_UNSET", 0.25) == 0.25


def test_paths_are_rendered_only_from_the_place():
    at = At(KeyError, "request").at("op").at("inputs", 2)
    assert str(at) == "request.op.inputs[2]"
    with pytest.raises(KeyError, match=r"request\.op\.inputs\[2\]\.dims"):
        at.strings({"dims": [1]}, "dims")


# ---------------------------------------------------------------------------
# Over HTTP: 400, never 500
# ---------------------------------------------------------------------------


def _post(url: str, path: str, data: bytes) -> tuple[int, dict]:
    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request("POST", path, body=data, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def daemon_url():
    svc = TuningService(store=None, registry=None, calibration_dir=None)
    with serve_background(svc) as url:
        yield url


def test_bad_sweeps_answer_400(daemon_url):
    bodies = [json.dumps(make()).encode() for make in BAD_SWEEPS.values()]
    bodies += [_non_finite_text(name) for name in NON_FINITE]
    bodies.append(b"\xff\xfe not text")
    for data in bodies:
        status, reply = _post(daemon_url, "/v1/sweep", data)
        assert status == 400, (data[:80], reply)
    status, reply = _post(
        daemon_url, "/v1/optimize", b'{"model": "mha", "include_backward": "false"}'
    )
    assert status == 400 and "include_backward" in reply["error"]


def test_worker_saying_ready_false_as_a_string_is_refused():
    svc = FleetService(store=None, registry=None, calibration_dir=None)
    with serve_background(svc) as url:
        body = {"worker_id": "w1", "url": "http://127.0.0.1:1", "ready": "false"}
        status, reply = _post(url, "/v1/fleet/register", json.dumps(body).encode())
    assert status == 400 and "ready" in reply["error"]
    assert svc.workers.counts()["registered"] == 0

"""Tests for the content-addressed schedule registry (:mod:`repro.registry`).

Round trips (register → load → byte-identical entry → validation PASS) on
every optimize-able graph, digest stability pinned across freshly spawned
interpreters, recovery from corrupted and truncated entry files, and the
atomic-write guarantee under a concurrent register/validate hammer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.configsel.selector import select_configurations
from repro.engine import clear_sweep_memo
from repro.fusion import apply_paper_fusion
from repro.hardware.cost_model import COST_MODEL_VERSION, CostModel
from repro.ir.dims import bert_large_dims
from repro.registry import (
    REGISTRY_ENV_VAR,
    RegistryError,
    ScheduleEntry,
    ScheduleRegistry,
    build_entry,
    get_schedule_registry,
    register_selection,
    schedule_digest,
    set_schedule_registry,
)
from repro.registry import registry as registry_module
from repro.transformer.graph_builder import (
    build_encoder_graph,
    build_gpt_decoder_graph,
    build_mha_graph,
)
from repro.validation import validate_entry

ENV = bert_large_dims()
COST = CostModel()
CAP = 48


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_sweep_memo()
    yield
    clear_sweep_memo()


@pytest.fixture(autouse=True)
def _no_active_registry(monkeypatch):
    """Isolate the process-active registry/store globals from every test."""
    monkeypatch.setattr(registry_module, "_ACTIVE", registry_module._UNSET)
    monkeypatch.setattr(registry_module, "_DERIVED", None)
    monkeypatch.delenv(REGISTRY_ENV_VAR, raising=False)
    monkeypatch.setattr("repro.engine.store._ACTIVE", None)


def _mha_graph():
    return build_mha_graph(qkv_fusion="qkv", include_backward=False)


def _register_one(tmp_path, graph=None, cap=CAP):
    registry = ScheduleRegistry(tmp_path / "registry")
    graph = graph or _mha_graph()
    sel = select_configurations(graph, ENV, COST, cap=cap)
    entry = register_selection(registry, graph, ENV, COST, sel, cap=cap)
    return registry, graph, sel, entry


# ---------------------------------------------------------------------------
# The digest
# ---------------------------------------------------------------------------

def _digest(graph, env=ENV, *, cap=CAP, seed=1, version=COST.version, **knobs):
    return schedule_digest(
        graph, env, COST.gpu, cap=cap, seed=seed, version=version, **knobs
    )


class TestScheduleDigest:
    def test_digest_depends_on_every_knob(self):
        g = _mha_graph()
        base = _digest(g)
        assert _digest(g, seed=2) != base
        assert _digest(g, cap=CAP + 1) != base
        assert _digest(g, source="y") != base
        assert _digest(g, version=99) != base

    def test_digest_depends_on_graph_and_env(self):
        fwd = _digest(_mha_graph())
        both = _digest(build_mha_graph(qkv_fusion="qkv", include_backward=True))
        assert fwd != both
        assert _digest(_mha_graph(), bert_large_dims(batch=2, seq=64)) != fwd

    def test_digest_stable_across_fresh_interpreters(self):
        """Two spawned interpreters agree with each other and with us.

        The digest is the registry's address space: any dependence on hash
        randomization, dict order, or process state would orphan every
        previously registered schedule.
        """
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.hardware.cost_model import CostModel\n"
            "from repro.ir.dims import bert_large_dims\n"
            "from repro.registry import schedule_digest\n"
            "from repro.transformer.graph_builder import build_mha_graph\n"
            "g = build_mha_graph(qkv_fusion='qkv', include_backward=False)\n"
            f"print(schedule_digest(g, bert_large_dims(), CostModel().gpu, "
            f"cap={CAP}, seed=7, version=CostModel().version))\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                cwd="/root/repo",
            ).stdout.strip()
            for _ in range(2)
        ]
        local = _digest(_mha_graph(), seed=7)
        assert runs[0] == runs[1] == local


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

def _round_trip_graphs():
    yield "mha", build_mha_graph(qkv_fusion="qkv", include_backward=False)
    yield "encoder-unfused", build_encoder_graph(
        qkv_fusion="qkv", include_backward=False
    )
    yield "encoder-fused", apply_paper_fusion(
        build_encoder_graph(qkv_fusion="qkv", include_backward=False), ENV
    )
    yield "decoder", build_gpt_decoder_graph(include_backward=False)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "label,graph", list(_round_trip_graphs()), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_register_load_validate(self, tmp_path, label, graph):
        registry, graph, sel, entry = _register_one(tmp_path, graph, cap=40)
        assert entry.digest in registry

        loaded = registry.load(entry.digest)
        assert loaded is not None
        assert loaded.to_bytes() == entry.to_bytes()
        assert loaded.total_us == sel.total_us

        # The typed views reconstruct the exact selection.
        chosen = loaded.chosen_measurements()
        assert list(chosen) == list(sel.chosen)  # assignment order survives
        for name, m in sel.chosen.items():
            assert chosen[name].config == m.config
            assert chosen[name].time == m.time

        report = validate_entry(loaded, store=None)
        assert report.ok, report.summary()
        assert report.validators == ["structural", "cost", "staleness"]

    def test_entry_records_problem_and_provenance(self, tmp_path):
        registry, graph, sel, entry = _register_one(tmp_path)
        assert entry.cost_model_version == COST_MODEL_VERSION
        assert entry.knobs == {"cap": CAP, "seed": 0x5EED, "source": "x"}
        configured = {op.name for op in graph.ops if not op.is_view}
        assert set(entry.provenance["sweeps"]) == configured
        assert entry.provenance["registered_at"] > 0
        # The recorded env covers exactly the dims the graph uses.
        assert set(entry.env) <= set(ENV)

    def test_reregistering_same_problem_is_idempotent(self, tmp_path):
        registry, graph, sel, entry = _register_one(tmp_path)
        again = register_selection(registry, graph, ENV, COST, sel, cap=CAP)
        assert again.digest == entry.digest
        assert registry.digests() == [entry.digest]
        assert registry.stats()["registered"] == 2

    def test_miss_returns_none(self, tmp_path):
        registry = ScheduleRegistry(tmp_path / "registry")
        assert registry.load("0" * 64) is None
        assert registry.digests() == []
        assert registry.stats()["misses"] == 1


# ---------------------------------------------------------------------------
# Corruption recovery
# ---------------------------------------------------------------------------

class TestCorruptionRecovery:
    def test_truncated_file_raises_registry_error(self, tmp_path):
        registry, _, _, entry = _register_one(tmp_path)
        path = registry.path_for(entry.digest)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(RegistryError):
            registry.load(entry.digest)
        assert registry.stats()["rejected"] == 1

    def test_garbage_json_raises_registry_error(self, tmp_path):
        registry, _, _, entry = _register_one(tmp_path)
        registry.path_for(entry.digest).write_text("not json {")
        with pytest.raises(RegistryError, match="not valid JSON"):
            registry.load(entry.digest)

    def test_missing_fields_raise_registry_error(self, tmp_path):
        registry, _, _, entry = _register_one(tmp_path)
        wire = entry.to_wire()
        del wire["selection"]
        registry.path_for(entry.digest).write_text(json.dumps(wire))
        with pytest.raises(RegistryError, match="missing required fields"):
            registry.load(entry.digest)

    def test_tampered_problem_tuple_fails_hash_verification(self, tmp_path):
        """Editing anything the digest covers makes the file unloadable."""
        registry, _, _, entry = _register_one(tmp_path)
        wire = json.loads(entry.to_bytes())
        wire["knobs"]["seed"] = 12345
        registry.path_for(entry.digest).write_bytes(
            json.dumps(wire).encode()
        )
        with pytest.raises(RegistryError, match="does not hash to its address"):
            registry.load(entry.digest)

    def test_renamed_file_fails_declared_digest_check(self, tmp_path):
        registry, _, _, entry = _register_one(tmp_path)
        bogus = "f" * 64
        registry.path_for(entry.digest).rename(registry.path_for(bogus))
        with pytest.raises(RegistryError, match="declares digest"):
            registry.load(bogus)

    def test_entries_scan_survives_a_corrupt_entry(self, tmp_path):
        """One bad file must not hide the rest of the registry."""
        registry, graph, sel, good = _register_one(tmp_path)
        bad_digest = "b" * 64
        registry.path_for(bad_digest).write_text("torn")
        seen = dict(registry.entries())
        assert isinstance(seen[bad_digest], RegistryError)
        assert isinstance(seen[good.digest], ScheduleEntry)


# ---------------------------------------------------------------------------
# Concurrency: the daemon registering while the CLI validates
# ---------------------------------------------------------------------------

class TestConcurrency:
    def test_concurrent_register_and_validate_never_torn(self, tmp_path):
        """Writers re-register while readers load + validate, in parallel.

        The atomic temp-file + ``os.replace`` write means a reader sees
        either the previous complete entry or the new complete one; a
        ``RegistryError`` (torn read) or a failed validation here would be
        the race the fix closed.
        """
        registry, graph, sel, entry = _register_one(tmp_path)
        digest = entry.digest
        failures: list[str] = []

        def writer(_):
            for _ in range(10):
                register_selection(registry, graph, ENV, COST, sel, cap=CAP)

        def reader(_):
            for _ in range(10):
                try:
                    loaded = registry.load(digest)
                except RegistryError as exc:
                    failures.append(f"torn read: {exc}")
                    continue
                if loaded is None:
                    failures.append("entry vanished mid-race")
                    continue
                report = validate_entry(loaded, store=None)
                if not report.ok:
                    failures.append(report.summary())

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(writer, range(4)))
            list(pool.map(reader, range(4)))
            writes = [pool.submit(writer, i) for i in range(4)]
            reads = [pool.submit(reader, i) for i in range(4)]
            for f in writes + reads:
                f.result()
        assert failures == []
        assert not list(registry.root.glob("*.tmp"))  # no leaked temp files


# ---------------------------------------------------------------------------
# The process-active registry and the selection hook
# ---------------------------------------------------------------------------

class TestActiveRegistry:
    def test_resolution_order(self, tmp_path, monkeypatch):
        # Nothing configured: no registry.
        assert get_schedule_registry() is None

        # Env var names one.
        monkeypatch.setattr(registry_module, "_ACTIVE", registry_module._UNSET)
        monkeypatch.setenv(REGISTRY_ENV_VAR, str(tmp_path / "from-env"))
        from_env = get_schedule_registry()
        assert from_env is not None
        assert from_env.root == tmp_path / "from-env"

        # Explicit set wins over everything and is returned as-is.
        explicit = set_schedule_registry(tmp_path / "explicit")
        assert get_schedule_registry() is explicit

        # Explicit None disables, even with the env var present.
        set_schedule_registry(None)
        assert get_schedule_registry() is None

    def test_derived_from_sweep_store(self, tmp_path, monkeypatch):
        from repro.engine import set_sweep_store

        monkeypatch.setattr(registry_module, "_ACTIVE", registry_module._UNSET)
        store = set_sweep_store(tmp_path / "store")
        try:
            derived = get_schedule_registry()
            assert derived is not None
            assert derived.root == store.root / "registry"
            # Memoized: repeated lookups share the instance (stable counters).
            assert get_schedule_registry() is derived
        finally:
            set_sweep_store(None)

    def test_select_configurations_registers_when_asked(self, tmp_path):
        registry = ScheduleRegistry(tmp_path / "registry")
        graph = _mha_graph()
        sel = select_configurations(graph, ENV, COST, cap=CAP, register=registry)
        assert sel.registered_digest is not None
        loaded = registry.load(sel.registered_digest)
        assert loaded is not None
        assert loaded.total_us == sel.total_us
        assert loaded.provenance["registrar"] == "select_configurations"

    def test_select_configurations_skips_when_unconfigured(self):
        graph = _mha_graph()
        sel = select_configurations(graph, ENV, COST, cap=CAP, register=True)
        assert sel.registered_digest is None  # no active registry: a no-op

    def test_build_schedule_registers_selected_mode(self, tmp_path):
        from repro.baselines.policy import OURS
        from repro.baselines.schedule import build_schedule

        registry = ScheduleRegistry(tmp_path / "registry")
        graph = apply_paper_fusion(
            build_mha_graph(qkv_fusion="qkv", include_backward=False), ENV
        )
        schedule = build_schedule(
            graph, OURS, ENV, COST, cap=CAP, register=registry
        )
        digests = registry.digests()
        assert len(digests) == 1
        loaded = registry.load(digests[0])
        report = validate_entry(loaded, store=None)
        assert report.ok, report.summary()
        # The registered total is the selection's, before per-kernel overhead.
        overhead = OURS.per_kernel_overhead_us * len(loaded.selection["chosen"])
        assert schedule.total_us == pytest.approx(loaded.total_us + overhead)

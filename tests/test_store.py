"""Unit tests for the persistent sweep store (engine L2).

Round-trip exactness, stable digests, version-mismatch and corruption
rejection (``CacheMismatch``, recompute-and-overwrite, never silent reuse),
and the ``sweep_op`` / active-store integration.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import repro.engine.store as store_mod
from repro.autotuner.tuner import sweep_op_reference
from repro.engine import (
    clear_sweep_memo,
    set_sweep_store,
    sweep_digest,
    sweep_op,
    sweep_store_stats,
)
from repro.engine.store import (
    CacheMismatch,
    SweepStore,
    atomic_write,
    compute_payload,
    get_sweep_store,
)
from repro.engine.memo import new_payload_cache
from repro.engine.scheduler import DISABLE_STORE, local_evaluator, resolve
from repro.engine.sweep import sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.hardware.spec import A100
from repro.ir.dims import DimEnv, bert_large_dims
from repro.transformer.graph_builder import build_mha_graph

ENV = bert_large_dims()
COST = CostModel()


@pytest.fixture(autouse=True)
def _isolate_store_and_memo():
    """Each test runs with no active store and a cold memo."""
    clear_sweep_memo()
    old = get_sweep_store()
    set_sweep_store(None)
    yield
    set_sweep_store(old)
    clear_sweep_memo()


def _ops():
    g = build_mha_graph(qkv_fusion="unfused", include_backward=False)
    return g.op("q_proj"), g.op("softmax")


def _rewrite(path, edit):
    """Re-seal the container at ``path`` after ``edit(meta, arrays)`` changed
    its meta or (writeable copies of) its arrays: a well-formed file whose
    checksum holds, so only the payload checks can refuse it."""
    meta, arrays = store_mod._unseal(path.read_bytes(), str(path))
    arrays = {k: a.copy() for k, a in arrays.items()}
    edit(meta, arrays)
    path.write_bytes(store_mod._seal(meta, arrays))


def _resolve(op, env, store, *, cap, seed):
    """``(payload, tier)`` of one sweep through the tier chain, fresh L1."""
    digest = sweep_digest(op, env, COST, cap=cap, seed=seed)
    evaluate = local_evaluator(env, COST, cap=cap, seed=seed, store=store)
    return resolve(
        {digest: op},
        version=COST.version,
        l1=new_payload_cache(),
        store=store,
        evaluate=evaluate,
    )[digest]


def _assert_bit_identical(a, b):
    assert a.num_configs == b.num_configs
    for x, y in zip(a.measurements, b.measurements):
        assert x.config == y.config
        assert x.time.compute_us == y.time.compute_us
        assert x.time.memory_us == y.time.memory_us
        assert x.time.launch_us == y.time.launch_us


class TestRoundTrip:
    def test_contraction_round_trip_bit_identical(self, tmp_path):
        contraction, _ = _ops()
        store = SweepStore(tmp_path)
        digest = sweep_digest(contraction, ENV, COST, cap=200, seed=1)
        payload = compute_payload(contraction, ENV, COST, cap=200, seed=1)
        store.save(digest, payload)
        loaded = store.load(digest, COST.version)
        _assert_bit_identical(
            sweep_op_reference(contraction, ENV, COST, cap=200, seed=1),
            sweep_from_payload(contraction, loaded),
        )

    def test_kernel_round_trip_bit_identical(self, tmp_path):
        _, kernel = _ops()
        store = SweepStore(tmp_path)
        digest = sweep_digest(kernel, ENV, COST, cap=150, seed=7)
        payload = compute_payload(kernel, ENV, COST, cap=150, seed=7)
        store.save(digest, payload)
        loaded = store.load(digest, COST.version)
        _assert_bit_identical(
            sweep_op_reference(kernel, ENV, COST, cap=150, seed=7),
            sweep_from_payload(kernel, loaded),
        )

    def test_failed_atomic_write_keeps_the_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "entry.bin"
        atomic_write(path, lambda fh: fh.write(b"old"))

        def torn(fh):
            fh.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, torn, fsync=True)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.bin"]

    def test_missing_entry_is_clean_miss(self, tmp_path):
        store = SweepStore(tmp_path)
        assert store.load("0" * 64, COST.version) is None
        assert store.stats()["misses"] == 1


class TestDigests:
    def test_contraction_digest_is_name_free(self):
        contraction, _ = _ops()
        import dataclasses

        renamed = dataclasses.replace(contraction, name="other_proj")
        d1 = sweep_digest(contraction, ENV, COST, cap=100, seed=0)
        d2 = sweep_digest(renamed, ENV, COST, cap=100, seed=0)
        assert d1 == d2

    def test_kernel_digest_keeps_the_name(self):
        # Kernel jitter is keyed by OpConfig.key(), which embeds the op
        # name, so renamed kernels time differently and must not share.
        _, kernel = _ops()
        import dataclasses

        renamed = dataclasses.replace(kernel, name="other_softmax")
        d1 = sweep_digest(kernel, ENV, COST, cap=100, seed=0)
        d2 = sweep_digest(renamed, ENV, COST, cap=100, seed=0)
        assert d1 != d2

    def test_irrelevant_env_dims_do_not_change_the_digest(self):
        contraction, _ = _ops()
        bigger = DimEnv({**ENV.sizes, "zz": 123})
        assert sweep_digest(contraction, ENV, COST, cap=100, seed=0) == sweep_digest(
            contraction, bigger, COST, cap=100, seed=0
        )

    def test_relevant_env_dims_change_the_digest(self):
        contraction, _ = _ops()
        assert sweep_digest(contraction, ENV, COST, cap=100, seed=0) != sweep_digest(
            contraction, bert_large_dims(batch=16), COST, cap=100, seed=0
        )

    def test_gpu_changes_the_digest(self):
        contraction, _ = _ops()
        assert sweep_digest(contraction, ENV, COST, cap=100, seed=0) != sweep_digest(
            contraction, ENV, CostModel(A100), cap=100, seed=0
        )

    def test_contraction_digest_ignores_sampling_knobs(self):
        contraction, _ = _ops()
        assert sweep_digest(contraction, ENV, COST, cap=50, seed=1) == sweep_digest(
            contraction, ENV, COST, cap=None, seed=99
        )

    def test_kernel_digest_tracks_binding_knobs_only(self):
        _, kernel = _ops()
        # Binding cap (space is larger than 60): cap and seed matter.
        assert sweep_digest(kernel, ENV, COST, cap=60, seed=1) != sweep_digest(
            kernel, ENV, COST, cap=60, seed=2
        )
        # Non-binding caps are all "exhaustive" and share one digest.
        assert sweep_digest(kernel, ENV, COST, cap=10**9, seed=1) == sweep_digest(
            kernel, ENV, COST, cap=None, seed=2
        )


class TestRejection:
    def _saved(self, tmp_path):
        contraction, _ = _ops()
        store = SweepStore(tmp_path)
        digest = sweep_digest(contraction, ENV, COST, cap=100, seed=0)
        store.save(digest, compute_payload(contraction, ENV, COST, cap=100, seed=0))
        return contraction, store, digest

    def _tamper_meta(self, store, digest, **changes):
        _rewrite(store.path_for(digest), lambda meta, _arrays: meta.update(changes))

    def test_version_mismatch_raises(self, tmp_path):
        _, store, digest = self._saved(tmp_path)
        self._tamper_meta(store, digest, version=-1)
        with pytest.raises(CacheMismatch, match="cost model version"):
            store.load(digest, COST.version)
        assert store.stats()["rejected"] == 1

    def test_format_mismatch_raises(self, tmp_path):
        _, store, digest = self._saved(tmp_path)
        self._tamper_meta(store, digest, format=999)
        with pytest.raises(CacheMismatch, match="payload format"):
            store.load(digest, COST.version)

    def test_digest_mismatch_raises(self, tmp_path):
        # An entry copied under the wrong name never masquerades.
        _, store, digest = self._saved(tmp_path)
        other = digest[:32] + "f" * 32  # same directory, wrong name
        store.path_for(digest).rename(store.path_for(other))
        with pytest.raises(CacheMismatch, match="digest"):
            store.load(other, COST.version)

    def test_corrupt_bytes_raise(self, tmp_path):
        _, store, digest = self._saved(tmp_path)
        store.path_for(digest).write_bytes(b"not a sweep payload at all")
        with pytest.raises(CacheMismatch, match="corrupt"):
            store.load(digest, COST.version)

    def test_truncated_file_raises(self, tmp_path):
        _, store, digest = self._saved(tmp_path)
        path = store.path_for(digest)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CacheMismatch):
            store.load(digest, COST.version)

    def test_inconsistent_arrays_raise(self, tmp_path):
        _, store, digest = self._saved(tmp_path)

        def shorten(_meta, arrays):  # timing arrays shorter than order
            arrays["compute_us"] = arrays["compute_us"][:-1]
            arrays["memory_us"] = arrays["memory_us"][:-1]

        _rewrite(store.path_for(digest), shorten)
        with pytest.raises(CacheMismatch, match="inconsistent length"):
            store.load(digest, COST.version)

    def test_out_of_range_permutation_raises(self, tmp_path):
        _, store, digest = self._saved(tmp_path)

        def corrupt(_meta, arrays):  # corrupt sort order
            arrays["order"][0] = len(arrays["order"]) + 5

        _rewrite(store.path_for(digest), corrupt)
        with pytest.raises(CacheMismatch, match="permutation"):
            store.load(digest, COST.version)

    def test_negative_triple_index_raises(self, tmp_path):
        # Negative indices would silently index from the end in config_at.
        _, store, digest = self._saved(tmp_path)
        _rewrite(
            store.path_for(digest),
            lambda _meta, arrays: arrays["triple_idx"].__setitem__(0, -2),
        )
        with pytest.raises(CacheMismatch, match="triple index"):
            store.load(digest, COST.version)

    def test_corrupt_kernel_knob_index_raises(self, tmp_path):
        _, kernel = _ops()
        store = SweepStore(tmp_path)
        digest = sweep_digest(kernel, ENV, COST, cap=80, seed=0)
        store.save(digest, compute_payload(kernel, ENV, COST, cap=80, seed=0))
        # First knob (stored one row per knob), way past its table.
        _rewrite(
            store.path_for(digest),
            lambda _meta, arrays: arrays["idx"].__setitem__((0, 0), 10**6),
        )
        with pytest.raises(CacheMismatch, match="knob index"):
            store.load(digest, COST.version)

    @pytest.mark.parametrize(
        "field", [0, 8, 12], ids=["magic", "meta-length", "checksum"]
    )
    def test_corrupt_header_is_a_mismatch_then_recomputed(self, tmp_path, field):
        from repro.service.protocol import ProtocolError, payload_from_packed

        contraction, store, digest = self._saved(tmp_path)
        path = store.path_for(digest)
        data = bytearray(path.read_bytes())
        data[field] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CacheMismatch, match="corrupt"):
            store.load(digest, COST.version)
        with pytest.raises(ProtocolError):
            payload_from_packed(bytes(data), digest=digest, version=COST.version)
        _, tier = _resolve(contraction, ENV, store, cap=100, seed=0)
        assert tier == "computed"
        assert store.load(digest, COST.version) is not None

    @pytest.mark.parametrize(
        "launch", ["0.5", [0.5], True, None, float("nan")], ids=repr
    )
    def test_launch_time_must_be_a_finite_number(self, tmp_path, launch):
        _, store, digest = self._saved(tmp_path)
        self._tamper_meta(store, digest, launch_us=launch)
        with pytest.raises(CacheMismatch, match="launch time"):
            store.load(digest, COST.version)

    def test_store_root_expands_tilde(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        store = SweepStore("~/sweeps")
        assert store.root == tmp_path / "sweeps"

    def test_bad_entries_are_recomputed_and_overwritten(self, tmp_path):
        contraction, store, digest = self._saved(tmp_path)
        store.path_for(digest).write_bytes(b"garbage")
        payload, tier = _resolve(contraction, ENV, store, cap=100, seed=0)
        assert tier == "computed"
        _assert_bit_identical(
            sweep_op_reference(contraction, ENV, COST, cap=100, seed=0),
            sweep_from_payload(contraction, payload),
        )
        # The overwritten entry is valid again.
        assert store.load(digest, COST.version) is not None

    @pytest.mark.parametrize(
        "table, edit",
        [
            ("structures", lambda s: "bogus"),
            ("structures", lambda s: s + [False]),
            ("structures", lambda s: [["nope"], *s[1:]]),
            ("warp_choices", lambda w: "nope"),
        ],
        ids=["not-a-list", "seven-fields", "unknown-dim", "unknown-warp-dim"],
    )
    def test_malformed_twin_table_falls_back_to_cold(self, tmp_path, table, edit):
        contraction, kernel = _ops()
        op = contraction if table == "structures" else kernel
        store = SweepStore(tmp_path)
        digest = sweep_digest(op, ENV, COST, cap=100, seed=0)
        store.save(digest, compute_payload(op, ENV, COST, cap=100, seed=0))
        entries = store.load(digest, COST.version)[table]
        self._tamper_meta(store, digest, **{table: [edit(entries[0]), *entries[1:]]})
        env = bert_large_dims(seq=513)
        payload, tier = _resolve(op, env, store, cap=100, seed=0)
        assert tier == "computed"
        _assert_bit_identical(
            sweep_op_reference(op, env, COST, cap=100, seed=0),
            sweep_from_payload(op, payload),
        )


def _order_zeros(payload):
    payload["order"] = np.zeros_like(payload["order"])


def _order_reversed(payload):
    payload["order"] = payload["order"][::-1].copy()


def _ties_reversed(payload):
    payload["compute_us"] = np.zeros_like(payload["compute_us"])
    payload["memory_us"] = np.zeros_like(payload["memory_us"])
    payload["order"] = np.arange(len(payload["order"]))[::-1].copy()


class TestSortOrderIsChecked:
    """A well-formed payload whose ranking is wrong is rejected on read:
    ``order`` must be the stable sort of the totals derived from ``F``."""

    MUTATIONS = {
        "not a permutation": _order_zeros,
        "totals decrease": _order_reversed,
        "not stable within ties": _ties_reversed,
    }

    @staticmethod
    def _tampered(mutate):
        _, kernel = _ops()
        digest = sweep_digest(kernel, ENV, COST, cap=80, seed=0)
        payload = compute_payload(kernel, ENV, COST, cap=80, seed=0)
        mutate(payload)
        return digest, payload

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_store_load_rejects(self, tmp_path, mutation):
        digest, payload = self._tampered(self.MUTATIONS[mutation])
        store = SweepStore(tmp_path)
        store.save(digest, payload)
        with pytest.raises(CacheMismatch, match=mutation):
            store.load(digest, COST.version)

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_packed_decode_rejects(self, mutation):
        from repro.engine.store import pack_payload_bytes
        from repro.service.protocol import ProtocolError, payload_from_packed

        digest, payload = self._tampered(self.MUTATIONS[mutation])
        with pytest.raises(ProtocolError, match=mutation):
            payload_from_packed(
                pack_payload_bytes(digest, payload), digest=digest, version=COST.version
            )


class TestSweepOpIntegration:
    def test_sweep_op_populates_and_reuses_the_store(self, tmp_path):
        contraction, _ = _ops()
        store = SweepStore(tmp_path)
        first = sweep_op(contraction, ENV, COST, cap=100, store=store)
        assert store.stats()["saves"] == 1
        clear_sweep_memo()  # simulate a fresh process: L1 gone, L2 warm
        second = sweep_op(contraction, ENV, COST, cap=100, store=store)
        assert store.stats()["hits"] == 1
        assert second is not first
        _assert_bit_identical(first, second)

    def test_disable_store_bypasses_the_active_store(self, tmp_path):
        contraction, _ = _ops()
        store = SweepStore(tmp_path)
        set_sweep_store(store)
        sweep_op(contraction, ENV, COST, cap=100, store=DISABLE_STORE)
        assert store.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "saves": 0, "rejected": 0,
            "evictions": 0, "delta_hits": 0,
        }

    def test_active_store_resolves_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.STORE_ENV_VAR, str(tmp_path / "s"))
        store_mod._ACTIVE = store_mod._UNSET
        store = get_sweep_store()
        assert isinstance(store, SweepStore)
        assert store.root == tmp_path / "s"

    def test_stats_without_store_are_zero(self):
        assert sweep_store_stats() == {
            "entries": 0, "hits": 0, "misses": 0, "saves": 0, "rejected": 0,
            "evictions": 0, "delta_hits": 0,
        }


class TestEviction:
    """Size-bounded LRU eviction (``max_bytes``) for long-lived daemons."""

    def _payloads(self, n: int):
        """n distinct (digest, payload) pairs of near-identical size."""
        _, kernel = _ops()
        out = []
        for seed in range(n):
            digest = sweep_digest(kernel, ENV, COST, cap=40, seed=seed)
            out.append((digest, compute_payload(kernel, ENV, COST, cap=40, seed=seed)))
        return out

    def _entry_size(self, tmp_path) -> int:
        (digest, payload), = self._payloads(1)
        probe = SweepStore(tmp_path / "probe")
        return probe.save(digest, payload).stat().st_size

    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            SweepStore(tmp_path, max_bytes=0)
        with pytest.raises(ValueError, match="max_bytes"):
            SweepStore(tmp_path, max_bytes=-5)

    def test_oldest_mtime_entry_evicted_over_budget(self, tmp_path):
        import os
        import time

        size = self._entry_size(tmp_path)
        store = SweepStore(tmp_path / "s", max_bytes=2 * size + size // 2)
        (d1, p1), (d2, p2), (d3, p3) = self._payloads(3)
        path1 = store.save(d1, p1)
        path2 = store.save(d2, p2)
        now = time.time()
        os.utime(path1, (now - 300, now - 300))  # d1 is the LRU entry
        os.utime(path2, (now - 100, now - 100))
        store.save(d3, p3)
        assert store.load(d1, COST.version) is None  # evicted
        assert store.load(d2, COST.version) is not None
        assert store.load(d3, COST.version) is not None
        assert store.stats()["evictions"] == 1
        assert store.stats()["entries"] == 2

    def test_load_refreshes_mtime_so_eviction_is_lru(self, tmp_path):
        import os
        import time

        size = self._entry_size(tmp_path)
        store = SweepStore(tmp_path / "s", max_bytes=2 * size + size // 2)
        (d1, p1), (d2, p2), (d3, p3) = self._payloads(3)
        path1 = store.save(d1, p1)
        path2 = store.save(d2, p2)
        now = time.time()
        os.utime(path1, (now - 300, now - 300))
        os.utime(path2, (now - 600, now - 600))  # d2 older than d1 on disk...
        # ...but recently *used*: its mtime refreshes to now
        store.load(d2, COST.version)
        store.save(d3, p3)
        assert store.load(d1, COST.version) is None  # d1 is the least recently used
        assert store.load(d2, COST.version) is not None
        assert store.load(d3, COST.version) is not None

    def test_just_written_entry_survives_even_a_tiny_budget(self, tmp_path):
        store = SweepStore(tmp_path / "s", max_bytes=1)
        (d1, p1), (d2, p2) = self._payloads(2)
        store.save(d1, p1)
        store.save(d2, p2)  # evicts d1, keeps itself despite the budget
        assert store.load(d2, COST.version) is not None
        assert store.stats()["entries"] == 1
        assert store.stats()["evictions"] == 1

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        for digest, payload in self._payloads(3):
            store.save(digest, payload)
        assert store.stats()["entries"] == 3
        assert store.stats()["evictions"] == 0

    def test_flat_leftovers_of_older_layouts_count_and_age_out(self, tmp_path):
        import os
        import time

        size = self._entry_size(tmp_path)
        store = SweepStore(tmp_path / "s", max_bytes=size + size // 2)
        (d1, p1), (d2, p2) = self._payloads(2)
        flat = store.root / f"{d1}.npz"  # where a format-2 store kept it
        flat.parent.mkdir(parents=True)
        flat.write_bytes(store.save(d1, p1).read_bytes())
        store.path_for(d1).unlink()
        os.utime(flat, (time.time() - 60, time.time() - 60))
        assert store.stats()["entries"] == 1
        store.save(d2, p2)
        assert not flat.exists()
        assert store.stats()["entries"] == 1
        assert store.stats()["evictions"] == 1

    def test_eviction_preserves_surviving_payloads(self, tmp_path):
        _, kernel = _ops()
        size = self._entry_size(tmp_path)
        store = SweepStore(tmp_path / "s", max_bytes=size + size // 2)
        import os
        import time

        (d1, p1), (d2, p2) = self._payloads(2)
        path1 = store.save(d1, p1)
        os.utime(path1, (time.time() - 60, time.time() - 60))
        store.save(d2, p2)
        _assert_bit_identical(
            sweep_op_reference(kernel, ENV, COST, cap=40, seed=1),
            sweep_from_payload(kernel, store.load(d2, COST.version)),
        )


    def test_a_format_4_entry_is_evicted_first_and_never_read(self, tmp_path):
        # A budgeted store upgraded in place: its format-4 files keep their
        # ``.npz`` suffix, count against the budget and age out first, and
        # their digests are clean misses, not a CacheMismatch cascade.
        import os
        import time

        size = self._entry_size(tmp_path)
        store = SweepStore(tmp_path / "s", max_bytes=2 * size + size // 2)
        (d1, p1), (d2, p2) = self._payloads(2)
        legacy = store.path_for(d1).with_suffix(store_mod.LEGACY_SUFFIX)
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(b"PK\x03\x04" + bytes(size))  # a format-4 zip
        os.utime(legacy, (time.time() - 60, time.time() - 60))
        assert store.stats()["entries"] == 1
        assert store.load(d1, COST.version) is None
        assert store.load_structural(d1[:32], COST.version) is None
        assert store.stats()["misses"] == 1 and store.stats()["rejected"] == 0
        store.save(d1, p1)
        store.save(d2, p2)  # over budget: the legacy file goes, not an entry
        assert not legacy.exists()
        assert store.stats()["evictions"] == 1
        assert store.load(d1, COST.version) is not None
        assert store.load(d2, COST.version) is not None


class TestContainer:
    """The decoded form: read-only, contiguous views of the stored file."""

    @staticmethod
    def _decoded(tmp_path, op, cap):
        from repro.engine.store import pack_payload_bytes
        from repro.service.protocol import payload_from_packed

        store = SweepStore(tmp_path)
        digest = sweep_digest(op, ENV, COST, cap=cap, seed=0)
        path = store.save(digest, compute_payload(op, ENV, COST, cap=cap, seed=0))
        loaded = store.load(digest, COST.version)
        unpacked = payload_from_packed(
            path.read_bytes(), digest=digest, version=COST.version
        )
        assert pack_payload_bytes(digest, loaded) == path.read_bytes()
        assert pack_payload_bytes(digest, unpacked) == path.read_bytes()
        return loaded, unpacked

    @pytest.mark.parametrize("which", ["contraction", "kernel"])
    def test_index_arrays_are_contiguous(self, tmp_path, which):
        contraction, kernel = _ops()
        op = contraction if which == "contraction" else kernel
        for payload in self._decoded(tmp_path, op, 80):
            columns = [payload["order"]]
            if which == "kernel":
                columns += list(payload["idx"].T)
            else:
                columns += [payload[k] for k in ("triple_idx", "algos", "tc_flags")]
                columns += list(payload["triple_layouts"])
            assert all(c.strides[0] == c.itemsize for c in columns)

    @pytest.mark.parametrize("which", ["contraction", "kernel"])
    def test_decoded_arrays_are_read_only(self, tmp_path, which):
        contraction, kernel = _ops()
        op = contraction if which == "contraction" else kernel
        for payload in self._decoded(tmp_path, op, 80):
            arrays = [
                k for k, v in payload.items()
                if isinstance(v, np.ndarray) and k != "_sorted_totals"
            ]
            assert len(arrays) >= 5
            for key in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    payload[key][..., :1] = 0

    def test_consumers_never_write_into_a_decoded_payload(self, tmp_path):
        # Materializing, ranking and selecting over store-loaded sweeps:
        # an in-place write into a payload array would raise here.
        from repro.configsel.selector import select_configurations
        from repro.engine import sweep_graph
        from repro.transformer.graph_builder import build_encoder_graph

        store = SweepStore(tmp_path)
        graph = build_encoder_graph()
        cold = sweep_graph(graph, ENV, COST, cap=60, jobs=1, store=store)
        clear_sweep_memo()
        saved = store.stats()["saves"]
        warm = sweep_graph(graph, ENV, COST, cap=60, jobs=1, store=store)
        assert store.stats()["hits"] == saved
        for name, sweep in warm.items():
            _assert_bit_identical(cold[name], sweep)
        picks = [
            select_configurations(graph, ENV, COST, sweeps=s, cap=60, jobs=1)
            for s in (cold, warm)
        ]
        assert picks[0].chosen == picks[1].chosen


class TestTwinByPath:
    """Structural twins live in, and are found by, their digest's directory."""

    def _warm(self, store, *, seq=512, cap=100, seed=3):
        contraction, _ = _ops()
        env = bert_large_dims(seq=seq)
        digest = sweep_digest(contraction, env, COST, cap=cap, seed=seed)
        structural = store_mod.structural_sweep_digest(
            contraction, env, COST, cap=cap, seed=seed
        )
        store.save(digest, compute_payload(contraction, env, COST, cap=cap, seed=seed))
        return contraction, env, digest, structural

    def test_entries_live_under_their_structural_directory(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, d512, s512 = self._warm(store, seq=512)
        _, _, d513, s513 = self._warm(store, seq=513)
        assert s512 == s513 and d512 != d513
        assert d512[:32] == d513[:32] == s512
        suffix = store_mod.SUFFIX
        assert store.path_for(d512) == tmp_path / s512 / f"{d512}{suffix}"
        assert sorted(p.name for p in (tmp_path / s512).iterdir()) == sorted(
            [f"{d512}{suffix}", f"{d513}{suffix}"]
        )

    def test_fresh_store_finds_a_twin_with_no_index_file(self, tmp_path):
        _, _, _, structural = self._warm(SweepStore(tmp_path))
        # Nothing but entry directories holding entry files.
        files = {p.suffix for p in tmp_path.rglob("*") if p.is_file()}
        assert files == {store_mod.SUFFIX}
        payload = SweepStore(tmp_path).load_structural(structural, COST.version)
        assert payload is not None
        assert "structural" not in payload

    def test_corrupt_twin_is_skipped_and_a_sibling_served(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, d512, structural = self._warm(store, seq=512)
        _, _, d513, _ = self._warm(store, seq=513)
        first = min(d512, d513)  # listed first
        store.path_for(first).write_bytes(b"garbage")
        payload = store.load_structural(structural, COST.version)
        assert payload is not None and payload["digest"] == max(d512, d513)

    def test_evicted_twin_is_a_clean_miss(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, digest, structural = self._warm(store)
        size = store.path_for(digest).stat().st_size
        import os
        import time

        bounded = SweepStore(tmp_path, max_bytes=size)
        os.utime(store.path_for(digest), (time.time() - 300, time.time() - 300))
        # Saving a structurally different op over budget evicts the twin.
        _, kernel = _ops()
        kd = sweep_digest(kernel, ENV, COST, cap=40, seed=0)
        bounded.save(kd, compute_payload(kernel, ENV, COST, cap=40, seed=0))
        assert not store.path_for(digest).exists()
        assert bounded.stats()["evictions"] == 1
        assert bounded.load_structural(structural, COST.version) is None
        assert store.load_structural("0" * 32, COST.version) is None  # no directory

    def test_stem_outside_its_directory_prefix_is_refused(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, digest, structural = self._warm(store)
        path = store.path_for(digest)
        # A valid entry of another structural digest, moved into this
        # directory under its own (consistent) name, is not a twin.
        stranger = "e" * 64
        payload = store.load(digest, COST.version)
        store.save(stranger, payload)
        path.unlink()
        store.path_for(stranger).rename(path.parent / f"{stranger}{store_mod.SUFFIX}")
        assert store.load_structural(structural, COST.version) is None

    def test_stray_temp_file_in_a_twin_directory_is_ignored(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, digest, structural = self._warm(store)
        stray = store.path_for(digest).parent / f"{structural}0{store_mod.SUFFIX}.tmp"
        stray.write_bytes(b"torn")
        assert sorted(p.name for p in stray.parent.iterdir())[0] == stray.name
        payload = store.load_structural(structural, COST.version)
        assert payload is not None and payload["digest"] == digest
        assert store.stats()["entries"] == 1


class TestOneStoreMechanism:
    """CI guard: the path is the only twin index, one routine evaluates, and
    one reader decodes what the file holds."""

    SOURCE = Path(store_mod.__file__).read_text()
    SRC = Path(store_mod.__file__).parents[1]

    @pytest.mark.parametrize("name", ["structural.json", "_index", "INDEX_NAME"])
    def test_no_sidecar_index(self, name):
        assert name not in self.SOURCE

    @pytest.mark.parametrize("name", ["evaluate_contraction", "evaluate_kernel"])
    def test_cold_and_delta_share_one_evaluation(self, name):
        assert self.SOURCE.count(f"{name}(") == 1

    def test_one_reader_validates(self):
        # The definition and the one call, in read_payload.
        assert self.SOURCE.count("_validate_payload(") == 2
        assert not [
            p for p in self.SRC.rglob("*.py") if "skeleton_only" in p.read_text()
        ]

    def test_payload_keys_stay_inside_the_engine(self):
        import re

        pattern = re.compile(
            r"_validate_payload|(\[|\.get\()\s*[\"'](order|sorted_totals)[\"']"
        )
        assert not [
            p.relative_to(self.SRC)
            for p in self.SRC.rglob("*.py")
            if p.parent.name != "engine" and pattern.search(p.read_text())
        ]

    def test_the_time_matrix_holds_compute_and_memory_only(self, tmp_path):
        _, kernel = _ops()
        digest = sweep_digest(kernel, ENV, COST, cap=80, seed=0)
        payload = compute_payload(kernel, ENV, COST, cap=80, seed=0)
        store = SweepStore(tmp_path)
        path = store.save(digest, payload)
        meta, arrays = store_mod._unseal(path.read_bytes(), str(path))
        assert list(arrays) == ["compute_us", "memory_us", "order", "idx", "units"]
        assert not [k for k in [*meta, *arrays] if "totals" in k]
        # Derived on decode exactly as on evaluation.
        loaded = store.load(digest, COST.version)
        totals = payload["launch_us"] + np.maximum(
            payload["compute_us"], payload["memory_us"]
        )
        for p in (payload, loaded):
            assert np.array_equal(store_mod.sorted_totals(p), totals[p["order"]])

    def test_a_format_3_entry_is_rejected_then_recomputed(self, tmp_path):
        contraction, _ = _ops()
        store = SweepStore(tmp_path)
        digest = sweep_digest(contraction, ENV, COST, cap=100, seed=0)
        payload = compute_payload(contraction, ENV, COST, cap=100, seed=0)
        path = store.save(digest, payload)
        _rewrite(path, lambda meta, _arrays: meta.update(format=3))
        with pytest.raises(CacheMismatch, match="payload format 3"):
            store.load(digest, COST.version)
        _, tier = _resolve(contraction, ENV, store, cap=100, seed=0)
        assert tier == "computed"
        assert store.load(digest, COST.version)["format"] == store_mod.PAYLOAD_FORMAT


class TestDeltaResweep:
    """The delta tier: rebuild a perturbed-size payload from a twin."""

    def test_twin_in_the_store_yields_a_delta_payload(self, tmp_path):
        from repro.engine.sweep import delta_payload_from_store

        contraction, _ = _ops()
        store = SweepStore(tmp_path)
        env512 = bert_large_dims(seq=512)
        env513 = bert_large_dims(seq=513)
        d512 = sweep_digest(contraction, env512, COST, cap=100, seed=5)
        store.save(d512, compute_payload(contraction, env512, COST, cap=100, seed=5))
        delta = delta_payload_from_store(
            contraction, env513, COST, cap=100, seed=5, store=store
        )
        assert delta is not None
        assert store.stats()["delta_hits"] == 1
        # Bit-identical to the cold scalar reference at the new sizes.
        _assert_bit_identical(
            sweep_op_reference(contraction, env513, COST, cap=100, seed=5),
            sweep_from_payload(contraction, delta),
        )

    def test_delta_result_persists_under_the_exact_digest(self, tmp_path):
        contraction, _ = _ops()
        store = SweepStore(tmp_path)
        env512 = bert_large_dims(seq=512)
        env513 = bert_large_dims(seq=513)
        d512 = sweep_digest(contraction, env512, COST, cap=100, seed=6)
        d513 = sweep_digest(contraction, env513, COST, cap=100, seed=6)
        store.save(d512, compute_payload(contraction, env512, COST, cap=100, seed=6))
        _, tier = _resolve(contraction, env513, store, cap=100, seed=6)
        assert tier == "delta"
        assert store.stats()["delta_hits"] == 1
        assert store.path_for(d513).exists()
        # And round-trips exactly through a plain exact-digest load.
        _assert_bit_identical(
            sweep_op_reference(contraction, env513, COST, cap=100, seed=6),
            sweep_from_payload(contraction, store.load(d513, COST.version)),
        )

    def test_knob_change_is_not_a_structural_twin(self, tmp_path):
        from repro.engine.sweep import delta_payload_from_store

        contraction, kernel = _ops()
        store = SweepStore(tmp_path)
        env = bert_large_dims()
        # A capped kernel sweep's sampled rows depend on (cap, seed), so
        # those knobs are structural: changing either is a different
        # problem, not a twin.
        kd = sweep_digest(kernel, env, COST, cap=40, seed=9)
        store.save(kd, compute_payload(kernel, env, COST, cap=40, seed=9))
        assert delta_payload_from_store(
            kernel, env, COST, cap=40, seed=10, store=store
        ) is None
        assert delta_payload_from_store(
            kernel, env, COST, cap=20, seed=9, store=store
        ) is None
        # The GPU spec is structural for every op class.
        cd = sweep_digest(contraction, env, COST, cap=100, seed=9)
        store.save(cd, compute_payload(contraction, env, COST, cap=100, seed=9))
        assert delta_payload_from_store(
            contraction, env, CostModel(A100), cap=100, seed=9, store=store
        ) is None


class TestEnvBudget:
    def test_env_var_sets_the_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.MAX_BYTES_ENV_VAR, "12345")
        store = set_sweep_store(tmp_path / "s")
        assert store.max_bytes == 12345

    def test_env_var_resolves_on_first_get(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.STORE_ENV_VAR, str(tmp_path / "s"))
        monkeypatch.setenv(store_mod.MAX_BYTES_ENV_VAR, "777")
        store_mod._ACTIVE = store_mod._UNSET
        assert get_sweep_store().max_bytes == 777

    def test_nonpositive_env_budget_means_unbounded(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.MAX_BYTES_ENV_VAR, "0")
        assert set_sweep_store(tmp_path / "s").max_bytes is None

    def test_malformed_env_budget_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.MAX_BYTES_ENV_VAR, "lots")
        with pytest.raises(ValueError, match=store_mod.MAX_BYTES_ENV_VAR):
            set_sweep_store(tmp_path / "s")

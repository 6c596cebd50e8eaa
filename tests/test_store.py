"""Unit tests for the persistent sweep store (engine L2).

Round-trip exactness, stable digests, version-mismatch and corruption
rejection (``CacheMismatch``, recompute-and-overwrite, never silent reuse),
and the ``sweep_op`` / active-store integration.
"""

from __future__ import annotations

import json

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
    compute_payload,
    get_sweep_store,
)
from repro.engine.memo import new_payload_cache
from repro.engine.scheduler import local_evaluator, resolve
from repro.engine.sweep import sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.hardware.spec import A100
from repro.ir.dims import DimEnv, bert_large_dims
from repro.transformer.graph_builder import build_mha_graph

ENV = bert_large_dims()
COST = CostModel()
GPU = COST.gpu


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


def _resolve(op, env, store, *, cap, seed):
    """``(payload, tier)`` of one sweep through the tier chain, fresh L1."""
    digest = sweep_digest(op, env, GPU, cap=cap, seed=seed)
    evaluate = local_evaluator(env, GPU, cap=cap, seed=seed, store=store)
    return resolve(
        {digest: op}, l1=new_payload_cache(), store=store, evaluate=evaluate
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
        digest = sweep_digest(contraction, ENV, GPU, cap=200, seed=1)
        payload = compute_payload(contraction, ENV, GPU, cap=200, seed=1)
        store.save(digest, payload)
        loaded = store.load(digest)
        _assert_bit_identical(
            sweep_op_reference(contraction, ENV, COST, cap=200, seed=1),
            sweep_from_payload(contraction, loaded),
        )

    def test_kernel_round_trip_bit_identical(self, tmp_path):
        _, kernel = _ops()
        store = SweepStore(tmp_path)
        digest = sweep_digest(kernel, ENV, GPU, cap=150, seed=7)
        payload = compute_payload(kernel, ENV, GPU, cap=150, seed=7)
        store.save(digest, payload)
        loaded = store.load(digest)
        _assert_bit_identical(
            sweep_op_reference(kernel, ENV, COST, cap=150, seed=7),
            sweep_from_payload(kernel, loaded),
        )

    def test_missing_entry_is_clean_miss(self, tmp_path):
        store = SweepStore(tmp_path)
        assert store.load("0" * 64) is None
        assert store.stats()["misses"] == 1


class TestDigests:
    def test_contraction_digest_is_name_free(self):
        contraction, _ = _ops()
        import dataclasses

        renamed = dataclasses.replace(contraction, name="other_proj")
        d1 = sweep_digest(contraction, ENV, GPU, cap=100, seed=0)
        d2 = sweep_digest(renamed, ENV, GPU, cap=100, seed=0)
        assert d1 == d2

    def test_kernel_digest_keeps_the_name(self):
        # Kernel jitter is keyed by OpConfig.key(), which embeds the op
        # name, so renamed kernels time differently and must not share.
        _, kernel = _ops()
        import dataclasses

        renamed = dataclasses.replace(kernel, name="other_softmax")
        d1 = sweep_digest(kernel, ENV, GPU, cap=100, seed=0)
        d2 = sweep_digest(renamed, ENV, GPU, cap=100, seed=0)
        assert d1 != d2

    def test_irrelevant_env_dims_do_not_change_the_digest(self):
        contraction, _ = _ops()
        bigger = DimEnv({**ENV.sizes, "zz": 123})
        assert sweep_digest(contraction, ENV, GPU, cap=100, seed=0) == sweep_digest(
            contraction, bigger, GPU, cap=100, seed=0
        )

    def test_relevant_env_dims_change_the_digest(self):
        contraction, _ = _ops()
        assert sweep_digest(contraction, ENV, GPU, cap=100, seed=0) != sweep_digest(
            contraction, bert_large_dims(batch=16), GPU, cap=100, seed=0
        )

    def test_gpu_changes_the_digest(self):
        contraction, _ = _ops()
        assert sweep_digest(contraction, ENV, GPU, cap=100, seed=0) != sweep_digest(
            contraction, ENV, A100, cap=100, seed=0
        )

    def test_contraction_digest_ignores_sampling_knobs(self):
        contraction, _ = _ops()
        assert sweep_digest(contraction, ENV, GPU, cap=50, seed=1) == sweep_digest(
            contraction, ENV, GPU, cap=None, seed=99
        )

    def test_kernel_digest_tracks_binding_knobs_only(self):
        _, kernel = _ops()
        # Binding cap (space is larger than 60): cap and seed matter.
        assert sweep_digest(kernel, ENV, GPU, cap=60, seed=1) != sweep_digest(
            kernel, ENV, GPU, cap=60, seed=2
        )
        # Non-binding caps are all "exhaustive" and share one digest.
        assert sweep_digest(kernel, ENV, GPU, cap=10**9, seed=1) == sweep_digest(
            kernel, ENV, GPU, cap=None, seed=2
        )


class TestRejection:
    def _saved(self, tmp_path):
        contraction, _ = _ops()
        store = SweepStore(tmp_path)
        digest = sweep_digest(contraction, ENV, GPU, cap=100, seed=0)
        store.save(digest, compute_payload(contraction, ENV, GPU, cap=100, seed=0))
        return contraction, store, digest

    def _tamper_meta(self, store, digest, **changes):
        path = store.path_for(digest)
        with np.load(path, allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files if k != "meta"}
            meta = json.loads(str(z["meta"][()]))
        meta.update(changes)
        np.savez(path, meta=json.dumps(meta), **arrays)

    def test_version_mismatch_raises(self, tmp_path):
        _, store, digest = self._saved(tmp_path)
        self._tamper_meta(store, digest, version=-1)
        with pytest.raises(CacheMismatch, match="cost model version"):
            store.load(digest)
        assert store.stats()["rejected"] == 1

    def test_format_mismatch_raises(self, tmp_path):
        _, store, digest = self._saved(tmp_path)
        self._tamper_meta(store, digest, format=999)
        with pytest.raises(CacheMismatch, match="payload format"):
            store.load(digest)

    def test_digest_mismatch_raises(self, tmp_path):
        # An entry copied under the wrong name never masquerades.
        _, store, digest = self._saved(tmp_path)
        other = "f" * 64
        store.path_for(digest).rename(store.path_for(other))
        with pytest.raises(CacheMismatch, match="digest"):
            store.load(other)

    def test_corrupt_bytes_raise(self, tmp_path):
        _, store, digest = self._saved(tmp_path)
        store.path_for(digest).write_bytes(b"not an npz file at all")
        with pytest.raises(CacheMismatch, match="corrupt"):
            store.load(digest)

    def test_truncated_file_raises(self, tmp_path):
        _, store, digest = self._saved(tmp_path)
        path = store.path_for(digest)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CacheMismatch):
            store.load(digest)

    def test_inconsistent_arrays_raise(self, tmp_path):
        _, store, digest = self._saved(tmp_path)
        path = store.path_for(digest)
        with np.load(path, allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files if k != "meta"}
            meta = str(z["meta"][()])
        arrays["F"] = arrays["F"][:, :-1]  # timing arrays shorter than order
        np.savez(path, meta=meta, **arrays)
        with pytest.raises(CacheMismatch, match="inconsistent length"):
            store.load(digest)

    def test_out_of_range_permutation_raises(self, tmp_path):
        _, store, digest = self._saved(tmp_path)
        path = store.path_for(digest)
        with np.load(path, allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files if k != "meta"}
            meta = str(z["meta"][()])
        arrays["I"][0, 0] = arrays["I"].shape[1] + 5  # corrupt sort order
        np.savez(path, meta=meta, **arrays)
        with pytest.raises(CacheMismatch, match="permutation"):
            store.load(digest)

    def test_negative_triple_index_raises(self, tmp_path):
        # Negative indices would silently index from the end in config_at.
        _, store, digest = self._saved(tmp_path)
        path = store.path_for(digest)
        with np.load(path, allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files if k != "meta"}
            meta = str(z["meta"][()])
        arrays["I"][1, 0] = -2  # triple_idx row
        np.savez(path, meta=meta, **arrays)
        with pytest.raises(CacheMismatch, match="triple index"):
            store.load(digest)

    def test_corrupt_kernel_knob_index_raises(self, tmp_path):
        _, kernel = _ops()
        store = SweepStore(tmp_path)
        digest = sweep_digest(kernel, ENV, GPU, cap=80, seed=0)
        store.save(digest, compute_payload(kernel, ENV, GPU, cap=80, seed=0))
        path = store.path_for(digest)
        with np.load(path, allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files if k != "meta"}
            meta = str(z["meta"][()])
        arrays["I"][1, 0] = 10**6  # first knob column, way past its table
        np.savez(path, meta=meta, **arrays)
        with pytest.raises(CacheMismatch, match="knob index"):
            store.load(digest)

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
        assert store.load(digest) is not None


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

    def test_memo_false_bypasses_the_store(self, tmp_path):
        contraction, _ = _ops()
        store = SweepStore(tmp_path)
        set_sweep_store(store)
        sweep_op(contraction, ENV, COST, cap=100, memo=False)
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
            digest = sweep_digest(kernel, ENV, GPU, cap=40, seed=seed)
            out.append((digest, compute_payload(kernel, ENV, GPU, cap=40, seed=seed)))
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
        assert store.load(d1) is None  # evicted
        assert store.load(d2) is not None
        assert store.load(d3) is not None
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
        store.load(d2)  # ...but recently *used*: its mtime refreshes to now
        store.save(d3, p3)
        assert store.load(d1) is None  # d1 is the least recently used
        assert store.load(d2) is not None
        assert store.load(d3) is not None

    def test_just_written_entry_survives_even_a_tiny_budget(self, tmp_path):
        store = SweepStore(tmp_path / "s", max_bytes=1)
        (d1, p1), (d2, p2) = self._payloads(2)
        store.save(d1, p1)
        store.save(d2, p2)  # evicts d1, keeps itself despite the budget
        assert store.load(d2) is not None
        assert store.stats()["entries"] == 1
        assert store.stats()["evictions"] == 1

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        for digest, payload in self._payloads(3):
            store.save(digest, payload)
        assert store.stats()["entries"] == 3
        assert store.stats()["evictions"] == 0

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
            sweep_from_payload(kernel, store.load(d2)),
        )


class TestStructuralIndex:
    """The sidecar map from structural digests to exact-digest twins."""

    def _warm(self, store, *, seq=512, cap=100, seed=3):
        contraction, _ = _ops()
        env = bert_large_dims(seq=seq)
        digest = sweep_digest(contraction, env, GPU, cap=cap, seed=seed)
        structural = store_mod.structural_sweep_digest(
            contraction, env, GPU, cap=cap, seed=seed
        )
        store.save(digest, compute_payload(contraction, env, GPU, cap=cap, seed=seed))
        return contraction, env, digest, structural

    def test_save_maintains_the_sidecar(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, digest, structural = self._warm(store)
        assert json.loads(store.index_path.read_text()) == {structural: digest}

    def test_structural_lookup_never_scans_the_directory(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, digest, structural = self._warm(store)
        # A fresh store object over the same directory resolves purely
        # through the sidecar file.
        fresh = SweepStore(tmp_path)
        payload = fresh.load_structural(structural)
        assert payload is not None
        assert payload["structural"] == structural
        # Skeleton-only: the base times were not deserialized.
        assert "compute_us" not in payload and "sorted_totals" not in payload

    def test_same_structure_different_sizes_share_one_entry(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, d512, s512 = self._warm(store, seq=512)
        _, _, d513, s513 = self._warm(store, seq=513)
        assert s512 == s513 and d512 != d513
        # Last writer wins: the sidecar points at the newest twin.
        assert json.loads(store.index_path.read_text()) == {s512: d513}

    def test_eviction_drops_the_sidecar_entry(self, tmp_path):
        store = SweepStore(tmp_path)
        contraction, env, digest, structural = self._warm(store)
        size = store.path_for(digest).stat().st_size
        import os
        import time

        bounded = SweepStore(tmp_path, max_bytes=size)
        os.utime(store.path_for(digest), (time.time() - 300, time.time() - 300))
        # Saving a structurally different op over budget evicts the old npz
        # and must drop its sidecar entry with it.
        _, kernel = _ops()
        kd = sweep_digest(kernel, ENV, GPU, cap=40, seed=0)
        bounded.save(kd, compute_payload(kernel, ENV, GPU, cap=40, seed=0))
        assert not store.path_for(digest).exists()
        assert structural not in json.loads(store.index_path.read_text())
        assert bounded.load_structural(structural) is None

    def test_stale_sidecar_entry_self_heals(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, digest, structural = self._warm(store)
        store.path_for(digest).unlink()  # pruned externally (nightly CI)
        assert store.load_structural(structural) is None
        # The dangling mapping was dropped, not retried forever.
        assert json.loads(store.index_path.read_text()) == {}

    def test_corrupt_twin_is_dropped_not_served(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, digest, structural = self._warm(store)
        store.path_for(digest).write_bytes(b"garbage")
        assert store.load_structural(structural) is None
        assert structural not in json.loads(store.index_path.read_text())

    def test_corrupt_sidecar_degrades_to_empty(self, tmp_path):
        store = SweepStore(tmp_path)
        _, _, digest, structural = self._warm(store)
        store.index_path.write_text("{not json")
        fresh = SweepStore(tmp_path)
        assert fresh.load_structural(structural) is None
        # The exact entry is untouched — the index is a pure accelerator.
        assert fresh.load(digest) is not None


class TestDeltaResweep:
    """The delta tier: rebuild a perturbed-size payload from a twin."""

    def test_twin_in_the_store_yields_a_delta_payload(self, tmp_path):
        from repro.engine.sweep import delta_payload_from_store

        contraction, _ = _ops()
        store = SweepStore(tmp_path)
        env512 = bert_large_dims(seq=512)
        env513 = bert_large_dims(seq=513)
        d512 = sweep_digest(contraction, env512, GPU, cap=100, seed=5)
        store.save(d512, compute_payload(contraction, env512, GPU, cap=100, seed=5))
        delta = delta_payload_from_store(
            contraction, env513, GPU, cap=100, seed=5, store=store
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
        d512 = sweep_digest(contraction, env512, GPU, cap=100, seed=6)
        d513 = sweep_digest(contraction, env513, GPU, cap=100, seed=6)
        store.save(d512, compute_payload(contraction, env512, GPU, cap=100, seed=6))
        _, tier = _resolve(contraction, env513, store, cap=100, seed=6)
        assert tier == "delta"
        assert store.stats()["delta_hits"] == 1
        assert store.path_for(d513).exists()
        # And round-trips exactly through a plain exact-digest load.
        _assert_bit_identical(
            sweep_op_reference(contraction, env513, COST, cap=100, seed=6),
            sweep_from_payload(contraction, store.load(d513)),
        )

    def test_knob_change_is_not_a_structural_twin(self, tmp_path):
        from repro.engine.sweep import delta_payload_from_store

        contraction, kernel = _ops()
        store = SweepStore(tmp_path)
        env = bert_large_dims()
        # A capped kernel sweep's sampled rows depend on (cap, seed), so
        # those knobs are structural: changing either is a different
        # problem, not a twin.
        kd = sweep_digest(kernel, env, GPU, cap=40, seed=9)
        store.save(kd, compute_payload(kernel, env, GPU, cap=40, seed=9))
        assert delta_payload_from_store(
            kernel, env, GPU, cap=40, seed=10, store=store
        ) is None
        assert delta_payload_from_store(
            kernel, env, GPU, cap=20, seed=9, store=store
        ) is None
        # The GPU spec is structural for every op class.
        cd = sweep_digest(contraction, env, GPU, cap=100, seed=9)
        store.save(cd, compute_payload(contraction, env, GPU, cap=100, seed=9))
        assert delta_payload_from_store(
            contraction, env, A100, cap=100, seed=9, store=store
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

"""Hypothesis property tests: store round-trips are bit-identical.

Randomizes operators, dimension sizes and sampling knobs; every sweep is
saved to an on-disk store, reloaded, and compared against the scalar
``sweep_op_reference`` — same configs, same order, exact float equality on
every ``KernelTime`` component.  The loaded payload is the stored file:
it re-packs to the same bytes, and its arrays are read-only views whose
index columns are contiguous.  The digest is also checked to be stable
under recomputation and under irrelevant environment growth.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings

from repro.autotuner.tuner import sweep_op_reference
import numpy as np

from repro.engine.store import (
    SweepStore,
    compute_payload,
    pack_payload_bytes,
    sweep_digest,
)
from repro.engine.sweep import sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv
from strategies import contraction_ops, kernel_ops

COST = CostModel()

# One store for the whole module: digests are content-addressed, so
# collisions across examples are exactly the sweeps that are identical.
_STORE_DIR = tempfile.TemporaryDirectory(prefix="repro-sweep-store-")
STORE = SweepStore(_STORE_DIR.name)


def _round_trip(op, env, *, cap, seed):
    digest = sweep_digest(op, env, COST, cap=cap, seed=seed)
    if STORE.load(digest, COST.version) is None:
        STORE.save(digest, compute_payload(op, env, COST, cap=cap, seed=seed))
    payload = STORE.load(digest, COST.version)
    _assert_stored_form(digest, payload)
    return sweep_from_payload(op, payload), digest


def _assert_stored_form(digest, payload):
    assert pack_payload_bytes(digest, payload) == STORE.path_for(digest).read_bytes()
    arrays = [v for k, v in payload.items() if isinstance(v, np.ndarray) and k[0] != "_"]
    assert arrays and not any(a.flags.writeable for a in arrays)
    columns = [payload["order"]]
    columns += list(payload["idx"].T) if payload["kind"] == "kernel" else []
    assert all(c.strides[0] == c.itemsize for c in columns)


def _assert_bit_identical(ref, loaded):
    assert loaded.num_configs == ref.num_configs
    assert loaded.times_us() == [m.total_us for m in ref.measurements]
    for a, b in zip(ref.measurements, loaded.measurements):
        assert a.config == b.config
        assert a.time.compute_us == b.time.compute_us
        assert a.time.memory_us == b.time.memory_us
        assert a.time.launch_us == b.time.launch_us


@settings(max_examples=25, deadline=None)
@given(kernel_ops())
def test_kernel_store_round_trip_bit_identical(params):
    op, env, cap, seed = params
    ref = sweep_op_reference(op, env, COST, cap=cap, seed=seed)
    loaded, digest = _round_trip(op, env, cap=cap, seed=seed)
    _assert_bit_identical(ref, loaded)
    # The digest is a pure function of content.
    assert digest == sweep_digest(op, env, COST, cap=cap, seed=seed)


@settings(max_examples=15, deadline=None)
@given(contraction_ops())
def test_contraction_store_round_trip_bit_identical(params):
    op, env = params
    ref = sweep_op_reference(op, env, COST)
    loaded, digest = _round_trip(op, env, cap=2000, seed=0x5EED)
    _assert_bit_identical(ref, loaded)
    # Irrelevant dimensions don't perturb the digest.
    grown = DimEnv({**env.sizes, "zq": 9})
    assert sweep_digest(op, grown, COST, cap=2000, seed=0x5EED) == digest

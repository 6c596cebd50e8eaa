"""Hypothesis property tests: the one payload decoder never lets junk through.

Starts from valid contraction and kernel payloads, mutates their packed
``.npz`` bytes — the sort permutation, the time matrix, truncated or
dropped members, edited ``meta`` JSON, zip directory fields, single bytes —
and feeds the result to every reader of external payload bytes:

* ``payload_from_packed`` raises ``ProtocolError`` or returns a payload
  that re-packs and decodes equal and serves the operator's sweep;
* ``SweepStore.load`` raises ``CacheMismatch`` or returns such a payload;
* ``delta_payload_from_store`` with the mutated file as the only twin
  returns ``None`` or such a payload.

No other exception may escape any of them.
"""

from __future__ import annotations

import io
import json
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.store import (
    CacheMismatch,
    SweepStore,
    compute_payload,
    pack_payload_bytes,
    read_payload_npz,
    sorted_totals,
    sweep_digest,
)
from repro.engine.sweep import delta_payload_from_store, sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv
from repro.service.protocol import ProtocolError, payload_from_packed
from strategies import contraction_ops, kernel_ops

COST = CostModel()

#: The ``meta`` tables whose entries a mutation may break, per payload kind.
_TABLES = {
    "contraction": ("triples", "structures"),
    "kernel": ("layout_choices", "vec_choices", "warp_choices"),
}


def _cases():
    return st.one_of(
        kernel_ops(),
        contraction_ops().map(lambda case: (*case, None, 0)),
    )


def _members(data: bytes) -> dict:
    with np.load(io.BytesIO(data), allow_pickle=False) as z:
        members = {k: z[k] for k in z.files}
    members["meta"] = json.loads(str(members["meta"][()]))
    return members


def _packed(members: dict) -> bytes:
    buf = io.BytesIO()
    arrays = {k: json.dumps(v) if k == "meta" else v for k, v in members.items()}
    np.savez(buf, **arrays)
    return buf.getvalue()


def _break_entry(draw, entry):
    """One table entry of wrong arity, type or dim."""
    if not isinstance(entry, list):  # a vector or warp-reduce dim (or None)
        return draw(st.sampled_from(["nope", 7, ["a"]]))
    how = draw(st.sampled_from(["longer", "shorter", "type", "inner type", "dim"]))
    if how == "longer":
        return [*entry, entry[0]]
    if how == "shorter":
        return entry[:-1]
    if how == "type":
        return draw(st.sampled_from(["bogus", 7, None, {"m": 1}]))
    groups = [i for i, g in enumerate(entry) if isinstance(g, list) and g]
    if not groups:
        return [*entry, entry[0]]
    i = draw(st.sampled_from(groups))
    j = draw(st.integers(0, len(entry[i]) - 1))
    group = list(entry[i])
    if how == "inner type":
        group[j] = draw(st.sampled_from([3, None, ["m"]]))
    else:
        group[j] = draw(st.sampled_from(["nope", *(d for d in group if d != group[j])]))
    return [*entry[:i], group, *entry[i + 1:]]


@st.composite
def mutations(draw, members: dict):
    """``members`` (an unpacked payload file) with one drawn mutation."""
    meta = members["meta"]
    order = members["I"][0]
    n = order.shape[0]
    kinds = [
        "F rows swapped", "truncated", "dropped", "kind", "format", "digest",
        "launch_us", "zip directory", "byte flipped",
    ]
    if n > 1:
        kinds += ["order permuted", "order duplicated"]
    tables = [t for t in _TABLES[meta["kind"]] if meta[t]]
    if tables:
        kinds.append("table entry")
    kind = draw(st.sampled_from(kinds))
    out = {**members, "meta": dict(meta)}
    if kind == "order permuted":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        out["I"] = members["I"].copy()
        out["I"][0] = rng.permutation(order)
    elif kind == "order duplicated":
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        i, j = draw(pair)
        out["I"] = members["I"].copy()
        out["I"][0, i] = order[j]
    elif kind == "F rows swapped":
        out["F"] = members["F"][::-1].copy()
    elif kind == "truncated":
        name = draw(st.sampled_from(["F", "I", "T"]))
        cut = draw(st.integers(1, 3))
        out[name] = members[name][..., : max(members[name].shape[-1] - cut, 0)]
    elif kind == "dropped":
        del out[draw(st.sampled_from(sorted(members)))]
    elif kind == "kind":
        values = ["kernel", "contraction", "bogus", 1]
        out["meta"]["kind"] = draw(st.sampled_from(values))
    elif kind == "format":
        out["meta"]["format"] = draw(st.sampled_from([3, 5, "4", None]))
    elif kind == "digest":
        out["meta"]["digest"] = "0" * 64
    elif kind == "launch_us":
        launch = meta["launch_us"]
        values = [str(launch), [launch], [launch] * n, True, float("nan")]
        out["meta"]["launch_us"] = draw(st.sampled_from(values))
    elif kind == "zip directory":
        # A central-directory field of the first member: the flags (an
        # encrypted bit) or the compression method (unknown, or deflate on
        # stored bytes) — zipfile and zlib errors beyond BadZipFile.
        field, value = draw(st.sampled_from([(8, 1), (10, 8), (10, 12), (10, 99)]))
        data = bytearray(_packed(out))
        at = data.index(b"PK\x01\x02") + field
        data[at : at + 2] = value.to_bytes(2, "little")
        return bytes(data)
    elif kind == "byte flipped":
        data = bytearray(_packed(out))
        at = draw(st.integers(0, len(data) - 1))
        data[at] ^= draw(st.integers(1, 255))
        return bytes(data)
    else:
        table = draw(st.sampled_from(tables))
        entries = list(meta[table])
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] = _break_entry(draw, entries[i])
        out["meta"][table] = entries
    return _packed(out)


def _assert_equal_payloads(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == b[key].dtype and np.array_equal(value, b[key]), key
        else:
            assert value == b[key], key


def _assert_valid(op, digest: str, payload: dict) -> None:
    """``payload`` packs, its bytes decode to it, and it serves ``op``'s
    sweep (its best config materializes)."""
    data = io.BytesIO(pack_payload_bytes(digest, payload))
    decoded = read_payload_npz(data, digest=digest, version=COST.version)
    _assert_equal_payloads({**payload, "digest": digest}, decoded)
    sweep = sweep_from_payload(op, payload)
    if sweep.num_configs:
        assert sweep.best.total_us == sorted_totals(payload)[0]


@settings(max_examples=50, deadline=None)
@given(_cases(), st.data())
def test_every_reader_rejects_or_returns_a_valid_payload(case, data):
    op, env, cap, seed = case
    digest = sweep_digest(op, env, COST, cap=cap, seed=seed)
    payload = compute_payload(op, env, COST, cap=cap, seed=seed)
    clean = pack_payload_bytes(digest, payload)
    mutated = data.draw(mutations(_members(clean)))

    try:
        payload = payload_from_packed(mutated, digest=digest, version=COST.version)
    except ProtocolError:
        pass
    else:
        _assert_valid(op, digest, payload)

    with tempfile.TemporaryDirectory(prefix="repro-codec-") as root:
        store = SweepStore(root)
        path = store.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(mutated)
        try:
            loaded = store.load(digest, COST.version)
        except CacheMismatch:
            pass
        else:
            _assert_valid(op, digest, loaded)
        # The mutated file is the only twin of the same sweep at other sizes.
        first = next(iter(env))
        other = DimEnv({**dict(env), first: env[first] + 1})
        delta = delta_payload_from_store(
            op, other, COST, cap=cap, seed=seed, store=store
        )
        if delta is not None:
            _assert_valid(op, sweep_digest(op, other, COST, cap=cap, seed=seed), delta)

"""Hypothesis property tests: the one payload decoder never lets junk through.

Starts from valid contraction and kernel payloads, mutates their packed
container bytes and feeds the result to every reader of external payload
bytes.  Raw mutations — a truncation at any point, a flipped byte in the
header, the meta or any array, trailing bytes — leave the checksum stale.
Re-sealed mutations recompute it, so they reach the checks behind it: the
sort permutation, the time arrays, out-of-range layout ids, array entries
of the meta (name, dtype, shape, offset) and the meta's tables and fields.

* ``payload_from_packed`` raises ``ProtocolError`` or returns a payload
  that re-packs and decodes equal and serves the operator's sweep;
* ``SweepStore.load`` raises ``CacheMismatch`` or returns such a payload;
* ``delta_payload_from_store`` with the mutated file as the only twin
  returns ``None`` or such a payload.

No other exception may escape any of them.
"""

from __future__ import annotations

import json
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.store as store_mod
from repro.engine.store import (
    CacheMismatch,
    SweepStore,
    compute_payload,
    pack_payload_bytes,
    read_payload,
    sorted_totals,
    sweep_digest,
)
from repro.engine.sweep import delta_payload_from_store, sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv, bert_large_dims
from repro.service.protocol import ProtocolError, payload_from_packed
from strategies import contraction_ops, kernel_ops

COST = CostModel()
HEADER = store_mod._HEADER

#: The ``meta`` tables whose entries a mutation may break, per payload kind.
_TABLES = {
    "contraction": ("layouts", "structures"),
    "kernel": ("layout_choices", "vec_choices", "warp_choices"),
}


def _cases():
    return st.one_of(
        kernel_ops(),
        contraction_ops().map(lambda case: (*case, None, 0)),
    )


def _members(data: bytes) -> tuple[dict, dict]:
    """The meta and writeable copies of the arrays of a container."""
    meta, arrays = store_mod._unseal(data, "payload")
    return meta, {k: a.copy() for k, a in arrays.items()}


def _regions(data: bytes) -> list[tuple[int, int]]:
    """``[start, end)`` of the header, the meta and each non-empty array."""
    _, arrays = store_mod._unseal(data, "payload")
    _, _, meta_len, _ = HEADER.unpack_from(data)
    start = store_mod._align(HEADER.size + meta_len)
    regions = [(0, HEADER.size), (HEADER.size, HEADER.size + meta_len)]
    for name, _dtype, _shape, offset in json.loads(
        data[HEADER.size : HEADER.size + meta_len]
    )["arrays"]:
        if arrays[name].nbytes:
            regions.append((start + offset, start + offset + arrays[name].nbytes))
    return regions


def _resealed(data: bytes, edit=lambda meta: None, tail: bytes = b"") -> bytes:
    """``data`` with its raw meta (array table included) edited and ``tail``
    appended, under a checksum that holds again."""
    _, fmt, meta_len, _ = HEADER.unpack_from(data)
    meta = json.loads(data[HEADER.size : HEADER.size + meta_len])
    edit(meta)
    head = json.dumps(meta).encode()
    pad = bytes(store_mod._align(HEADER.size + len(head)) - HEADER.size - len(head))
    body = head + pad + data[store_mod._align(HEADER.size + meta_len) :] + tail
    return HEADER.pack(store_mod._MAGIC, fmt, len(head), zlib.crc32(body)) + body


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


def _edit_array_entry(draw, meta):
    """One field of one ``[name, dtype, shape, offset]`` entry of the meta's
    array table, or two entries swapped."""
    table = meta["arrays"]
    i = draw(st.integers(0, len(table) - 1))
    entry = table[i]
    field = draw(st.sampled_from(["name", "dtype", "shape", "offset", "swap", "drop"]))
    if field == "name":
        entry[0] = draw(st.sampled_from(["nope", *(e[0] for e in table)]))
    elif field == "dtype":
        entry[1] = draw(st.sampled_from(["<f8", "<i4", "<i8", "|u1", "<u2", "|b1", "O", 3]))
    elif field == "shape":
        dims = list(entry[2]) or [0]
        j = draw(st.integers(0, len(dims) - 1))
        dims[j] = draw(st.sampled_from([0, dims[j] + 1, max(dims[j] - 1, 0), -1, 2**40]))
        entry[2] = draw(st.sampled_from([dims, dims[::-1], [*dims, 1], "x"]))
    elif field == "offset":
        entry[3] = draw(st.sampled_from([entry[3] + 8, entry[3] - 8, entry[3] + 1, -8, "0"]))
    elif field == "swap":
        j = draw(st.integers(0, len(table) - 1))
        table[i], table[j] = table[j], table[i]
    else:
        del table[i]


@st.composite
def mutations(draw, data: bytes):
    """The packed payload ``data`` with one drawn mutation."""
    meta, arrays = _members(data)
    order = arrays["order"]
    n = order.shape[0]
    kinds = [
        "times swapped", "array shortened", "kind", "format", "digest",
        "launch_us", "array entry", "cut", "byte flipped", "byte flipped, resealed",
        "trailing", "trailing, resealed",
    ]
    if n > 1:
        kinds += ["order permuted", "order duplicated"]
    if meta["kind"] == "contraction" and arrays["triple_layouts"].size:
        kinds.append("layout id")
    tables = [t for t in _TABLES[meta["kind"]] if meta[t]]
    if tables:
        kinds.append("table entry")
    kind = draw(st.sampled_from(kinds))
    if kind == "order permuted":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        arrays["order"] = rng.permutation(order)
    elif kind == "order duplicated":
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        i, j = draw(pair)
        arrays["order"][i] = order[j]
    elif kind == "times swapped":
        arrays["compute_us"], arrays["memory_us"] = arrays["memory_us"], arrays["compute_us"]
    elif kind == "array shortened":
        name = draw(st.sampled_from(sorted(arrays)))
        cut = draw(st.integers(1, 3))
        a = arrays[name]
        arrays[name] = np.ascontiguousarray(a[..., : max(a.shape[-1] - cut, 0)])
    elif kind == "layout id":
        ids = arrays["triple_layouts"]
        s = draw(st.integers(0, 2))
        t = draw(st.integers(0, ids.shape[1] - 1))
        ids[s, t] = len(meta["layouts"][s]) + draw(st.integers(0, 3))
    elif kind in ("kind", "format", "digest", "launch_us", "table entry"):
        if kind == "kind":
            change = {"kind": draw(st.sampled_from(["kernel", "contraction", "bogus", 1]))}
        elif kind == "format":
            change = {"format": draw(st.sampled_from([4, 6, "5", None]))}
        elif kind == "digest":
            change = {"digest": "0" * 64}
        elif kind == "launch_us":
            launch = meta["launch_us"]
            values = [str(launch), [launch], [launch] * n, True, float("nan")]
            change = {"launch_us": draw(st.sampled_from(values))}
        else:
            table = draw(st.sampled_from(tables))
            entries = list(meta[table])
            i = draw(st.integers(0, len(entries) - 1))
            entries[i] = _break_entry(draw, entries[i])
            change = {table: entries}
        return _resealed(data, lambda m: m.update(change))
    elif kind == "array entry":
        return _resealed(data, lambda m: _edit_array_entry(draw, m))
    elif kind == "cut":
        return data[: draw(st.integers(0, len(data) - 1))]
    elif kind.startswith("byte flipped"):
        start, end = draw(st.sampled_from(_regions(data)))
        flipped = bytearray(data)
        flipped[draw(st.integers(start, end - 1))] ^= draw(st.integers(1, 255))
        if kind == "byte flipped":
            return bytes(flipped)
        return _resealed(bytes(flipped)) if start >= HEADER.size else bytes(flipped)
    else:
        tail = draw(st.binary(min_size=1, max_size=16))
        return _resealed(data, tail=tail) if kind.endswith("resealed") else data + tail
    return store_mod._seal(meta, arrays)


def _assert_equal_payloads(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, np.ndarray):
            other = b[key]
            assert value.dtype.kind == other.dtype.kind, key
            assert np.array_equal(value, other), key
        else:
            assert value == b[key], key


def _assert_valid(op, digest: str, payload: dict) -> None:
    """``payload`` packs, its bytes decode to it, and it serves ``op``'s
    sweep (its best config materializes)."""
    data = pack_payload_bytes(digest, payload)
    decoded = read_payload(data, digest=digest, version=COST.version)
    _assert_equal_payloads({**payload, "digest": digest}, decoded)
    assert pack_payload_bytes(digest, decoded) == data
    sweep = sweep_from_payload(op, payload)
    if sweep.num_configs:
        assert sweep.best.total_us == sorted_totals(payload)[0]


@settings(max_examples=80, deadline=None)
@given(_cases(), st.data())
def test_every_reader_rejects_or_returns_a_valid_payload(case, data):
    op, env, cap, seed = case
    digest = sweep_digest(op, env, COST, cap=cap, seed=seed)
    payload = compute_payload(op, env, COST, cap=cap, seed=seed)
    clean = pack_payload_bytes(digest, payload)
    mutated = data.draw(mutations(clean))

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


@settings(max_examples=40, deadline=None)
@given(_cases(), st.data())
def test_raw_damage_is_always_refused(case, data):
    """A truncation, a flipped byte anywhere or trailing bytes, with the
    checksum left as written: refused by every reader, never decoded."""
    op, env, cap, seed = case
    digest = sweep_digest(op, env, COST, cap=cap, seed=seed)
    clean = pack_payload_bytes(digest, compute_payload(op, env, COST, cap=cap, seed=seed))
    how = data.draw(st.sampled_from(["cut", "flip", "tail"]))
    if how == "cut":
        mutated = clean[: data.draw(st.integers(0, len(clean) - 1))]
    elif how == "flip":
        start, end = data.draw(st.sampled_from(_regions(clean)))
        flipped = bytearray(clean)
        flipped[data.draw(st.integers(start, end - 1))] ^= data.draw(st.integers(1, 255))
        mutated = bytes(flipped)
    else:
        mutated = clean + data.draw(st.binary(min_size=1, max_size=16))
    try:
        payload_from_packed(mutated, digest=digest, version=COST.version)
    except ProtocolError:
        pass
    else:
        raise AssertionError(f"{how}: damaged bytes decoded")


@pytest.mark.parametrize("how", ["offset moved", "trailing bytes"])
def test_a_relaid_or_padded_container_is_refused(how):
    """Its checksum holds and its arrays would decode equal, yet a file whose
    array table disagrees with where the arrays lie, or that runs past the
    last array, is not one the writer makes: refused."""
    from repro.transformer.graph_builder import build_mha_graph

    op = build_mha_graph(qkv_fusion="unfused", include_backward=False).op("softmax")
    env = bert_large_dims()
    digest = sweep_digest(op, env, COST, cap=40, seed=0)
    clean = pack_payload_bytes(digest, compute_payload(op, env, COST, cap=40, seed=0))

    def move(meta):
        meta["arrays"][-1][3] += 8

    if how == "offset moved":
        mutated = _resealed(clean, move, tail=bytes(8))
    else:
        mutated = _resealed(clean, tail=bytes(8))
    with pytest.raises(ProtocolError, match="corrupt"):
        payload_from_packed(mutated, digest=digest, version=COST.version)

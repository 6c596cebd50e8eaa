"""Hypothesis property tests: cheaper enumeration, same sweeps.

* The whole-space rule: ``kernel_index_array`` equals the scalar
  ``kernel_config_indices`` row for row on both sides of the boundaries
  ``total == cap``, ``total == k * cap`` and the rule's least cap (and
  uncapped), and a space the rule sweeps whole is exactly its full
  product.
* Sweeping a space whole never loses: its best time is at most the best
  of the ``cap``-row sample the rule replaced (drawn here as the scalar
  sampler drew it before the rule).
* numpy's MT19937, seeded from ``random.Random(seed).getstate()``, yields
  the words ``getrandbits`` does, across the generator's 624-word blocks.
* The batched contraction factors equal the scalar ``_unit`` keys bit for
  bit, for any triples: shape labels of different lengths, 0 and 1
  triples, and layout units supplied from a payload.
"""

from __future__ import annotations

import itertools
import random
from math import prod

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernel_index_array
from repro.engine.sampling import _word_stream
from repro.engine.store import compute_payload, sorted_totals
from repro.hardware.cost_model import CostModel
from repro.hardware.efficiency import (
    _in_range,
    _shape_factors,
    _unit,
    contraction_triple_factors,
)
from repro.layouts.config import NUM_GEMM_ALGORITHMS, OpConfig
from repro.layouts.configspace import (
    WHOLE_SPACE_K,
    WHOLE_SPACE_MIN_CAP as MIN_CAP,
    kernel_config_indices,
    kernel_space,
    sweeps_whole,
)
from repro.layouts.gemm_mapping import GemmShape
from repro.layouts.layout import Layout
from repro.ops.contraction import contraction_spec
from strategies import EINSUMS, kernel_ops

COST = CostModel()
NUM, DEN = WHOLE_SPACE_K


@st.composite
def boundary_caps(draw):
    """``(sizes, cap)`` with ``cap`` within 2 of one of the rule's
    boundaries — ``total == cap``, ``total == k * cap`` or the least cap
    :data:`WHOLE_SPACE_MIN_CAP` — or ``None``.  The ``k * cap`` spaces have
    totals divisible by k's numerator, so some caps put it exactly on
    ``total``."""
    boundary = draw(st.sampled_from(["uncapped", "fits", "k", "least"]))
    if boundary == "k":  # 12,096 to 34,560 configs: caps past the least one
        extra = st.lists(st.sampled_from([1, 2, 3, 4, 6, 10]), max_size=3).filter(
            lambda e: 4 <= prod(e) <= 10
        )
        sizes = draw(st.permutations([24, 24, NUM, *draw(extra)]))
    else:
        sizes = draw(
            st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 24]), min_size=1, max_size=4).filter(
                lambda s: prod(s) <= 1000
            )
        )
    total = prod(sizes)
    edge = {"uncapped": None, "fits": total, "k": total * DEN // NUM, "least": MIN_CAP}
    if edge[boundary] is None:
        return sizes, None
    return sizes, max(0, edge[boundary] + draw(st.integers(min_value=-2, max_value=2)))


@settings(max_examples=80, deadline=None)
@given(boundary_caps(), st.integers(min_value=-(2**40), max_value=2**40))
def test_bulk_sampler_matches_scalar_across_the_whole_space_boundary(sizes_cap, seed):
    sizes, cap = sizes_cap
    rows = list(kernel_config_indices(sizes, cap=cap, seed=seed))
    got = kernel_index_array(sizes, cap=cap, seed=seed)
    assert got.dtype == np.int32 and got.T.flags.c_contiguous
    assert np.array_equal(got, np.array(rows).reshape(len(rows), len(sizes)))
    total = prod(sizes)
    whole = cap is None or total <= cap or (cap >= MIN_CAP and DEN * total <= NUM * cap)
    assert sweeps_whole(total, cap) == whole
    if whole:
        assert rows == list(itertools.product(*(range(s) for s in sizes)))
    else:
        assert len(rows) == max(cap, 1) and rows[0] == (0,) * len(sizes)
        assert len(set(rows)) == len(rows)


def _sample_before_the_rule(sizes, cap, seed):
    """The rows the scalar sampler drew before the whole-space rule:
    ``cap`` distinct rows, default first, whenever the cap binds."""
    if prod(sizes) <= cap:
        return list(itertools.product(*(range(s) for s in sizes)))
    rng = random.Random(seed)
    rows = [tuple([0] * len(sizes))]
    seen = set(rows)
    while len(seen) < cap:
        row = tuple(rng.randrange(s) for s in sizes)
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


@settings(max_examples=40, deadline=None)
@given(kernel_ops(), st.data())
def test_whole_space_best_never_exceeds_the_old_samples_best(case, data):
    op, env, _cap, seed = case
    layouts, vecs, warps = kernel_space(op, env)
    sizes = [len(c) for c in layouts] + [len(vecs), len(warps)]
    cap = data.draw(st.integers(min_value=1, max_value=prod(sizes) + 2))
    n_in = len(op.inputs)

    def time(row):
        chosen = [layouts[o][row[o]] for o in range(len(layouts))]
        config = OpConfig(
            op_name=op.name,
            input_layouts=tuple(chosen[:n_in]),
            output_layouts=tuple(chosen[n_in:]),
            vector_dim=vecs[row[-2]],
            warp_reduce_dim=warps[row[-1]],
        )
        return COST.time_op(op, config, env).total_us

    old_best = min(map(time, _sample_before_the_rule(sizes, cap, seed)))
    whole_best = sorted_totals(compute_payload(op, env, COST, cap=None, seed=seed))[0]
    assert whole_best <= old_best
    new_best = sorted_totals(compute_payload(op, env, COST, cap=cap, seed=seed))[0]
    if sweeps_whole(prod(sizes), cap):
        assert new_best == whole_best


#: Word counts at and around MT19937's 624-word blocks.
_BLOCK_EDGES = [1, 2, 623, 624, 625, 1247, 1248, 1249, 2 * 624 * 3]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.lists(
        st.sampled_from(_BLOCK_EDGES) | st.integers(min_value=1, max_value=3000),
        min_size=1,
        max_size=4,
    ),
)
def test_mt19937_words_equal_getrandbits_words(seed, lengths):
    rng = random.Random(seed)
    stream = _word_stream(seed)
    for n in lengths:  # consecutive reads: later ones start mid-block
        expected = rng.getrandbits(32 * n).to_bytes(4 * n, "little")
        assert stream.random_raw(n).astype("<u4").tobytes() == expected


@st.composite
def triple_sets(draw):
    """``(op, layouts, triple_layouts, shapes, triple_shapes)``: 0 to 80
    arbitrary triples (across the CRC batch's whole-row threshold), each
    slot's layouts permutations of its operand's dims, and GEMM shapes
    whose labels have different lengths."""
    einsum, da, db, dc = draw(st.sampled_from(EINSUMS))
    op = contraction_spec("c", einsum, ("a", "b"), "y")
    layouts = [
        draw(st.lists(st.permutations(dims), min_size=1, max_size=4, unique_by=tuple))
        for dims in (da, db, dc)
    ]
    layouts = [[Layout(tuple(p)) for p in slot] for slot in layouts]
    dim = st.sampled_from([1, 8, 64, 512, 4096, 123457])
    shapes = draw(
        st.lists(
            st.builds(GemmShape, dim, dim, dim, dim, st.booleans(), st.booleans()),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    t = draw(st.sampled_from([0, 1]) | st.integers(min_value=2, max_value=80))
    ids = st.lists(st.integers(min_value=0), min_size=t, max_size=t)
    triple_layouts = np.array(
        [[i % len(slot) for i in draw(ids)] for slot in layouts], dtype=np.intp
    ).reshape(3, t)
    triple_shapes = np.array([i % len(shapes) for i in draw(ids)], dtype=np.intp)
    return op, layouts, triple_layouts, shapes, triple_shapes


@settings(max_examples=80, deadline=None)
@given(triple_sets(), st.booleans())
def test_batched_contraction_factors_equal_the_scalar_keys(triples, supplied):
    op, layouts, triple_layouts, shapes, triple_shapes = triples
    p = COST.params
    keys = [
        "/".join(str(layouts[s][triple_layouts[s, t]]) for s in range(3))
        for t in range(len(triple_shapes))
    ]
    per_triple = [shapes[i] for i in triple_shapes]
    scalar_units = np.array(
        [
            _unit("gemm-layout", op.einsum, key, s.trans_a, s.trans_b)
            for key, s in zip(keys, per_triple)
        ]
    )
    given_units = np.linspace(0.0, 0.99, len(keys)) if supplied else None
    pre_tc, pre_fp, wave, div8, algo, units = contraction_triple_factors(
        op, layouts, triple_layouts, shapes, triple_shapes, COST.gpu, p,
        layout_units=given_units,
    )
    expected_units = given_units if supplied else scalar_units
    assert units.tobytes() == expected_units.tobytes()
    assert algo.shape == (len(keys), NUM_GEMM_ALGORITHMS)
    for t, (key, shape) in enumerate(zip(keys, per_triple)):
        s_tc, s_fp, w, d8, label = _shape_factors(shape, COST.gpu, p)
        layout_factor = _in_range(float(expected_units[t]), p.layout_factor_range)
        assert pre_tc[t] == (p.gemm_tc_base * s_tc) * layout_factor
        assert pre_fp[t] == (p.gemm_fp16_base * s_fp) * layout_factor
        assert wave[t] == w and div8[t] == d8
        for a in range(NUM_GEMM_ALGORITHMS):
            assert algo[t, a] == _in_range(_unit("algo", label, key, a), p.algo_factor_range)

"""Vectorized kernel config sampling, row-for-row equal to the scalar one.

When a kernel's config space exceeds the sweep cap (by more than ``k``
times at large caps, :func:`repro.layouts.configspace.sweeps_whole`), the
scalar reference :func:`repro.layouts.configspace.kernel_config_indices`
draws configs as one ``random.Random(seed).randrange(size)`` per knob,
keeping the first ``cap`` distinct rows after the all-default one; a
smaller space is enumerated whole.  At ``cap=20000`` that is millions of Python-level calls
per graph.  This module replays the *same* draws in bulk:

1. ``randrange(size)`` is rejection sampling on the generator's 32-bit
   output stream: it takes the top ``size.bit_length()`` bits of the next
   word and retries while they are ``>= size``.  The stream is Mersenne
   Twister MT19937, the generator numpy's ``np.random.MT19937`` also
   implements: with its state set from ``random.Random(seed).getstate()``,
   its raw outputs are the same words, read a block at a time.
2. "Top ``k`` bits below ``size``" is ``word < size << (32 - k)``: each
   knob accepts the words below its *threshold*.  A word's *class* is how
   many of the distinct thresholds it reaches, and a knob accepts exactly
   the words whose class is at most the knob's *rank* (its threshold's
   position among the distinct ones).  Words no knob accepts are dropped;
   they never change which word a knob takes.
3. Which word each knob takes is a left-to-right walk whose only state is
   the knob being drawn, so one row is a regular language over the class
   string: per knob, "rejected* accepted".  ``re.findall`` runs that walk
   in C and yields each row's span; a knob's word inside a span is then
   two gathers ("first accepted word at or after the cursor").
4. The keep-first-distinct filter is ``np.unique`` on row-major flat
   indices, in draw order.

The rows are built knob-major: an ``int32`` array of shape
``(knobs, rows)`` in C order, the layout the sweep store writes, and
callers get its ``.T`` view, so every knob column is contiguous whether a
payload was just computed or decoded from the store.

Tier-1 and the property suite pin equality with the scalar generator.

Kernels of one graph often share a knob space: forward and backward
kernels, or the MHA block inside the encoder, draw the same
``(sizes, cap, seed)``.  Inside a :func:`shared_samples` block each
distinct key is drawn once and every later call gets the same read-only
array.  The scheduler opens one block per cold evaluation batch (per pool
task when the batch fans out, with same-key jobs sent to one task), and
the draws are dropped when it closes.  There is deliberately no
process-wide cache: it would keep the samples of earlier seeds alive.
"""

from __future__ import annotations

import random
import re
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from math import log, prod

import numpy as np

from repro.layouts.configspace import sweeps_whole

__all__ = ["kernel_index_array", "shared_samples"]

#: Stream words generated per block; bounds the sampler's working memory.
_BLOCK_WORDS = 1 << 16

#: The draws of the innermost open :func:`shared_samples` block, keyed by
#: ``(sizes, cap, seed)``; ``None`` outside one.
_SHARE: ContextVar[dict | None] = ContextVar("kernel_sample_share", default=None)


@contextmanager
def shared_samples() -> Iterator[None]:
    """Draw each distinct knob space once inside the block.

    Every :func:`kernel_index_array` call with the same arguments gets the
    same read-only array; the draws are dropped when the block exits.
    """
    token = _SHARE.set({})
    try:
        yield
    finally:
        _SHARE.reset(token)


def kernel_index_array(sizes: Sequence[int], *, cap: int | None, seed: int) -> np.ndarray:
    """``(rows, len(sizes))`` ``int32`` knob indices, equal to
    ``kernel_config_indices``.

    Exhaustive row-major enumeration when :func:`sweeps_whole` says so;
    otherwise the scalar generator's deterministic subsample of ``cap``
    distinct rows (at least the all-default row), in the same order.  The
    result is the ``.T`` view of a knob-major C-ordered array, so each
    column is contiguous.  Outside a :func:`shared_samples` block every
    call returns a fresh array; inside one, equal arguments return one
    read-only array.
    """
    sizes = tuple(int(s) for s in sizes)
    share = _SHARE.get()
    if share is None:
        return _index_array(sizes, cap=cap, seed=seed).T
    key = (sizes, cap, seed)
    idx = share.get(key)
    if idx is None:
        knob_major = _index_array(sizes, cap=cap, seed=seed)
        knob_major.flags.writeable = False
        idx = share[key] = knob_major.T
    return idx


def _index_array(sizes: tuple[int, ...], *, cap: int | None, seed: int) -> np.ndarray:
    """:func:`kernel_index_array`'s draw, every call: the knob-major
    ``(len(sizes), rows)`` ``int32`` array."""
    if sizes and max(sizes) >= 1 << 31:
        raise ValueError("knob sizes of 2**31 or more do not fit int32 index rows")
    total = prod(sizes)
    if sweeps_whole(total, cap):
        # Row-major unravel reproduces itertools.product order.
        return np.array(np.unravel_index(np.arange(total), sizes), dtype=np.int32)
    wanted = max(cap - 1, 0)  # distinct rows to draw after the default one
    # Rows drawn before `wanted` distinct non-default ones have usually
    # appeared (coupon collector over `total` values, 10% margin).  The
    # first block covers them, so small caps read few words: one
    # randrange(s) takes 2**s.bit_length() / s words on average.
    due = 1.1 * total * log((total - 0.5) / (total - 0.5 - wanted)) if wanted else 0.0
    per_row = sum((1 << s.bit_length()) / s for s in sizes)
    blocks: list[np.ndarray] = []
    drawn = 0
    for block in _draws(sizes, seed, first=min(int(due * per_row) + 64, _BLOCK_WORDS)):
        blocks.append(block)
        drawn += len(block)
        if drawn < due:
            continue
        flat = np.concatenate(blocks)
        _, first = np.unique(flat, return_index=True)
        first = np.sort(first[flat[first] != 0])  # the default row is seeded
        if len(first) >= wanted:
            break
        blocks, due = [flat], 0  # short: count again after every block
    rows = np.zeros((len(sizes), wanted + 1), dtype=np.int32)  # column 0: default
    rows[:, 1:] = np.unravel_index(flat[first[:wanted]], sizes)
    return rows


def _draws(sizes: tuple[int, ...], seed: int, *, first: int) -> Iterator[np.ndarray]:
    """Flat row-major index of every row ``random.Random(seed)`` draws, in
    order, one array per block of the stream (endless).  The first block
    has ``first`` words, later ones ``_BLOCK_WORDS``."""
    stream = _word_stream(seed)
    thresholds = [s << (32 - s.bit_length()) for s in sizes]
    levels = sorted(set(thresholds))
    ranks = [levels.index(t) for t in thresholds]
    top = len(levels) - 1
    pattern = _row_pattern(ranks, top)
    shifts = [np.uint32(32 - s.bit_length()) for s in sizes]
    # Kept words not yet used by a complete row; they start the next one.
    words = np.empty(0, dtype=np.uint32)
    classes = np.empty(0, dtype=np.uint8)
    n_words = first
    while True:
        fresh = stream.random_raw(n_words).astype(np.uint32)
        n_words = _BLOCK_WORDS
        fresh_classes = np.zeros(len(fresh), dtype=np.uint8)
        for level in levels:
            fresh_classes += (fresh >= level).view(np.uint8)
        kept = fresh_classes <= top  # words no knob accepts never move the walk
        words = np.concatenate([words, fresh[kept]])
        classes = np.concatenate([classes, fresh_classes[kept]])
        rows = pattern.findall((classes + ord("0")).tobytes())
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        cursor = np.cumsum(lengths) - lengths  # each row's first word
        # Per rank below the top: the words it accepts, and how many of
        # them precede each word.
        accepted = {}
        for rank in set(ranks) - {top}:
            accepts = classes <= rank
            before = np.cumsum(accepts, dtype=np.int32)
            before -= accepts
            accepted[rank] = np.flatnonzero(accepts), before
        flat = np.zeros(len(rows), dtype=np.int64)
        for size, rank, shift in zip(sizes, ranks, shifts):
            if rank < top:
                hits, before = accepted[rank]
                cursor = hits[before[cursor]]
            flat = flat * size + (words[cursor] >> shift).astype(np.int64)
            cursor = cursor + 1
        yield flat
        used = int(lengths.sum())
        words, classes = words[used:], classes[used:]


def _word_stream(seed: int) -> np.random.MT19937:
    """numpy's MT19937 in ``random.Random(seed)``'s state: its
    ``random_raw`` words are the words ``getrandbits`` would return."""
    *key, pos = random.Random(seed).getstate()[1]  # 624 key words, read position
    stream = np.random.MT19937()
    stream.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(key, dtype=np.uint32), "pos": pos},
    }
    return stream


def _row_pattern(ranks: list[int], top: int) -> re.Pattern:
    """One row of draws over the class string (class ``c`` is ``chr(48 + c)``).

    A top-rank knob takes the next word; any other knob skips the words it
    rejects and takes the first it accepts.  The two sets are disjoint, so
    the possessive ``*+`` never gives back a word and the match is the
    scalar walk exactly.
    """

    def chars(lo: int, hi: int) -> bytes:
        return b"[" + re.escape(bytes([48 + lo])) + b"-" + re.escape(bytes([48 + hi])) + b"]"

    knobs = [
        b"." if rank == top else chars(rank + 1, top) + b"*+" + chars(0, rank)
        for rank in ranks
    ]
    return re.compile(b"".join(knobs), re.DOTALL)

"""Payloads in, lazily materialized sweeps out.

Evaluation is factored through serializable *payloads*
(:mod:`repro.engine.store`): the same arrays flow from a fresh batched
evaluation (:mod:`repro.engine.batched`), from the on-disk L2 store, from
the in-process L1 (:mod:`repro.engine.memo`), back from a scheduler worker
process or off the wire, and :func:`sweep_from_payload` turns any of them
into the ordinary :class:`~repro.autotuner.tuner.SweepResult` API.
Individual :class:`~repro.autotuner.tuner.ConfigMeasurement` objects are
only built when a consumer actually touches them — ``sweep.best``
materializes one object, a violin summary none at all (it reads the sorted
time array) — so every path is bit-identical by construction.

:func:`delta_payload_from_store` is the delta tier: it re-times a stored
structural twin's skeleton at new dim sizes.  Which tier serves a sweep is
decided in one place, the resolver of :mod:`repro.engine.scheduler`.

Results are bit-identical to :func:`repro.autotuner.tuner.sweep_op_reference`
— same measurements, same order — which tier-1 pins.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable

import numpy as np

from repro.hardware.cost_model import KernelTime
from repro.hardware.spec import GPUSpec
from repro.ir.dims import DimEnv
from repro.ir.operator import OpSpec

from .store import (
    CacheMismatch,
    SweepStore,
    compute_payload_delta,
    space_from_payload,
    structural_sweep_digest,
)

__all__ = [
    "PreSortedMeasurements",
    "delta_payload_from_store",
    "sweep_from_payload",
]


def delta_payload_from_store(
    op: OpSpec,
    env: DimEnv,
    gpu: GPUSpec,
    *,
    cap: int | None,
    seed: int,
    store: SweepStore | None,
) -> dict | None:
    """Delta-re-sweep from a structural twin in ``store``, or ``None``.

    Probes the store's structural sidecar for a payload that differs from
    this sweep only in dim sizes and re-evaluates its persisted skeleton at
    the new sizes (:func:`compute_payload_delta`) — bit-identical to a cold
    sweep, minus the enumeration work.  Returns ``None`` when there is no
    store, no twin exists, or the twin turns out unusable; the caller
    falls back to a cold sweep.  Does **not** save the result: the
    resolver persists it under the new exact digest.
    """
    if store is None:
        return None
    structural = structural_sweep_digest(op, env, gpu, cap=cap, seed=seed)
    base = store.load_structural(structural)
    if base is None:
        return None
    try:
        payload = compute_payload_delta(
            op, env, gpu, cap=cap, seed=seed, base=base, structural=structural
        )
    except CacheMismatch:
        return None
    store.record_delta_hit()
    return payload


class PreSortedMeasurements(Sequence):
    """A lazily materialized, already-sorted measurement sequence.

    Behaves like the plain ``list[ConfigMeasurement]`` the scalar sweep
    builds, but constructs each measurement object on first access.
    ``SweepResult.__post_init__`` re-sorts its measurements by ``total_us``;
    this sequence is constructed in exactly that order, so :meth:`sort` is
    a no-op rather than a forced materialization.
    """

    __slots__ = ("_n", "_build", "_totals", "_items", "_space", "_order")

    def __init__(
        self,
        n: int,
        build: Callable[[int], object],
        sorted_totals: np.ndarray,
        *,
        space=None,
        order: np.ndarray | None = None,
    ) -> None:
        self._n = n
        self._build = build
        self._totals = sorted_totals
        self._items: list[object | None] = [None] * n
        # The enumerated config space and the stable-sort permutation, kept
        # so array consumers (the configsel fast path) can read per-
        # measurement layouts without materializing measurement objects.
        self._space = space
        self._order = order

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._n))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        item = self._items[i]
        if item is None:
            item = self._items[i] = self._build(i)
        return item

    def sort(self, *args, **kwargs) -> None:
        """No-op: the sequence is constructed sorted by ``total_us``."""

    def times_us(self) -> list[float]:
        """Sorted totals without materializing measurement objects."""
        return self._totals.tolist()

    def totals_array(self) -> np.ndarray:
        """Sorted totals as a float64 array (no copy, no materialization)."""
        return self._totals

    def operand_layout_index(self):
        """Per-operand layout vocabularies and per-measurement layout ids.

        Returns ``(vocabs, ids)`` where ``vocabs[s]`` lists the layout
        choices of operand slot ``s`` (inputs then outputs) and ``ids[s]``
        maps each measurement — in sorted order — to its index in
        ``vocabs[s]``.  Derived straight from the enumerated space plus the
        sort permutation, so no measurement objects are built.  ``None``
        when the sequence was constructed without a space.  The ids take
        the narrowest unsigned dtype their vocabulary fits: every sweep
        rebuilt from a cached payload holds its own copy.
        """
        if self._space is None or self._order is None:
            return None
        from .space import ContractionSpace

        space, order = self._space, self._order
        if isinstance(space, ContractionSpace):
            ids = space.triple_idx[order].astype(
                np.min_scalar_type(len(space.triples))
            )
            vocabs = [
                [t[0] for t in space.triples],
                [t[1] for t in space.triples],
                [t[2] for t in space.triples],
            ]
            return vocabs, [ids, ids, ids]
        vocabs = [list(choices) for choices in space.layout_choices]
        dtype = np.min_scalar_type(max(map(len, vocabs)))
        return vocabs, list(np.take(space.idx.T.astype(dtype), order, axis=1))

    def __eq__(self, other) -> bool:
        if isinstance(other, (PreSortedMeasurements, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable cache inside

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = sum(1 for x in self._items if x is not None)
        return f"<PreSortedMeasurements n={self._n} materialized={built}>"


def sweep_from_payload(op: OpSpec, payload: dict):
    """Wrap one evaluated payload as a lazily materialized ``SweepResult``.

    The payload's timing arrays are name-free; configurations materialize
    with ``op``'s name, so one (contraction) payload can serve every
    structurally identical operator.
    """
    from repro.autotuner.tuner import ConfigMeasurement, SweepResult

    space = space_from_payload(op, payload)
    order = payload["order"]
    compute_us = payload["compute_us"]
    memory_us = payload["memory_us"]
    launch_us = float(payload["launch_us"])
    sorted_totals = payload["sorted_totals"]

    def build(i: int):
        j = int(order[i])
        return ConfigMeasurement(
            config=space.config_at(j),
            time=KernelTime(
                compute_us=float(compute_us[j]),
                memory_us=float(memory_us[j]),
                launch_us=launch_us,
            ),
        )

    measurements = PreSortedMeasurements(
        len(order), build, sorted_totals, space=space, order=order
    )
    return SweepResult(op=op, measurements=measurements)

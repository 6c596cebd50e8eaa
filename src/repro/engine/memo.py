"""The in-process L1: one byte-bounded, thread-safe payload LRU.

Every sweep the engine resolves (``sweep_op``, ``sweep_graph``,
``contraction_time_split``) goes through one tier chain in
:mod:`repro.engine.scheduler`, whose first tier is an L1 of sweep
*payloads* (the serializable form of :mod:`repro.engine.store`) keyed by
:func:`repro.engine.store.sweep_digest`.  ``SweepResult`` objects are not
cached: each call rebuilds one lazily from the cached payload
(:func:`repro.engine.sweep.sweep_from_payload`), so callers share payload
arrays, never measurement objects.  Contraction digests are name-free, so
structurally identical GEMMs hit one entry even across separately built
graphs.

The digest embeds the version of the caller's cost-model snapshot, so a
request built after a calibration promotion or rollback uses new keys:
entries of the other model are unreachable and age out of the LRU.

The bound is :data:`PAYLOAD_L1_BYTES` of payload arrays, above the working
set of any graph the engine sweeps.  This module's instance is the engine's
(emptied by :func:`clear_sweep_memo`); each tuning daemon holds one of its
own from :func:`new_payload_cache`, and bounds its encoded-reply cache and
its decision map with the same :class:`BoundedCache` class, by bytes.  The
persistent store of :mod:`repro.engine.store` sits under the L1 as L2.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

__all__ = [
    "BoundedCache",
    "ENGINE_L1",
    "PAYLOAD_L1_BYTES",
    "clear_sweep_memo",
    "new_payload_cache",
    "payload_nbytes",
    "sweep_memo_stats",
]

#: Byte bound of a payload L1.  The fused encoder forward+backward graph at
#: cap=20000 is 32 payloads totalling 22 MB (the largest 2.4 MB), so this
#: holds several whole graphs.
PAYLOAD_L1_BYTES = 256 * 2**20


class BoundedCache:
    """A thread-safe LRU mapping bounded by the total weight of its values.

    ``weigh`` gives one value's weight; without it every value weighs 1 and
    ``capacity`` is an entry cap.  Least-recently-used entries are evicted
    until the total fits, and a value heavier than the whole capacity is
    not cached at all, so the total never exceeds ``capacity``.
    """

    def __init__(
        self, capacity: int = 1024, *, weigh: Callable[[object], int] | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._weigh = weigh
        self._lock = threading.Lock()
        self._items: OrderedDict[str, tuple[object, int]] = OrderedDict()
        self.size = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str, *, record: bool = True):
        """The cached value, refreshed to most-recently-used; else None.

        ``record=False`` skips the hit/miss counters — for internal
        re-checks that would otherwise double-count one request.
        """
        with self._lock:
            item = self._items.get(key)
            if item is None:
                if record:
                    self.misses += 1
                return None
            self._items.move_to_end(key)
            if record:
                self.hits += 1
            return item[0]

    def put(self, key: str, value) -> None:
        weight = 1 if self._weigh is None else self._weigh(value)
        with self._lock:
            old = self._items.pop(key, None)
            if old is not None:
                self.size -= old[1]
            if weight > self.capacity:
                return
            self._items[key] = (value, weight)
            self.size += weight
            while self.size > self.capacity:
                _, (_, evicted) = self._items.popitem(last=False)
                self.size -= evicted
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._items.clear()
            self.size = self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._items),
                "size": self.size,
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def payload_nbytes(payload: dict) -> int:
    """A payload's weight in the L1: the bytes of its arrays (at least 1)."""
    return max(
        1, sum(v.nbytes for v in payload.values() if isinstance(v, np.ndarray))
    )


def new_payload_cache() -> BoundedCache:
    """An empty payload L1 bounded by :data:`PAYLOAD_L1_BYTES`."""
    return BoundedCache(PAYLOAD_L1_BYTES, weigh=payload_nbytes)


#: The engine's payload L1, used whenever a caller passes none.
ENGINE_L1 = new_payload_cache()


def clear_sweep_memo() -> None:
    """Empty the engine's payload L1 (and reset its counters)."""
    ENGINE_L1.clear()


def sweep_memo_stats() -> dict[str, int]:
    """The engine L1's counters; ``size`` is its payload bytes."""
    return ENGINE_L1.stats()

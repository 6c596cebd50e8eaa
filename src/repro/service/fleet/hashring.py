"""Consistent hashing of sweep digests onto worker daemons.

The wire key of a sweep request *is* the L2 store digest (a SHA-256 hex
string), so routing needs no extra canonicalization: hashing the digest
onto a ring of worker virtual nodes assigns every sweep a stable home
worker, and structurally identical requests land on the same worker's
warm caches no matter which coordinator routes them.

The ring is deterministic in the strong sense the fleet's
retry-with-exclusion depends on:

* membership is a pure function of the node ids — two coordinators that
  know the same workers build bit-identical rings;
* removing (or excluding) a node reassigns *only that node's* keys, each
  to the next node clockwise — every other key keeps its home, so a
  worker coming back from quarantine reclaims exactly the keys it owned
  before;
* :meth:`preference` yields the full failover order for a key, which is
  what the coordinator walks when its first choice is quarantined.

Virtual nodes (:data:`REPLICAS` points per worker) smooth the key
distribution; 64 is plenty for fleets of a handful of daemons.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Iterator

__all__ = ["REPLICAS", "HashRing"]

#: Virtual nodes per worker.  More replicas → smoother key distribution
#: at slightly higher ring-build cost (one SHA-256 hash per replica).
REPLICAS = 64


def _point(data: str) -> int:
    """One position on the 64-bit ring (the first 8 digest bytes)."""
    return int.from_bytes(hashlib.sha256(data.encode()).digest()[:8], "big")


class HashRing:
    """A consistent hash ring over string node ids.

    Not thread-safe by itself: the coordinator rebuilds a ring per
    registry generation under its own lock and only *reads* it
    concurrently (reads never mutate).
    """

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        self._points: list[int] = []
        # point -> sorted claimant node ids.  A 64-bit point collision
        # between two nodes is a ~2**-64 event, but resolving it by the
        # lexicographically first claimant keeps the ring a pure function
        # of membership (insertion order can never matter).
        self._owners: dict[int, list[str]] = {}
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    # -- membership -----------------------------------------------------------
    def _node_points(self, node: str) -> list[int]:
        return [_point(f"{node}#{i}") for i in range(REPLICAS)]

    def add(self, node: str) -> bool:
        """Add ``node``; returns False if it was already on the ring."""
        if not node:
            raise ValueError("node id must be a non-empty string")
        if node in self._nodes:
            return False
        self._nodes.add(node)
        for p in self._node_points(node):
            claimants = self._owners.setdefault(p, [])
            if not claimants:
                bisect.insort(self._points, p)
            bisect.insort(claimants, node)
        return True

    def remove(self, node: str) -> bool:
        """Remove ``node``; every other node's keys are untouched."""
        if node not in self._nodes:
            return False
        self._nodes.discard(node)
        for p in self._node_points(node):
            claimants = self._owners[p]
            claimants.remove(node)
            if not claimants:
                del self._owners[p]
                del self._points[bisect.bisect_left(self._points, p)]
        return True

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    # -- lookup ----------------------------------------------------------------
    def iter_preference(
        self, key: str, *, exclude: frozenset[str] | set[str] = frozenset()
    ) -> Iterator[str]:
        """Distinct nodes in failover order for ``key``, lazily.

        The first yielded node is the key's home; each subsequent one is
        where the key lands if everything before it is excluded — i.e.
        exactly the reassignment :meth:`remove` would produce.
        """
        if not self._points:
            return
        seen: set[str] = set()
        start = bisect.bisect_right(self._points, _point(key))
        n = len(self._points)
        for off in range(n):
            owner = self._owners[self._points[(start + off) % n]][0]
            if owner in seen or owner in exclude:
                continue
            seen.add(owner)
            yield owner

    def preference(
        self, key: str, *, exclude: frozenset[str] | set[str] = frozenset()
    ) -> list[str]:
        """The full failover order of ``key`` (see :meth:`iter_preference`)."""
        return list(self.iter_preference(key, exclude=exclude))

    def node_for(
        self, key: str, *, exclude: frozenset[str] | set[str] = frozenset()
    ) -> str | None:
        """The first eligible node for ``key``, or None if all excluded."""
        return next(self.iter_preference(key, exclude=exclude), None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HashRing({len(self._nodes)} nodes x {REPLICAS} replicas, "
            f"{len(self._points)} points)"
        )

"""Request coalescing: single-flight evaluation for the tuning daemon.

A tuning daemon's hot failure mode is the *thundering herd*: N clients ask
for the same (expensive, deterministic) sweep at once and a naive server
evaluates it N times.  :class:`SingleFlight` guarantees that concurrent
callers of one key trigger exactly one evaluation — the first caller in
becomes the **leader** and computes; everyone else parks on an event and
receives the leader's result (or its exception).  The engine's resolver
(:func:`repro.engine.scheduler.resolve`) takes it as its per-digest guard.

:class:`BoundedCache` is the engine's LRU (:mod:`repro.engine.memo`),
re-exported here: each daemon holds one byte-bounded payload L1 of it and
one entry-bounded cache of whole ``/v1/optimize`` responses.
"""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

from repro.engine.memo import BoundedCache

__all__ = ["BoundedCache", "SingleFlight"]

T = TypeVar("T")


class _Flight:
    """One in-progress evaluation and the callers waiting on it."""

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None


class SingleFlight:
    """Per-key single-flight execution for concurrent identical requests."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}
        #: Requests served by waiting on another caller's evaluation.
        self.coalesced = 0
        #: Evaluations actually led (== calls of ``fn``).
        self.led = 0

    def inflight(self) -> int:
        """Number of keys currently being evaluated."""
        with self._lock:
            return len(self._flights)

    def do(
        self, key: str, fn: Callable[[], T], *, timeout: float | None = None
    ) -> tuple[T, bool]:
        """Run ``fn`` once per concurrent batch of callers of ``key``.

        Returns ``(value, leader)`` where ``leader`` is True for the caller
        that actually evaluated.  An exception raised by the leader's
        ``fn`` propagates to *every* caller of that flight; the flight is
        retired either way, so a later request retries the evaluation
        instead of inheriting a cached failure.  ``timeout`` bounds how
        long a follower waits on the leader — a hung evaluation then fails
        that follower with :class:`TimeoutError` instead of parking it
        forever.
        """
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = _Flight()
                self.led += 1
            else:
                self.coalesced += 1

        if not leader:
            if not flight.done.wait(timeout):
                raise TimeoutError(
                    f"gave up after {timeout}s waiting on the in-flight "
                    f"evaluation of {key!r}"
                )
            if flight.error is not None:
                raise flight.error
            return flight.value, False  # type: ignore[return-value]

        try:
            flight.value = fn()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                del self._flights[key]
            flight.done.set()
        return flight.value, True  # type: ignore[return-value]

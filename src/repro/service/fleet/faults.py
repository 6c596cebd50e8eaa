"""Env-gated fault injection: kill, hang, or corrupt a daemon's responses.

The chaos suite proves the fleet's failure semantics against *real*
faults, not mocks: a worker daemon started with ``REPRO_FAULT_SPEC`` set
will genuinely die mid-request (``os._exit``), stall past the
coordinator's deadline, or flip bytes in an otherwise-valid response (so
the coordinator's digest verification has something real to catch).  The
injector is wired into the HTTP handler of every daemon but costs nothing
when the spec is empty — ``FaultInjector.from_env()`` returns ``None`` and
the handler skips the hooks entirely.

Spec grammar (whitespace around separators is ignored)::

    REPRO_FAULT_SPEC = clause[,clause...]
    clause           = kind[:field=value...]
    kind             = kill | hang | corrupt | crash-rollout
    field            = path=<substring>    endpoint filter (default "/v1/")
                     | after=<N>           fire from the Nth match on (default 1)
                     | count=<M>           fire at most M times; 0 = unlimited
                     |                     (default 1)
                     | delay=<seconds>     hang duration (hang only, default 30)

Examples::

    kill:path=/v1/sweep:after=2          # die on the 2nd sweep request
    hang:path=/v1/sweep:delay=8          # stall the 1st sweep for 8 s
    corrupt:path=/v1/sweep:count=0       # corrupt every sweep response

``kill`` exits with :data:`KILL_EXIT_CODE` *before* any response bytes are
written — the client sees a connection reset, exactly what a crashed
worker looks like.  ``corrupt`` flips bytes mid-body while preserving
``Content-Length``, so the transport layer is happy and only payload
verification (the payload container's CRC-32, the digest check) can
notice.  ``crash-rollout`` is a kill aimed at the calibration rollout's
commit hooks instead of an HTTP route: its default ``path`` is
``rollout-pre-commit`` (die just before the promote commit point;
``path=rollout-post-commit`` dies just after),
which the chaos suite uses to prove promotion recovers to exactly one of
{prior, promoted}.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "FaultClause",
    "FaultInjector",
    "FaultSpecError",
    "parse_fault_spec",
]

ENV_VAR = "REPRO_FAULT_SPEC"
FAULT_KINDS = ("kill", "hang", "corrupt", "crash-rollout")

#: Exit status of a ``kill`` fault — distinguishable from a clean 0 and
#: from Python's generic 1 in process tables and test assertions.
KILL_EXIT_CODE = 17


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULT_SPEC`` value (fail loud at startup)."""


@dataclass
class FaultClause:
    """One parsed clause plus its runtime firing state."""

    kind: str
    path: str = "/v1/"
    after: int = 1
    count: int = 1  # 0 = unlimited
    delay: float = 30.0
    #: Requests that matched ``path`` so far (drives ``after``).
    matched: int = field(default=0, compare=False)
    #: Times this clause actually fired (bounded by ``count``).
    fired: int = field(default=0, compare=False)

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "path": self.path,
            "after": self.after,
            "count": self.count,
            "delay": self.delay,
            "matched": self.matched,
            "fired": self.fired,
        }


def _parse_int(value: str, where: str, *, minimum: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise FaultSpecError(f"{where} must be an integer, got {value!r}") from None
    if n < minimum:
        raise FaultSpecError(f"{where} must be >= {minimum}, got {n}")
    return n


def parse_fault_spec(spec: str) -> list[FaultClause]:
    """Parse one ``REPRO_FAULT_SPEC`` string into clauses (may be empty)."""
    clauses: list[FaultClause] = []
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        kind, _, rest = raw.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} in clause {raw!r}; "
                f"known: {list(FAULT_KINDS)}"
            )
        clause = FaultClause(kind=kind)
        if kind == "crash-rollout":
            # This kind targets the rollout manager's commit hooks, not an
            # HTTP route; default to dying just before the commit point
            # (``path=rollout-post-commit`` crashes just after it).
            clause.path = "rollout-pre-commit"
        if rest:
            for part in rest.split(":"):
                key, eq, value = part.partition("=")
                key, value = key.strip(), value.strip()
                if not eq or not value:
                    raise FaultSpecError(
                        f"fault clause field {part!r} is not key=value"
                    )
                if key == "path":
                    clause.path = value
                elif key == "after":
                    clause.after = _parse_int(value, "after", minimum=1)
                elif key == "count":
                    clause.count = _parse_int(value, "count", minimum=0)
                elif key == "delay":
                    try:
                        clause.delay = float(value)
                    except ValueError:
                        raise FaultSpecError(
                            f"delay must be a number, got {value!r}"
                        ) from None
                    if clause.delay < 0:
                        raise FaultSpecError("delay must be non-negative")
                else:
                    raise FaultSpecError(
                        f"unknown fault clause field {key!r}; "
                        "known: path, after, count, delay"
                    )
        clauses.append(clause)
    return clauses


def _corrupt_bytes(data: bytes) -> bytes:
    """Flip bytes without changing the length (Content-Length stays true)."""
    if not data:
        return data
    out = bytearray(data)
    # Three spread-out flips: one mid-body (array data in a packed payload,
    # a value in JSON), plus the two quartile points for tiny bodies' sake.
    for pos in (len(out) // 2, len(out) // 4, (3 * len(out)) // 4):
        out[pos] ^= 0x5A
    return bytes(out)


class FaultInjector:
    """Matches requests against clauses and applies the fired faults."""

    def __init__(self, clauses: list[FaultClause]) -> None:
        self._lock = threading.Lock()
        self.clauses = clauses

    @classmethod
    def from_spec(cls, spec: str | None) -> "FaultInjector | None":
        """An injector for ``spec``, or None when there is nothing to do."""
        if not spec or not spec.strip():
            return None
        clauses = parse_fault_spec(spec)
        return cls(clauses) if clauses else None

    @classmethod
    def from_env(cls) -> "FaultInjector | None":
        return cls.from_spec(os.environ.get(ENV_VAR))

    def _fires(self, clause: FaultClause, endpoint: str) -> bool:
        """Match + advance one clause's counters (thread-safe)."""
        if clause.path not in endpoint:
            return False
        with self._lock:
            clause.matched += 1
            if clause.matched < clause.after:
                return False
            if clause.count and clause.fired >= clause.count:
                return False
            clause.fired += 1
            return True

    # -- hook points (called by the HTTP handler) ------------------------------
    def before(self, endpoint: str) -> None:
        """Apply ``kill``/``hang`` faults before the request is handled.

        ``kill`` never returns: the process dies exactly as a crashed
        worker would, mid-request, with no response bytes on the wire and
        no atexit cleanup.
        """
        for clause in self.clauses:
            if clause.kind in ("kill", "crash-rollout") and self._fires(
                clause, endpoint
            ):
                os._exit(KILL_EXIT_CODE)
            if clause.kind == "hang" and self._fires(clause, endpoint):
                time.sleep(clause.delay)

    def mangle_reply(self, endpoint: str, reply):
        """Apply ``corrupt`` faults to an outgoing :class:`WireReply`.

        A streamed reply is drained into memory first so the flipped bytes
        still match the advertised ``Content-Length``.  (Duck-typed on the
        reply's ``body``/``stream`` attributes; the server module imports
        this one, not the other way around.)
        """
        for clause in self.clauses:
            if clause.kind == "corrupt" and self._fires(clause, endpoint):
                if reply.stream is not None:
                    try:
                        data = reply.stream.read()
                    finally:
                        reply.stream.close()
                    reply.stream = None
                    reply.stream_len = 0
                    reply.body = _corrupt_bytes(data)
                else:
                    reply.body = _corrupt_bytes(reply.body)
        return reply

    def stats(self) -> list[dict]:
        with self._lock:
            return [c.to_wire() for c in self.clauses]

"""The on-disk schedule registry: ``<digest>.json`` entries, atomically
written, strictly verified on load.

Mirrors the sweep store's contract one level up.  ``register`` writes the
canonical entry bytes to a temp file and ``os.replace``s it into place, so
a reader — a CLI ``repro validate`` racing the daemon's ``/v1/register``,
or the daemon's own background revalidation — either sees the previous
complete entry or the new complete entry, never a torn one.  ``load``
verifies three digests agree (the filename, the entry's recorded digest,
and the digest recomputed from the entry's own problem tuple) and raises
:class:`RegistryError` — a :class:`~repro.engine.store.CacheMismatch`
— on any corruption, truncation or tampering; callers report and
re-register, never silently reuse.

The process-active registry resolves like the store's:
``REPRO_SCHEDULE_REGISTRY`` names a directory explicitly, and otherwise
the registry lives *alongside* the active L2 sweep store at
``<store>/registry`` — registered schedules and the sweeps they cite
travel together (the nightly CI caches both under one path).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from pathlib import Path

from repro import __version__
from repro.engine.store import CacheMismatch, get_sweep_store, sweep_digest
from repro.hardware.cost_model import CostModel
from repro.hardware.params import active_cost_model_version
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.service.protocol import gpu_to_wire

from .entry import (
    EntryError,
    ScheduleEntry,
    graph_to_wire,
    schedule_digest,
    selection_to_entry_wire,
)

__all__ = [
    "REGISTRY_ENV_VAR",
    "RegistryError",
    "ScheduleRegistry",
    "build_entry",
    "get_schedule_registry",
    "register_selection",
    "set_schedule_registry",
]

#: Environment variable naming the registry directory (CLI: ``--registry``).
REGISTRY_ENV_VAR = "REPRO_SCHEDULE_REGISTRY"


class RegistryError(CacheMismatch):
    """A present-but-unusable registry entry (corrupt, truncated, tampered)."""


class ScheduleRegistry:
    """A directory of content-addressed schedule entries."""

    def __init__(self, root: str | Path) -> None:
        # expanduser: tilde paths arrive unexpanded from CI yaml env blocks.
        self.root = Path(root).expanduser()
        self._lock = threading.Lock()  # counters only: held briefly
        self.registered = 0
        self.loads = 0
        self.misses = 0
        self.rejected = 0

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def digests(self) -> list[str]:
        """Registered digests, sorted (in-flight ``.tmp`` files excluded)."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    # -- writing -------------------------------------------------------------
    def register(self, entry: ScheduleEntry) -> Path:
        """Atomically persist one entry under its digest.

        The write is temp-file + ``os.replace``: concurrent readers never
        observe a partial entry, and re-registering a digest atomically
        replaces the previous answer (same problem, refreshed provenance).
        """
        path = self.path_for(entry.digest)
        self.root.mkdir(parents=True, exist_ok=True)
        blob = entry.to_bytes()
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        with self._lock:
            self.registered += 1
        return path

    # -- reading -------------------------------------------------------------
    def load(self, digest: str) -> ScheduleEntry | None:
        """Deserialize and verify one entry.

        Returns ``None`` on a clean miss.  A present-but-unusable entry
        raises :class:`RegistryError`: corrupt/truncated JSON, missing
        fields, or any disagreement between the filename digest, the
        entry's recorded digest, and the digest recomputed from the entry's
        own problem tuple (under the entry's *recorded* cost-model version,
        so staleness surfaces as a validation report, not a load failure).
        """
        path = self.path_for(digest)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        where = f"registry entry {path}"
        try:
            entry = ScheduleEntry.from_bytes(raw, where)
            if entry.digest != digest:
                raise RegistryError(
                    f"{where} declares digest {entry.digest!r}, expected {digest!r}"
                )
            recomputed = entry.recompute_digest()
            if recomputed != digest:
                raise RegistryError(
                    f"{where} does not hash to its address: its problem tuple "
                    f"digests to {recomputed!r} (entry tampered or truncated; "
                    f"re-register it)"
                )
        except RegistryError:
            with self._lock:
                self.rejected += 1
            raise
        except EntryError as exc:
            with self._lock:
                self.rejected += 1
            raise RegistryError(f"{where}: {exc}") from exc
        with self._lock:
            self.loads += 1
        return entry

    def entries(self):
        """Yield ``(digest, entry_or_error)`` for every registered digest.

        The recovery-friendly iteration ``repro validate --all`` uses: a
        corrupt entry yields its :class:`RegistryError` instead of aborting
        the scan, so one bad file cannot hide the rest of the registry.
        """
        for digest in self.digests():
            try:
                entry = self.load(digest)
            except RegistryError as exc:
                yield digest, exc
                continue
            if entry is not None:  # raced deletion: skip cleanly
                yield digest, entry

    def stats(self) -> dict[str, int]:
        entries = (
            sum(1 for _ in self.root.glob("*.json")) if self.root.is_dir() else 0
        )
        with self._lock:
            return {
                "entries": entries,
                "registered": self.registered,
                "loads": self.loads,
                "misses": self.misses,
                "rejected": self.rejected,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleRegistry({str(self.root)!r})"


# ---------------------------------------------------------------------------
# Building and registering entries from live selections
# ---------------------------------------------------------------------------

def build_entry(
    graph: DataflowGraph,
    env: DimEnv,
    cost: CostModel,
    selection,
    *,
    cap: int | None,
    seed: int = 0x5EED,
    source: str = "x",
    registrar: str = "api",
) -> ScheduleEntry:
    """Assemble the registry artifact for one completed selection.

    Provenance cites the L2 sweep digest of every configured operator —
    computed with the same knobs the selection swept under, so each cited
    digest is the exact ``.npz`` entry a warmed store served (or would
    have written).
    """
    gpu = cost.gpu
    digest = schedule_digest(graph, env, gpu, cap=cap, seed=seed, source=source)
    sweeps = {
        op.name: sweep_digest(op, env, gpu, cap=cap, seed=seed)
        for op in graph.ops
        if not op.is_view
    }
    return ScheduleEntry(
        digest=digest,
        cost_model_version=active_cost_model_version(),
        graph=graph_to_wire(graph),
        env={d: env[d] for d in sorted(_entry_dims(graph))},
        gpu=gpu_to_wire(gpu),
        knobs={"cap": cap, "seed": seed, "source": source},
        selection=selection_to_entry_wire(selection),
        provenance={
            "sweeps": sweeps,
            "registrar": registrar,
            "package_version": __version__,
            "registered_at": time.time(),
        },
    )


def _entry_dims(graph: DataflowGraph) -> set[str]:
    from .entry import _graph_dims

    return _graph_dims(graph)


def register_selection(
    registry: ScheduleRegistry,
    graph: DataflowGraph,
    env: DimEnv,
    cost: CostModel,
    selection,
    *,
    cap: int | None,
    seed: int = 0x5EED,
    source: str = "x",
    registrar: str = "api",
) -> ScheduleEntry:
    """Build and atomically persist the entry for one selection."""
    entry = build_entry(
        graph, env, cost, selection,
        cap=cap, seed=seed, source=source, registrar=registrar,
    )
    registry.register(entry)
    return entry


# ---------------------------------------------------------------------------
# The process-active registry
# ---------------------------------------------------------------------------

_UNSET = object()
_ACTIVE: ScheduleRegistry | None | object = _UNSET
#: One-slot memo of the store-derived default, keyed by the store root —
#: repeated get() calls must return the same instance (stable counters).
_DERIVED: tuple[Path, ScheduleRegistry] | None = None


def set_schedule_registry(
    registry: ScheduleRegistry | str | Path | None,
) -> ScheduleRegistry | None:
    """Install (or disable, with ``None``) the process-active registry."""
    global _ACTIVE
    if registry is not None and not isinstance(registry, ScheduleRegistry):
        registry = ScheduleRegistry(registry)
    _ACTIVE = registry
    return registry


def get_schedule_registry() -> ScheduleRegistry | None:
    """The active registry: explicit > ``REPRO_SCHEDULE_REGISTRY`` >
    alongside the active L2 sweep store (``<store>/registry``) > None."""
    global _ACTIVE, _DERIVED
    if _ACTIVE is _UNSET:
        path = os.environ.get(REGISTRY_ENV_VAR, "").strip()
        _ACTIVE = ScheduleRegistry(path) if path else None
    if _ACTIVE is not None:
        return _ACTIVE  # type: ignore[return-value]
    store = get_sweep_store()
    if store is None:
        return None
    root = store.root / "registry"
    if _DERIVED is None or _DERIVED[0] != root:
        _DERIVED = (root, ScheduleRegistry(root))
    return _DERIVED[1]

"""The measurement feedback store: crash-safe JSONL, digest-per-record.

``POST /v1/report`` lands here.  The store holds *measured* kernel wall
times for the operators the paper's Table III names — the ground truth a
calibration fit is scored against.  Contract, mirroring the sweep store's
discipline one more level down:

* **validate-all-before-append-any** — a batch containing one malformed
  record changes nothing; the caller gets a structured rejection and the
  store's bytes are untouched;
* **append is atomic at line granularity** — all accepted records are
  serialized into one buffer and written with a single ``write`` +
  ``flush`` + ``fsync``, so a crash mid-batch leaves at most one torn
  *final* line;
* **torn tails are tolerated, corruption is not** — a final partial line
  (the crash signature) is silently dropped on load; a malformed or
  digest-mismatched line *before* the tail means the file was edited and
  raises :class:`FeedbackError`.

Every record carries the ``cost_model_version`` it was measured against;
the server rejects reports that disagree with the *served* version, so a
fit never mixes measurements from two different models.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro.analysis.calibration import PAPER_TABLE3_US
from repro.wire import At

__all__ = [
    "CALIBRATION_DIR_ENV_VAR",
    "FEEDBACK_FILE_NAME",
    "FeedbackError",
    "FeedbackStore",
    "record_digest",
    "resolve_calibration_root",
    "table3_corpus",
    "validate_record",
]

#: Environment variable naming the calibration directory (feedback store
#: + rollout state/journal).  CLI: ``repro serve --calibration-dir``.
CALIBRATION_DIR_ENV_VAR = "REPRO_CALIBRATION_DIR"

FEEDBACK_FILE_NAME = "feedback.jsonl"

#: The two measurement sides, matching Table III's columns.
RECORD_SIDES = ("pt", "ours")

#: Fields a canonical record carries — exactly these, no more.
_RECORD_FIELDS = ("label", "side", "measured_us", "cost_model_version", "provenance")


class FeedbackError(ValueError):
    """A rejected measurement record or a corrupt feedback file."""


_RECORD = At(FeedbackError, "record")


def record_digest(record: dict) -> str:
    """The content digest of one canonical record (``digest`` excluded)."""
    body = {k: record[k] for k in _RECORD_FIELDS}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def validate_record(
    wire: object,
    at: At = _RECORD,
    *,
    served_version: int | str | None = None,
) -> dict:
    """Validate one wire record into canonical form, or raise ``at``'s
    error (:class:`FeedbackError` by default).

    ``served_version`` (when given) pins the record to the model this
    process serves: a measurement taken against any other version is
    rejected rather than silently mixed into the corpus.
    """
    w = at.object(wire)
    unknown = sorted(w.keys() - set(_RECORD_FIELDS) - {"digest"})
    if unknown:
        at.fail(f"carries unknown fields {unknown}")
    label = at.choice(
        w, "label", PAPER_TABLE3_US.keys(), what="Table III operator label"
    )
    side = at.choice(w, "side", RECORD_SIDES)
    measured = float(at.number(w, "measured_us"))
    if measured <= 0:
        at.fail(f"must be positive, got {measured!r}", "measured_us")
    version = at.version(w, "cost_model_version")
    if served_version is not None and version != served_version:
        at.fail(
            f"was measured against cost-model version {version!r}; "
            f"this process serves version {served_version!r} — re-measure "
            f"against the served model"
        )
    return {
        "label": label,
        "side": side,
        "measured_us": measured,
        "cost_model_version": version,
        "provenance": at.name(w, "provenance", "api"),
    }


class FeedbackStore:
    """Retained measurements, on disk (JSONL) or in memory (``root=None``)."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None else None
        self._lock = threading.Lock()
        self._memory: list[dict] = []

    @property
    def path(self) -> Path | None:
        return None if self.root is None else self.root / FEEDBACK_FILE_NAME

    # -- writing -------------------------------------------------------------
    def append(self, records: list[dict]) -> int:
        """Durably append already-validated canonical records, all-or-nothing.

        Each record gains its content ``digest`` before writing; the whole
        batch is one buffered write + fsync, so a crash can tear only the
        final line — which :meth:`load` tolerates.
        """
        stamped = []
        for record in records:
            rec = dict(record)
            rec["digest"] = record_digest(rec)
            stamped.append(rec)
        with self._lock:
            if self.root is None:
                self._memory.extend(stamped)
                return len(stamped)
            self.root.mkdir(parents=True, exist_ok=True)
            blob = "".join(
                json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                for rec in stamped
            ).encode("utf-8")
            with open(self.path, "ab") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
        return len(stamped)

    # -- reading -------------------------------------------------------------
    def records(self) -> list[dict]:
        """Every retained record, verified.

        A torn *final* line (no trailing record after a crash mid-append)
        is dropped silently; anything malformed before the tail raises
        :class:`FeedbackError` — the file was edited, not torn.
        """
        with self._lock:
            if self.root is None:
                return [dict(rec) for rec in self._memory]
            path = self.path
            try:
                raw = path.read_bytes()
            except FileNotFoundError:
                return []
        lines = raw.split(b"\n")
        # A file ending in "\n" splits into [..., b""]; anything else in the
        # final slot is a torn tail from a crash mid-append.
        tail_torn = lines and lines[-1] != b""
        body = lines[:-1]
        out = [
            _record_from_line(line, At(FeedbackError, f"{path}:{i + 1}"))
            for i, line in enumerate(body)
        ]
        if tail_torn:
            # Attempt to parse it anyway — a complete-but-unterminated final
            # record is still usable; a genuinely torn one is dropped.
            try:
                out.append(_record_from_line(lines[-1], At(FeedbackError, "tail")))
            except FeedbackError:
                pass
        return out

    def count(self) -> int:
        return len(self.records())

    def corpus_digest(self, records: list[dict] | None = None) -> str:
        """One digest over the whole corpus (order-sensitive by design)."""
        if records is None:
            records = self.records()
        h = hashlib.sha256()
        for rec in records:
            h.update((rec.get("digest") or record_digest(rec)).encode())
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        root = "memory" if self.root is None else str(self.root)
        return f"FeedbackStore({root!r})"


def _record_from_line(line: bytes, at: At) -> dict:
    """One stored line: a valid record that hashes to its recorded digest."""
    try:
        wire = json.loads(line)
    except ValueError:
        at.fail(
            "is a corrupt feedback record (not valid JSON; mid-file "
            "corruption, not a torn tail)"
        )
    record = validate_record(wire, at)
    digest = at.string(wire, "digest")
    if record_digest(record) != digest:
        at.fail(
            "does not hash to its recorded digest (file edited or "
            "truncated mid-record)"
        )
    record["digest"] = digest
    return record


def table3_corpus(version: int | str | None = None) -> list[dict]:
    """The paper's Table III measurements as canonical records.

    This is the built-in ground-truth corpus ``repro report`` submits: one
    ``pt`` and one ``ours`` record per Table III row, sorted by (label,
    side) so the resulting store bytes — and therefore the corpus digest
    and every downstream fit — are deterministic.
    """
    if version is None:
        from repro.hardware.params import active_cost_model_version

        version = active_cost_model_version()
    records = []
    for label in sorted(PAPER_TABLE3_US):
        pt_us, ours_us = PAPER_TABLE3_US[label]
        for side, measured in (("ours", ours_us), ("pt", pt_us)):
            records.append(
                {
                    "label": label,
                    "side": side,
                    "measured_us": float(measured),
                    "cost_model_version": version,
                    "provenance": "paper-table3",
                }
            )
    return records


_ACTIVE_STORE = object()


def resolve_calibration_root(
    explicit: str | Path | None = None,
    *,
    store: object = _ACTIVE_STORE,
) -> Path | None:
    """Where calibration state lives: explicit > ``REPRO_CALIBRATION_DIR``
    > alongside the L2 sweep store (``<store>/calibration``) > nowhere
    (in-memory feedback, non-durable rollout).

    ``store`` pins which sweep store the derived default hangs off (a
    daemon constructed with an explicit store must not follow the
    process-active one); by default the process-active store is used, and
    ``store=None`` disables the derivation entirely.
    """
    if explicit is not None:
        return Path(explicit).expanduser()
    env = os.environ.get(CALIBRATION_DIR_ENV_VAR, "").strip()
    if env:
        return Path(env).expanduser()
    if store is _ACTIVE_STORE:
        from repro.engine.store import get_sweep_store

        store = get_sweep_store()
    if store is not None:
        return store.root / "calibration"  # type: ignore[union-attr]
    return None

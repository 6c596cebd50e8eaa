"""The staged rollout state machine: shadow → canary → promote/rollback.

A candidate cost model never serves until it has survived two gates:

* **SHADOW** — :meth:`RolloutManager.propose` scores the candidate against
  the retained feedback corpus *offline*; a candidate that does not
  strictly improve calibration error is rejected on the spot.  The served
  model is untouched.
* **CANARY** — a deterministic slice of live sweep requests (selected by
  request digest, so the slice is stable and replayable) is *dual-scored*:
  the active model computes and serves the response as always, and the
  candidate re-predicts the chosen best configuration.  The relative
  divergence is recorded; one divergence beyond the guardrail triggers
  **auto-rollback**, and enough healthy samples trigger promotion.  At no
  point does the candidate's number reach a client.
* **PROMOTE** — the only step that changes what serves, and it is built
  around a single atomic commit point: the journaled intent is written,
  then the new state file lands via temp-file + ``os.replace``, then the
  parameters are installed in-process.  A crash anywhere leaves the disk
  state on exactly one side of the commit — recovery re-reads the state
  file and serves exactly one of {prior, promoted}, which the chaos suite
  kills processes to prove.  Promotion bumps the served version, which
  atomically orphans both cache tiers and every wire/registry artifact
  (they all key on the version of the request's
  :class:`~repro.hardware.cost_model.CostModel` snapshot); requests
  already in flight finish under the model they started with.
* **ROLLBACK** — metadata-only: the candidate is discarded and the state
  returns to idle.  Nothing to undo, because nothing was installed.

Every transition is journaled (append + fsync) for the audit trail; the
state *file* is the single recovery authority.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.engine.store import atomic_write
from repro.hardware.params import (
    DEFAULT_PARAMS,
    EfficiencyParams,
    active_params,
    candidate_version,
    install_params,
    params_from_wire,
)
from repro.wire import At, ProtocolError, env_number

from .fit import CandidateModel, calibration_targets, score_params

__all__ = [
    "CANARY_FRACTION_ENV_VAR",
    "CANARY_MAX_DIVERGENCE_ENV_VAR",
    "CANARY_MIN_SAMPLES_ENV_VAR",
    "ROLLOUT_PHASES",
    "RolloutError",
    "RolloutManager",
]

ROLLOUT_PHASES = ("idle", "canary")

STATE_FILE_NAME = "rollout_state.json"
JOURNAL_FILE_NAME = "rollout_journal.jsonl"

#: Fraction of live sweep traffic dual-scored while a canary is active.
CANARY_FRACTION_ENV_VAR = "REPRO_CANARY_FRACTION"
#: Healthy dual-scored samples required before auto-promotion.
CANARY_MIN_SAMPLES_ENV_VAR = "REPRO_CANARY_MIN_SAMPLES"
#: Relative divergence (|candidate - active| / active) that instantly
#: auto-rolls the candidate back.
CANARY_MAX_DIVERGENCE_ENV_VAR = "REPRO_CANARY_MAX_DIVERGENCE"

_FAULT_PRE_COMMIT = "rollout-pre-commit"
_FAULT_POST_COMMIT = "rollout-post-commit"


class RolloutError(ProtocolError):
    """An invalid rollout transition or a rejected candidate (a request
    asking for one answers 400), or a corrupt rollout state file."""


class RolloutManager:
    """Owns the rollout state, its journal, and the served parameters.

    ``root=None`` keeps everything in memory (tests, ephemeral daemons):
    the state machine works identically but does not survive the process.
    The three canary settings are the ``REPRO_CANARY_*`` variables, read
    here once; the shadow gate scores on the V100.
    """

    def __init__(
        self, root: str | Path | None = None, *, metrics=None, faults=None
    ) -> None:
        self.root = Path(root).expanduser() if root is not None else None
        self.metrics = metrics
        self.faults = faults
        self.fraction = env_number(CANARY_FRACTION_ENV_VAR, 0.25)
        self.min_samples = int(env_number(CANARY_MIN_SAMPLES_ENV_VAR, 8))
        self.max_divergence = env_number(CANARY_MAX_DIVERGENCE_ENV_VAR, 0.5)
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError("canary fraction must be within [0, 1]")
        if self.min_samples < 1:
            raise ValueError("canary min_samples must be at least 1")
        if self.max_divergence <= 0:
            raise ValueError("canary max_divergence must be positive")
        self._lock = threading.Lock()
        self._journal_memory: list[dict] = []
        self._candidate_params: EfficiencyParams | None = None
        self._state = self._initial_state()
        self._record_state()

    # -- state persistence and recovery -----------------------------------------
    @property
    def state_path(self) -> Path | None:
        return None if self.root is None else self.root / STATE_FILE_NAME

    @property
    def journal_path(self) -> Path | None:
        return None if self.root is None else self.root / JOURNAL_FILE_NAME

    def _initial_state(self) -> dict:
        """Load-or-adopt: the state file is the single recovery authority.

        With a durable state file present, its verdict wins — the recorded
        served parameters are (re)installed, which is exactly how a daemon
        killed *after* the promote commit point comes back serving the
        promoted model, and one killed *before* it comes back on the prior
        model.  Without one, the manager adopts whatever the process
        already serves.
        """
        if self.state_path is not None and self.state_path.exists():
            at = At(RolloutError, f"rollout state at {self.state_path}")
            try:
                wire = json.loads(self.state_path.read_bytes())
            except ValueError as exc:
                at.fail(
                    f"is corrupt: {exc} (the write path is atomic; this "
                    f"file was edited)"
                )
            state, params, self._candidate_params = _state_from_wire(wire, at)
            install_params(params)
            self._journal({"event": "recovered", "phase": state["phase"],
                           "served_version": state["served_version"]})
            return state
        served = active_params()
        return {
            "phase": "idle",
            "served_version": candidate_version(served),
            "served_params": None if served == DEFAULT_PARAMS else served.to_wire(),
            "candidate": None,
            "canary": _fresh_canary(),
            "last_transition": None,
        }

    def _write_state_locked(self) -> None:
        """Atomically persist the current state (the promote commit point)."""
        if self.root is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(self._state, sort_keys=True, indent=1).encode("utf-8")
        atomic_write(self.state_path, lambda fh: fh.write(blob), fsync=True)

    def _journal(self, event: dict) -> None:
        if self.root is None:
            self._journal_memory.append(event)
            return
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(event, sort_keys=True) + "\n"
        with open(self.journal_path, "ab") as fh:
            fh.write(line.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())

    def journal_events(self) -> list[dict]:
        if self.root is None:
            return list(self._journal_memory)
        if not self.journal_path.exists():
            return []
        out = []
        for line in self.journal_path.read_bytes().split(b"\n"):
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except ValueError:
                continue  # torn tail from a crash mid-append
        return out

    def _fault(self, point: str) -> None:
        if self.faults is not None:
            self.faults.before(point)

    def _count(self, event: str) -> None:
        if self.metrics is not None:
            self.metrics.record_calibration(event)

    def _record_state(self) -> None:
        if self.metrics is not None:
            self.metrics.record_rollout(self.status())

    # -- observability ----------------------------------------------------------
    def status(self) -> dict:
        with self._lock:
            candidate = self._state.get("candidate")
            return {
                "phase": self._state["phase"],
                "served_version": self._state["served_version"],
                "candidate_version": None
                if candidate is None
                else candidate.get("version"),
                "candidate": None if candidate is None else dict(candidate),
                "canary": dict(self._state["canary"]),
                "last_transition": self._state.get("last_transition"),
                "knobs": {
                    "fraction": self.fraction,
                    "min_samples": self.min_samples,
                    "max_divergence": self.max_divergence,
                },
                "durable": self.root is not None,
            }

    # -- shadow: propose a candidate --------------------------------------------
    def propose(
        self,
        candidate: CandidateModel,
        records: list[dict],
        *,
        force: bool = False,
    ) -> dict:
        """Shadow-score a candidate; on pass, start its canary.

        ``force=True`` skips the shadow gate (the regression-injection
        knob the chaos suite uses) — the canary guardrail still stands
        between a forced candidate and promotion.  A refused transition
        raises :class:`RolloutError` (the daemon answers it with a 400).
        """
        served = active_params()
        if candidate.params == served:
            raise RolloutError(
                f"candidate version {candidate.version!r} is already serving"
            )
        shadow: dict = {"forced": force}
        if not force:
            if not records:
                raise RolloutError(
                    "no retained measurements to shadow-score against; "
                    "POST /v1/report (or `repro report`) first"
                )
            targets = calibration_targets()
            base = score_params(served, records, targets=targets)
            cand = score_params(candidate.params, records, targets=targets)
            shadow.update({"base_error": base["error"], "candidate_error": cand["error"],
                           "scored": cand["scored"]})
            if cand["error"] is None or base["error"] is None:
                self._count("shadow_reject")
                raise RolloutError(
                    "shadow scoring produced no scorable records; the corpus "
                    "does not cover any predictable Table III operator"
                )
            if cand["error"] >= base["error"]:
                with self._lock:
                    self._journal({"event": "shadow_reject", **shadow,
                                   "candidate_version": candidate.version})
                self._count("shadow_reject")
                raise RolloutError(
                    f"candidate {candidate.version!r} does not improve "
                    f"calibration error ({cand['error']:.4f} vs served "
                    f"{base['error']:.4f}); rejected in shadow"
                )
        with self._lock:
            if self._state["phase"] != "idle":
                raise RolloutError(
                    f"a rollout is already in phase {self._state['phase']!r}; "
                    f"promote or roll it back first"
                )
            self._state["candidate"] = candidate.to_wire()
            self._state["canary"] = _fresh_canary()
            self._state["phase"] = "canary"
            self._state["last_transition"] = "shadow_pass"
            self._candidate_params = candidate.params
            self._journal({"event": "shadow_pass", **shadow,
                           "candidate_version": candidate.version})
            self._write_state_locked()
        self._count("shadow_pass")
        self._record_state()
        return self.status()

    # -- canary: dual-score a deterministic slice of live traffic ----------------
    def should_canary(self, digest: str) -> bool:
        """Deterministic slice membership for one request digest."""
        if self._state["phase"] != "canary":
            return False
        try:
            bucket = int(digest[:8], 16) / 2**32
        except (TypeError, ValueError):
            return False
        return bucket < self.fraction

    def candidate_params(self) -> EfficiencyParams | None:
        with self._lock:
            return self._candidate_params

    def record_canary(self, divergence: float) -> str:
        """Fold one dual-score into the canary; returns the outcome:
        ``"canary"`` (still sampling), ``"promoted"``, ``"rolled_back"``,
        or ``"idle"`` (no rollout in flight — a benign race)."""
        promoted = False
        with self._lock:
            if self._state["phase"] != "canary":
                return "idle"
            canary = self._state["canary"]
            canary["samples"] += 1
            canary["max_divergence_seen"] = max(
                canary["max_divergence_seen"], divergence
            )
            if divergence > self.max_divergence:
                canary["regressions"] += 1
                self._journal({
                    "event": "canary_regression",
                    "divergence": divergence,
                    "samples": canary["samples"],
                })
                self._rollback_locked(
                    f"canary divergence {divergence:.4f} exceeded guardrail "
                    f"{self.max_divergence:.4f}"
                )
                outcome = "rolled_back"
            elif canary["samples"] >= self.min_samples:
                self._promote_locked()
                promoted = True
                outcome = "promoted"
            else:
                self._write_state_locked()
                outcome = "canary"
        if outcome == "rolled_back":
            self._count("canary_regression")
            self._count("rollback")
        elif promoted:
            self._count("promote")
        self._record_state()
        return outcome

    # -- promote / rollback ------------------------------------------------------
    def promote(self) -> dict:
        """Manually promote the canary candidate (operator override); with
        none in canary, raises :class:`RolloutError`."""
        with self._lock:
            if self._state["phase"] != "canary":
                raise RolloutError(
                    "nothing to promote: no candidate is in canary"
                )
            self._promote_locked()
        self._count("promote")
        self._record_state()
        return self.status()

    def _promote_locked(self) -> None:
        """The atomic promotion: journal intent, commit state, install.

        The ``os.replace`` inside :meth:`_write_state_locked` is the
        commit point.  A crash before it (the ``rollout-pre-commit``
        fault) recovers to the prior model; a crash after it (the
        ``rollout-post-commit`` fault) recovers to the promoted model —
        never anything in between.
        """
        params = self._candidate_params
        version = candidate_version(params)
        prior = self._state["served_version"]
        self._journal({"event": "promote_intent", "version": version,
                       "prior_version": prior})
        self._fault(_FAULT_PRE_COMMIT)
        self._state = {
            "phase": "idle",
            "served_version": version,
            "served_params": params.to_wire(),
            "candidate": None,
            "canary": _fresh_canary(),
            "last_transition": "promote",
        }
        self._write_state_locked()  # <-- commit point
        self._fault(_FAULT_POST_COMMIT)
        install_params(params)
        self._candidate_params = None
        self._journal({"event": "promote_committed", "version": version,
                       "prior_version": prior})

    def rollback(self, reason: str = "manual") -> dict:
        """Roll the canary candidate back; with none in canary, raises
        :class:`RolloutError`."""
        with self._lock:
            if self._state["phase"] != "canary":
                raise RolloutError(
                    "nothing to roll back: no candidate is in canary"
                )
            self._rollback_locked(reason)
        self._count("rollback")
        self._record_state()
        return self.status()

    def _rollback_locked(self, reason: str) -> None:
        """Metadata-only: the active model never changed, so discarding the
        candidate and returning to idle *is* the whole rollback."""
        candidate = self._state.get("candidate") or {}
        self._journal({
            "event": "rollback",
            "reason": reason,
            "candidate_version": candidate.get("version"),
            "canary": dict(self._state["canary"]),
        })
        self._state["phase"] = "idle"
        self._state["candidate"] = None
        self._state["canary"] = _fresh_canary()
        self._state["last_transition"] = "rollback"
        self._candidate_params = None
        self._write_state_locked()


def _fresh_canary() -> dict:
    return {"samples": 0, "regressions": 0, "max_divergence_seen": 0.0}


def _state_from_wire(wire, at: At):
    """The rollout state file's content, checked field by field, with the
    params it serves and those of its canary candidate (None when idle).

    Their version is derived, never trusted: a state file whose
    ``served_version`` is not the params' own tag would serve one model
    under another's cache namespace.
    """
    state = at.object(wire)
    phase = at.choice(state, "phase", ROLLOUT_PHASES)
    candidate = at.mapping(state, "candidate", None, null=True)
    candidate_params = (
        CandidateModel.from_wire(candidate, at.at("candidate")).params
        if phase == "canary"
        else None
    )
    served_params = at.mapping(state, "served_params", None, null=True)
    params = (
        DEFAULT_PARAMS
        if served_params is None
        else params_from_wire(served_params, at.at("served_params"))
    )
    served_version = at.version(state, "served_version")
    if served_version != candidate_version(params):
        at.fail(
            f"records served_version {served_version!r}, but its "
            f"served_params serve version {candidate_version(params)!r}"
        )
    canary_at = at.at("canary")
    canary = at.mapping(state, "canary")
    return {
        "phase": phase,
        "served_version": served_version,
        "served_params": served_params,
        "candidate": candidate,
        "canary": {
            "samples": canary_at.integer(canary, "samples", min=0),
            "regressions": canary_at.integer(canary, "regressions", min=0),
            "max_divergence_seen": canary_at.number(canary, "max_divergence_seen"),
        },
        "last_transition": at.string(state, "last_transition", None, null=True),
    }, params, candidate_params

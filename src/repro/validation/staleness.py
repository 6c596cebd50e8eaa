"""Staleness validation: does this entry still describe *this* software?

An entry is a claim about one cost model.  When ``COST_MODEL_VERSION``
bumps, every registered time is a statement about a model that no longer
runs — not corrupt, not wrong when written, just stale.  The paper-recipe
contract for that state (the sweep store's ``CacheMismatch`` discipline)
is: reject for use, report with a remedy, never crash and never silently
reuse.  This validator produces that report: which version the entry
speaks for, which is running, and the exact re-registration that refreshes
it (including the digest the refreshed entry will live under — a version
bump changes the content address, so the stale entry is orphaned, not
overwritten).

Softer drift is warned about rather than failed: provenance citing sweep
digests the caller's L2 store no longer holds means the schedule outlived
its evidence (still valid — cost validation re-derives everything — but an
operator should know the audit trail is broken).
"""

from __future__ import annotations

from repro.registry.entry import REGISTRY_FORMAT, schedule_digest

from .base import BaseValidator, ValidationContext, ValidationIssue

__all__ = ["StalenessValidator"]


class StalenessValidator(BaseValidator):
    """Version drift → an actionable report, not a crash."""

    name = "staleness"

    def validate(self, ctx: ValidationContext) -> list[ValidationIssue]:
        issues: list[ValidationIssue] = []
        entry = ctx.entry

        if entry.registry_format != REGISTRY_FORMAT:
            issues.append(
                self.error(
                    "registry-format",
                    f"entry uses registry format {entry.registry_format}, this "
                    f"build reads format {REGISTRY_FORMAT}; re-register it",
                )
            )

        served = ctx.cost.version
        if entry.cost_model_version != served:
            cap, seed, source = entry.knob_values()
            fresh = schedule_digest(
                ctx.graph,
                ctx.env,
                ctx.cost.gpu,
                cap=cap,
                seed=seed,
                source=source,
                version=served,
            )
            issues.append(
                self.error(
                    "cost-model-version",
                    f"entry was registered under cost-model version "
                    f"{entry.cost_model_version!r}; the served model is version "
                    f"{served!r}, so its claimed times no longer "
                    f"describe this software. Re-tune and re-register this "
                    f"schedule; under the current model it will live at digest "
                    f"{fresh} (the stale entry is orphaned, not overwritten).",
                )
            )

        issues.extend(self._check_provenance(ctx))
        return issues

    def _check_provenance(self, ctx) -> list[ValidationIssue]:
        issues: list[ValidationIssue] = []
        prov = ctx.entry.provenance
        sweeps = prov.get("sweeps")
        if not isinstance(sweeps, dict) or not sweeps:
            issues.append(
                self.warning(
                    "provenance-missing",
                    "entry carries no sweep provenance; the selection cannot "
                    "be traced back to its L2 sweep artifacts",
                )
            )
            return issues
        uncited = sorted(
            op.name
            for op in ctx.graph.ops
            if not op.is_view and op.name not in sweeps
        )
        if uncited:
            issues.append(
                self.warning(
                    "provenance-incomplete",
                    f"provenance cites no sweep digest for {uncited}",
                )
            )
        store = ctx.store
        if store is not None:
            # Stale provenance only matters against a version-matched store:
            # a bumped model orphans every sweep anyway (already reported).
            missing = sorted(
                name
                for name, digest in sweeps.items()
                if isinstance(digest, str) and digest not in store
            )
            if missing:
                issues.append(
                    self.warning(
                        "provenance-orphaned",
                        f"{len(missing)} of {len(sweeps)} cited sweep digests "
                        f"are absent from the sweep store ({missing[:5]}"
                        f"{'…' if len(missing) > 5 else ''}); the schedule "
                        f"outlived its sweep evidence",
                    )
                )
        return issues

"""Cost validation: every claimed microsecond recomputes bit-exactly.

The cost model is deterministic — same operator, configuration, sizes and
GPU always produce the same ``KernelTime``, jitter included — so a stored
time that differs from a fresh :meth:`~repro.hardware.cost_model.CostModel
.time_op` call *at all* means the entry was edited or the model changed
underneath it.  Equality here is ``==`` on floats, never a tolerance: the
selection pipelines are bit-identical by contract, and the registry
inherits that bar.

Three layers, cheapest first:

* **per-kernel**: each chosen configuration's compute/memory/launch splits
  against a fresh scalar-reference ``time_op`` call, and each recorded
  transpose against ``time_transpose``;
* **totals**: the claimed ``total_us``/``transpose_us`` against the
  ordered float sums of the stored parts (assignment order is preserved in
  the entry wire precisely so this sum associates identically);
* **deep** (``deep=True``): configuration selection re-run from scratch —
  through BOTH the vectorized layered path and the retained scalar
  reference — must land on the same chosen configurations, chain cost and
  end-to-end total as the entry claims.

Under a drifted ``COST_MODEL_VERSION`` recomputation is *skipped* with an
INFO issue: the times legitimately describe an older model, which is the
staleness validator's finding — re-deriving them here would misreport
version drift as tampering.
"""

from __future__ import annotations

from .base import BaseValidator, ValidationContext, ValidationIssue

__all__ = ["CostValidator"]


class CostValidator(BaseValidator):
    """Claimed total == recomputed total, bit-exact."""

    name = "cost"

    def validate(self, ctx: ValidationContext) -> list[ValidationIssue]:
        served = ctx.cost.version
        if ctx.entry.cost_model_version != served:
            return [
                self.info(
                    "recompute-skipped",
                    f"entry was costed under model version "
                    f"{ctx.entry.cost_model_version!r}, the served model is "
                    f"{served!r}; skipping recomputation (see the "
                    f"staleness report)",
                )
            ]
        if ctx.chosen_error is not None:
            return []  # structural owns unparseable selections
        issues: list[ValidationIssue] = []
        issues.extend(self._check_kernels(ctx))
        issues.extend(self._check_transposes(ctx))
        issues.extend(self._check_totals(ctx))
        if ctx.deep and not issues:
            issues.extend(self._check_reselect(ctx))
        return issues

    # -- per-kernel recomputation ---------------------------------------------
    def _check_kernels(self, ctx) -> list[ValidationIssue]:
        issues: list[ValidationIssue] = []
        for name, m in ctx.chosen.items():
            try:
                op = ctx.graph.op(name)
            except KeyError:
                continue  # structural reports unknown ops
            kt = ctx.cost.time_op(op, m.config, ctx.env)
            if kt is None:
                issues.append(
                    self.error(
                        "config-uncostable",
                        f"the cost model maps no kernel for the stored "
                        f"configuration (not GEMM-mappable?)",
                        op=name,
                    )
                )
                continue
            stored = m.time
            for field in ("compute_us", "memory_us", "launch_us"):
                claimed = getattr(stored, field)
                fresh = getattr(kt, field)
                if claimed != fresh:
                    issues.append(
                        self.error(
                            "kernel-time-drift",
                            f"stored {field} {claimed!r} != recomputed "
                            f"{fresh!r} (scalar reference)",
                            op=name,
                        )
                    )
        return issues

    def _check_transposes(self, ctx) -> list[ValidationIssue]:
        issues: list[ValidationIssue] = []
        if ctx.transposes_error is not None:
            return issues
        for i, t in enumerate(ctx.transposes):
            try:
                spec = ctx.graph.container(t.tensor)
            except KeyError:
                continue
            fresh = ctx.cost.time_transpose(spec, ctx.env).total_us
            if t.time_us != fresh:
                issues.append(
                    self.error(
                        "transpose-time-drift",
                        f"transposes[{i}] of {t.tensor!r} claims "
                        f"{t.time_us!r} us, recomputed {fresh!r} us",
                        op=t.before_op,
                    )
                )
        return issues

    # -- ordered totals -------------------------------------------------------
    def _check_totals(self, ctx) -> list[ValidationIssue]:
        issues: list[ValidationIssue] = []
        sel = ctx.entry.selection
        transpose_sum = sum(t.time_us for t in ctx.transposes)
        claimed_transpose = float(sel.get("transpose_us", 0.0))
        if claimed_transpose != transpose_sum:
            issues.append(
                self.error(
                    "transpose-total-drift",
                    f"claimed transpose_us {claimed_transpose!r} != ordered "
                    f"sum of recorded transposes {transpose_sum!r}",
                )
            )
        # The same association the selector uses: chosen totals in
        # assignment order, then the transpose sum.
        total = sum(m.total_us for m in ctx.chosen.values()) + transpose_sum
        claimed_total = float(sel.get("total_us", 0.0))
        if claimed_total != total:
            issues.append(
                self.error(
                    "total-drift",
                    f"claimed total_us {claimed_total!r} != recomputed ordered "
                    f"sum {total!r}",
                )
            )
        return issues

    # -- deep: full reselection through both pipelines ------------------------
    def _check_reselect(self, ctx) -> list[ValidationIssue]:
        from repro.configsel.selector import select_configurations
        from repro.engine.scheduler import DISABLE_STORE, sweep_graph

        issues: list[ValidationIssue] = []
        cap, seed, source = ctx.entry.knob_values()
        sweeps = sweep_graph(
            ctx.graph,
            ctx.env,
            ctx.cost,
            cap=cap,
            seed=seed,
            store=DISABLE_STORE if ctx.store is None else ctx.store,
        )
        for fast, label in ((True, "fast layered"), (False, "scalar reference")):
            sel = select_configurations(
                ctx.graph,
                ctx.env,
                ctx.cost,
                sweeps=sweeps,
                source=source,
                cap=cap,
                fast=fast,
            )
            if sel.total_us != ctx.entry.total_us:
                issues.append(
                    self.error(
                        "reselect-total-drift",
                        f"{label} reselection totals {sel.total_us!r} us, entry "
                        f"claims {ctx.entry.total_us!r} us",
                    )
                )
            claimed_chain = float(ctx.entry.selection.get("chain_cost_us", 0.0))
            if sel.chain_cost_us != claimed_chain:
                issues.append(
                    self.error(
                        "reselect-chain-drift",
                        f"{label} reselection chain cost {sel.chain_cost_us!r} "
                        f"us, entry claims {claimed_chain!r} us",
                    )
                )
            for name, m in sel.chosen.items():
                stored = ctx.chosen.get(name)
                if stored is not None and stored.config != m.config:
                    issues.append(
                        self.error(
                            "reselect-config-drift",
                            f"{label} reselection chooses a different "
                            f"configuration than the entry stores",
                            op=name,
                        )
                    )
        return issues

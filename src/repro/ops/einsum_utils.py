"""Einsum specification parsing and differentiation.

Tensor contractions throughout the reproduction are written as Einstein
summations over single-letter named dimensions, exactly as in the paper's
input code (Fig. 1a), e.g. ``"phi,ibj->phbj"``.  This module parses such
specs, derives iteration spaces, computes flop counts, and produces the
einsum specs of gradient contractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from repro.ir.dims import DimEnv
from repro.ir.iteration_space import IterationSpace

__all__ = ["EinsumSpec", "parse_einsum", "grad_einsum"]


@dataclass(frozen=True)
class EinsumSpec:
    """A parsed two-operand (or one-operand) einsum contraction."""

    spec: str
    input_subscripts: tuple[str, ...]
    output_subscript: str

    @property
    def num_inputs(self) -> int:
        return len(self.input_subscripts)

    @property
    def output_dims(self) -> tuple[str, ...]:
        return tuple(self.output_subscript)

    @property
    def reduction_dims(self) -> tuple[str, ...]:
        """Dims appearing in inputs but not the output, in first-seen order."""
        out = set(self.output_subscript)
        seen: list[str] = []
        for sub in self.input_subscripts:
            for d in sub:
                if d not in out and d not in seen:
                    seen.append(d)
        return tuple(seen)

    @property
    def all_dims(self) -> tuple[str, ...]:
        return self.output_dims + self.reduction_dims

    def iteration_space(self) -> IterationSpace:
        """Output dims are independent; contracted dims are reductions."""
        return IterationSpace(self.output_dims, self.reduction_dims)

    def flops(self, env: DimEnv) -> float:
        """2 flop (multiply + add) per point of the full iteration space."""
        return 2.0 * prod(env[d] for d in self.all_dims)

    def operand_dims(self, idx: int) -> tuple[str, ...]:
        return tuple(self.input_subscripts[idx])


@lru_cache(maxsize=1024)
def parse_einsum(spec: str) -> EinsumSpec:
    """Parse ``"ab,bc->ac"``-style specs with single-letter dims.

    Restrictions (matching the paper's Sec. III-B simplification to MMM and
    batched MMM): no ellipses, no repeated subscripts within one operand,
    explicit output required.
    """
    if "->" not in spec:
        raise ValueError(f"einsum spec {spec!r} must have an explicit '->' output")
    lhs, out = spec.split("->")
    subs = tuple(s.strip() for s in lhs.split(","))
    if not subs or any(not s for s in subs):
        raise ValueError(f"einsum spec {spec!r} has an empty operand")
    for s in subs + (out,):
        if "." in s:
            raise ValueError("ellipses are not supported")
        if len(set(s)) != len(s):
            raise ValueError(f"repeated subscript within operand {s!r} is not supported")
    in_dims = {d for s in subs for d in s}
    extra = set(out) - in_dims
    if extra:
        raise ValueError(f"output dims {sorted(extra)} missing from inputs in {spec!r}")
    return EinsumSpec(spec=spec, input_subscripts=subs, output_subscript=out.strip())


def grad_einsum(spec: EinsumSpec | str, wrt: int) -> EinsumSpec:
    """The einsum computing the gradient w.r.t. operand ``wrt``.

    For ``C = einsum("ab,bc->ac", A, B)``, the gradient w.r.t. ``A`` is
    ``dA = einsum("ac,bc->ab", dC, B)``.  Valid whenever no operand has
    repeated subscripts and every input dim appears in some other operand
    or the output (true for all contractions in the paper).
    """
    if isinstance(spec, str):
        spec = parse_einsum(spec)
    if not 0 <= wrt < spec.num_inputs:
        raise IndexError(f"operand index {wrt} out of range")
    target = spec.input_subscripts[wrt]
    others = [s for i, s in enumerate(spec.input_subscripts) if i != wrt]
    covered = set(spec.output_subscript) | {d for s in others for d in s}
    missing = set(target) - covered
    if missing:
        raise ValueError(
            f"cannot differentiate {spec.spec!r} w.r.t. operand {wrt}: dims "
            f"{sorted(missing)} appear only in that operand"
        )
    lhs = ",".join([spec.output_subscript] + others)
    return parse_einsum(f"{lhs}->{target}")

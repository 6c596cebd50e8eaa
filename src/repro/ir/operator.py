"""Operator nodes of the dataflow IR.

Each :class:`OpSpec` is a *logical* operator (Sec. III-A: "An operator may be
implemented as multiple compute kernels, but is logically one operation for
our analysis") carrying enough structure for the paper's analyses:

* its **class** (Sec. III-B): tensor contraction △, statistical
  normalization ⬜, or element-wise ○;
* its **iteration space** (drives fusion legality, Sec. IV);
* analytic **flop** and **data movement** counts (drive the roofline /
  MUE analyses, Secs. III-A, III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .dims import DimEnv
from .iteration_space import IterationSpace
from .tensor import TensorSpec

__all__ = ["OpClass", "Stage", "OpSpec", "FlopIoSummary"]


class OpClass(Enum):
    """The paper's three-way operator classification (Sec. III-B)."""

    TENSOR_CONTRACTION = "tensor contraction"
    STAT_NORMALIZATION = "statistical normalization"
    ELEMENTWISE = "element-wise"

    @property
    def marker(self) -> str:
        """The glyph used in the paper's tables/figures."""
        return {
            OpClass.TENSOR_CONTRACTION: "△",  # △
            OpClass.STAT_NORMALIZATION: "⬜",  # ⬜
            OpClass.ELEMENTWISE: "○",  # ○
        }[self]


class Stage(Enum):
    """Training stage an operator belongs to (Sec. II-A)."""

    FORWARD = "forward"
    BACKWARD_DX = "dX"
    BACKWARD_DW = "dW"

    @property
    def is_backward(self) -> bool:
        return self is not Stage.FORWARD


@dataclass(frozen=True)
class FlopIoSummary:
    """Flop and data-movement totals for one operator or a set of them."""

    flop: float
    input_words: int
    output_words: int
    bytes_moved: int

    @property
    def words_moved(self) -> int:
        return self.input_words + self.output_words

    @property
    def flop_per_word(self) -> float:
        """The paper's flop/IO ratio (Figs. 1b, 2), flop per word moved."""
        words = self.words_moved
        return self.flop / words if words else float("inf")

    def __add__(self, other: "FlopIoSummary") -> "FlopIoSummary":
        return FlopIoSummary(
            flop=self.flop + other.flop,
            input_words=self.input_words + other.input_words,
            output_words=self.output_words + other.output_words,
            bytes_moved=self.bytes_moved + other.bytes_moved,
        )


@dataclass(frozen=True)
class OpSpec:
    """One logical operator in the dataflow graph.

    Parameters
    ----------
    name:
        Unique operator name within its graph (e.g. ``"QKT"``).
    op_class:
        The Sec. III-B class.
    inputs / outputs:
        Tensor specifications.  All data movement accounting assumes each
        input is read once and each output written once (the paper's edge
        volumes are exact access volumes in the SDFG).
    ispace:
        Iteration space; drives fusion legality and point counts.
    flop_per_point:
        Useful flop per iteration point (2 for a multiply-accumulate
        contraction; 0 for ReLU, which the paper counts as flop-free).
    einsum:
        For contractions, the einsum specification (e.g. ``"phi,ibj->phbj"``).
    stage:
        forward / dX / dW, for Table III row grouping.
    fused_from:
        Names of the original operators if this op is a fusion product.
    kernel_label:
        Paper kernel name when this op maps onto one of the named fused
        kernels (``AIB``, ``SM``, ...); empty otherwise.
    is_view:
        True for zero-cost aliasing nodes (slices of stacked tensors,
        re-indexed reads of the same storage).  Views never become kernels:
        they contribute no flop and no data movement.
    members:
        For fusion products: the original operators this kernel executes.
        When present, the flop count is the sum over members (the fused
        kernel performs the same computation), while the input/output lists
        — and hence the IO accounting — reflect the *reduced* data movement
        with interior edges removed.
    """

    name: str
    op_class: OpClass
    inputs: tuple[TensorSpec, ...]
    outputs: tuple[TensorSpec, ...]
    ispace: IterationSpace
    flop_per_point: float = 1.0
    einsum: str | None = None
    stage: Stage = Stage.FORWARD
    fused_from: tuple[str, ...] = ()
    kernel_label: str = ""
    is_view: bool = False
    members: tuple["OpSpec", ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operator name must be non-empty")
        if not self.outputs:
            raise ValueError(f"operator {self.name!r} must have at least one output")
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if not isinstance(self.outputs, tuple):
            object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.flop_per_point < 0:
            raise ValueError("flop_per_point must be non-negative")
        if self.op_class is OpClass.TENSOR_CONTRACTION:
            if self.einsum is None:
                raise ValueError(f"contraction {self.name!r} requires an einsum spec")
            # Two operands and one result, each indexed dim by dim by its
            # einsum term: the engine maps GEMM dims through exactly this.
            from repro.ops.einsum_utils import parse_einsum  # ops imports ir

            spec = parse_einsum(self.einsum)
            terms = tuple(map(tuple, (*spec.input_subscripts, spec.output_subscript)))
            named = tuple(t.dims for t in (*self.inputs, *self.outputs))
            if len(self.inputs) != 2 or terms != named:
                raise ValueError(
                    f"contraction {self.name!r}: einsum {self.einsum!r} does not "
                    f"index its two inputs and one output {named}"
                )

    # -- structure -----------------------------------------------------------
    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.inputs)

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.outputs)

    @property
    def is_fused(self) -> bool:
        return bool(self.fused_from)

    # -- analytic counts -------------------------------------------------------
    def flops(self, env: DimEnv) -> float:
        """Required floating point operations (the paper's "Gflop" column)."""
        if self.is_view:
            return 0.0
        if self.members:
            return sum(m.flops(env) for m in self.members)
        return self.flop_per_point * self.ispace.size(env)

    def input_words(self, env: DimEnv) -> int:
        if self.is_view:
            return 0
        return sum(t.volume(env) for t in self.inputs)

    def output_words(self, env: DimEnv) -> int:
        if self.is_view:
            return 0
        return sum(t.volume(env) for t in self.outputs)

    def io_words(self, env: DimEnv) -> int:
        """Total words moved, assuming perfect reuse within the operator.

        This is the paper's per-edge access volume: each input tensor is read
        once from main memory and each output written once.  It is also the
        I/O lower bound ``Q`` used by the MUE metric for memory-bound ops.
        """
        return self.input_words(env) + self.output_words(env)

    def io_bytes(self, env: DimEnv) -> int:
        if self.is_view:
            return 0
        return sum(t.nbytes(env) for t in self.inputs) + sum(
            t.nbytes(env) for t in self.outputs
        )

    def summary(self, env: DimEnv) -> FlopIoSummary:
        return FlopIoSummary(
            flop=self.flops(env),
            input_words=self.input_words(env),
            output_words=self.output_words(env),
            bytes_moved=self.io_bytes(env),
        )

    def flop_per_word(self, env: DimEnv) -> float:
        return self.summary(env).flop_per_word

    def movement_class(self, env: DimEnv) -> str:
        """Coarse flop-vs-IO label used in Figs. 1b / 2 legends.

        Returns one of ``"IO > flop"``, ``"IO ~ flop"``, ``"IO < flop"``.
        """
        ratio = self.flop_per_word(env)
        if ratio < 0.75:
            return "IO > flop"
        if ratio <= 4.0:
            return "IO ~ flop"
        return "IO < flop"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ins = ", ".join(self.input_names)
        outs = ", ".join(self.output_names)
        return f"{self.op_class.marker} {self.name}({ins}) -> {outs}"

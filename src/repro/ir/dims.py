"""Named dimensions and dimension environments.

Every tensor in the dataflow IR is described by an ordered tuple of *named*
dimensions ("axes").  Dimension names follow the paper's notation:

=====  =============================================  BERT-large value
name   meaning                                        (paper Sec. III-D)
=====  =============================================  =================
``b``  mini-batch size                                8
``j``  input (query) sequence length                  512
``k``  output (key/value) sequence length             512
``h``  number of attention heads                      16
``p``  per-head query/key projection size             64
``w``  per-head value projection size                 64
``i``  embedding size (= h * p)                       1024
``u``  feed-forward intermediate size (= 4 * i)       4096
=====  =============================================  =================

A :class:`DimEnv` binds names to concrete sizes so analytic flop / data
movement counts can be evaluated.  Keeping sizes out of the structural IR
lets the same graph be evaluated at several problem sizes (e.g. the paper's
alternate ``B=96, L=128`` configuration in Sec. VI-C).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from math import prod

__all__ = [
    "DimEnv",
    "bert_large_dims",
    "bert_alternate_dims",
    "small_test_dims",
]


@dataclass(frozen=True)
class DimEnv(Mapping[str, int]):
    """An immutable mapping from dimension names to concrete sizes.

    Behaves like a read-only ``dict`` and adds convenience helpers used
    throughout flop/IO accounting.
    """

    sizes: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, size in self.sizes.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"dimension name must be a non-empty str, got {name!r}")
            # Sizes are priced as floats and indexed as int64: 2**63 bounds both.
            if type(size) is not int or not 0 < size < 2**63:
                raise ValueError(
                    f"dimension {name!r} must have a positive int64 size, got {size!r}"
                )
        # Freeze the underlying mapping so hashing / sharing is safe.
        object.__setattr__(self, "sizes", dict(self.sizes))

    # -- Mapping protocol --------------------------------------------------
    def __getitem__(self, name: str) -> int:
        try:
            return self.sizes[name]
        except KeyError:
            raise KeyError(
                f"unknown dimension {name!r}; known: {sorted(self.sizes)}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __hash__(self) -> int:
        # Cached: DimEnv keys lru_cache lookups on sweep hot paths, and the
        # O(n log n) canonicalization would otherwise rerun per lookup.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(tuple(sorted(self.sizes.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- helpers ------------------------------------------------------------
    def volume(self, dims: Iterable[str]) -> int:
        """Number of elements in a tensor with the given dimensions."""
        return prod(self[d] for d in dims)

    def shape(self, dims: Iterable[str]) -> tuple[int, ...]:
        """Concrete shape tuple for an ordered dimension list."""
        return tuple(self[d] for d in dims)

    def with_sizes(self, **overrides: int) -> "DimEnv":
        """Return a copy with some sizes replaced (used for re-tuning runs)."""
        merged = dict(self.sizes)
        merged.update(overrides)
        return DimEnv(merged)

    def subset(self, dims: Iterable[str]) -> "DimEnv":
        return DimEnv({d: self[d] for d in dims})


def bert_large_dims(batch: int = 8, seq: int = 512) -> DimEnv:
    """The paper's running example: BERT-large encoder dimensions.

    ``B=8, J=K=512, H=16, P=W=64, I=1024, U=4096`` (Sec. III-D).
    """
    heads = 16
    proj = 64
    embed = heads * proj
    return DimEnv(
        {
            "b": batch,
            "j": seq,
            "k": seq,
            "h": heads,
            "p": proj,
            "w": proj,
            "i": embed,
            "u": 4 * embed,
            # Stacking dims for algebraic fusion (Sec. IV-D):
            # "c" stacks Q/K/V projections, "d" stacks Q/K only.
            "c": 3,
            "d": 2,
        }
    )


def bert_alternate_dims() -> DimEnv:
    """The Sec. VI-C re-tuned configuration: ``B=96, L=128``."""
    return bert_large_dims(batch=96, seq=128)


def small_test_dims() -> DimEnv:
    """Tiny dimensions for numerical tests (gradcheck-friendly)."""
    return DimEnv(
        {"b": 2, "j": 5, "k": 5, "h": 2, "p": 3, "w": 3, "i": 6, "u": 8, "c": 3, "d": 2}
    )

"""Model configuration and parameter containers for the BERT encoder layer.

Dimension conventions follow the paper (Fig. 1): activations are stored
embedding-first, ``x[i, b, j]``; projection weights are ``w[p, h, i]``
(projection size, heads, embedding).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from repro.ir.dims import DimEnv

__all__ = ["ModelDims", "MHAParams", "EncoderParams", "init_mha_params", "init_encoder_params"]


@dataclass(frozen=True)
class ModelDims:
    """Concrete model dimensions, convertible to a :class:`DimEnv`."""

    batch: int = 8
    seq: int = 512
    heads: int = 16
    proj: int = 64
    ffn_mult: int = 4

    @property
    def embed(self) -> int:
        return self.heads * self.proj

    @property
    def ffn(self) -> int:
        return self.ffn_mult * self.embed

    def env(self) -> DimEnv:
        return DimEnv(
            {
                "b": self.batch,
                "j": self.seq,
                "k": self.seq,
                "h": self.heads,
                "p": self.proj,
                "w": self.proj,
                "i": self.embed,
                "u": self.ffn,
                "c": 3,
                "d": 2,
            }
        )

    @staticmethod
    def tiny() -> "ModelDims":
        """Gradcheck-friendly sizes."""
        return ModelDims(batch=2, seq=5, heads=2, proj=3, ffn_mult=2)


@dataclass
class MHAParams:
    """Multi-head attention parameters (Fig. 1a's signature)."""

    wq: np.ndarray  # [p, h, i]
    bq: np.ndarray  # [p, h]
    wk: np.ndarray  # [p, h, i]
    bk: np.ndarray  # [p, h]
    wv: np.ndarray  # [w, h, i]
    bv: np.ndarray  # [w, h]
    wo: np.ndarray  # [w, h, i]
    bo: np.ndarray  # [i]

    def named(self) -> Iterator[tuple[str, np.ndarray]]:
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    def zeros_like(self) -> "MHAParams":
        return MHAParams(**{k: np.zeros_like(v) for k, v in self.named()})


@dataclass
class EncoderParams:
    """Full BERT encoder layer parameters: MHA + two LayerNorms + FFN."""

    mha: MHAParams
    ln1_g: np.ndarray  # [i]
    ln1_b: np.ndarray  # [i]
    w1: np.ndarray  # [u, i]
    b1: np.ndarray  # [u]
    w2: np.ndarray  # [i, u]
    b2: np.ndarray  # [i]
    ln2_g: np.ndarray  # [i]
    ln2_b: np.ndarray  # [i]

    def named(self) -> Iterator[tuple[str, np.ndarray]]:
        for name, arr in self.mha.named():
            yield f"mha.{name}", arr
        for f in fields(self):
            if f.name == "mha":
                continue
            yield f.name, getattr(self, f.name)

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(
            mha=self.mha.zeros_like(),
            **{
                f.name: np.zeros_like(getattr(self, f.name))
                for f in fields(self)
                if f.name != "mha"
            },
        )

    def num_parameters(self) -> int:
        return sum(int(a.size) for _, a in self.named())


def init_mha_params(dims: ModelDims, rng: np.random.Generator, std: float = 0.02) -> MHAParams:
    p, h, i, w = dims.proj, dims.heads, dims.embed, dims.proj
    n = rng.normal
    return MHAParams(
        wq=n(0, std, (p, h, i)).astype(np.float32),
        bq=np.zeros((p, h), dtype=np.float32),
        wk=n(0, std, (p, h, i)).astype(np.float32),
        bk=np.zeros((p, h), dtype=np.float32),
        wv=n(0, std, (w, h, i)).astype(np.float32),
        bv=np.zeros((w, h), dtype=np.float32),
        wo=n(0, std, (w, h, i)).astype(np.float32),
        bo=np.zeros((i,), dtype=np.float32),
    )


def init_encoder_params(
    dims: ModelDims, rng: np.random.Generator, std: float = 0.02
) -> EncoderParams:
    i, u = dims.embed, dims.ffn
    n = rng.normal
    return EncoderParams(
        mha=init_mha_params(dims, rng, std),
        ln1_g=np.ones((i,), dtype=np.float32),
        ln1_b=np.zeros((i,), dtype=np.float32),
        w1=n(0, std, (u, i)).astype(np.float32),
        b1=np.zeros((u,), dtype=np.float32),
        w2=n(0, std, (i, u)).astype(np.float32),
        b2=np.zeros((i,), dtype=np.float32),
        ln2_g=np.ones((i,), dtype=np.float32),
        ln2_b=np.zeros((i,), dtype=np.float32),
    )

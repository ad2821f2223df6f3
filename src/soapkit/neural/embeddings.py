"""Frozen token embeddings: three layers of vectors per token.

The provider derives deterministic pseudo-random vectors from a hash of
(seed, layer, token), so any token has a stable embedding with no
training, no vocabulary file and no download. A model builds its provider
from its own config; a checkpoint records the provider's `spec()` only so
that loading can check it against that config. Embeddings are inputs,
never parameters: no gradient flows into them. The provider does not
cache; the model keeps one table of the vectors its corpus uses.
"""

from __future__ import annotations

import hashlib

import numpy as np


class HashEmbeddings:
    """Deterministic pseudo-random vectors per (token, layer, seed).

    Entries are standard normal, so vectors have norm ~sqrt(dim) and unit
    per-coordinate variance; mean-pooled utterance vectors then sit at a
    scale the downstream initialization expects.
    """

    def __init__(self, dim: int = 16, n_layers: int = 3, seed: int = 0):
        self.dim = int(dim)
        self.n_layers = int(n_layers)
        self.seed = int(seed)

    def __call__(self, token: str) -> np.ndarray:
        vecs = np.zeros((self.n_layers, self.dim))
        for k in range(self.n_layers):
            digest = hashlib.sha256(f"{self.seed}|{k}|{token}".encode("utf-8")).digest()
            gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
            vecs[k] = gen.standard_normal(self.dim)
        return vecs

    def spec(self) -> dict:
        return {"type": "hash", "dim": self.dim, "n_layers": self.n_layers, "seed": self.seed}

"""Frozen token embeddings: three layers of vectors per token.

The default provider derives deterministic pseudo-random vectors from a
hash of (seed, layer, token), so any token has a stable embedding with no
training and no vocabulary file. A file-backed provider can serve
precomputed vectors instead. Embeddings are inputs, never parameters: no
gradient flows into them. Providers do not cache; the model keeps one
table of the vectors its corpus uses.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


class EmbeddingError(ValueError):
    pass


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


class FileEmbeddings:
    """Precomputed embeddings loaded from a JSON file mapping token ->
    n_layers lists of dim floats."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            table = json.load(fh)
        if not table:
            raise EmbeddingError(f"{path}: empty embedding table")
        self.path = str(path)
        self._table = {tok: np.asarray(vecs, dtype=float) for tok, vecs in table.items()}
        first = next(iter(self._table.values()))
        if first.ndim != 2:
            raise EmbeddingError(f"{path}: embeddings must be (n_layers, dim) per token")
        self.n_layers, self.dim = first.shape
        for tok, vecs in self._table.items():
            if vecs.shape != (self.n_layers, self.dim):
                raise EmbeddingError(f"{path}: token {tok!r} has shape {vecs.shape}")

    def __call__(self, token: str) -> np.ndarray:
        vecs = self._table.get(token)
        if vecs is None:
            raise EmbeddingError(f"token {token!r} missing from embedding file {self.path}")
        return vecs

    def spec(self) -> dict:
        return {"type": "file", "path": self.path}


def load_embeddings(spec: dict):
    if spec["type"] == "hash":
        return HashEmbeddings(dim=spec["dim"], n_layers=spec["n_layers"], seed=spec["seed"])
    if spec["type"] == "file":
        return FileEmbeddings(spec["path"])
    raise EmbeddingError(f"unknown embedding spec {spec!r}")

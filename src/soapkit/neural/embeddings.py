"""Frozen token embeddings: three layers of vectors per token.

The provider derives deterministic pseudo-random vectors from a hash of
(seed, layer, token), so any token has a stable embedding with no
training, no vocabulary file and no download. A model builds its provider
from its own config; a checkpoint records the provider's `spec()` only so
that loading can check it against that config. Embeddings are inputs,
never parameters: no gradient flows into them.

A layer's vector is the first `dim` standard normals of a PCG64 generator
(O'Neill 2014) seeded, through numpy's SeedSequence, by 8 bytes of
sha256("seed|layer|token"); `table` hashes all of its seeds at once. The
provider does not cache; the model keeps one table of its corpus's vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

import numpy as np

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
INIT_A, MULT_A, INIT_B, MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
MIX_MULT_L, MIX_MULT_R = 0xca01f9dd, 0x4973f715


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple:
    """SeedSequence's hashmix on a uint32 array: (values, next constant)."""
    new = const * mult & 0xFFFFFFFF
    value = (value ^ const) * new
    return value ^ (value >> 16), new


def seed_state_words(seeds) -> np.ndarray:
    """(n, 4) uint64: SeedSequence(s).generate_state(4, np.uint64) for each
    64-bit seed s; a seed fills the pool of four as its 32-bit halves and two zeros."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    lo, hi = (seeds & 0xFFFFFFFF).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    pool, const = [], INIT_A
    for word in (lo, hi, 0 * lo, 0 * lo):
        value, const = _hashmix(word, const, MULT_A)
        pool.append(value)
    for src, dst in permutations(range(4), 2):  # every source into every other word
        value, const = _hashmix(pool[src], const, MULT_A)
        mixed = pool[dst] * MIX_MULT_L - value * MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> 16)
    state, const = [], INIT_B
    for k in range(8):
        value, const = _hashmix(pool[k % 4], const, MULT_B)
        state.append(value)
    return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


@cache
def _state_words_class() -> type:
    """A seed sequence handing PCG64 precomputed words, defined on first use:
    its base loads numpy.random, which processes that never draw skip."""
    from numpy.random.bit_generator import ISeedSequence

    @dataclass
    class _StateWords(ISeedSequence):
        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint64):
            return self.words

    return _StateWords


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

    def table(self, tokens) -> np.ndarray:
        """(n, n_layers, dim): every layer's vector of each of n tokens."""
        import hashlib  # on first use, as numpy.random in _state_words_class
        state_words = _state_words_class()
        # JSON text may hold a lone surrogate, which strict UTF-8 refuses to encode
        seeds = [int.from_bytes(hashlib.sha256(
            f"{self.seed}|{k}|{t}".encode("utf-8", "surrogatepass")).digest()[:8], "little")
            for t in tokens for k in range(self.n_layers)]
        out = np.empty((len(seeds), self.dim))
        for row, words in zip(out, seed_state_words(seeds)):
            np.random.Generator(np.random.PCG64(state_words(words))).standard_normal(out=row)
        return out.reshape(-1, self.n_layers, self.dim)

    def spec(self) -> dict:
        return {"type": "hash", "dim": self.dim, "n_layers": self.n_layers, "seed": self.seed}

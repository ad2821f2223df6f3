"""The stacked LSTM kernel reproduces its plain numpy form bit for bit.

soapkit.neural.network lays the LSTM's work arrays out for contiguous
per-step calls. That may not move a bit: every checkpoint and eval
depends on it. The reference is in oracles.py. A lone sequence or
utterance, as the benchmark's kernel probes pass them, gives the bytes of
a stack or block of one.
"""

import numpy as np
import pytest

from oracles import lstm_backward_reference, lstm_forward_reference

from soapkit.neural.network import (
    attention_backward,
    attention_forward,
    dropout_mask,
    init_lstm,
    lstm_backward,
    lstm_forward,
)


def _same(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# (steps, batch, sequence lengths or None for no mask, input width, hidden width)
SHAPES = {
    "ragged": (7, 4, (7, 2, 5, 1), 16, 16),
    "full": (5, 3, None, 32, 8),
    "B1": (6, 1, (6,), 3, 5),
    "T1": (1, 3, (1, 1, 1), 16, 16),
}


class TestLstmBits:
    @pytest.mark.parametrize("reverse", [(False, False), (False, True), False, True],
                             ids=["FF", "FT", "single", "single-reverse"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    @pytest.mark.parametrize("dropout", [False, True], ids=["plain", "dropout"])
    def test_matches_reference(self, reverse, shape, dropout):
        gen = np.random.Generator(np.random.PCG64(31))
        n, batch, lengths, din, hidden = SHAPES[shape]
        single = not isinstance(reverse, tuple)  # one LSTM on one sequence, no mask: S = B = 1
        if single:
            batch, lengths = 1, None
        n_lstm = 1 if single else len(reverse)
        members = [init_lstm(gen, din, hidden) for _ in range(n_lstm)]
        W, U, b = (np.stack([p[k] for p in members]) for k in "WUb")
        b = b + gen.normal(scale=0.3, size=b.shape)
        X = gen.normal(size=(n, batch, din))
        im = rm = None
        if dropout:
            im = np.stack([dropout_mask(gen, (batch, din), 0.3) for _ in range(n_lstm)])
            rm = np.stack([dropout_mask(gen, (batch, hidden), 0.3) for _ in range(n_lstm)])
        mask = None
        if lengths is not None:
            mask = (np.arange(n)[:, None] < np.array(lengths)).astype(float)
        dH = gen.normal(size=(n, n_lstm, batch, hidden))
        if mask is not None:
            dH *= mask[:, None, :, None]
        cuts = frozenset(range(2, n, 2))
        args = (X, W, U, b, im, rm)
        kwargs = dict(reverse=reverse, mask=mask)

        H, cache = lstm_forward(*args, **kwargs)
        H_ref, cache_ref = lstm_forward_reference(*args, **kwargs)
        assert _same(H, H_ref)
        H_lean, none = lstm_forward(*args, **kwargs, keep_cache=False)
        assert none is None and _same(H_lean, H_ref)
        for cut in (frozenset(), cuts):
            dX, grads = lstm_backward(dH, cache, cut)
            dX_ref, grads_ref = lstm_backward_reference(dH, cache_ref, cut)
            assert _same(dX, dX_ref)
            assert all(_same(grads[k], grads_ref[k]) for k in "WUb")


class TestLoneForms:
    """bench/probes.py passes one LSTM's W (4H, D), U and b with one
    sequence X (T, D), and one utterance E (T, K, D): each call gives the
    bytes of its (T, 1, D) and (1, T, K, D) form, in the stacked shapes."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_lstm(self, reverse):
        gen = np.random.Generator(np.random.PCG64(41))
        n, din, hidden = 6, 16, 16
        p = init_lstm(gen, din, hidden)
        X = gen.normal(size=(n, din))
        dH = gen.normal(size=(n, hidden))
        H, cache = lstm_forward(X, p["W"], p["U"], p["b"], reverse=reverse)
        H1, cache1 = lstm_forward(X[:, None], *(p[k][None] for k in "WUb"), reverse=reverse)
        assert H.shape == (n, 1, 1, hidden) and _same(H, H1)
        for cuts in (frozenset(), frozenset({2, 4})):
            dX, grads = lstm_backward(dH, cache, cuts)
            dX1, grads1 = lstm_backward(dH[:, None, None], cache1, cuts)
            assert dX.shape == (n, 1, 1, din) and _same(dX, dX1)
            assert all(_same(grads[k], grads1[k]) for k in "WUb")

    def test_attention(self):
        gen = np.random.Generator(np.random.PCG64(42))
        E = gen.normal(size=(5, 3, 16))
        w_layer, w_word, du = (gen.normal(size=16) for _ in range(3))
        u, cache = attention_forward(E, w_layer, w_word)
        u1, cache1 = attention_forward(E[None], w_layer, w_word)
        assert u.shape == (1, 16) and _same(u, u1)
        grads, grads1 = attention_backward(du, cache), attention_backward(du[None], cache1)
        assert all(_same(g, g1) for g, g1 in zip(grads, grads1))

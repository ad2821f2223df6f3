"""The stacked LSTM kernel reproduces its plain numpy form bit for bit.

soapkit.neural.network lays the LSTM's work arrays out for contiguous
per-step calls. That may not move a bit: every checkpoint and eval
depends on it. The reference is in oracles.py.
"""

import numpy as np
import pytest

from oracles import lstm_backward_reference, lstm_forward_reference

from soapkit.neural.network import dropout_mask, init_lstm, lstm_backward, lstm_forward


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
        single = not isinstance(reverse, tuple)  # one LSTM on one sequence, no mask
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
        if single:
            X, W, U, b, dH = X[:, 0], W[0], U[0], b[0], dH[:, 0, 0]
            if dropout:
                im, rm = im[0, 0], rm[0, 0]
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

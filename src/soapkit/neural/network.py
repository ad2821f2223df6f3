"""Forward and reverse-mode passes for the network building blocks.

Plain numpy, float64, no autograd: every backward function here is the
hand-derived adjoint of its forward partner and is checked against central
finite differences in the test suite. Gate order in all LSTM weight
matrices is input, forget, cell, output.

The LSTM kernel runs S LSTMs that read the same input in one step loop,
so each step's fixed numpy-call cost is paid once for all of them (as in
Appleyard et al. 2016); a reverse-time member runs the same loop over the
time-reversed input. Each step reads contiguous memory: the gates and,
backward, their derivatives dZ are both (T, S, B, 4H), and one copy after
the loop gives dZ's member-major rows.
"""

from __future__ import annotations

import numpy as np


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(z, out=None):
    """Logistic function; exp only sees -|z|, so it cannot overflow, and as
    e <= 1, maximum(e, z >= 0) is where(z >= 0, 1, e) in a cheaper call."""
    e = np.exp(np.copysign(z, -1.0))
    return np.divide(np.maximum(e, z >= 0), 1.0 + e, out=out)


def init_lstm(gen, input_dim: int, hidden: int) -> dict:
    # input matrices get twice the usual uniform bound: inputs here are
    # attention-pooled means whose per-coordinate scale sits well below 1
    lw = 2.0 / np.sqrt(input_dim)
    lu = 1.0 / np.sqrt(hidden)
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0  # unit forget bias; keeps early cell-state gradients alive
    return {
        "W": gen.uniform(-lw, lw, size=(4 * hidden, input_dim)),
        "U": gen.uniform(-lu, lu, size=(4 * hidden, hidden)),
        "b": b,
    }


def lstm_forward(X: np.ndarray, W, U, b, in_mask=None, rec_mask=None,
                 reverse=False, mask=None, keep_cache: bool = True) -> tuple:
    """Run LSTMs from zero state, in one of two shapes. One LSTM, W (4H,
    Din), U (4H, H), b (4H,), over one sequence X (N, Din) gives H (N, H).
    S stacked members, W (S, 4H, Din), U (S, 4H, H), b (S, 4H), over a
    time-major batch X (T, B, Din) read X in lockstep, one (S, B, H) @
    (S, H, 4H) product and one sigmoid per step, and give H (T, S, B, H).

    In the stacked form, in_mask (S, B, Din) and rec_mask (S, B, H) are
    variational dropout masks on the step input and the recurrent input,
    and `mask` (T, B) is 1 on the real steps of sequences padded at the
    end; padded steps leave zero state and output. A `reverse` member
    (one flag, or one per member) runs over X[::-1] and mask[::-1], so it
    starts from zero at each sequence's last real step; its H comes back in
    X's time order. keep_cache=False keeps no gates or cell states and
    returns no cache, for a pass no backward follows. Returns (H, cache).
    """
    single = W.ndim == 2
    if single:
        X, W, U, b = X[:, None], W[None], U[None], b[None]
    n, batch, _ = X.shape
    n_lstm, hidden = U.shape[0], U.shape[2]
    flip = np.broadcast_to(reverse, n_lstm).tolist()
    Xm = X[:, None] if in_mask is None else X[:, None] * in_mask
    WX = _flip(np.broadcast_to(Xm, (n, n_lstm) + X.shape[1:]), flip) @ W.transpose(0, 2, 1)
    # contiguous, UT costs less per step. One sequence's product is a
    # matrix-vector one, whose summation order follows UT's layout, so B = 1
    # keeps the view; that B > 1 sums alike either way is a property of the
    # BLAS, which tests/test_kernels.py checks
    UT = U.transpose(0, 2, 1) if batch == 1 else np.ascontiguousarray(U.transpose(0, 2, 1))
    bias = np.broadcast_to(b[:, None, :], (n_lstm, batch, 4 * hidden))
    # the mask in run order; steps where every sequence is real skip the
    # multiplication by ones
    m = None if mask is None else _flip(
        np.broadcast_to(mask[:, None, :, None], (n, n_lstm, batch, 1)), flip)
    ragged = [False] * n if m is None else (m.min(axis=(1, 2, 3)) < 1).tolist()
    H = np.empty((n, n_lstm, batch, hidden))
    # without a cache, two cell-state buffers and one gate buffer take turns
    C = np.empty((n if keep_cache else 2, n_lstm, batch, hidden))
    GATES = np.empty((n if keep_cache else 1, n_lstm, batch, 4 * hidden))
    c_at, g_at = (range(n), range(n)) if keep_cache else ([t % 2 for t in range(n)], [0] * n)
    i, f, g, o = (GATES[..., k * hidden:(k + 1) * hidden] for k in range(4))
    h = c = np.zeros((n_lstm, batch, hidden))
    for t in range(n):
        hm = h * rec_mask if rec_mask is not None else h
        z = hm @ UT
        z += WX[t]  # the same sums as WX[t] + hm @ UT: float addition commutes
        z += bias
        k = g_at[t]
        sigmoid(z, out=GATES[k])  # one call for every gate of every member; g is overwritten
        np.tanh(z[..., 2 * hidden:3 * hidden], out=g[k])
        c_prev, c, h = c, C[c_at[t]], H[t]
        np.multiply(f[k], c_prev, out=c)
        c += i[k] * g[k]
        if ragged[t]:
            c *= m[t]
        np.tanh(c, out=h)
        h *= o[k]
    H = _flip(H, flip)
    cache = dict(X=X, GATES=GATES, C=C, W=W, U=U, in_mask=in_mask, rec_mask=rec_mask, m=m,
                 ragged=ragged, flip=flip, single=single)
    return (H[:, 0, 0] if single else H), cache if keep_cache else None


def _flip(A: np.ndarray, flip, axis: int = 1) -> np.ndarray:
    """A (T, S, ...) with time reversed for each flipped member, members on
    `axis` (a view when none is): X's time order to the run order and back."""
    if not any(flip):
        return A.swapaxes(1, axis)
    return np.stack([A[::-1, s] if rev else A[:, s] for s, rev in enumerate(flip)], axis=axis)


def _carried_in(A: np.ndarray) -> np.ndarray:
    """Per step, the value the previous step handed over (zero at the first)."""
    return np.concatenate([np.zeros_like(A[:1]), A[:-1]])


def lstm_backward(dH: np.ndarray, cache, cuts=frozenset()) -> tuple:
    """Adjoint of lstm_forward; dH is shaped like its H. `cuts` holds
    boundaries k in X's time order where the carried state gradient is
    zeroed between steps k-1 and k (truncated BPTT; forward values were
    not truncated). Only the input, gates and cell states are cached; the
    masked input, tanh(c) and the previous step's h and c are derived from
    them. Returns (dX shaped like H with Din features, grads {"W","U","b"})."""
    GATES, C, W, U = cache["GATES"], cache["C"], cache["W"], cache["U"]
    in_mask, rec_mask, flip = cache["in_mask"], cache["rec_mask"], cache["flip"]
    single, m, ragged = cache["single"], cache["m"], cache["ragged"]
    n, n_lstm, batch, hidden = C.shape
    dH = _flip(dH[:, None, None] if single else dH, flip)
    # a reverse member meets boundary k after its run step n-k
    cut_at = [[s for s, rev in enumerate(flip) if (n - t if rev else t) in cuts] for t in range(n)]
    i, f, g, o = (GATES[..., k * hidden:(k + 1) * hidden] for k in range(4))
    TC = np.tanh(C)
    # o * tanh(c) is bit-identical to the forward outputs
    HM = _carried_in(o * TC)
    if rec_mask is not None:
        HM = HM * rec_mask
    # per step, gate derivatives as factors of dc (i, f, g) and dh (o) that the
    # loop scales in place, laid out like GATES
    dZ = np.empty_like(GATES)
    di, df, dg, do = (dZ[..., k * hidden:(k + 1) * hidden] for k in range(4))
    di[...] = g * i * (1.0 - i)
    df[...] = _carried_in(C) * f * (1.0 - f)
    dg[...] = i * (1.0 - g * g)
    do[...] = TC * o * (1.0 - o)
    DC = o * (1.0 - TC * TC)  # carries dh into dc through h = o tanh(c)
    del TC
    dh_carry = dc_carry = np.zeros((n_lstm, batch, hidden))
    for t in range(n - 1, -1, -1):
        dh = dH[t] + dh_carry
        if ragged[t]:
            dh *= m[t]
            dc_carry = dc_carry * m[t]
        dc = dh * DC[t] + dc_carry
        dz = dZ[t]
        np.multiply(dz, np.concatenate((dc, dc, dc, dh), -1), out=dz)
        dh_carry = dz @ U
        if rec_mask is not None:
            dh_carry *= rec_mask
        dc_carry = dc * f[t]
        for s in cut_at[t]:  # truncation: state gradients stop at chunk boundaries
            dh_carry[s] = dc_carry[s] = 0.0
    # member-major rows in X's time order: each product below is the one a
    # lone LSTM makes
    rows = _flip(dZ, flip, axis=0).reshape(n_lstm, n * batch, 4 * hidden)
    Xm = cache["X"][None] if in_mask is None else cache["X"][None] * in_mask[:, None]
    HM = _flip(HM, flip, axis=0).reshape(n_lstm, n * batch, hidden)
    grads = {"W": rows.transpose(0, 2, 1) @ Xm.reshape(len(Xm), n * batch, -1),
             "U": rows.transpose(0, 2, 1) @ HM, "b": rows.sum(axis=1)}
    dX = rows.reshape(n_lstm, n, batch, 4 * hidden) @ W[:, None]
    if in_mask is not None:
        dX = dX * in_mask[:, None]
    if single:
        return dX[0, :, 0], {k: v[0] for k, v in grads.items()}
    return dX.swapaxes(0, 1), grads


def attention_forward(E: np.ndarray, w_layer: np.ndarray, w_word: np.ndarray,
                      mask=None) -> tuple:
    """Collapse utterance embeddings into one vector per utterance: E is
    one utterance (T, K, D) or a block of them (N, T, K, D).

    Per token, the K layer vectors are mixed by softmax(E_t w_layer); the
    resulting token vectors are pooled by softmax(L w_word). A zero w_word
    gives the unweighted token mean. In a block, `mask` (N, T) marks the
    real tokens; the others get zero pooling weight. Pads never reach
    here: their zero vectors cannot carry signal anyway.
    """
    single = E.ndim == 3
    if single:
        E = E[None]
    S = E @ w_layer                           # (N, T, K)
    A = softmax(S, axis=2)
    L = np.einsum("ntk,ntkd->ntd", A, E)      # (N, T, D)
    q = L @ w_word                            # (N, T)
    if mask is not None:
        q = np.where(mask, q, -np.inf)
    aw = softmax(q, axis=1)
    u = np.einsum("nt,ntd->nd", aw, L)
    cache = {"E": E, "A": A, "L": L, "aw": aw, "w_word": w_word}
    return (u[0] if single else u), cache


def attention_backward(du: np.ndarray, cache) -> tuple:
    """Adjoint of attention_forward; embeddings are frozen so only the two
    attention vectors receive gradients, summed over a block. Returns
    (d_w_layer, d_w_word)."""
    E, A, L, aw, w_word = cache["E"], cache["A"], cache["L"], cache["aw"], cache["w_word"]
    du = du.reshape(aw.shape[0], -1)
    dL = aw[:, :, None] * du[:, None, :]
    daw = np.einsum("ntd,nd->nt", L, du)
    dq = aw * (daw - (aw * daw).sum(axis=1, keepdims=True))
    d_w_word = np.einsum("ntd,nt->d", L, dq)
    dL += dq[:, :, None] * w_word
    dA = np.einsum("ntd,ntkd->ntk", dL, E)
    dS = A * (dA - (A * dA).sum(axis=2, keepdims=True))
    d_w_layer = np.einsum("ntk,ntkd->d", dS, E)
    return d_w_layer, d_w_word


def weighted_ce_loss_and_dlogits(probs: np.ndarray, targets: np.ndarray,
                                 class_weights: np.ndarray) -> tuple:
    """Sum over rows of -sum_c w_c t_c log p_c, plus d(loss)/d(logits).

    For softmax probs the logit gradient is p * (w . t) - w * t per row.
    """
    p = np.clip(probs, 1e-300, None)
    loss = -float((class_weights * targets * np.log(p)).sum())
    s = targets @ class_weights
    dlogits = probs * s[:, None] - targets * class_weights
    return loss, dlogits


def dropout_mask(gen, size: int, rate: float) -> np.ndarray | None:
    """Inverted dropout mask (None when rate is 0)."""
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (gen.random(size) < keep).astype(float) / keep


def global_norm(grads) -> float:
    """sqrt of the sum of squares of an iterable of gradient arrays, summed
    array by array in the order given."""
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    return float(np.sqrt(total))


def clip_scale(norm: float, max_norm: float) -> float:
    """The factor max_norm/norm that global-norm clipping scales the
    gradients by, or 1.0 when the norm is within max_norm."""
    return max_norm / norm if norm > max_norm and norm > 0.0 else 1.0

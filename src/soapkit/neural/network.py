"""Forward and reverse-mode passes for the network building blocks.

Plain numpy, float64, no autograd: every backward function here is the
hand-derived adjoint of its forward partner and is checked against central
finite differences in the test suite. Gate order in all LSTM weight
matrices is input, forget, cell, output.
"""

from __future__ import annotations

import numpy as np


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(z):
    """Logistic function; exp only ever sees -|z|, so it cannot overflow."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


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
                 reverse: bool = False, mask=None) -> tuple:
    """Run an LSTM from zero initial state over one sequence X (N, Din) or
    a time-major batch X (T, B, Din).

    in_mask / rec_mask are variational dropout masks (fixed per sequence,
    one row per sequence in a batch) applied to the step input and the
    recurrent hidden input. `mask` (T, B) is 1 on the real steps of ragged
    sequences padded at the end: padded steps leave zero state and zero
    output, so a reverse pass starts each sequence from zero at its own
    last step. Returns (H, shaped like X with `hidden` features, cache).
    """
    single = X.ndim == 2
    if single:
        X = X[:, None, :]
    n, batch, _ = X.shape
    hidden = U.shape[1]
    Xm = X * in_mask if in_mask is not None else X
    WX = Xm @ W.T  # (T, B, 4H)
    UT = U.T
    m, ragged = _step_mask(mask, n)
    order = range(n - 1, -1, -1) if reverse else range(n)
    H = np.empty((n, batch, hidden))
    C = np.empty((n, batch, hidden))
    GATES = np.empty((n, batch, 4 * hidden))
    i, f, g, o = (GATES[:, :, k * hidden:(k + 1) * hidden] for k in range(4))
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    for t in order:
        hm = h * rec_mask if rec_mask is not None else h
        z = WX[t] + hm @ UT + b
        GATES[t] = sigmoid(z)  # one call for the whole block; g is overwritten
        np.tanh(z[:, 2 * hidden:3 * hidden], out=g[t])
        c_prev, c, h = c, C[t], H[t]
        np.multiply(f[t], c_prev, out=c)
        c += i[t] * g[t]
        if ragged[t]:
            c *= m[t]
        np.tanh(c, out=h)
        h *= o[t]
    cache = {"X": X, "GATES": GATES, "C": C, "W": W, "U": U,
             "in_mask": in_mask, "rec_mask": rec_mask, "mask": mask, "reverse": reverse}
    return (H[:, 0] if single else H), cache


def _step_mask(mask, n: int) -> tuple:
    """(mask as (T, B, 1), per step whether any sequence is padding there):
    steps where every sequence is real skip the multiplication by ones."""
    if mask is None:
        return None, [False] * n
    return mask[:, :, None], (mask.min(axis=1) < 1).tolist()


def _carried_in(A: np.ndarray, reverse: bool) -> np.ndarray:
    """Per step, the value the previous step in run order handed over
    (zero at the first step)."""
    out = np.zeros_like(A)
    if reverse:
        out[:-1] = A[1:]
    else:
        out[1:] = A[:-1]
    return out


def lstm_backward(dH: np.ndarray, cache, cuts=frozenset()) -> tuple:
    """Adjoint of lstm_forward. `cuts` holds sequence positions where the
    carried state gradient is zeroed (truncated BPTT boundaries; forward
    values were not truncated). Only the input, gates and cell states are
    cached; the masked input, tanh(c) and the previous step's h and c are
    derived from them. Returns (dX, grads{"W","U","b"})."""
    single = dH.ndim == 2
    if single:
        dH = dH[:, None, :]
    GATES, C = cache["GATES"], cache["C"]
    W, U = cache["W"], cache["U"]
    reverse, rec_mask = cache["reverse"], cache["rec_mask"]
    n, batch, hidden = C.shape
    m, ragged = _step_mask(cache["mask"], n)
    i, f, g, o = (GATES[:, :, k * hidden:(k + 1) * hidden] for k in range(4))
    TC = np.tanh(C)
    # o * tanh(c) is bit-identical to the forward outputs
    HM = _carried_in(o * TC, reverse)
    if rec_mask is not None:
        HM = HM * rec_mask
    # every step's gate derivatives, as factors of the step's dc (i, f and
    # g rows) and dh (o rows); the loop scales them into dZ in place
    dZ = np.empty((n, batch, 4, hidden))
    dZ[:, :, 0] = g * i * (1.0 - i)
    dZ[:, :, 1] = _carried_in(C, reverse) * f * (1.0 - f)
    dZ[:, :, 2] = i * (1.0 - g * g)
    dZ[:, :, 3] = TC * o * (1.0 - o)
    DC = o * (1.0 - TC * TC)  # carries dh into dc through h = o tanh(c)
    del TC
    dh_carry = np.zeros((batch, hidden))
    dc_carry = np.zeros((batch, hidden))
    order = range(n) if reverse else range(n - 1, -1, -1)
    for t in order:
        dh = dH[t] + dh_carry
        if ragged[t]:
            dh *= m[t]
            dc_carry = dc_carry * m[t]
        dc = dh * DC[t] + dc_carry
        dz = dZ[t]
        dz[:, :3] *= dc[:, None, :]
        dz[:, 3] *= dh
        dh_carry = dz.reshape(batch, 4 * hidden) @ U
        if rec_mask is not None:
            dh_carry *= rec_mask
        dc_carry = dc * f[t]
        # truncation: state gradients stop at chunk boundaries
        boundary = t if not reverse else t + 1
        if boundary in cuts:
            dh_carry = np.zeros((batch, hidden))
            dc_carry = np.zeros((batch, hidden))
    Xm = cache["X"] * cache["in_mask"] if cache["in_mask"] is not None else cache["X"]
    flat = dZ.reshape(n * batch, 4 * hidden)
    grads = {
        "W": flat.T @ Xm.reshape(n * batch, -1),
        "U": flat.T @ HM.reshape(n * batch, hidden),
        "b": flat.sum(axis=0),
    }
    dX = flat.reshape(n, batch, 4 * hidden) @ W
    if cache["in_mask"] is not None:
        dX = dX * cache["in_mask"]
    return (dX[:, 0] if single else dX), grads


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


def global_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return float(np.sqrt(total))


def clip_by_global_norm(grads: dict, max_norm: float) -> tuple:
    """Scale all gradients by max_norm/||g|| when the global norm exceeds
    max_norm. Returns (grads, norm_before, scale)."""
    norm = global_norm(grads)
    scale = 1.0
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads, norm, scale

"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: quadratic scans, exhaustive
enumeration, plain-Python arithmetic. Speed does not matter; sharing no
code or algorithmic shortcuts with the package under test does.
"""

import numpy as np


def edit_distance_textbook(a: str, b: str) -> int:
    """Full (n+1) x (m+1) unit-cost edit distance table."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[n][m]


def lcs_brute(a: str, b: str) -> tuple:
    """(a_start, b_start, length) of the longest common substring by direct
    enumeration of every start pair; ties resolved by smallest a_start,
    then smallest b_start."""
    best = (0, 0, 0)
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best[2]:
                best = (i, j, k)
    return best


def lcs_rolling_dp(a: str, b: str) -> tuple:
    """(a_start, b_start, length) of the longest common substring by a
    rolling DP over longest-common-suffix lengths, one row of b per char
    of a; ties resolved by smallest a_start, then smallest b_start. Fast
    enough for strings of thousands of chars, unlike `lcs_brute`."""
    if not a or not b:
        return (0, 0, 0)
    ca = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    cb = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    prev = np.zeros(len(b), dtype=np.int32)
    cur = np.zeros(len(b), dtype=np.int32)
    best_len = 0
    best_i = best_j = 0
    for i in range(len(a)):
        eq = cb == ca[i]
        cur[0] = 1 if eq[0] else 0
        np.add(prev[:-1], 1, out=cur[1:])
        cur[1:] *= eq[1:]
        row_max = int(cur.max())
        if row_max > best_len:
            best_len = row_max
            best_i = i
            best_j = int(np.argmax(cur))  # first column attaining the max
        prev, cur = cur, prev
    if best_len == 0:
        return (0, 0, 0)
    return (best_i - best_len + 1, best_j - best_len + 1, best_len)


def lcs_per_start(a: str, b: str) -> tuple:
    """The per-start longest-common-substring scan that the block-step scan
    replaced: one step per start of a, growing the best length L while
    a[i:i+L+1] occurs in b, and skipping a start only when the block
    a[k:k+h] (h = (L + 2) // 2, k the first multiple of h not below it),
    which any longer match from it would cover, is absent from b. Same
    tie rule as `lcs_brute`."""
    best = best_i = 0
    block = (0, 0, True)  # (start, length, occurs in b) of the last block searched
    for i in range(len(a)):
        h = (best + 2) // 2
        k = -(-i // h) * h
        if block[:2] != (k, h):
            block = (k, h, a[k:k + h] in b)
        if not block[2]:
            continue
        while i + best < len(a) and a[i:i + best + 1] in b:
            best += 1
            best_i = i
    if best == 0:
        return (0, 0, 0)
    return (best_i, b.find(a[best_i:best_i + best]), best)


def asr_to_ref_map_loop(op_string: str) -> tuple:
    """Walk an "MSID" op string one op at a time: per ASR char, the
    reference index it aligned to (-1 for inserts) and whether it matched."""
    ref_idx, matched = [], []
    ri = 0
    for op in op_string:
        if op in "MS":
            ref_idx.append(ri)
            matched.append(op == "M")
        elif op == "I":
            ref_idx.append(-1)
            matched.append(False)
        if op != "I":
            ri += 1
    return ref_idx, matched


def word_label_probs_loop(ref_idx, matched, section, speaker, spans) -> tuple:
    """Label mass of each ASR word, one word at a time: the segment is the
    reference range from the lowest to the highest aligned index among the
    word's chars, each labeled (>= 0) segment char adds one to its section
    and speaker, and both vectors are scaled by confidence / labeled count,
    where confidence = exact matches / max(word length, segment length).
    Returns (soap (n_words, 5), speaker (n_words, 4))."""
    soap_rows, speaker_rows = [], []
    for ws, we in spans:
        idx = ref_idx[ws:we]
        covered = idx >= 0
        soap = np.zeros(5)
        spk = np.zeros(4)
        if covered.any():
            r_lo = int(idx[covered].min())
            r_hi = int(idx[covered].max()) + 1
            n_match = int(matched[ws:we].sum())
            conf = n_match / max(we - ws, r_hi - r_lo)
            labeled = [(int(section[k]), int(speaker[k])) for k in range(r_lo, r_hi)
                       if section[k] >= 0]
            if labeled:
                for sec, who in labeled:
                    soap[sec] += 1.0
                    spk[who] += 1.0
                soap *= conf / len(labeled)
                spk *= conf / len(labeled)
        soap_rows.append(soap)
        speaker_rows.append(spk)
    return np.array(soap_rows).reshape(-1, 5), np.array(speaker_rows).reshape(-1, 4)


def utterance_distributions_loop(soap_rows, speaker_rows, counts, mode="l2") -> list:
    """One utterance at a time: the mean of its word rows, the content
    masses' residual put on none, and the speaker mean scaled to unit L2
    norm or unit sum (uniform when all zero). Returns (soap, speaker)
    tuples of floats."""
    out = []
    start = 0
    for c in counts:
        soap = soap_rows[start:start + c].mean(axis=0)
        speaker = np.clip(speaker_rows[start:start + c].mean(axis=0), 0.0, None)
        start += c
        content = np.clip(soap[1:], 0.0, None)
        soap_dist = (max(0.0, 1.0 - float(soap[1:].sum())),) + tuple(float(x) for x in content)
        norm = float(np.linalg.norm(speaker)) if mode == "l2" else float(speaker.sum())
        spk_dist = (0.25,) * 4 if norm == 0.0 else tuple(float(x) for x in speaker / norm)
        out.append((soap_dist, spk_dist))
    return out


def auroc_pairwise(scores, pos) -> float:
    """Probability a positive outscores a negative over all pairs, ties
    counting one half."""
    scores = list(scores)
    pos = list(pos)
    ps = [s for s, y in zip(scores, pos) if y]
    ns = [s for s, y in zip(scores, pos) if not y]
    total = 0.0
    for p in ps:
        for q in ns:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(ps) * len(ns))


def auprc_thresholds(scores, pos) -> float:
    """Area under the PR curve by enumerating every distinct score as a
    threshold (descending) and recounting tp/fp from scratch each time."""
    scores = list(scores)
    pos = list(pos)
    n_pos = sum(1 for y in pos if y)
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, pos) if s >= t and y)
        predicted = sum(1 for s in scores if s >= t)
        recall = tp / n_pos
        precision = tp / predicted
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def f1_by_hand(preds, golds, n_classes: int) -> list:
    """Per-class F1 from precision and recall computed with plain loops."""
    out = []
    for c in range(n_classes):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        pp = sum(1 for p in preds if p == c)
        gp = sum(1 for g in golds if g == c)
        precision = tp / pp if pp else 0.0
        recall = tp / gp if gp else 0.0
        out.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return out


def log_loss_naive(scores, golds, eps: float = 1e-12) -> float:
    total = 0.0
    for row, g in zip(scores, golds):
        total += -np.log(max(float(row[g]), eps))
    return total / len(golds)


def population_mean_var(values) -> tuple:
    vals = [float(v) for v in values]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return mean, var


def irr_map_oracle(source, reference) -> dict:
    """Exhaustive note mapping: per source observation, scan every
    same-subsection reference observation for the best overlap (lowest
    reference index on ties); classify; then scan references for ones no
    source observation touches.

    Returns {"categories": [str], "ref_idx": [int|None], "deletions": [int]}.
    """

    def jac(x, y):
        x, y = set(x), set(y)
        if not x and not y:
            return 0.0
        return len(x & y) / len(x | y)

    def score(o1, o2):
        if o1.subsection != o2.subsection:
            return 0.0
        return jac(o1.evidence, o2.evidence) + jac(o1.tags, o2.tags)

    def norm(s):
        return " ".join(s.split())

    categories = []
    ref_idx = []
    for obs in source.observations:
        best_s = 0.0
        best_r = None
        for r, ref_obs in enumerate(reference.observations):
            s = score(obs, ref_obs)
            if s > best_s:
                best_s = s
                best_r = r
        if best_r is None:
            categories.append("insertion")
            ref_idx.append(None)
            continue
        ref_obs = reference.observations[best_r]
        exact = (obs.subsection == ref_obs.subsection
                 and set(obs.tags) == set(ref_obs.tags)
                 and set(obs.evidence) == set(ref_obs.evidence)
                 and norm(obs.summary) == norm(ref_obs.summary))
        categories.append("identical" if exact else "substitution")
        ref_idx.append(best_r)
    deletions = []
    for r, ref_obs in enumerate(reference.observations):
        touched = any(score(obs, ref_obs) > 0.0 for obs in source.observations)
        if not touched:
            deletions.append(r)
    return {"categories": categories, "ref_idx": ref_idx, "deletions": deletions}


def gradient_check(model, token_lists, spk_t, sect_t, spk_w, sect_w,
                   eps: float = 1e-5):
    """Central finite differences on every element of every trainable
    tensor against the analytic gradients, on a one-transcript batch.

    Yields (tensor_name, flat_index, analytic, numeric, rel_err) for
    elements whose analytic gradient clears the 1e-8 magnitude guard.
    """
    batch = [token_lists]
    _, grads = model.loss_and_grads(batch, spk_t, sect_t, spk_w, sect_w,
                                    dropout=0.0)
    for name in model.trainable():
        param = model.params[name]
        flat = param.reshape(-1)
        g = grads[name].reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + eps
            up = model.compute_loss(batch, spk_t, sect_t, spk_w, sect_w)
            flat[idx] = old - eps
            down = model.compute_loss(batch, spk_t, sect_t, spk_w, sect_w)
            flat[idx] = old
            numeric = (up - down) / (2.0 * eps)
            analytic = g[idx]
            if abs(analytic) <= 1e-8:
                continue
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
            yield name, idx, analytic, numeric, rel


# --- per-transcript reference of the neural model ---
#
# One transcript at a time, one Python step per utterance, one attention
# call per utterance, a separate sigmoid per gate: the implementation the
# batched, masked (T, B) pass in soapkit.neural replaced.


def sigmoid_two_branch(z):
    """Logistic function evaluated separately on the two signs of z."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softmax(z, axis=-1):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _dropout_mask(gen, size, rate):
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (gen.random(size) < keep).astype(float) / keep


def _weighted_ce(probs, targets, class_weights):
    p = np.clip(probs, 1e-300, None)
    loss = -float((class_weights * targets * np.log(p)).sum())
    s = targets @ class_weights
    return loss, probs * s[:, None] - targets * class_weights


def lstm_forward_steps(X, W, U, b, in_mask=None, rec_mask=None, reverse=False):
    """One sequence X (N, Din), one step at a time, full cache."""
    n, _ = X.shape
    hidden = U.shape[1]
    Xm = X * in_mask if in_mask is not None else X
    WX = Xm @ W.T
    order = range(n - 1, -1, -1) if reverse else range(n)
    H = np.zeros((n, hidden))
    HM = np.zeros((n, hidden))
    GATES = np.zeros((n, 4 * hidden))
    CPREV = np.zeros((n, hidden))
    TC = np.zeros((n, hidden))
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for t in order:
        hm = h * rec_mask if rec_mask is not None else h
        z = WX[t] + U @ hm + b
        i = sigmoid_two_branch(z[:hidden])
        f = sigmoid_two_branch(z[hidden:2 * hidden])
        g = np.tanh(z[2 * hidden:3 * hidden])
        o = sigmoid_two_branch(z[3 * hidden:])
        CPREV[t] = c
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        H[t] = h
        HM[t] = hm
        GATES[t] = np.concatenate([i, f, g, o])
        TC[t] = tc
    cache = {"Xm": Xm, "HM": HM, "GATES": GATES, "CPREV": CPREV, "TC": TC,
             "W": W, "U": U, "in_mask": in_mask, "rec_mask": rec_mask,
             "reverse": reverse, "hidden": hidden}
    return H, cache


def lstm_backward_steps(dH, cache, cuts=frozenset()):
    hidden = cache["hidden"]
    W, U = cache["W"], cache["U"]
    reverse = cache["reverse"]
    n = dH.shape[0]
    dZ = np.zeros((n, 4 * hidden))
    dh_carry = np.zeros(hidden)
    dc_carry = np.zeros(hidden)
    order = range(n) if reverse else range(n - 1, -1, -1)
    rec_mask = cache["rec_mask"]
    for t in order:
        gates = cache["GATES"][t]
        i, f = gates[:hidden], gates[hidden:2 * hidden]
        g, o = gates[2 * hidden:3 * hidden], gates[3 * hidden:]
        tc = cache["TC"][t]
        dh = dH[t] + dh_carry
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        di = dc * g
        df = dc * cache["CPREV"][t]
        dg = dc * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ])
        dZ[t] = dz
        dh_carry = U.T @ dz
        if rec_mask is not None:
            dh_carry = dh_carry * rec_mask
        dc_carry = dc * f
        boundary = t if not reverse else t + 1
        if boundary in cuts:
            dh_carry = np.zeros(hidden)
            dc_carry = np.zeros(hidden)
    grads = {"W": dZ.T @ cache["Xm"], "U": dZ.T @ cache["HM"], "b": dZ.sum(axis=0)}
    dX = dZ @ W
    if cache["in_mask"] is not None:
        dX = dX * cache["in_mask"]
    return dX, grads


def attention_forward_utterance(E, w_layer, w_word):
    """One utterance's real-token embeddings E (T, K, D) to one vector."""
    S = E @ w_layer
    A = _softmax(S, axis=1)
    L = np.einsum("tk,tkd->td", A, E)
    q = L @ w_word
    aw = _softmax(q, axis=0)
    u = aw @ L
    return u, {"E": E, "A": A, "L": L, "aw": aw, "w_word": w_word}


def attention_backward_utterance(du, cache):
    E, A, L, aw, w_word = cache["E"], cache["A"], cache["L"], cache["aw"], cache["w_word"]
    dL = np.outer(aw, du)
    daw = L @ du
    dq = aw * (daw - float(aw @ daw))
    d_w_word = L.T @ dq
    dL += np.outer(dq, w_word)
    dA = np.einsum("td,tkd->tk", dL, E)
    dS = A * (dA - (A * dA).sum(axis=1, keepdims=True))
    d_w_layer = np.einsum("tk,tkd->d", dS, E)
    return d_w_layer, d_w_word


def _transcript_forward(model, token_lists, dropout=0.0, gen=None, tbptt_len=None):
    cfg = model.config
    p = model.params
    n = len(token_lists)
    att_caches = []
    U = np.zeros((n, cfg.embed_dim))
    for i, tokens in enumerate(token_lists):
        E = np.stack([model.embeddings(t) for t in tokens if t != ""])
        U[i], cache = attention_forward_utterance(E, p["w_layer"], p["w_word"])
        att_caches.append(cache)
    cache = {"att": att_caches, "U": U, "n": n}
    cache["cuts"] = frozenset(range(tbptt_len, n, tbptt_len)) if tbptt_len else frozenset()

    if cfg.variant in ("bil", "bild"):
        def masks(indim, hid):
            if dropout <= 0.0:
                return None, None
            return _dropout_mask(gen, indim, dropout), _dropout_mask(gen, hid, dropout)

        enc_caches = {}
        x = U
        for layer, (indim, hid) in (
            (1, (cfg.embed_dim, cfg.enc1_hidden)),
            (2, (2 * cfg.enc1_hidden, cfg.enc2_hidden)),
        ):
            outs = []
            for direction in ("f", "b"):
                im, rm = masks(indim, hid)
                h, c = lstm_forward_steps(
                    x, p[f"enc{layer}_{direction}_W"], p[f"enc{layer}_{direction}_U"],
                    p[f"enc{layer}_{direction}_b"], in_mask=im, rec_mask=rm,
                    reverse=direction == "b")
                outs.append(h)
                enc_caches[f"enc{layer}_{direction}"] = c
            x = np.concatenate(outs, axis=1)
        cache["enc"] = enc_caches
        C = x
    else:
        C = U
    cache["C"] = C

    logits = {}
    if cfg.variant == "bild":
        dec_caches = {}
        for task in ("spk", "sect"):
            im = rm = None
            if dropout > 0.0:
                im = _dropout_mask(gen, model.ctx_dim, dropout)
                rm = _dropout_mask(gen, cfg.decoder_hidden, dropout)
            h, c = lstm_forward_steps(C, p[f"dec_{task}_W"], p[f"dec_{task}_U"],
                                      p[f"dec_{task}_b"], in_mask=im, rec_mask=rm)
            dec_caches[task] = (h, c)
            logits[task] = h @ p[f"proj_{task}_W"].T + p[f"proj_{task}_b"]
        cache["dec"] = dec_caches
    else:
        for task in ("spk", "sect"):
            logits[task] = C @ p[f"head_{task}_W"].T + p[f"head_{task}_b"]
    cache["probs"] = {task: _softmax(z, axis=1) for task, z in logits.items()}
    return cache


def transcript_predict(model, token_lists):
    """(speaker, section) probability rows of one transcript."""
    cache = _transcript_forward(model, token_lists)
    return cache["probs"]["spk"], cache["probs"]["sect"]


def transcript_loss_and_grads(model, token_lists, spk_targets, sect_targets,
                              spk_weights, sect_weights, dropout=0.0, gen=None,
                              tbptt_len=None):
    """Loss and gradients of one transcript, drawing its dropout masks
    from `gen` in the model's order."""
    cfg = model.config
    p = model.params
    cache = _transcript_forward(model, token_lists, dropout=dropout, gen=gen,
                                tbptt_len=tbptt_len)
    cuts = cache["cuts"]
    grads = {name: np.zeros_like(val) for name, val in p.items()}
    C = cache["C"]
    dC = np.zeros_like(C)
    total = 0.0
    for task, targets, weights in (
        ("spk", spk_targets, spk_weights),
        ("sect", sect_targets, sect_weights),
    ):
        loss, dlogits = _weighted_ce(cache["probs"][task], np.asarray(targets, float),
                                     np.asarray(weights, float))
        total += loss
        if cfg.variant == "bild":
            h, dec_cache = cache["dec"][task]
            grads[f"proj_{task}_W"] += dlogits.T @ h
            grads[f"proj_{task}_b"] += dlogits.sum(axis=0)
            dC_task, g = lstm_backward_steps(dlogits @ p[f"proj_{task}_W"], dec_cache, cuts)
            dC += dC_task
            for k, v in g.items():
                grads[f"dec_{task}_{k}"] += v
        else:
            grads[f"head_{task}_W"] += dlogits.T @ C
            grads[f"head_{task}_b"] += dlogits.sum(axis=0)
            dC += dlogits @ p[f"head_{task}_W"]

    if cfg.variant in ("bil", "bild"):
        h1, h2 = cfg.enc1_hidden, cfg.enc2_hidden
        dX1 = None
        for direction, sl in (("f", slice(0, h2)), ("b", slice(h2, 2 * h2))):
            dx, g = lstm_backward_steps(dC[:, sl], cache["enc"][f"enc2_{direction}"], cuts)
            dX1 = dx if dX1 is None else dX1 + dx
            for k, v in g.items():
                grads[f"enc2_{direction}_{k}"] += v
        dU = None
        for direction, sl in (("f", slice(0, h1)), ("b", slice(h1, 2 * h1))):
            dx, g = lstm_backward_steps(dX1[:, sl], cache["enc"][f"enc1_{direction}"], cuts)
            dU = dx if dU is None else dU + dx
            for k, v in g.items():
                grads[f"enc1_{direction}_{k}"] += v
    else:
        dU = dC

    for i, att_cache in enumerate(cache["att"]):
        d_wl, d_ww = attention_backward_utterance(dU[i], att_cache)
        grads["w_layer"] += d_wl
        grads["w_word"] += d_ww

    for name in model.frozen:
        grads[name] = np.zeros_like(p[name])
    return total, grads


# --- reference fits of the lr baseline and of Platt calibration ---
#
# Full-batch gradient descent that evaluates loss and gradient from the
# parameters at every line-search trial, on (n, C) sample-major arrays:
# the implementation the class-major trials in soapkit replaced.


def lr_loss_grad(W, b, X, T, w_class):
    """Weighted cross entropy of softmax(X W^T + b) and its gradients."""
    Z = X @ W.T + b
    Z = Z - Z.max(axis=1, keepdims=True)
    logZ = Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))
    n = X.shape[0]
    loss = -float((w_class * T * logZ).sum()) / n
    P = np.exp(logZ)
    s = T @ w_class  # per-sample total target weight
    G = (P * s[:, None] - T * w_class) / n
    dW = G.T @ X
    db = G.sum(axis=0)
    return loss, dW, db


def lr_fit_reference(X, targets, w_class, max_iters=1000, grad_tol=1e-6):
    """(W, b) of the lr baseline on count matrix X: zero start, Armijo
    backtracking warm-started from twice the last step (capped at 1e6),
    at most 60 halvings. A non-finite loss raises ValueError."""
    targets = np.asarray(targets, dtype=float)
    w_class = np.asarray(w_class, dtype=float)
    W = np.zeros((targets.shape[1], X.shape[1]))
    b = np.zeros(targets.shape[1])
    loss, dW, db = lr_loss_grad(W, b, X, targets, w_class)
    step = 1.0
    for _ in range(max_iters):
        gnorm2 = float((dW * dW).sum() + (db * db).sum())
        if not np.isfinite(loss):
            raise ValueError("logistic regression diverged (non-finite loss)")
        if np.sqrt(gnorm2) < grad_tol:
            break
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            W2 = W - step * dW
            b2 = b - step * db
            loss2, dW2, db2 = lr_loss_grad(W2, b2, X, targets, w_class)
            if loss2 <= loss - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        W, b, loss, dW, db = W2, b2, loss2, dW2, db2
    return W, b


def platt_fit_reference(z, y, max_iters=200, grad_tol=1e-9):
    """(a, b) minimizing the mean logistic loss of sigmoid(a z + b) from
    the identity (1, 0): Armijo backtracking warm-started from twice the
    last step (capped at 1e4), at most 80 halvings."""
    a, b = 1.0, 0.0

    def loss_grad(a, b):
        t = a * z + b
        p = sigmoid_two_branch(t)
        ll = np.where(y, np.logaddexp(0.0, -t), np.logaddexp(0.0, t)).mean()
        r = p - y
        return float(ll), float((r * z).mean()), float(r.mean())

    loss, ga, gb = loss_grad(a, b)
    step = 1.0
    for _ in range(max_iters):
        g2 = ga * ga + gb * gb
        if np.sqrt(g2) < grad_tol:
            break
        step = min(step * 2.0, 1e4)
        for _ in range(80):
            a2 = a - step * ga
            b2 = b - step * gb
            loss2, ga2, gb2 = loss_grad(a2, b2)
            if loss2 <= loss - 1e-4 * step * g2:
                break
            step *= 0.5
        a, b, loss, ga, gb = a2, b2, loss2, ga2, gb2
    return a, b

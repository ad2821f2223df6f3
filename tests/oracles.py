"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: quadratic scans, exhaustive
enumeration, plain-Python arithmetic. Speed does not matter; sharing no
code or algorithmic shortcuts with the package under test does.
"""

import hashlib

import numpy as np

from soapkit.corpus import SoapSection, SpeakerLabel, Transcript, TranscriptKind, Utterance
from soapkit.project import ABBREVIATIONS, SENTENCE_END
from soapkit.synth import (
    FUNCTION_WORDS,
    GENERIC_WORDS,
    SECTION_WORDS,
    SPEAKER_WORDS,
    context_rule,
)


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


def dp_align_table(a: str, b: str) -> str:
    """The op string of the full (n+1) x (m+1) unit-cost DP table, filled
    a row at a time with numpy and traced back from the corner with the
    preference Match > Substitute > Delete > Insert: `dp_align`'s table
    method, without its closed form for one-char sides."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return "I" * m + "D" * n
    ca = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    cb = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    D = np.empty((n + 1, m + 1), dtype=np.int32)
    idx = np.arange(m + 1, dtype=np.int32)
    D[0] = idx
    tmp = np.empty(m + 1, dtype=np.int32)
    for i in range(1, n + 1):
        neq = (cb != ca[i - 1]).astype(np.int32)
        tmp[0] = i
        np.minimum(D[i - 1, :-1] + neq, D[i - 1, 1:] + 1, out=tmp[1:])
        D[i] = idx + np.minimum.accumulate(tmp - idx)
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        d = D[i, j]
        if i > 0 and j > 0 and ca[i - 1] == cb[j - 1] and d == D[i - 1, j - 1]:
            ops.append("M")
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and ca[i - 1] != cb[j - 1] and d == D[i - 1, j - 1] + 1:
            ops.append("S")
            i -= 1
            j -= 1
        elif i > 0 and d == D[i - 1, j] + 1:
            ops.append("D")
            i -= 1
        else:
            ops.append("I")
            j -= 1
    return "".join(reversed(ops))


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


class CharModel:
    """Unigram character model with a floor for unseen characters:
    observed chars get their empirical frequency, a char absent from the
    model gets 1 / (total observed + alphabet size)."""

    def __init__(self, texts):
        counts = {}
        for t in texts:
            for c in t:
                counts[c] = counts.get(c, 0) + 1
        total = sum(counts.values())
        self.probs = {c: n / total for c, n in counts.items()}
        self.floor = 1.0 / (total + len(counts)) if total else 1.0

    def prob(self, ch: str) -> float:
        return self.probs.get(ch, self.floor)


def expected_substring_count(pattern: str, ref_len: int, asr_len: int, model: CharModel) -> float:
    """Expected number of chance co-occurrences of `pattern` in two strings
    of the given lengths under the unigram model:
    (ref_len - L + 1) * (asr_len - L + 1) * prod(p(c))."""
    L = len(pattern)
    if L == 0 or ref_len < L or asr_len < L:
        raise ValueError("pattern must be non-empty and fit in both strings")
    p = 1.0
    for c in pattern:
        p *= model.prob(c)
        if p == 0.0:
            break
    return float(ref_len - L + 1) * float(asr_len - L + 1) * p


def partition_reference(ref: str, asr: str, threshold=0.001, max_depth=64) -> tuple:
    """The LCS-anchor partition tree as nested (ref_span, asr_span, anchor,
    children) tuples: anchor is (ref_start, asr_start, length) or None,
    children () or (left, right). The longest common substring comes from
    `lcs_per_start`; an anchor is accepted when `expected_substring_count`
    under one `CharModel` of both strings, at the lengths of the strings
    being partitioned, is below `threshold`."""
    model = CharModel([ref, asr])

    def part(r, a, r_off, a_off, depth):
        spans = ((r_off, r_off + len(r)), (a_off, a_off + len(a)))
        if not r or not a:
            return spans + (None, ())
        i, j, L = lcs_per_start(r, a)
        if (L == 0 or depth >= max_depth
                or expected_substring_count(r[i:i + L], len(r), len(a), model) >= threshold):
            return spans + (None, ())
        return spans + ((r_off + i, a_off + j, L), (
            part(r[:i], a[:j], r_off, a_off, depth + 1),
            part(r[i + L:], a[j + L:], r_off + i + L, a_off + j + L, depth + 1)))

    return part(ref, asr, 0, 0, 0)


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


def reconstruct_utterances_loop(asr_text: str, turns) -> list:
    """Char by char through each turn: a sentence ends after '.', '?' or
    '!' when the next char of the turn is whitespace, unless it is a '.'
    ending a listed abbreviation (the token back to the last whitespace or
    break); fragments are trimmed of whitespace and dropped when empty."""
    out = []
    for ts, te in turns:
        start = ts
        breaks = []
        for k in range(ts, te):
            c = asr_text[k]
            if c in SENTENCE_END and k + 1 < te and asr_text[k + 1].isspace():
                lo = k
                while lo > start and not asr_text[lo - 1].isspace():
                    lo -= 1
                if c == "." and asr_text[lo:k + 1].lower() in ABBREVIATIONS:
                    continue
                breaks.append(k + 1)
                start = k + 1
        bounds = [ts] + breaks + [te]
        for fs, fe in zip(bounds, bounds[1:]):
            while fs < fe and asr_text[fs].isspace():
                fs += 1
            while fe > fs and asr_text[fe - 1].isspace():
                fe -= 1
            if fe > fs:
                out.append((fs, fe))
    return out


def utterance_distributions_loop(soap_rows, speaker_rows, counts) -> list:
    """One utterance at a time: the mean of its word rows, the content
    masses' residual put on none, and the speaker mean scaled to unit L2
    norm (uniform when all zero). Returns (soap, speaker) tuples of
    floats."""
    out = []
    start = 0
    for c in counts:
        soap = soap_rows[start:start + c].mean(axis=0)
        speaker = np.clip(speaker_rows[start:start + c].mean(axis=0), 0.0, None)
        start += c
        content = np.clip(soap[1:], 0.0, None)
        soap_dist = (max(0.0, 1.0 - float(soap[1:].sum())),) + tuple(float(x) for x in content)
        norm = float(np.linalg.norm(speaker))
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


def hash_embedding(seed, n_layers, dim, token):
    """One token's (n_layers, dim) vectors, one PCG64 seeded by its integer
    per layer: numpy hashes each seed through its own SeedSequence."""
    vecs = np.zeros((n_layers, dim))
    for k in range(n_layers):
        digest = hashlib.sha256(f"{seed}|{k}|{token}".encode("utf-8")).digest()
        gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
        vecs[k] = gen.standard_normal(dim)
    return vecs


def dropout_masks_per_mask(model, n_seq, rate, gen):
    """The model's per-group (input, recurrent) dropout masks (S, B, dim),
    one draw per mask: sequence by sequence, then group, then member, the
    input mask before the recurrent one."""
    drawn = {name: ([], []) for name, _, _ in model._groups}
    for _ in range(n_seq):
        for name, members, _ in model._groups:
            for m in members:
                for rows, k in zip(drawn[name], "WU"):
                    rows.append(_dropout_mask(gen, model.params[f"{m}_{k}"].shape[1], rate))
    return {name: tuple(np.stack(rows).reshape(n_seq, len(members), -1).swapaxes(0, 1)
                        for rows in drawn[name])
            for name, members, _ in model._groups}


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
    emb = model.embeddings
    for i, tokens in enumerate(token_lists):
        E = np.stack([hash_embedding(emb.seed, emb.n_layers, emb.dim, t)
                      for t in tokens if t != ""])
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


# --- the stacked LSTM kernel in its plain numpy form ---
#
# soapkit.neural.network's stacked LSTM written with a strided step
# product, broadcast gate updates on a member-major backward buffer and a
# time flip copied for every member. The kernel must reproduce it bit for
# bit.


def _carried_in(A):
    return np.concatenate([np.zeros_like(A[:1]), A[:-1]])


def flip_reference(A, flip, axis=1):
    return np.stack([A[::-1, s] if rev else A[:, s] for s, rev in enumerate(flip)], axis=axis)


def lstm_forward_reference(X, W, U, b, in_mask=None, rec_mask=None,
                           reverse=False, mask=None, keep_cache=True):
    single = W.ndim == 2
    if single:
        X, W, U, b = X[:, None], W[None], U[None], b[None]
    n, batch, _ = X.shape
    n_lstm, hidden = U.shape[0], U.shape[2]
    flip = np.broadcast_to(reverse, n_lstm).tolist()
    Xm = X[:, None] if in_mask is None else X[:, None] * in_mask
    WX = flip_reference(np.broadcast_to(Xm, (n, n_lstm) + X.shape[1:]), flip) @ W.transpose(0, 2, 1)
    UT, bias = U.transpose(0, 2, 1), np.broadcast_to(b[:, None, :], (n_lstm, batch, 4 * hidden))
    m = None if mask is None else flip_reference(
        np.broadcast_to(mask[:, None, :, None], (n, n_lstm, batch, 1)), flip)
    ragged = [False] * n if m is None else (m.min(axis=(1, 2, 3)) < 1).tolist()
    H = np.empty((n, n_lstm, batch, hidden))
    C = np.empty((n if keep_cache else 2, n_lstm, batch, hidden))
    GATES = np.empty((n if keep_cache else 1, n_lstm, batch, 4 * hidden))
    c_at, g_at = (range(n), range(n)) if keep_cache else ([t % 2 for t in range(n)], [0] * n)
    i, f, g, o = (GATES[..., k * hidden:(k + 1) * hidden] for k in range(4))
    h = c = np.zeros((n_lstm, batch, hidden))
    for t in range(n):
        hm = h * rec_mask if rec_mask is not None else h
        z = hm @ UT
        z += WX[t]
        z += bias
        k = g_at[t]
        GATES[k] = sigmoid_two_branch(z)
        np.tanh(z[..., 2 * hidden:3 * hidden], out=g[k])
        c_prev, c, h = c, C[c_at[t]], H[t]
        np.multiply(f[k], c_prev, out=c)
        c += i[k] * g[k]
        if ragged[t]:
            c *= m[t]
        np.tanh(c, out=h)
        h *= o[k]
    H = flip_reference(H, flip)
    cache = dict(X=X, GATES=GATES, C=C, W=W, U=U, in_mask=in_mask, rec_mask=rec_mask, m=m,
                 ragged=ragged, flip=flip, single=single)
    return (H[:, 0, 0] if single else H), cache if keep_cache else None


def lstm_backward_reference(dH, cache, cuts=frozenset()):
    GATES, C, W, U = cache["GATES"], cache["C"], cache["W"], cache["U"]
    in_mask, rec_mask, flip = cache["in_mask"], cache["rec_mask"], cache["flip"]
    single, m, ragged = cache["single"], cache["m"], cache["ragged"]
    n, n_lstm, batch, hidden = C.shape
    dH = flip_reference(dH[:, None, None] if single else dH, flip)
    cut_at = [[s for s, rev in enumerate(flip) if (n - t if rev else t) in cuts] for t in range(n)]
    i, f, g, o = (GATES[..., k * hidden:(k + 1) * hidden] for k in range(4))
    TC = np.tanh(C)
    HM = _carried_in(o * TC)
    if rec_mask is not None:
        HM = HM * rec_mask
    dZ = np.empty((n_lstm, n, batch, 4, hidden))
    dZt = dZ.swapaxes(0, 1)
    dZt[..., 0, :] = g * i * (1.0 - i)
    dZt[..., 1, :] = _carried_in(C) * f * (1.0 - f)
    dZt[..., 2, :] = i * (1.0 - g * g)
    dZt[..., 3, :] = TC * o * (1.0 - o)
    DC = o * (1.0 - TC * TC)
    dh_carry = dc_carry = np.zeros((n_lstm, batch, hidden))
    for t in range(n - 1, -1, -1):
        dh = dH[t] + dh_carry
        if ragged[t]:
            dh *= m[t]
            dc_carry = dc_carry * m[t]
        dc = dh * DC[t] + dc_carry
        dz = dZt[t]
        dz[..., :3, :] *= dc[..., None, :]
        dz[..., 3, :] *= dh
        dh_carry = dz.reshape(n_lstm, batch, 4 * hidden) @ U
        if rec_mask is not None:
            dh_carry *= rec_mask
        dc_carry = dc * f[t]
        for s in cut_at[t]:
            dh_carry[s] = dc_carry[s] = 0.0
    for s in np.flatnonzero(flip):
        dZ[s] = dZ[s, ::-1]
    rows = dZ.reshape(n_lstm, n * batch, 4 * hidden)
    Xm = cache["X"][None] if in_mask is None else cache["X"][None] * in_mask[:, None]
    HM = flip_reference(HM, flip, axis=0).reshape(n_lstm, n * batch, hidden)
    grads = {"W": rows.transpose(0, 2, 1) @ Xm.reshape(len(Xm), n * batch, -1),
             "U": rows.transpose(0, 2, 1) @ HM, "b": rows.sum(axis=1)}
    dX = dZ.reshape(n_lstm, n, batch, 4 * hidden) @ W[:, None]
    if in_mask is not None:
        dX = dX * in_mask[:, None]
    if single:
        return dX[0, :, 0], {k: v[0] for k, v in grads.items()}
    return dX.swapaxes(0, 1), grads


# --- reference solves of the lr baseline and of Platt calibration ---
#
# Plain Newton steps on the dense Hessian, on (n, C) sample-major arrays:
# an independent check on the matrix-free Newton-CG in soapkit.baselines
# and the closed-form 2x2 steps in soapkit.metrics.


def lr_objective(theta, X, T, w_class, lam, mean=None):
    """The lr baseline's objective at theta (C, V+1), whose last column is
    the bias, on count matrix X (n, V): the summed w_class-weighted cross
    entropy plus lam/2 times the squared weights; plus, when a class is
    absent (mass at most 1e-300), lam/2 times the squared logits of the
    row `mean` (zeros by default), else (sum of the biases)^2 / 2. Returns
    (f, gradient (C, V+1), dense Hessian (C (V+1), C (V+1)))."""
    n, C = T.shape
    X1 = np.column_stack([X, np.ones(n)])
    D = X1.shape[1]
    present = (T.sum(axis=0) > 1e-300).all()
    v = np.append(np.zeros(D - 1) if mean is None else mean, 1.0)  # the mean row, and 1
    Q = lam * np.diag(np.append(np.ones(D - 1), 0.0))  # each class's penalty form
    if not present:
        Q += lam * np.outer(v, v)
    Z = X1 @ theta.T
    Z = Z - Z.max(axis=1, keepdims=True)
    logP = Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))
    P = np.exp(logP)
    TW = T * w_class
    s = TW.sum(axis=1)
    f = -float((TW * logP).sum()) + 0.5 * float(np.einsum("cj,jk,ck->", theta, Q, theta))
    G = (P * s[:, None] - TW).T @ X1 + theta @ Q
    H = np.zeros((C, D, C, D))
    for c in range(C):
        for d in range(C):
            a = s * P[:, c] * ((c == d) - P[:, d])  # per-sample softmax Hessian entry
            H[c, :, d, :] = X1.T @ (a[:, None] * X1)
        H[c, :, c, :] += Q
    H = H.reshape(C * D, C * D)
    if present:  # the gauge term (sum of the biases)^2 / 2
        f += 0.5 * theta[:, -1].sum() ** 2
        G[:, -1] += theta[:, -1].sum()
        H[D - 1::D, D - 1::D] += 1.0
    return f, G, H


def lr_fit_dense(X, T, w_class, lam, mean=None, tol=1e-9):
    """theta (C, V+1) minimizing `lr_objective` from zero: Newton steps
    solved on the dense Hessian, halved while the objective does not fall,
    until the gradient norm is at most tol."""
    T = np.asarray(T, dtype=float)
    theta = np.zeros((T.shape[1], X.shape[1] + 1))
    for _ in range(200):
        f, G, H = lr_objective(theta, X, T, w_class, lam, mean)
        if np.linalg.norm(G) <= tol:
            return theta
        d = -np.linalg.solve(H, G.ravel()).reshape(theta.shape)
        step = 1.0
        while step > 1e-6 and lr_objective(theta + step * d, X, T, w_class, lam, mean)[0] > f:
            step *= 0.5
        theta = theta + step * d
    raise ValueError("dense Newton did not converge")


def lr_train_reference(X, T, w_class, lambdas):
    """(lam, theta) of the lr baseline: each lam is fit on the rows before
    the held-out tail (the last max(1, round(n / 10)) rows; none for a
    single row), the lam whose fit gives the tail's targets the lowest
    cross entropy wins (the earlier lam on ties) and is refit on all rows.
    An absent class's penalty is on the logits of the mean of all rows."""
    n = T.shape[0]
    m = n - (max(1, int(round(n * 0.1))) if n > 1 else 0)
    mean = X.mean(axis=0)
    best = None
    for lam in lambdas:
        theta = lr_fit_dense(X[:m], T[:m], w_class, lam, mean)
        Z = np.column_stack([X[m:], np.ones(n - m)]) @ theta.T
        Z = Z - Z.max(axis=1, keepdims=True)
        ce = -float((T[m:] * (Z - np.log(np.exp(Z).sum(axis=1, keepdims=True)))).sum())
        if best is None or ce < best[0]:
            best = (ce, lam)
    return best[1], lr_fit_dense(X, T, w_class, best[1], mean)


def platt_gradient(a, b, z, y):
    """Gradient of the mean logistic loss of sigmoid(a z + b) against y."""
    r = sigmoid_two_branch(a * z + b) - y
    return np.array([(r * z).mean(), r.mean()])


def platt_fit_newton(z, y, tol=1e-11):
    """(a, b) minimizing the mean logistic loss of sigmoid(a z + b) from
    the identity (1, 0): Newton steps solved with np.linalg.solve, halved
    while the loss does not fall, until the gradient norm is at most tol."""
    def loss(a, b):
        t = a * z + b
        return np.where(y, np.logaddexp(0.0, -t), np.logaddexp(0.0, t)).mean()

    a, b = 1.0, 0.0
    for _ in range(200):
        g = platt_gradient(a, b, z, y)
        if np.linalg.norm(g) <= tol:
            return a, b
        p = sigmoid_two_branch(a * z + b)
        h = p * (1.0 - p)
        H = np.array([[(h * z * z).mean(), (h * z).mean()], [(h * z).mean(), h.mean()]])
        da, db = -np.linalg.solve(H, g)
        step = 1.0
        while step > 1e-6 and loss(a + step * da, b + step * db) > loss(a, b):
            step *= 0.5
        a, b = a + step * da, b + step * db
    raise ValueError("Newton did not converge")


# --- the ASR channel over (char, origin) turn streams ---
#
# Each turn is a list of (char, position in the rendered reference)
# pairs: the implementation the walk over reference offsets in
# soapkit.synth replaced. Merges, then splits, then per-char noise, in
# the same draw order.


def corrupt_turn_streams(utterances, cfg, gen, alphabet="abcdefghijklmnopqrstuvwxyz ",
                         sentence_end=".?!"):
    """(asr_text, turn spans, stats dict) of one reference transcript;
    `cfg` carries the five rates, `gen` is a numpy Generator."""
    text = " ".join(u.text for u in utterances)
    streams, starts, current, cur_speaker, pos = [], [], None, None, 0
    for i, utt in enumerate(utterances):
        lo = pos + (1 if i else 0)
        hi = lo + len(utt.text)
        pos = hi
        if current is not None and utt.speaker == cur_speaker:
            current.append((" ", lo - 1))
            current.extend((text[k], k) for k in range(lo, hi))
        else:
            if current is not None:
                streams.append(current)
            current = [(text[k], k) for k in range(lo, hi)]
            starts.append(lo)
            cur_speaker = utt.speaker
    if current is not None:
        streams.append(current)

    stats = {"n_sub": 0, "n_del": 0, "n_ins": 0, "sub_positions": [],
             "del_positions": [], "ins_after_positions": [],
             "dropped_punct_positions": [], "n_merges": 0, "n_splits": 0}
    if streams:
        merged = [streams[0]]
        for nxt, start in zip(streams[1:], starts[1:]):
            if gen.random() < cfg.turn_merge_rate:
                left = merged[-1]
                if left and left[-1][0] in sentence_end:
                    stats["dropped_punct_positions"].append(left[-1][1])
                    left.pop()
                # the space that joined the two speakers' utterances
                left.append((" ", start - 1))
                left.extend(nxt)
                stats["n_merges"] += 1
            else:
                merged.append(nxt)
        streams = merged

    split_streams = []
    for stream in streams:
        space_at = [k for k, (c, _) in enumerate(stream) if c == " "]
        if space_at and gen.random() < cfg.turn_split_rate:
            cut = int(gen.choice(space_at))
            split_streams.append(stream[:cut])
            split_streams.append(stream[cut + 1:])
            stats["n_splits"] += 1
        else:
            split_streams.append(stream)

    out_texts = []
    for stream in split_streams:
        chars = []
        for c, origin in stream:
            if gen.random() < cfg.char_del_rate:
                stats["n_del"] += 1
                stats["del_positions"].append(origin)
            else:
                if gen.random() < cfg.char_sub_rate:
                    pool = alphabet.replace(c, "")
                    c = pool[int(gen.integers(len(pool)))]
                    stats["n_sub"] += 1
                    stats["sub_positions"].append(origin)
                chars.append(c)
            if gen.random() < cfg.char_ins_rate:
                chars.append(alphabet[int(gen.integers(len(alphabet)))])
                stats["n_ins"] += 1
                stats["ins_after_positions"].append(origin)
        out_texts.append("".join(chars))

    spans, pos = [], 0
    for i, t in enumerate(out_texts):
        end = pos + len(t) + (1 if i < len(out_texts) - 1 else 0)
        spans.append((pos, end))
        pos = end
    return " ".join(out_texts), tuple(spans), stats


# --- reference generation, one numpy sampling call per draw ---
#
# The generator soapkit.synth replaced with index samples of the word
# tuples and one precomputed cdf per marginal: `Generator.choice` on the
# tuple itself and on the marginals, in the same draw order.


def make_utterance_text(gen, section, speaker, generic: bool) -> str:
    content_pool = GENERIC_WORDS if generic else SECTION_WORDS[section]
    n_func = int(gen.integers(2, 4))
    n_content = int(gen.integers(3, 5))
    n_spk = int(gen.integers(1, 3))
    words = list(gen.choice(FUNCTION_WORDS, size=n_func, replace=False))
    words += list(gen.choice(content_pool, size=n_content, replace=False))
    words += list(gen.choice(SPEAKER_WORDS[speaker], size=n_spk, replace=False))
    gen.shuffle(words)
    text = " ".join(words)
    text = text[0].upper() + text[1:]
    punct = "." if gen.random() < 0.8 else "?"
    return text + punct


def generate_transcript(encounter_id: str, cfg, rng) -> Transcript:
    """One reference transcript; `cfg` is a SynthConfig, `rng` an Rng."""
    gen = rng.generator
    n = int(gen.integers(cfg.min_utterances, cfg.max_utterances + 1))
    utts = []
    history = []
    for i in range(n):
        speaker = SpeakerLabel(int(gen.choice(4, p=cfg.speaker_marginals)))
        fired = i > 0 and gen.random() < cfg.context_rule_strength
        if fired:
            section = context_rule(history)
        else:
            section = SoapSection(int(gen.choice(5, p=cfg.soap_marginals)))
        text = make_utterance_text(gen, section, speaker, generic=fired)
        utts.append(Utterance(id=i, text=text, speaker=speaker, section=section))
        history.append(section)
    return Transcript(encounter_id=encounter_id, kind=TranscriptKind.REFERENCE, utterances=tuple(utts))

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
    tensor against the analytic gradients.

    Yields (tensor_name, flat_index, analytic, numeric, rel_err) for
    elements whose analytic gradient clears the 1e-8 magnitude guard.
    """
    _, grads = model.loss_and_grads(token_lists, spk_t, sect_t, spk_w, sect_w,
                                    dropout=0.0)
    for name in model.trainable():
        param = model.params[name]
        flat = param.reshape(-1)
        g = grads[name].reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + eps
            up = model.compute_loss(token_lists, spk_t, sect_t, spk_w, sect_w)
            flat[idx] = old - eps
            down = model.compute_loss(token_lists, spk_t, sect_t, spk_w, sect_w)
            flat[idx] = old
            numeric = (up - down) / (2.0 * eps)
            analytic = g[idx]
            if abs(analytic) <= 1e-8:
                continue
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
            yield name, idx, analytic, numeric, rel

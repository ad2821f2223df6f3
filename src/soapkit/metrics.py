"""Classification metrics and probability calibration.

Accuracy, per-class/macro F1, macro one-vs-rest AUROC and AUPRC, and a
per-class Platt calibrator. AUROC uses tie-averaged ranks, AUPRC uses the
step-wise (non-interpolated) area, both matching their brute-force
definitions exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .neural.network import sigmoid


class MetricError(ValueError):
    pass


@dataclass
class MetricReport:
    n: int
    n_classes: int
    accuracy: float
    per_class_f1: list
    macro_f1: float
    counts: list  # gold count per class
    auroc: float | None = None
    per_class_auroc: dict = field(default_factory=dict)
    auroc_skipped: list = field(default_factory=list)
    auprc: float | None = None
    per_class_auprc: dict = field(default_factory=dict)
    log_loss: float | None = None


def confusion_matrix(preds, golds, n_classes: int) -> np.ndarray:
    preds = np.asarray(preds, dtype=int)
    golds = np.asarray(golds, dtype=int)
    if preds.shape != golds.shape or preds.ndim != 1:
        raise MetricError("preds and golds must be 1-d arrays of equal length")
    if preds.size == 0:
        raise MetricError("cannot score an empty prediction set")
    if (preds < 0).any() or (preds >= n_classes).any() or (golds < 0).any() or (golds >= n_classes).any():
        raise MetricError("label outside [0, n_classes)")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (golds, preds), 1)
    return cm


def confusion_and_f1(preds, golds, n_classes: int) -> dict:
    """Accuracy plus per-class and macro F1 (a class with zero precision
    and recall contributes F1 = 0)."""
    cm = confusion_matrix(preds, golds, n_classes)
    n = int(cm.sum())
    tp = np.diag(cm).astype(float)
    pred_tot = cm.sum(axis=0).astype(float)
    gold_tot = cm.sum(axis=1).astype(float)
    f1 = np.zeros(n_classes)
    for c in range(n_classes):
        denom = pred_tot[c] + gold_tot[c]
        if denom > 0:
            f1[c] = 2.0 * tp[c] / denom
    return {
        "n": n,
        "accuracy": float(tp.sum() / n),
        "per_class_f1": f1.tolist(),
        "macro_f1": float(f1.mean()),
        "counts": gold_tot.astype(int).tolist(),
        "confusion": cm,
    }


def mc_macro_f1(prevalence: float, n_classes: int) -> float:
    """Closed-form macro F1 of the majority-class predictor when the
    majority class has the given prevalence."""
    return (2.0 * prevalence / (1.0 + prevalence)) / n_classes


def _binary_auroc(scores: np.ndarray, pos: np.ndarray) -> float:
    """Tie-aware rank formulation; equals the pairwise probability that a
    positive outscores a negative, ties counting one half."""
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])  # tie group starts
    last = np.r_[first[1:], s.size] - 1
    ranks = np.empty(pos.size, dtype=float)
    # every member of a group gets the group's average 1-based rank
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _one_vs_rest(binary, scores, golds, n_classes: int) -> dict:
    """Macro mean of `binary(class scores, positive mask)` over the
    classes. Classes without both a positive and a negative example are
    skipped and reported; no evaluable class is an error."""
    scores = np.asarray(scores, dtype=float)
    golds = np.asarray(golds, dtype=int)
    if scores.shape != (golds.size, n_classes):
        raise MetricError(f"scores must have shape (n, {n_classes})")
    per_class = {}
    skipped = []
    for c in range(n_classes):
        pos = golds == c
        if not pos.any() or pos.all():
            skipped.append(c)
            continue
        per_class[c] = binary(scores[:, c], pos)
    if not per_class:
        raise MetricError("no class has both positive and negative examples")
    macro = float(np.mean(list(per_class.values())))
    return {"macro": macro, "per_class": per_class, "skipped": skipped}


def auroc(scores, golds, n_classes: int) -> dict:
    """Macro one-vs-rest AUROC."""
    return _one_vs_rest(_binary_auroc, scores, golds, n_classes)


def _binary_auprc(scores: np.ndarray, pos: np.ndarray) -> float:
    """Step-wise area under the precision-recall curve over the distinct
    score thresholds, descending. Constant scores give the prevalence."""
    n_pos = int(pos.sum())
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])  # tie group ends
    tp = np.cumsum(pos[order])[last]
    recall = tp / n_pos
    precision = tp / (last + 1)
    # cumsum adds the steps in threshold order, as a running total would
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def auprc(scores, golds, n_classes: int) -> dict:
    """Macro one-vs-rest AUPRC."""
    return _one_vs_rest(_binary_auprc, scores, golds, n_classes)


def log_loss(scores, golds, eps: float = 1e-12) -> float:
    """Mean negative log probability of the gold class."""
    scores = np.asarray(scores, dtype=float)
    golds = np.asarray(golds, dtype=int)
    p = np.clip(scores[np.arange(golds.size), golds], eps, None)
    return float(-np.log(p).mean())


def evaluate(scores, golds, n_classes: int) -> MetricReport:
    """Full report from probability-like scores: argmax metrics plus the
    ranking metrics and log loss."""
    scores = np.asarray(scores, dtype=float)
    golds = np.asarray(golds, dtype=int)
    base = confusion_and_f1(np.argmax(scores, axis=1), golds, n_classes)
    roc = auroc(scores, golds, n_classes)
    prc = auprc(scores, golds, n_classes)
    return MetricReport(
        n=base["n"], n_classes=n_classes,
        accuracy=base["accuracy"], per_class_f1=base["per_class_f1"],
        macro_f1=base["macro_f1"], counts=base["counts"],
        auroc=roc["macro"], per_class_auroc=roc["per_class"], auroc_skipped=roc["skipped"],
        auprc=prc["macro"], per_class_auprc=prc["per_class"],
        log_loss=log_loss(scores, golds),
    )


# --- Platt calibration ---

_LOGIT_EPS = 1e-12


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _LOGIT_EPS, 1.0 - _LOGIT_EPS)
    return np.log(p) - np.log1p(-p)


@dataclass
class PlattCalibrator:
    """Per-class sigmoid recalibration sigma(a * logit(s) + b) of
    probability scores. (a, b) = (1, 0) is the identity map, so a
    degenerate class (single label value in validation) keeps its scores."""

    coef: list  # [(a, b)] per class
    identity: list  # per-class flag: left uncalibrated

    def class_scores(self, scores) -> np.ndarray:
        """Calibrated per-class scores, before renormalization. For a
        positive fitted slope this is a strictly monotone map of each
        class's scores, so per-class rankings (hence AUROC) are unchanged."""
        scores = np.asarray(scores, dtype=float)
        out = np.empty_like(scores)
        for c, (a, b) in enumerate(self.coef):
            if self.identity[c]:
                out[:, c] = scores[:, c]
            else:
                out[:, c] = sigmoid(a * _logit(scores[:, c]) + b)
        return out

    def probabilities(self, scores) -> np.ndarray:
        """Calibrated scores renormalized to sum 1 per row."""
        out = self.class_scores(scores)
        tot = out.sum(axis=1, keepdims=True)
        flat = tot[:, 0] <= 0
        if flat.any():
            out[flat] = 1.0 / out.shape[1]
            tot[flat] = 1.0
        return out / tot


def _fit_platt_binary(z: np.ndarray, y: np.ndarray,
                      max_iters: int = 200, grad_tol: float = 1e-9) -> tuple:
    """Minimize mean logistic loss of sigma(a z + b) by gradient descent
    with backtracking line search, starting at the identity (1, 0). A
    line-search trial evaluates only the loss of its logits t = a z + b;
    the sigmoid and the gradient are taken at the accepted point."""
    sgn = np.where(y, -1.0, 1.0)  # per-sample loss is log(1 + exp(sgn * t))

    def loss_at(t):
        return float(np.logaddexp(0.0, sgn * t).mean())

    def grad_at(t):
        r = sigmoid(t) - y
        return float((r * z).mean()), float(r.mean())

    a, b = 1.0, 0.0
    t = a * z + b
    loss = loss_at(t)
    ga, gb = grad_at(t)
    step = 1.0
    for _ in range(max_iters):
        g2 = ga * ga + gb * gb
        if np.sqrt(g2) < grad_tol:
            break
        step = min(step * 2.0, 1e4)
        for _ in range(80):
            a2 = a - step * ga
            b2 = b - step * gb
            t2 = a2 * z + b2
            loss2 = loss_at(t2)
            if loss2 <= loss - 1e-4 * step * g2:
                break
            step *= 0.5
        a, b, t, loss = a2, b2, t2, loss2
        ga, gb = grad_at(t)
    return a, b


def fit_platt(val_scores, val_golds, n_classes: int) -> PlattCalibrator:
    """Fit one sigmoid per class on validation scores. A class whose
    validation labels are all-positive or all-negative cannot be fit and
    falls back to the identity (with a warning)."""
    scores = np.asarray(val_scores, dtype=float)
    golds = np.asarray(val_golds, dtype=int)
    if scores.shape != (golds.size, n_classes):
        raise MetricError(f"scores must have shape (n, {n_classes})")
    if golds.size == 0:
        raise MetricError("empty validation set")
    coef = []
    identity = []
    for c in range(n_classes):
        y = (golds == c).astype(float)
        if y.min() == y.max():
            warnings.warn(f"class {c} is degenerate in validation; leaving it uncalibrated")
            coef.append((1.0, 0.0))
            identity.append(True)
            continue
        a, b = _fit_platt_binary(_logit(scores[:, c]), y)
        coef.append((float(a), float(b)))
        identity.append(False)
    return PlattCalibrator(coef=coef, identity=identity)


def validation_split(transcripts, fraction: float = 0.1) -> tuple:
    """Split off the last `fraction` of transcripts (stable order) for
    calibration; returns (rest, validation). At least one transcript goes
    to validation when there are two or more."""
    n = len(transcripts)
    if n == 0:
        raise MetricError("empty corpus")
    k = max(1, int(round(n * fraction))) if n > 1 else 0
    return list(transcripts[:n - k]), list(transcripts[n - k:])

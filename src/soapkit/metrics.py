"""Classification metrics and probability calibration.

Accuracy, per-class/macro F1, macro one-vs-rest AUROC and AUPRC, and a
per-class Platt calibrator. AUROC uses tie-averaged ranks, AUPRC uses the
step-wise (non-interpolated) area, both matching their brute-force
definitions exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import DataError
from .neural.network import sigmoid


@dataclass
class MetricReport:
    n: int
    n_classes: int
    accuracy: float
    macro_f1: float
    auroc: float
    auroc_skipped: list
    auprc: float
    log_loss: float


def confusion_matrix(preds, golds, n_classes: int) -> np.ndarray:
    preds = np.asarray(preds, dtype=int)
    golds = np.asarray(golds, dtype=int)
    if preds.shape != golds.shape or preds.ndim != 1:
        raise DataError("preds and golds must be 1-d arrays of equal length")
    if preds.size == 0:
        raise DataError("cannot score an empty prediction set")
    if (preds < 0).any() or (preds >= n_classes).any() or (golds < 0).any() or (golds >= n_classes).any():
        raise DataError("label outside [0, n_classes)")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (golds, preds), 1)
    return cm


def confusion_and_f1(preds, golds, n_classes: int) -> dict:
    """Accuracy plus per-class and macro F1 (a class with zero precision
    and recall contributes F1 = 0)."""
    cm = confusion_matrix(preds, golds, n_classes)
    n = int(cm.sum())
    tp = np.diag(cm).astype(float)
    denom = cm.sum(axis=0).astype(float) + cm.sum(axis=1).astype(float)
    f1 = np.divide(2.0 * tp, denom, out=np.zeros(n_classes), where=denom > 0)
    return {
        "n": n,
        "accuracy": float(tp.sum() / n),
        "per_class_f1": f1.tolist(),
        "macro_f1": float(f1.mean()),
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
        raise DataError(f"scores must have shape (n, {n_classes})")
    per_class = {}
    skipped = []
    for c in range(n_classes):
        pos = golds == c
        if not pos.any() or pos.all():
            skipped.append(c)
            continue
        per_class[c] = binary(scores[:, c], pos)
    if not per_class:
        raise DataError("no class has both positive and negative examples")
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


def log_loss(scores, golds) -> float:
    """Mean negative log probability of the gold class, floored at 1e-12."""
    scores = np.asarray(scores, dtype=float)
    golds = np.asarray(golds, dtype=int)
    p = np.clip(scores[np.arange(golds.size), golds], 1e-12, None)
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
        n=base["n"], n_classes=n_classes, accuracy=base["accuracy"], macro_f1=base["macro_f1"],
        auroc=roc["macro"], auroc_skipped=roc["skipped"], auprc=prc["macro"],
        log_loss=log_loss(scores, golds),
    )


# --- Platt calibration ---

_LOGIT_EPS = 1e-12
PLATT_MAX_ITERS = 100  # Newton steps
PLATT_GRAD_TOL = 1e-9
PLATT_REL_TOL = 1e-12


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _LOGIT_EPS, 1.0 - _LOGIT_EPS)
    return np.log(p) - np.log1p(-p)


@dataclass
class PlattCalibrator:
    """Per-class sigmoid recalibration sigma(a * logit(s) + b) of
    probability scores. A class whose entry is None was left uncalibrated
    and keeps its scores."""

    coef: list  # per class, (a, b) with a > 0, or None

    def class_scores(self, scores) -> np.ndarray:
        """Calibrated per-class scores, before renormalization. Every fitted
        slope is positive, so this is a strictly monotone map of each
        class's scores and per-class rankings (hence AUROC) are unchanged."""
        out = np.array(scores, dtype=float)
        for c, ab in enumerate(self.coef):
            if ab is not None:
                out[:, c] = sigmoid(ab[0] * _logit(out[:, c]) + ab[1])
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


def _fit_platt_binary(z: np.ndarray, y: np.ndarray) -> tuple:
    """(a, b) minimizing the mean logistic loss of sigmoid(a z + b) against
    the 0/1 targets y: the safeguarded Newton method of Lin, Lin & Weng
    (2007) from the identity (1, 0). Each 2x2 Newton step is solved in
    closed form in the coordinates (a, b + a c), c the Hessian-weighted
    mean of z, where the system is diagonal (1e-12 keeps a constant z's
    slope step finite), then halved until the Armijo condition holds. The
    fit stops when |grad| <= PLATT_GRAD_TOL, or when a step lowers the loss
    by at most PLATT_REL_TOL of itself, as on a class that validation
    separates, whose loss only tends to 0; running out of PLATT_MAX_ITERS
    steps raises DataError."""
    sgn = np.where(y, -1.0, 1.0)  # per-sample loss is log(1 + exp(sgn * t))
    n = z.size
    a, b, t = 1.0, 0.0, z
    loss = float(np.logaddexp(0.0, sgn * t).sum() / n)
    for _ in range(PLATT_MAX_ITERS):
        p = sigmoid(t)
        r, h = p - y, p * (1.0 - p)
        ga, gb = float((r * z).sum() / n), float(r.sum() / n)
        if np.hypot(ga, gb) <= PLATT_GRAD_TOL:
            return a, b
        hs = float(h.sum())
        c = float((h * z).sum()) / max(hs, 1e-300)
        zc = z - c
        da = -float((r * zc).sum() / n) / (float((h * zc * zc).sum() / n) + 1e-12)
        db = -gb / (hs / n + 1e-12) - c * da
        gd, step = ga * da + gb * db, 1.0
        for _ in range(40):  # Armijo, allowing for the rounding of the loss near the optimum
            t2 = (a + step * da) * z + (b + step * db)
            loss2 = float(np.logaddexp(0.0, sgn * t2).sum() / n)
            if loss2 - loss <= 1e-4 * step * gd + 1e-12 * loss:
                break
            step *= 0.5
        else:
            return a, b  # no step lowers the loss
        a, b, t, loss, drop = a + step * da, b + step * db, t2, loss2, loss - loss2
        if drop <= PLATT_REL_TOL * (loss + drop):
            return a, b
    raise DataError(f"Platt fit did not converge in {PLATT_MAX_ITERS} Newton steps")


def fit_platt(val_scores, val_golds, n_classes: int) -> PlattCalibrator:
    """Fit one sigmoid per class on validation scores. A class whose
    validation labels take one value cannot be fit, and a fitted slope <= 0
    would reverse its ranking; either leaves it uncalibrated (with a warning)."""
    scores = np.asarray(val_scores, dtype=float)
    golds = np.asarray(val_golds, dtype=int)
    if scores.shape != (golds.size, n_classes):
        raise DataError(f"scores must have shape (n, {n_classes})")
    if golds.size == 0:
        raise DataError("empty validation set")
    coef = []
    for c in range(n_classes):
        y = (golds == c).astype(float)
        if y.min() == y.max():
            why = "is degenerate in validation"
        else:
            a, b = _fit_platt_binary(_logit(scores[:, c]), y)
            if a > 0:
                coef.append((a, b))
                continue
            why = f"fits Platt slope {a:.4g} <= 0"
        warnings.warn(f"class {c} {why}; leaving it uncalibrated")
        coef.append(None)
    return PlattCalibrator(coef=coef)


def validation_split(transcripts) -> tuple:
    """Split off the last tenth of transcripts (stable order) for
    calibration; returns (rest, validation). At least one transcript goes
    to validation when there are two or more."""
    n = len(transcripts)
    if n == 0:
        raise DataError("empty corpus")
    k = max(1, int(round(n * 0.1))) if n > 1 else 0
    return list(transcripts[:n - k]), list(transcripts[n - k:])

"""Bag-of-words baseline classifiers: majority class, multinomial naive
Bayes, and L2-regularised logistic regression.

All three consume per-utterance token lists and soft targets, so they
train on reference one-hots and projected ASR distributions alike.

Logistic regression is solved to a certified optimum (gradient norm at
most LR_GRAD_TOL) by the truncated Newton method of Lin, Weng & Keerthi
(2008), with a line search in place of their trust region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import (ABSENT_MASS, TASKS, DataError, checked_array, inverse_frequency_weights,
                     read_json, write_json)
from .metrics import validation_split
from .neural.network import softmax

BASELINE_VARIANTS = ("mc", "mnb", "lr")

LR_LAMBDAS = (10.0, 1.0, 0.1)  # the L2 grid, in path order
LR_MAX_ITERS = 100  # Newton steps per fit
LR_GRAD_TOL = 1e-8


def fit_vocab(token_lists) -> dict:
    """Deterministic vocabulary: all tokens in lexicographic order."""
    words = {tok for tokens in token_lists for tok in tokens}
    if not words:
        raise DataError("empty vocabulary: no tokens in the corpus")
    return {w: i for i, w in enumerate(sorted(words))}


def count_matrix(token_lists, vocab) -> np.ndarray:
    """Dense (n, V) unigram count matrix; out-of-vocabulary tokens are
    ignored. It is stored vocabulary-major, so its transpose is contiguous."""
    X = np.zeros((len(vocab), len(token_lists))).T
    for i, tokens in enumerate(token_lists):
        for tok in tokens:
            j = vocab.get(tok)
            if j is not None:
                X[i, j] += 1.0
    return X


@dataclass
class BaselineModel:
    """A fitted baseline; `kind` selects the scoring rule."""

    kind: str  # one of BASELINE_VARIANTS
    task: str  # a key of TASKS
    n_classes: int
    vocab: dict = field(default_factory=dict)
    majority: int | None = None
    log_prior: np.ndarray | None = None
    log_likelihood: np.ndarray | None = None  # (C, V)
    weights: np.ndarray | None = None  # (C, V)
    bias: np.ndarray | None = None  # (C,)

    def predict_matrix(self, token_lists) -> np.ndarray:
        """Probability-like scores (n, C), one row per utterance. Each row's
        logits are their own matrix-vector product: one matrix product
        would round some scores differently in the last bits."""
        if self.kind == "mc":
            out = np.zeros((len(token_lists), self.n_classes))
            out[:, self.majority] = 1.0
            return out
        if self.kind not in ("mnb", "lr"):
            raise DataError(f"unknown baseline kind {self.kind!r}")
        W, b = ((self.log_likelihood, self.log_prior) if self.kind == "mnb"
                else (self.weights, self.bias))
        Z = [W @ x + b for x in count_matrix(token_lists, self.vocab)]
        return softmax(np.array(Z).reshape(-1, self.n_classes), axis=1)

    def save(self, path) -> None:
        rec = {"family": "baseline", "kind": self.kind, "task": self.task,
               "n_classes": self.n_classes, "vocab": self.vocab,
               "majority": self.majority}
        for name in ("log_prior", "log_likelihood", "weights", "bias"):
            arr = getattr(self, name)
            rec[name] = None if arr is None else np.asarray(arr).tolist()
        write_json(rec, path)

    @classmethod
    def load(cls, rec) -> "BaselineModel":
        """A model from its checkpoint record; a record that `save` could
        not have written raises DataError."""
        if not isinstance(rec, dict) or rec.get("family") != "baseline":
            raise DataError("not a baseline checkpoint")
        kind, task, n_classes, vocab, majority = (
            rec.get(k) for k in ("kind", "task", "n_classes", "vocab", "majority"))
        if kind not in BASELINE_VARIANTS:
            raise DataError(f"unknown baseline kind {kind!r}")
        if type(task) is not str or task not in TASKS:
            raise DataError(f"unknown task {task!r}")
        if type(n_classes) is not int or n_classes < 1:
            raise DataError("n_classes must be a positive integer")
        if not isinstance(vocab, dict) or sorted(
                v for v in vocab.values() if type(v) is int) != list(range(len(vocab))):
            raise DataError("vocab must map its tokens to the indices 0..V-1")
        if kind == "mc" and not (type(majority) is int and 0 <= majority < n_classes):
            raise DataError("an mc checkpoint needs a majority class index")
        shapes = {"mnb": {"log_prior": (n_classes,), "log_likelihood": (n_classes, len(vocab))},
                  "lr": {"weights": (n_classes, len(vocab)), "bias": (n_classes,)}}.get(kind, {})
        arrays = {name: checked_array(rec.get(name), f"checkpoint array {name!r}", shape)
                  for name, shape in shapes.items()}
        return cls(kind=kind, task=task, n_classes=n_classes, vocab=vocab,
                   majority=majority, **arrays)


def train_mc(targets: np.ndarray, task: str) -> BaselineModel:
    """Majority class by total (possibly fractional) target mass; ties go
    to the lowest class index."""
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[0] == 0:
        raise DataError("targets must be a non-empty (n, C) array")
    counts = targets.sum(axis=0)
    return BaselineModel(kind="mc", task=task, n_classes=targets.shape[1],
                         majority=int(np.argmax(counts)))


def train_mnb(token_lists, targets: np.ndarray, task: str) -> BaselineModel:
    """Multinomial naive Bayes with a uniform class prior and add-one
    (Laplace) counts; class-conditional counts are weighted by the
    (possibly fractional) target mass of each utterance."""
    targets = np.asarray(targets, dtype=float)
    if len(token_lists) != targets.shape[0]:
        raise DataError("token lists and targets disagree on n")
    vocab = fit_vocab(token_lists)
    X = count_matrix(token_lists, vocab)
    M = targets.T @ X  # (C, V) expected counts
    denom = M.sum(axis=1, keepdims=True) + len(vocab)
    log_lik = np.log(M + 1.0) - np.log(denom)
    n_classes = targets.shape[1]
    log_prior = np.full(n_classes, -np.log(n_classes))
    return BaselineModel(kind="mnb", task=task, n_classes=n_classes,
                         vocab=vocab, log_prior=log_prior, log_likelihood=log_lik)


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    """Log-probabilities of class-major logits Z (C, n)."""
    Z = Z - Z.max(axis=0)
    return Z - np.log(np.exp(Z).sum(axis=0))


def _lr_solve(XA, targets, w_class, lam: float, theta) -> tuple:
    """(theta, gradient norm) minimizing, from theta (C, V+1) whose last
    column is the bias (XA's last row is ones), the summed w_class-weighted
    cross entropy of softmax(theta @ XA) plus lam/2 |W|^2. While every
    class is present the biases are unpenalised, and (sum of biases)^2 / 2
    fixes the common shift the softmax ignores. A class of mass at most
    ABSENT_MASS has no finite optimum for an unpenalised bias (the others
    would rise without bound), so then every bias carries lam/2 too.
    Newton-CG: conjugate gradients on Hessian-vector products (one (C, V+1)
    @ XA and one (C, n) @ XA.T; no Hessian is formed) to a relative
    residual of min(0.1, |g|), for quadratic convergence (Nocedal & Wright,
    Theorem 7.2), then backtracking from the full step, until |g| <=
    LR_GRAD_TOL; running out of LR_MAX_ITERS steps raises DataError."""
    TW = np.ascontiguousarray((targets * w_class).T)  # (C, n) weighted targets
    s = targets @ w_class  # per-sample total target weight
    present = bool((targets.sum(axis=0) > ABSENT_MASS).all())
    pen = np.full(theta.shape, lam)
    pen[:, -1] = 0.0 if present else lam

    def reg(A):  # the penalty's Hessian times A; the penalty is theta . reg(theta) / 2
        out = pen * A
        out[:, -1] += present * A[:, -1].sum()
        return out

    def objective(Z, theta):
        logP = _log_softmax(Z)
        return float(0.5 * (theta * reg(theta)).sum() - (TW * logP).sum()), np.exp(logP)

    Z = theta @ XA
    f, P = objective(Z, theta)
    for _ in range(LR_MAX_ITERS):
        sP = s * P
        g = (sP - TW) @ XA.T + reg(theta)
        gnorm = float(np.sqrt((g * g).sum()))
        if gnorm <= LR_GRAD_TOL:
            return theta, gnorm
        d, r, p, rr = 0.0, -g, -g, gnorm * gnorm
        for _ in range(g.size):
            if np.sqrt(rr) <= min(0.1, gnorm) * gnorm:
                break
            U = p @ XA
            Hp = (sP * (U - (P * U).sum(axis=0))) @ XA.T + reg(p)
            alpha = rr / float((p * Hp).sum())
            d, r = d + alpha * p, r - alpha * Hp
            rr, rr_prev = float((r * r).sum()), rr
            p = r + (rr / rr_prev) * p
        DZ, gd, step = d @ XA, float((g * d).sum()), 1.0
        for _ in range(40):  # Armijo, allowing for the rounding of f near the optimum
            f2, P2 = objective(Z + step * DZ, theta + step * d)
            if f2 - f <= 1e-4 * step * gd + 1e-12 * abs(f):
                break
            step *= 0.5
        else:
            raise DataError(f"logistic regression line search failed (|g|={gnorm:.3g})")
        theta, Z, f, P = theta + step * d, Z + step * DZ, f2, P2
    raise DataError(f"logistic regression did not converge in {LR_MAX_ITERS} Newton "
                    f"steps (lambda={lam}, |g|={gnorm:.3g})")


def train_lr(token_lists, targets: np.ndarray, task: str) -> BaselineModel:
    """Multinomial logistic regression on unigram counts, by `_lr_solve` at
    the lam in LR_LAMBDAS whose fit on all but the held-out tail (the rows'
    `metrics.validation_split`: the last tenth) gives the tail's targets
    the lowest cross entropy; ties, and a single row, which holds nothing
    out, go to the larger lam. The grid runs as a path from large lam to
    small, warm-started, and the chosen fit warm-starts the refit on all rows.
    The solves see counts centred on their mean over all rows, which
    conditions the Newton systems; the weights are unchanged, the bias is
    mapped back, and an absent class's bias penalty is on the mean row's logits."""
    targets = np.asarray(targets, dtype=float)
    if len(token_lists) != targets.shape[0] or targets.shape[0] == 0:
        raise DataError("token lists and targets disagree on n")
    vocab = fit_vocab(token_lists)
    n, n_classes = targets.shape
    XT = count_matrix(token_lists, vocab).T
    mean = XT.mean(axis=1)
    XA = np.vstack([XT - mean[:, None], np.ones(n)])  # centred counts and a row of ones
    w_class = inverse_frequency_weights(targets)
    m = len(validation_split(range(n))[0])
    theta, best = np.zeros((n_classes, len(vocab) + 1)), None
    for lam in LR_LAMBDAS:
        theta, _ = _lr_solve(XA[:, :m], targets[:m], w_class, lam, theta)
        held_out = -float((targets[m:].T * _log_softmax(theta @ XA[:, m:])).sum())
        if best is None or held_out < best[0]:
            best = (held_out, lam, theta)
    theta, _ = _lr_solve(XA, targets, w_class, *best[1:])
    return BaselineModel(kind="lr", task=task, n_classes=n_classes, vocab=vocab,
                         weights=theta[:, :-1].copy(), bias=theta[:, -1] - theta[:, :-1] @ mean)


def load_baseline(path) -> BaselineModel:
    return read_json(path, BaselineModel.load)

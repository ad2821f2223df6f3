"""Bag-of-words baseline classifiers: majority class, multinomial naive
Bayes, and logistic regression trained by full-batch gradient descent.

All three consume per-utterance token lists and soft targets, so they
train on reference one-hots and projected ASR distributions alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class BaselineError(ValueError):
    pass


def fit_vocab(token_lists) -> dict:
    """Deterministic vocabulary: all tokens in lexicographic order."""
    words = {tok for tokens in token_lists for tok in tokens}
    if not words:
        raise BaselineError("empty vocabulary: no tokens in the corpus")
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


def inverse_frequency_weights(targets: np.ndarray) -> np.ndarray:
    """Per-class weights proportional to inverse expected class frequency,
    normalized so present classes have mean weight 1; absent classes get 1."""
    counts = np.asarray(targets, dtype=float).sum(axis=0)
    present = counts > 0
    w = np.ones_like(counts)
    if present.any():
        inv = np.zeros_like(counts)
        inv[present] = 1.0 / counts[present]
        w[present] = inv[present] / inv[present].mean()
    return w


@dataclass
class BaselineModel:
    """A fitted baseline; `kind` selects the scoring rule."""

    kind: str  # "mc" | "mnb" | "lr"
    task: str  # "soap" | "speaker"
    n_classes: int
    vocab: dict = field(default_factory=dict)
    majority: int | None = None
    log_prior: np.ndarray | None = None
    log_likelihood: np.ndarray | None = None  # (C, V)
    weights: np.ndarray | None = None  # (C, V)
    bias: np.ndarray | None = None  # (C,)

    def predict_scores(self, tokens) -> np.ndarray:
        """Probability-like scores (C,) for one utterance."""
        if self.kind == "mc":
            out = np.zeros(self.n_classes)
            out[self.majority] = 1.0
            return out
        counts = count_matrix([tokens], self.vocab)[0]
        if self.kind == "mnb":
            z = self.log_prior + self.log_likelihood @ counts
        elif self.kind == "lr":
            z = self.weights @ counts + self.bias
        else:
            raise BaselineError(f"unknown baseline kind {self.kind!r}")
        z = z - z.max()
        e = np.exp(z)
        return e / e.sum()

    def predict_matrix(self, token_lists) -> np.ndarray:
        return np.stack([self.predict_scores(t) for t in token_lists])

    def save(self, path) -> None:
        rec = {"family": "baseline", "kind": self.kind, "task": self.task,
               "n_classes": self.n_classes, "vocab": self.vocab,
               "majority": self.majority}
        for name in ("log_prior", "log_likelihood", "weights", "bias"):
            arr = getattr(self, name)
            rec[name] = None if arr is None else np.asarray(arr).tolist()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh)

    @classmethod
    def load(cls, rec: dict) -> "BaselineModel":
        def arr(name):
            v = rec.get(name)
            if v is None:
                return None
            a = np.asarray(v, dtype=float)
            if not np.isfinite(a).all():
                raise BaselineError(f"checkpoint array {name!r} has non-finite entries")
            return a
        return cls(
            kind=rec["kind"], task=rec["task"], n_classes=int(rec["n_classes"]),
            vocab={k: int(v) for k, v in rec.get("vocab", {}).items()},
            majority=rec.get("majority"),
            log_prior=arr("log_prior"), log_likelihood=arr("log_likelihood"),
            weights=arr("weights"), bias=arr("bias"),
        )


def train_mc(targets: np.ndarray, task: str) -> BaselineModel:
    """Majority class by total (possibly fractional) target mass; ties go
    to the lowest class index."""
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[0] == 0:
        raise BaselineError("targets must be a non-empty (n, C) array")
    counts = targets.sum(axis=0)
    return BaselineModel(kind="mc", task=task, n_classes=targets.shape[1],
                         majority=int(np.argmax(counts)))


def train_mnb(token_lists, targets: np.ndarray, task: str,
              smoothing: float = 1.0, vocab: dict | None = None) -> BaselineModel:
    """Multinomial naive Bayes with a uniform class prior and additive
    smoothing; class-conditional counts are weighted by the (possibly
    fractional) target mass of each utterance."""
    if smoothing <= 0:
        raise BaselineError("smoothing must be positive")
    targets = np.asarray(targets, dtype=float)
    if len(token_lists) != targets.shape[0]:
        raise BaselineError("token lists and targets disagree on n")
    if vocab is None:
        vocab = fit_vocab(token_lists)
    X = count_matrix(token_lists, vocab)
    M = targets.T @ X  # (C, V) expected counts
    denom = M.sum(axis=1, keepdims=True) + smoothing * len(vocab)
    log_lik = np.log(M + smoothing) - np.log(denom)
    n_classes = targets.shape[1]
    log_prior = np.full(n_classes, -np.log(n_classes))
    return BaselineModel(kind="mnb", task=task, n_classes=n_classes,
                         vocab=vocab, log_prior=log_prior, log_likelihood=log_lik)


def train_lr(token_lists, targets: np.ndarray, task: str,
             class_weights: np.ndarray | None = None,
             vocab: dict | None = None,
             max_iters: int = 1000, grad_tol: float = 1e-6) -> BaselineModel:
    """Multinomial logistic regression, full-batch gradient descent with
    backtracking line search on the weighted cross entropy. Stops when the
    gradient norm falls below grad_tol or after max_iters steps.

    Along a descent direction the logits are linear in the step, so each
    iteration makes one product for the direction's logits and one for the
    gradient at the accepted step; a line-search trial is elementwise work
    on the class-major (C, n) logits."""
    targets = np.asarray(targets, dtype=float)
    if len(token_lists) != targets.shape[0] or targets.shape[0] == 0:
        raise BaselineError("token lists and targets disagree on n")
    if vocab is None:
        vocab = fit_vocab(token_lists)
    # (V, n) contiguous, no copy: both products per iteration run about
    # twice as fast on it as on the transpose of a row-major (n, V) matrix
    XT = count_matrix(token_lists, vocab).T
    n, n_classes = targets.shape
    if class_weights is None:
        class_weights = inverse_frequency_weights(targets)
    w_class = np.asarray(class_weights, dtype=float)
    if w_class.shape != (n_classes,):
        raise BaselineError("class_weights must have one entry per class")
    TW = np.ascontiguousarray((targets * w_class).T)  # (C, n) weighted targets
    s = targets @ w_class  # per-sample total target weight

    def loss_at(Z):
        """Weighted cross entropy and log-probabilities of logits Z (C, n)."""
        Z = Z - Z.max(axis=0)
        logP = Z - np.log(np.exp(Z).sum(axis=0))
        return -float((TW * logP).sum()) / n, logP

    def grad_at(logP):
        G = (np.exp(logP) * s - TW) / n
        return G @ XT.T, G.sum(axis=1)

    W = np.zeros((n_classes, len(vocab)))
    b = np.zeros(n_classes)
    Z = np.zeros((n_classes, n))  # logits W @ X.T + b, class-major
    loss, logP = loss_at(Z)
    dW, db = grad_at(logP)
    step = 1.0
    for _ in range(max_iters):
        gnorm2 = float((dW * dW).sum() + (db * db).sum())
        if not np.isfinite(loss):
            raise BaselineError("logistic regression diverged (non-finite loss)")
        if np.sqrt(gnorm2) < grad_tol:
            break
        D = dW @ XT + db[:, None]  # logits of the descent direction
        # backtracking line search (Armijo), warm-started from the last step
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            trial = step
            Z2 = Z - trial * D
            loss2, logP = loss_at(Z2)
            if loss2 <= loss - 1e-4 * trial * gnorm2:
                break
            step *= 0.5
        W, b, Z, loss = W - trial * dW, b - trial * db, Z2, loss2
        dW, db = grad_at(logP)
    return BaselineModel(kind="lr", task=task, n_classes=n_classes,
                         vocab=vocab, weights=W, bias=b)


def load_baseline(path) -> BaselineModel:
    with open(path, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    if rec.get("family") != "baseline":
        raise BaselineError(f"{path} is not a baseline checkpoint")
    return BaselineModel.load(rec)

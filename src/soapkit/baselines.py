"""Bag-of-words baseline classifiers: majority class, multinomial naive
Bayes, and logistic regression trained by full-batch gradient descent.

All three consume fixed-length token lists (pads excluded from counting)
and soft targets, so they train on reference one-hots and projected ASR
distributions alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .preprocess import PAD_TOKEN, content_tokens


class BaselineError(ValueError):
    pass


def fit_vocab(token_lists, pad_token: str = PAD_TOKEN) -> dict:
    """Deterministic vocabulary: all non-pad tokens in lexicographic order."""
    words = set()
    for tokens in token_lists:
        for tok in tokens:
            if tok != pad_token:
                words.add(tok)
    if not words:
        raise BaselineError("empty vocabulary: no non-pad tokens in the corpus")
    return {w: i for i, w in enumerate(sorted(words))}


def count_matrix(token_lists, vocab, pad_token: str = PAD_TOKEN) -> np.ndarray:
    """Dense (n, V) unigram count matrix; out-of-vocabulary tokens are ignored."""
    X = np.zeros((len(token_lists), len(vocab)))
    for i, tokens in enumerate(token_lists):
        for tok in tokens:
            if tok == pad_token:
                continue
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
        counts = np.zeros(len(self.vocab))
        for tok in content_tokens(tokens):
            j = self.vocab.get(tok)
            if j is not None:
                counts[j] += 1.0
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


def _lr_loss_grad(W, b, X, T, w_class):
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


def train_lr(token_lists, targets: np.ndarray, task: str,
             class_weights: np.ndarray | None = None,
             vocab: dict | None = None,
             max_iters: int = 1000, grad_tol: float = 1e-6) -> BaselineModel:
    """Multinomial logistic regression, full-batch gradient descent with
    backtracking line search on the weighted cross entropy. Stops when the
    gradient norm falls below grad_tol or after max_iters steps."""
    targets = np.asarray(targets, dtype=float)
    if len(token_lists) != targets.shape[0] or targets.shape[0] == 0:
        raise BaselineError("token lists and targets disagree on n")
    if vocab is None:
        vocab = fit_vocab(token_lists)
    X = count_matrix(token_lists, vocab)
    n_classes = targets.shape[1]
    if class_weights is None:
        class_weights = inverse_frequency_weights(targets)
    w_class = np.asarray(class_weights, dtype=float)
    if w_class.shape != (n_classes,):
        raise BaselineError("class_weights must have one entry per class")
    W = np.zeros((n_classes, len(vocab)))
    b = np.zeros(n_classes)
    loss, dW, db = _lr_loss_grad(W, b, X, targets, w_class)
    step = 1.0
    for _ in range(max_iters):
        gnorm2 = float((dW * dW).sum() + (db * db).sum())
        if not np.isfinite(loss):
            raise BaselineError("logistic regression diverged (non-finite loss)")
        if np.sqrt(gnorm2) < grad_tol:
            break
        # backtracking line search (Armijo), warm-started from the last step
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            W2 = W - step * dW
            b2 = b - step * db
            loss2, dW2, db2 = _lr_loss_grad(W2, b2, X, targets, w_class)
            if loss2 <= loss - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        W, b, loss, dW, db = W2, b2, loss2, dW2, db2
    return BaselineModel(kind="lr", task=task, n_classes=n_classes,
                         vocab=vocab, weights=W, bias=b)


def load_baseline(path) -> BaselineModel:
    with open(path, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    if rec.get("family") != "baseline":
        raise BaselineError(f"{path} is not a baseline checkpoint")
    return BaselineModel.load(rec)

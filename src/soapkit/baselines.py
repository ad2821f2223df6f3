"""Bag-of-words baseline classifiers: majority class, multinomial naive
Bayes, and logistic regression trained by full-batch gradient descent.

All three consume per-utterance token lists and soft targets, so they
train on reference one-hots and projected ASR distributions alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import CheckpointError, atomic_output, checked_array, inverse_frequency_weights, read_json
from .neural.network import softmax

LR_MAX_ITERS = 1000
LR_GRAD_TOL = 1e-6


class BaselineError(CheckpointError):
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

    def predict_matrix(self, token_lists) -> np.ndarray:
        """Probability-like scores (n, C), one row per utterance. Each row's
        logits are their own matrix-vector product: one matrix product
        would round some scores differently in the last bits."""
        if self.kind == "mc":
            out = np.zeros((len(token_lists), self.n_classes))
            out[:, self.majority] = 1.0
            return out
        X = count_matrix(token_lists, self.vocab)
        if self.kind == "mnb":
            Z = [self.log_prior + self.log_likelihood @ x for x in X]
        elif self.kind == "lr":
            Z = [self.weights @ x + self.bias for x in X]
        else:
            raise BaselineError(f"unknown baseline kind {self.kind!r}")
        return softmax(np.array(Z).reshape(-1, self.n_classes), axis=1)

    def save(self, path) -> None:
        rec = {"family": "baseline", "kind": self.kind, "task": self.task,
               "n_classes": self.n_classes, "vocab": self.vocab,
               "majority": self.majority}
        for name in ("log_prior", "log_likelihood", "weights", "bias"):
            arr = getattr(self, name)
            rec[name] = None if arr is None else np.asarray(arr).tolist()
        with atomic_output(path) as fh:
            fh.write(json.dumps(rec))

    @classmethod
    def load(cls, rec) -> "BaselineModel":
        """A model from its checkpoint record; a record that `save` could
        not have written raises BaselineError."""
        if not isinstance(rec, dict) or rec.get("family") != "baseline":
            raise BaselineError("not a baseline checkpoint")
        kind, task, n_classes, vocab, majority = (
            rec.get(k) for k in ("kind", "task", "n_classes", "vocab", "majority"))
        if kind not in ("mc", "mnb", "lr"):
            raise BaselineError(f"unknown baseline kind {kind!r}")
        if task not in ("soap", "speaker"):
            raise BaselineError(f"unknown task {task!r}")
        if type(n_classes) is not int or n_classes < 1:
            raise BaselineError("n_classes must be a positive integer")
        if not isinstance(vocab, dict) or sorted(
                v for v in vocab.values() if type(v) is int) != list(range(len(vocab))):
            raise BaselineError("vocab must map its tokens to the indices 0..V-1")
        if kind == "mc" and not (type(majority) is int and 0 <= majority < n_classes):
            raise BaselineError("an mc checkpoint needs a majority class index")
        shapes = {"mnb": {"log_prior": (n_classes,), "log_likelihood": (n_classes, len(vocab))},
                  "lr": {"weights": (n_classes, len(vocab)), "bias": (n_classes,)}}.get(kind, {})
        arrays = {name: checked_array(rec.get(name), f"checkpoint array {name!r}", shape,
                                      BaselineError) for name, shape in shapes.items()}
        return cls(kind=kind, task=task, n_classes=n_classes, vocab=vocab,
                   majority=majority, **arrays)


def train_mc(targets: np.ndarray, task: str) -> BaselineModel:
    """Majority class by total (possibly fractional) target mass; ties go
    to the lowest class index."""
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[0] == 0:
        raise BaselineError("targets must be a non-empty (n, C) array")
    counts = targets.sum(axis=0)
    return BaselineModel(kind="mc", task=task, n_classes=targets.shape[1],
                         majority=int(np.argmax(counts)))


def train_mnb(token_lists, targets: np.ndarray, task: str) -> BaselineModel:
    """Multinomial naive Bayes with a uniform class prior and add-one
    (Laplace) counts; class-conditional counts are weighted by the
    (possibly fractional) target mass of each utterance."""
    targets = np.asarray(targets, dtype=float)
    if len(token_lists) != targets.shape[0]:
        raise BaselineError("token lists and targets disagree on n")
    vocab = fit_vocab(token_lists)
    X = count_matrix(token_lists, vocab)
    M = targets.T @ X  # (C, V) expected counts
    denom = M.sum(axis=1, keepdims=True) + len(vocab)
    log_lik = np.log(M + 1.0) - np.log(denom)
    n_classes = targets.shape[1]
    log_prior = np.full(n_classes, -np.log(n_classes))
    return BaselineModel(kind="mnb", task=task, n_classes=n_classes,
                         vocab=vocab, log_prior=log_prior, log_likelihood=log_lik)


def train_lr(token_lists, targets: np.ndarray, task: str) -> BaselineModel:
    """Multinomial logistic regression, full-batch gradient descent with
    backtracking line search on the inverse-frequency weighted cross
    entropy. Stops when the gradient norm falls below LR_GRAD_TOL or after
    LR_MAX_ITERS steps.

    Along a descent direction the logits are linear in the step, so each
    iteration makes one product for the direction's logits and one for the
    gradient at the accepted step; a line-search trial is elementwise work
    on the class-major (C, n) logits."""
    targets = np.asarray(targets, dtype=float)
    if len(token_lists) != targets.shape[0] or targets.shape[0] == 0:
        raise BaselineError("token lists and targets disagree on n")
    vocab = fit_vocab(token_lists)
    # (V, n) contiguous, no copy: both products per iteration run about
    # twice as fast on it as on the transpose of a row-major (n, V) matrix
    XT = count_matrix(token_lists, vocab).T
    n, n_classes = targets.shape
    w_class = inverse_frequency_weights(targets)
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
    for _ in range(LR_MAX_ITERS):
        gnorm2 = float((dW * dW).sum() + (db * db).sum())
        if not np.isfinite(loss):
            raise BaselineError("logistic regression diverged (non-finite loss)")
        if np.sqrt(gnorm2) < LR_GRAD_TOL:
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
    return read_json(path, BaselineModel.load, BaselineError)

"""Training loop: Adam, transcript batching, truncated BPTT, a per-epoch
dropout schedule, and global-norm gradient clipping.

Class weights are recomputed per batch as inverse expected class
frequencies over that batch's targets; the batch loss is the sum of the
speaker and section losses over all utterances of the batch. Each batch
runs through the model as one masked, time-major pass. Work that does
not change between batches is done once per run: each transcript's
tokens are encoded as embedding-table rows up front, and Adam keeps the
trained parameters, and its moments, in flat vectors. A batch draws
all of its dropout masks at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import TASKS, DataError, Rng, inverse_frequency_weights, one_hot_targets
from .network import clip_scale, global_norm


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
BATCH_TRANSCRIPTS = 4
TBPTT_LEN = 64  # utterances between truncated-BPTT cuts
GRAD_CLIP = 5.0  # global-norm threshold


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    dropout_schedule: tuple = (0.45, 0.30, 0.25, 0.22, 0.21)
    seed: int = 0

    def __post_init__(self):
        if any(not 0.0 <= r < 1.0 for r in self.dropout_schedule):
            raise DataError("dropout rates must be in [0, 1)")

    @property
    def epochs(self) -> int:
        return len(self.dropout_schedule)


class Adam:
    """Adam (Kingma & Ba 2015) over one flat vector of parameters. Each
    trained entry of `params` is rebound to a view of that vector, so a
    step is a few whole-vector operations, not a loop over arrays."""

    def __init__(self, params: dict, names, lr: float):
        self.lr, self.t = lr, 0
        self.names = list(names)
        self.flat = np.concatenate([params[k].ravel() for k in self.names])
        start = 0
        for k in self.names:
            params[k] = self.flat[start:start + params[k].size].reshape(params[k].shape)
            start += params[k].size
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)

    def step(self, grads: dict, scale: float) -> None:
        """One update from the gradients of the trained names, scaled by
        `scale` (the gradient clipping factor)."""
        g = np.concatenate([grads[k].ravel() for k in self.names])
        g *= scale
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1, bc2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        self.m *= b1
        self.m += (1.0 - b1) * g
        self.v *= b2
        self.v += (1.0 - b2) * (g * g)
        self.flat -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


def _encoded(model, transcripts) -> list:
    """Each transcript as rows of the model's embedding table, which grows
    once for the whole corpus."""
    for t in transcripts:
        for utt in t.utterances:
            if utt.tokens is None:
                raise DataError(f"encounter {t.encounter_id}: utterance {utt.id} has no "
                                "tokens; run preprocessing first")
    model.add_vocabulary(tok for t in transcripts for utt in t.utterances for tok in utt.tokens)
    return [model.encode([utt.tokens for utt in t.utterances]) for t in transcripts]


def train_model(model, transcripts, cfg: TrainConfig = TrainConfig(), on_batch=None) -> list:
    """Train in place; returns per-epoch mean batch losses.

    `on_batch`, when given, is called with a dict per update (epoch, batch
    index, loss, gradient norm before clipping, clip scale) so tests can
    instrument the optimizer without reaching into it. Every transcript
    has utterances, as in `preprocess_corpus` output.
    """
    if not transcripts:
        raise DataError("no non-empty transcripts to train on")
    data = [(e,) + one_hot_targets(t) for e, t in zip(_encoded(model, transcripts), transcripts)]
    gen = Rng(cfg.seed)
    trainable = model.trainable()
    opt = Adam(model.params, trainable, lr=cfg.learning_rate)
    epoch_losses = []
    for epoch, dropout in enumerate(cfg.dropout_schedule):
        order = gen.permutation(len(data))
        batch_losses = []
        for start in range(0, len(order), BATCH_TRANSCRIPTS):
            batch = [data[i] for i in order[start:start + BATCH_TRANSCRIPTS]]
            spk_t = np.concatenate([b[1] for b in batch])
            sect_t = np.concatenate([b[2] for b in batch])
            loss, grads = model.loss_and_grads(
                [b[0] for b in batch], spk_t, sect_t,
                inverse_frequency_weights(spk_t), inverse_frequency_weights(sect_t),
                dropout=dropout, gen=gen, tbptt_len=TBPTT_LEN)
            if not np.isfinite(loss):
                raise DataError(
                    f"training diverged at epoch {epoch}, batch {start // BATCH_TRANSCRIPTS} "
                    f"(loss={loss!r})")
            norm = global_norm(grads[k] for k in trainable)
            scale = clip_scale(norm, GRAD_CLIP)
            opt.step(grads, scale)
            batch_losses.append(loss)
            if on_batch is not None:
                on_batch({"epoch": epoch, "batch": start // BATCH_TRANSCRIPTS,
                          "loss": loss, "grad_norm": norm, "clip_scale": scale})
        epoch_losses.append(float(np.mean(batch_losses)))
    return epoch_losses


def collect_scores(model, transcripts) -> dict:
    """Per-task stacked per-utterance scores over a corpus, BATCH_TRANSCRIPTS
    transcripts per pass. The corpus is non-empty `preprocess_corpus`
    output: at least one transcript, and every transcript has utterances."""
    encoded = _encoded(model, transcripts)
    scores = [model.predict(encoded[start:start + BATCH_TRANSCRIPTS])
              for start in range(0, len(encoded), BATCH_TRANSCRIPTS)]
    return dict(zip(TASKS, map(np.concatenate, zip(*scores))))

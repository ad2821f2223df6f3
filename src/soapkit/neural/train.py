"""Training loop: Adam, transcript batching, truncated BPTT, a per-epoch
dropout schedule, and global-norm gradient clipping.

Class weights are recomputed per batch as inverse expected class
frequencies over that batch's targets; the batch loss is the sum of the
speaker and section losses over all utterances of the batch. Each batch
runs through the model as one masked, time-major pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines import inverse_frequency_weights
from ..corpus import Rng, gold_labels, one_hot_targets
from .network import clip_by_global_norm


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_transcripts: int = 4
    tbptt_len: int = 64
    dropout_schedule: tuple = (0.45, 0.30, 0.25, 0.22, 0.21)
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if any(not 0.0 <= r < 1.0 for r in self.dropout_schedule):
            raise TrainingError("dropout rates must be in [0, 1)")
        if self.batch_transcripts < 1 or self.tbptt_len < 1:
            raise TrainingError("batch_transcripts and tbptt_len must be positive")

    @property
    def epochs(self) -> int:
        return len(self.dropout_schedule)


class Adam:
    def __init__(self, shapes: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, g in grads.items():
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * (g * g)
            params[k] = params[k] - self.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.eps)


def _transcript_tokens(transcript) -> list:
    tokens = []
    for utt in transcript.utterances:
        if utt.tokens is None:
            raise TrainingError(
                f"encounter {transcript.encounter_id}: utterance {utt.id} has no "
                "tokens; run preprocessing first")
        tokens.append(utt.tokens)
    return tokens


def train_model(model, transcripts, cfg: TrainConfig = TrainConfig(), on_batch=None) -> list:
    """Train in place; returns per-epoch mean batch losses.

    `on_batch`, when given, is called with a dict per update (epoch, batch
    index, loss, gradient norm before clipping, clip scale) so tests can
    instrument the optimizer without reaching into it.
    """
    transcripts = [t for t in transcripts if t.utterances]
    if not transcripts:
        raise TrainingError("no non-empty transcripts to train on")
    data = []
    for t in transcripts:
        spk_t, sect_t = one_hot_targets(t)
        data.append((_transcript_tokens(t), spk_t, sect_t))
    model.add_vocabulary(tok for tokens, _, _ in data for utt in tokens for tok in utt)
    rng = Rng(cfg.seed)
    gen = rng.generator
    trainable = model.trainable()
    opt = Adam({k: model.params[k].shape for k in trainable},
               lr=cfg.learning_rate, beta1=cfg.adam_beta1,
               beta2=cfg.adam_beta2, eps=cfg.adam_eps)
    epoch_losses = []
    for epoch, dropout in enumerate(cfg.dropout_schedule):
        order = gen.permutation(len(data))
        batch_losses = []
        for start in range(0, len(order), cfg.batch_transcripts):
            batch = [data[i] for i in order[start:start + cfg.batch_transcripts]]
            spk_t = np.concatenate([b[1] for b in batch])
            sect_t = np.concatenate([b[2] for b in batch])
            loss, grads = model.loss_and_grads(
                [b[0] for b in batch], spk_t, sect_t,
                inverse_frequency_weights(spk_t), inverse_frequency_weights(sect_t),
                dropout=dropout, gen=gen, tbptt_len=cfg.tbptt_len)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"training diverged at epoch {epoch}, batch {start // cfg.batch_transcripts} "
                    f"(loss={loss!r})")
            grads = {k: grads[k] for k in trainable}
            grads, norm, scale = clip_by_global_norm(grads, cfg.grad_clip)
            opt.step(model.params, grads)
            batch_losses.append(loss)
            if on_batch is not None:
                on_batch({"epoch": epoch, "batch": start // cfg.batch_transcripts,
                          "loss": loss, "grad_norm": norm, "clip_scale": scale})
        epoch_losses.append(float(np.mean(batch_losses)))
    return epoch_losses


def collect_scores(model, transcripts) -> dict:
    """Run the model over a corpus, TrainConfig().batch_transcripts
    transcripts per pass; returns stacked per-utterance scores plus gold
    labels per task (reference labels, or argmax targets for ASR
    transcripts)."""
    transcripts = [t for t in transcripts if t.utterances]
    if not transcripts:
        raise TrainingError("no utterances to score")
    tokens = [_transcript_tokens(t) for t in transcripts]
    model.add_vocabulary(tok for utts in tokens for utt in utts for tok in utt)
    group = TrainConfig().batch_transcripts
    spk_scores = []
    sect_scores = []
    for start in range(0, len(tokens), group):
        spk_p, sect_p = model.predict(tokens[start:start + group])
        spk_scores.append(spk_p)
        sect_scores.append(sect_p)
    return {
        "speaker": (np.concatenate(spk_scores),
                    np.concatenate([gold_labels(t, "speaker") for t in transcripts])),
        "soap": (np.concatenate(sect_scores),
                 np.concatenate([gold_labels(t, "soap") for t in transcripts])),
    }

"""Hierarchical utterance-sequence classifier with two task heads.

Token embeddings (frozen, three layers per token) are collapsed by layer
attention then word attention into one vector per utterance; a two-layer
stacked bidirectional LSTM contextualizes the utterance sequence; two
unidirectional LSTM decoders (or plain dense heads, depending on the
variant) emit per-utterance speaker and section distributions. The two
directions of each encoder layer, and the two decoders, run as one
stacked LSTM pass (see network.lstm_forward).

Variants, from flattest to full:
  dlb  - mean of layer-attended word vectors, dense heads (w_word pinned at 0)
  wa   - word attention, dense heads
  bil  - word attention + stacked biLSTM, dense heads
  bild - word attention + stacked biLSTM + LSTM decoders with projections
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from ..corpus import N_SOAP, N_SPEAKER, DataError, Rng, checked_array, read_json, write_json
from .embeddings import HashEmbeddings
from .network import (
    attention_backward,
    attention_forward,
    dropout_mask,
    init_lstm,
    lstm_backward,
    lstm_forward,
    softmax,
    weighted_ce_loss_and_dlogits,
)

MODEL_VARIANTS = ("dlb", "wa", "bil", "bild")

EMBED_LAYERS = 3
MAX_WIDTH = 512  # callers use 8-48; refuses a checkpoint's absurd size before any draw


class Encoded(NamedTuple):
    """One transcript as rows of the model's embedding table."""
    rows: np.ndarray  # (n_utt, width) table rows, left-packed
    mask: np.ndarray  # (n_utt, width) True on real tokens


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "bil"
    embed_dim: int = 16
    enc1_hidden: int = 16
    enc2_hidden: int = 8
    decoder_hidden: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.variant not in MODEL_VARIANTS:
            raise DataError(f"unknown variant {self.variant!r}; expected one of {MODEL_VARIANTS}")
        for name, low, high in (("embed_dim", 1, MAX_WIDTH), ("enc1_hidden", 1, MAX_WIDTH),
                                ("enc2_hidden", 1, MAX_WIDTH), ("decoder_hidden", 1, MAX_WIDTH),
                                ("seed", 0, float("inf"))):
            if type(getattr(self, name)) is not int or not low <= getattr(self, name) <= high:
                raise DataError(f"{name} must be an integer in [{low}, {high}]")


class SequenceClassifier:
    def __init__(self, config: ModelConfig):
        self.config = config
        self.embeddings = HashEmbeddings(dim=config.embed_dim, n_layers=EMBED_LAYERS,
                                         seed=config.seed)
        gen = Rng(config.seed)
        d = config.embed_dim
        p = {}
        lim = 1.0 / np.sqrt(d)
        p["w_layer"] = gen.uniform(-lim, lim, size=d)
        p["w_word"] = np.zeros(d) if config.variant == "dlb" else gen.uniform(-lim, lim, size=d)
        self.frozen = {"w_word"} if config.variant == "dlb" else set()
        # LSTMs that read the same input and run in lockstep, as (name,
        # member parameter prefixes, per-member reverse flags)
        self._groups = []
        if config.variant in ("bil", "bild"):
            h1, h2 = config.enc1_hidden, config.enc2_hidden
            for layer, n_in, n_hid in ((1, d, h1), (2, 2 * h1, h2)):
                members = (f"enc{layer}_f", f"enc{layer}_b")
                for name in members:
                    for k, v in init_lstm(gen, n_in, n_hid).items():
                        p[f"{name}_{k}"] = v
                self._groups.append((f"enc{layer}", members, (False, True)))
            ctx = 2 * h2
        else:
            ctx = d
        self.ctx_dim = ctx
        # bild's two decoders feed one projection each; otherwise both heads read the context
        self._head = "proj" if config.variant == "bild" else "head"
        if config.variant == "bild":
            hd = config.decoder_hidden
            for task, n_out in (("spk", N_SPEAKER), ("sect", N_SOAP)):
                for k, v in init_lstm(gen, ctx, hd).items():
                    p[f"dec_{task}_{k}"] = v
                lim_p = 1.0 / np.sqrt(hd)
                p[f"proj_{task}_W"] = gen.uniform(-lim_p, lim_p, size=(n_out, hd))
                p[f"proj_{task}_b"] = np.zeros(n_out)
            self._groups.append(("dec", ("dec_spk", "dec_sect"), (False, False)))
        else:
            lim_h = 1.0 / np.sqrt(ctx)
            for task, n_out in (("spk", N_SPEAKER), ("sect", N_SOAP)):
                p[f"head_{task}_W"] = gen.uniform(-lim_h, lim_h, size=(n_out, ctx))
                p[f"head_{task}_b"] = np.zeros(n_out)
        self.params = p
        self._row = {}  # token -> row of _table
        self._table = np.empty((0, self.embeddings.n_layers, d))

    def trainable(self) -> list:
        return [name for name in self.params if name not in self.frozen]

    def add_vocabulary(self, tokens) -> None:
        """Give every token not yet in the embedding table a row. Training
        and scoring pass their whole corpus first, so the table is built
        once per run, at its exact size."""
        new = [t for t in dict.fromkeys(tokens) if t not in self._row]
        if not new:
            return
        self._row.update((token, k) for k, token in enumerate(new, start=len(self._row)))
        self._table = np.concatenate([self._table, self.embeddings.table(new)])

    # --- forward ---

    def encode(self, token_lists) -> Encoded:
        """One transcript's tokens as (n_utt, width) rows of the embedding
        table, left-packed, plus the mask of real positions. A batch may
        hold these in place of token lists, so a training run encodes each
        transcript once."""
        if not token_lists:
            raise DataError("empty utterance sequence")
        if not all(token_lists):
            raise DataError("utterance has no tokens")
        self.add_vocabulary(t for tokens in token_lists for t in tokens)
        lengths = np.array([len(tokens) for tokens in token_lists])
        rows = np.zeros((len(token_lists), lengths.max()), dtype=np.intp)
        for i, tokens in enumerate(token_lists):
            rows[i, :len(tokens)] = [self._row[t] for t in tokens]
        return Encoded(rows, np.arange(rows.shape[1]) < lengths[:, None])

    def _dropout_masks(self, n_seq: int, dropout: float, gen) -> dict:
        """Per LSTM group, stacked (input, recurrent) masks (S, B, dim), cut
        from one draw in the order of a draw per mask: by sequence, group
        and member, a member's input mask before its recurrent one."""
        if dropout <= 0.0 or not self._groups:
            return {}
        widths = [self.params[f"{m}_{k}"].shape[1]
                  for _, members, _ in self._groups for m in members for k in "WU"]
        flat = dropout_mask(gen, n_seq * sum(widths), dropout).reshape(n_seq, -1)
        masks = iter(np.split(flat, np.cumsum(widths)[:-1], axis=1))  # (B, width) each
        # each member takes its (input, recurrent) pair; zip(*) stacks each kind over the members
        return {name: tuple(map(np.stack, zip(*[(next(masks), next(masks)) for _ in members])))
                for name, members, _ in self._groups}

    def _forward(self, batch, dropout: float = 0.0, gen=None,
                 tbptt_len: int | None = None, keep_cache: bool = True) -> dict:
        """One time-major (T, B) pass over a batch of transcripts, each a
        list of per-utterance token lists or an `Encoded`. Without
        keep_cache (no backward pass follows) the attention and the LSTMs
        keep no caches."""
        cfg = self.config
        p = self.params
        if not batch:
            raise DataError("empty utterance sequence")
        batch = [t if isinstance(t, Encoded) else self.encode(t) for t in batch]
        lengths = [len(t.rows) for t in batch]
        n, n_seq = max(lengths), len(batch)
        X = np.zeros((n, n_seq, cfg.embed_dim))
        att = []  # per transcript, its table rows and its attention cache without E
        for b, (rows, tok_mask) in enumerate(batch):
            X[:lengths[b], b], a = attention_forward(
                self._table[rows], p["w_layer"], p["w_word"], tok_mask)
            if keep_cache:
                del a["E"]
                att.append((rows, a))
        mask = (np.arange(n)[:, None] < np.array(lengths)).astype(float)
        cache = {"att": att, "lengths": lengths, "real": mask.T > 0,
                 "cuts": frozenset(range(tbptt_len, n, tbptt_len)) if tbptt_len else frozenset()}
        drop = self._dropout_masks(n_seq, dropout, gen)

        x = X
        for name, members, reverse in self._groups:
            W, U, b = (np.stack([p[f"{m}_{k}"] for m in members]) for k in "WUb")
            im, rm = drop.get(name, (None, None))
            h, cache[name] = lstm_forward(x, W, U, b, in_mask=im, rec_mask=rm, mask=mask,
                                          reverse=reverse, keep_cache=keep_cache)
            x = h.swapaxes(1, 2).reshape(n, n_seq, -1)  # the members' features side by side
        head = self._head
        probs = cache["probs"] = {}
        heads_in = np.split(x, 2, axis=2) if head == "proj" else (x, x)
        for task, x_task in zip(("spk", "sect"), heads_in):
            rows = cache[f"{task}_rows"] = _real_rows(x_task, cache["real"])
            probs[task] = softmax(rows @ p[f"{head}_{task}_W"].T + p[f"{head}_{task}_b"], axis=1)
        return cache

    def predict(self, batch) -> tuple:
        """Per-utterance (speaker, section) probability rows, dropout off,
        for a batch of transcripts: rows run transcript by transcript."""
        cache = self._forward(batch, keep_cache=False)
        return cache["probs"]["spk"], cache["probs"]["sect"]

    def _loss(self, cache, spk_targets, sect_targets, spk_weights, sect_weights) -> tuple:
        total = 0.0
        dlogits = {}
        for task, targets, weights in (
            ("spk", spk_targets, spk_weights),
            ("sect", sect_targets, sect_weights),
        ):
            targets = np.asarray(targets, dtype=float)
            if targets.shape != cache["probs"][task].shape:
                raise DataError(f"{task} targets have shape {targets.shape}, "
                                f"expected {cache['probs'][task].shape}")
            loss, dlogits[task] = weighted_ce_loss_and_dlogits(
                cache["probs"][task], targets, np.asarray(weights, dtype=float))
            total += loss
        return total, dlogits

    def compute_loss(self, batch, spk_targets, sect_targets,
                     spk_weights, sect_weights, dropout: float = 0.0,
                     gen=None, tbptt_len: int | None = None) -> float:
        """The loss of loss_and_grads from the same forward pass, caches
        included, without the backward pass."""
        cache = self._forward(batch, dropout=dropout, gen=gen, tbptt_len=tbptt_len)
        return self._loss(cache, spk_targets, sect_targets, spk_weights, sect_weights)[0]

    # --- backward ---

    def loss_and_grads(self, batch, spk_targets, sect_targets,
                       spk_weights, sect_weights, dropout: float = 0.0,
                       gen=None, tbptt_len: int | None = None) -> tuple:
        """Multitask loss (sum of the two weighted cross entropies, summed
        over the utterances of every transcript in the batch) and
        gradients for every trainable parameter. Target rows run
        transcript by transcript, as predict's rows do."""
        p = self.params
        cache = self._forward(batch, dropout=dropout, gen=gen, tbptt_len=tbptt_len)
        total, dlogits = self._loss(cache, spk_targets, sect_targets, spk_weights, sect_weights)
        # each LSTM cache is popped as its backward pass starts, so the
        # activations are freed layer by layer
        cuts, real = cache["cuts"], cache["real"]
        grads = {name: np.zeros_like(val) for name, val in p.items()}
        head = self._head
        dx = []
        for task in ("spk", "sect"):
            dl = dlogits[task]
            grads[f"{head}_{task}_W"] += dl.T @ cache.pop(f"{task}_rows")
            grads[f"{head}_{task}_b"] += dl.sum(axis=0)
            dx.append(_padded(dl @ p[f"{head}_{task}_W"], real))
        dx = np.concatenate(dx, axis=2) if head == "proj" else sum(dx)
        for name, members, _ in reversed(self._groups):
            dH = dx.reshape(dx.shape[:2] + (len(members), -1)).swapaxes(1, 2)
            dX, g = lstm_backward(dH, cache.pop(name), cuts)
            dx = sum(dX[:, s] for s in range(len(members)))  # sum() starts at 0: no -0.0 sums
            for s, member in enumerate(members):
                for k, v in g.items():
                    grads[f"{member}_{k}"] += v[s]

        for b, (rows, att) in enumerate(cache["att"]):
            # the (n_utt, tok, K, D) embedding block, the largest array of
            # the pass, is gathered again rather than kept
            d_wl, d_ww = attention_backward(dx[:cache["lengths"][b], b],
                                            dict(att, E=self._table[rows]))
            grads["w_layer"] += d_wl
            grads["w_word"] += d_ww

        for name in self.frozen:
            grads[name] = np.zeros_like(p[name])
        return total, grads

    # --- persistence ---

    def to_record(self) -> dict:
        return {
            "family": "neural",
            "variant": self.config.variant,
            "config": asdict(self.config),
            "embeddings": self.embeddings.spec(),
            "params": {name: arr.tolist() for name, arr in self.params.items()},
        }

    def save(self, path) -> None:
        write_json(self.to_record(), path)

    @classmethod
    def from_record(cls, rec) -> "SequenceClassifier":
        """A model from its checkpoint record; a record that `save` could
        not have written raises DataError."""
        if not isinstance(rec, dict) or rec.get("family") != "neural":
            raise DataError("not a neural checkpoint")
        config, params = rec.get("config"), rec.get("params")
        if not isinstance(config, dict) or not isinstance(params, dict):
            raise DataError("checkpoint needs 'config' and 'params' objects")
        unknown = sorted(set(config) - set(ModelConfig.__dataclass_fields__))
        if unknown:
            raise DataError(f"unknown config keys {unknown}")
        model = cls(ModelConfig(**config))
        # compared as JSON text, so that 16.0 or true does not pass for 16 or 1
        for key, want in (("variant", model.config.variant), ("embeddings", model.embeddings.spec())):
            if json.dumps(rec.get(key), sort_keys=True) != json.dumps(want, sort_keys=True):
                raise DataError(f"checkpoint {key} {rec.get(key)!r} does not match its config's {want!r}")
        missing = sorted(set(model.params) - set(params))
        if missing:
            raise DataError(f"checkpoint lacks parameters {missing}")
        for name, val in params.items():
            if name not in model.params:
                raise DataError(f"unexpected parameter {name!r} in checkpoint")
            model.params[name] = checked_array(val, f"parameter {name!r}", model.params[name].shape)
        return model


def _real_rows(x: np.ndarray, real: np.ndarray) -> np.ndarray:
    """(T, B, k) -> (N, k): the real steps, transcript by transcript."""
    return x.swapaxes(0, 1)[real]


def _padded(rows: np.ndarray, real: np.ndarray) -> np.ndarray:
    """Inverse of _real_rows, with zeros on the padded steps."""
    out = np.zeros(real.shape + rows.shape[1:])
    out[real] = rows
    return out.swapaxes(0, 1)


def load_model(path) -> SequenceClassifier:
    return read_json(path, SequenceClassifier.from_record)

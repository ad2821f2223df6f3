"""Hierarchical utterance-sequence classifier with two task heads.

Token embeddings (frozen, three layers per token) are collapsed by layer
attention then word attention into one vector per utterance; a two-layer
stacked bidirectional LSTM contextualizes the utterance sequence; two
unidirectional LSTM decoders (or plain dense heads, depending on the
variant) emit per-utterance speaker and section distributions.

Variants, from flattest to full:
  dlb  - mean of layer-attended word vectors, dense heads (w_word pinned at 0)
  wa   - word attention, dense heads
  bil  - word attention + stacked biLSTM, dense heads
  bild - word attention + stacked biLSTM + LSTM decoders with projections
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..corpus import N_SOAP, N_SPEAKER, Rng
from ..preprocess import PAD_TOKEN
from .embeddings import HashEmbeddings, load_embeddings
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


class ModelError(ValueError):
    pass


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
            raise ModelError(f"unknown variant {self.variant!r}; expected one of {MODEL_VARIANTS}")
        for name in ("embed_dim", "enc1_hidden", "enc2_hidden", "decoder_hidden"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be positive")


class SequenceClassifier:
    def __init__(self, config: ModelConfig, embeddings=None):
        self.config = config
        self.embeddings = embeddings if embeddings is not None else HashEmbeddings(
            dim=config.embed_dim, n_layers=EMBED_LAYERS, seed=config.seed)
        if self.embeddings.dim != config.embed_dim:
            raise ModelError("embedding provider dim does not match config")
        gen = Rng(config.seed).generator
        d = config.embed_dim
        p = {}
        lim = 1.0 / np.sqrt(d)
        p["w_layer"] = gen.uniform(-lim, lim, size=d)
        p["w_word"] = np.zeros(d) if config.variant == "dlb" else gen.uniform(-lim, lim, size=d)
        self.frozen = {"w_word"} if config.variant == "dlb" else set()
        self._lstms = []  # (name, input dim, hidden), in dropout-mask draw order
        if config.variant in ("bil", "bild"):
            h1, h2 = config.enc1_hidden, config.enc2_hidden
            for layer, n_in, n_hid in ((1, d, h1), (2, 2 * h1, h2)):
                for direction in ("f", "b"):
                    name = f"enc{layer}_{direction}"
                    for k, v in init_lstm(gen, n_in, n_hid).items():
                        p[f"{name}_{k}"] = v
                    self._lstms.append((name, n_in, n_hid))
            ctx = 2 * h2
        else:
            ctx = d
        self.ctx_dim = ctx
        if config.variant == "bild":
            hd = config.decoder_hidden
            for task, n_out in (("spk", N_SPEAKER), ("sect", N_SOAP)):
                for k, v in init_lstm(gen, ctx, hd).items():
                    p[f"dec_{task}_{k}"] = v
                self._lstms.append((f"dec_{task}", ctx, hd))
                lim_p = 1.0 / np.sqrt(hd)
                p[f"proj_{task}_W"] = gen.uniform(-lim_p, lim_p, size=(n_out, hd))
                p[f"proj_{task}_b"] = np.zeros(n_out)
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
        new = [t for t in dict.fromkeys(tokens) if t != PAD_TOKEN and t not in self._row]
        if not new:
            return
        old = len(self._row)
        table = np.empty((old + len(new),) + self._table.shape[1:])
        table[:old] = self._table
        for k, token in enumerate(new, start=old):
            self._row[token] = k
            table[k] = self.embeddings(token)
        self._table = table

    # --- forward ---

    def _token_rows(self, token_lists) -> tuple:
        """One transcript's real tokens as (n_utt, width) rows of the
        embedding table, left-packed, plus the mask of real positions."""
        real = [[t for t in tokens if t != PAD_TOKEN] for tokens in token_lists]
        if not all(real):
            raise ModelError("utterance has no non-pad tokens")
        self.add_vocabulary(t for tokens in real for t in tokens)
        lengths = np.array([len(tokens) for tokens in real])
        rows = np.zeros((len(real), lengths.max()), dtype=np.intp)
        for i, tokens in enumerate(real):
            rows[i, :len(tokens)] = [self._row[t] for t in tokens]
        return rows, np.arange(rows.shape[1]) < lengths[:, None]

    def _dropout_masks(self, n_seq: int, dropout: float, gen) -> dict:
        """Per LSTM, (input, recurrent) masks with one row per sequence.
        Each sequence draws all of its masks before the next one does."""
        if dropout <= 0.0 or not self._lstms:
            return {}
        per_seq = [[(dropout_mask(gen, n_in, dropout), dropout_mask(gen, n_hid, dropout))
                    for _, n_in, n_hid in self._lstms] for _ in range(n_seq)]
        return {name: tuple(np.stack(m) for m in zip(*(seq[k] for seq in per_seq)))
                for k, (name, _, _) in enumerate(self._lstms)}

    def _lstm(self, name: str, x, drop: dict, mask, reverse: bool = False) -> tuple:
        p = self.params
        im, rm = drop.get(name, (None, None))
        return lstm_forward(x, p[f"{name}_W"], p[f"{name}_U"], p[f"{name}_b"],
                            in_mask=im, rec_mask=rm, reverse=reverse, mask=mask)

    def _forward(self, batch, dropout: float = 0.0, gen=None,
                 tbptt_len: int | None = None) -> dict:
        """One time-major (T, B) pass over a batch of transcripts, each a
        list of per-utterance token lists."""
        cfg = self.config
        p = self.params
        lengths = [len(token_lists) for token_lists in batch]
        if not lengths or not all(lengths):
            raise ModelError("empty utterance sequence")
        n, n_seq = max(lengths), len(batch)
        X = np.zeros((n, n_seq, cfg.embed_dim))
        att = []
        for b, token_lists in enumerate(batch):
            rows, tok_mask = self._token_rows(token_lists)
            X[:lengths[b], b], _ = attention_forward(
                self._table[rows], p["w_layer"], p["w_word"], tok_mask)
            att.append((rows, tok_mask))
        mask = (np.arange(n)[:, None] < np.array(lengths)).astype(float)
        cache = {"att": att, "lengths": lengths, "real": mask.T > 0,
                 "cuts": frozenset(range(tbptt_len, n, tbptt_len)) if tbptt_len else frozenset()}
        drop = self._dropout_masks(n_seq, dropout, gen)

        x = X
        if cfg.variant in ("bil", "bild"):
            for layer in (1, 2):
                outs = []
                for direction in ("f", "b"):
                    name = f"enc{layer}_{direction}"
                    h, cache[name] = self._lstm(name, x, drop, mask, reverse=direction == "b")
                    outs.append(h)
                x = np.concatenate(outs, axis=2)
        cache["C"] = x

        probs = {}
        for task in ("spk", "sect"):
            if cfg.variant == "bild":
                h, cache[f"dec_{task}"] = self._lstm(f"dec_{task}", x, drop, mask)
                h = cache[f"dec_{task}_h"] = _real_rows(h, cache["real"])
                logits = h @ p[f"proj_{task}_W"].T + p[f"proj_{task}_b"]
            else:
                logits = _real_rows(x, cache["real"]) @ p[f"head_{task}_W"].T + p[f"head_{task}_b"]
            probs[task] = softmax(logits, axis=1)
        cache["probs"] = probs
        return cache

    def predict(self, batch) -> tuple:
        """Per-utterance (speaker, section) probability rows, dropout off,
        for a batch of transcripts: rows run transcript by transcript."""
        cache = self._forward(batch)
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
                raise ModelError(f"{task} targets have shape {targets.shape}, "
                                 f"expected {cache['probs'][task].shape}")
            loss, dlogits[task] = weighted_ce_loss_and_dlogits(
                cache["probs"][task], targets, np.asarray(weights, dtype=float))
            total += loss
        return total, dlogits

    def compute_loss(self, batch, spk_targets, sect_targets,
                     spk_weights, sect_weights, dropout: float = 0.0,
                     gen=None, tbptt_len: int | None = None) -> float:
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
        cfg = self.config
        p = self.params
        cache = self._forward(batch, dropout=dropout, gen=gen, tbptt_len=tbptt_len)
        total, dlogits = self._loss(cache, spk_targets, sect_targets, spk_weights, sect_weights)
        # each LSTM cache is popped as its backward pass starts, so the
        # activations are freed layer by layer
        cuts, real = cache["cuts"], cache["real"]
        grads = {name: np.zeros_like(val) for name, val in p.items()}
        C = cache.pop("C")
        dC = np.zeros_like(C)
        for task in ("spk", "sect"):
            dl = dlogits[task]
            if cfg.variant == "bild":
                grads[f"proj_{task}_W"] += dl.T @ cache.pop(f"dec_{task}_h")
                grads[f"proj_{task}_b"] += dl.sum(axis=0)
                dh = _padded(dl @ p[f"proj_{task}_W"], real)
                dC_task, g = lstm_backward(dh, cache.pop(f"dec_{task}"), cuts)
                dC += dC_task
                for k, v in g.items():
                    grads[f"dec_{task}_{k}"] += v
            else:
                grads[f"head_{task}_W"] += dl.T @ _real_rows(C, real)
                grads[f"head_{task}_b"] += dl.sum(axis=0)
                dC += _padded(dl @ p[f"head_{task}_W"], real)
        del C

        dU = dC
        if cfg.variant in ("bil", "bild"):
            for layer, width in ((2, cfg.enc2_hidden), (1, cfg.enc1_hidden)):
                dX = 0.0
                for direction, sl in (("f", slice(0, width)), ("b", slice(width, 2 * width))):
                    name = f"enc{layer}_{direction}"
                    dx, g = lstm_backward(dU[:, :, sl], cache.pop(name), cuts)
                    dX = dX + dx
                    for k, v in g.items():
                        grads[f"{name}_{k}"] += v
                dU = dX

        for b, (rows, tok_mask) in enumerate(cache["att"]):
            # recomputed rather than kept: the (n_utt, tok, K, D) block is
            # the largest array of the pass
            _, att = attention_forward(self._table[rows], p["w_layer"], p["w_word"], tok_mask)
            d_wl, d_ww = attention_backward(dU[:cache["lengths"][b], b], att)
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
            "config": {
                "variant": self.config.variant,
                "embed_dim": self.config.embed_dim,
                "enc1_hidden": self.config.enc1_hidden,
                "enc2_hidden": self.config.enc2_hidden,
                "decoder_hidden": self.config.decoder_hidden,
                "seed": self.config.seed,
            },
            "embeddings": self.embeddings.spec(),
            "params": {name: arr.tolist() for name, arr in self.params.items()},
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_record(), fh)

    @classmethod
    def from_record(cls, rec: dict) -> "SequenceClassifier":
        config = ModelConfig(**rec["config"])
        model = cls(config, embeddings=load_embeddings(rec["embeddings"]))
        for name, val in rec["params"].items():
            if name not in model.params:
                raise ModelError(f"unexpected parameter {name!r} in checkpoint")
            arr = np.asarray(val, dtype=float)
            if not np.isfinite(arr).all():
                raise ModelError(f"parameter {name!r} has non-finite entries")
            if arr.shape != model.params[name].shape:
                raise ModelError(f"parameter {name!r} has shape {arr.shape}, "
                                 f"expected {model.params[name].shape}")
            model.params[name] = arr
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
    with open(path, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    if rec.get("family") != "neural":
        raise ModelError(f"{path} is not a neural checkpoint")
    return SequenceClassifier.from_record(rec)

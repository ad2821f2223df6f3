"""Extra measurements of the traced run: kernel timings and the
length-growth probe.

Kernels are timed on inputs taken from the workload that exercises them:
the alignment kernels on text pairs from `long_asr`, the LSTM and attention
kernels at the sequence and utterance shapes of `context_train`. Each is
reported as a median per call in microseconds with its operation count.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import soapkit.align
import soapkit.project
from soapkit.align import fold_case
from soapkit.corpus import Rng, Transcript, TranscriptKind, render_reference
from soapkit.neural.model import EMBED_LAYERS, ModelConfig
from soapkit.neural.network import (
    attention_backward,
    attention_forward,
    init_lstm,
    lstm_backward,
    lstm_forward,
)
from soapkit.synth import CorruptionConfig, corrupt

# README noise, as in workloads.NOISE
NOISE = CorruptionConfig(char_sub_rate=0.03, char_del_rate=0.01,
                         char_ins_rate=0.01, turn_merge_rate=0.3)
LCS_CHARS = 1500
DP_CHARS = 300
PREFIX_UTTERANCES = 100


def _median_us(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def align_kernels(ref_text: str, asr_text: str) -> dict:
    """LCS and leaf DP on prefixes of one long_asr encounter pair."""
    ref, asr = fold_case(ref_text), fold_case(asr_text)
    a, b = ref[:LCS_CHARS], asr[:LCS_CHARS]
    c, d = ref[:DP_CHARS], asr[:DP_CHARS]
    return {
        "align.kernel.lcs_us": _median_us(lambda: soapkit.align.longest_common_substring(a, b), 7),
        "align.kernel.lcs_cells": len(a) * len(b),
        "align.kernel.dp_us": _median_us(lambda: soapkit.align.dp_align(c, d), 15),
        "align.kernel.dp_cells": len(c) * len(d),
    }


def neural_kernels(transcripts, seed: int) -> dict:
    """LSTM and attention forward/backward at the median sequence length
    (utterances per transcript) and median utterance length (real tokens)
    of a preprocessed corpus, with the default model dimensions. Counts
    are multiply-adds times two (flop) of the matrix products."""
    n = int(statistics.median(len(t.utterances) for t in transcripts))
    T = int(statistics.median(sum(1 for tok in u.tokens if tok) for t in transcripts
                              for u in t.utterances))
    cfg = ModelConfig()
    D, H, K = cfg.embed_dim, cfg.enc1_hidden, EMBED_LAYERS
    gen = np.random.default_rng(seed)
    p = init_lstm(gen, D, H)
    X = gen.standard_normal((n, D))
    dH = gen.standard_normal((n, H))
    _, cache = lstm_forward(X, p["W"], p["U"], p["b"])
    E = gen.standard_normal((T, K, D))
    wl, ww = gen.standard_normal(D), gen.standard_normal(D)
    _, att = attention_forward(E, wl, ww)
    du = gen.standard_normal(D)
    return {
        "neural.kernel.lstm_fwd_us": _median_us(lambda: lstm_forward(X, p["W"], p["U"], p["b"]), 51),
        "neural.kernel.lstm_bwd_us": _median_us(lambda: lstm_backward(dH, cache), 51),
        "neural.kernel.lstm_fwd_flop": 2 * n * 4 * H * (D + H),
        "neural.kernel.lstm_bwd_flop": 2 * n * 4 * H * 2 * (D + H),
        "neural.kernel.attn_fwd_us": _median_us(lambda: attention_forward(E, wl, ww), 201),
        "neural.kernel.attn_bwd_us": _median_us(lambda: attention_backward(du, att), 201),
        "neural.kernel.attn_fwd_flop": 4 * T * K * D + 4 * T * D,
        "neural.kernel.attn_bwd_flop": 4 * T * K * D + 6 * T * D,
    }


def growth(refs, full_align_s: float, full_project_s: float, seed: int) -> dict:
    """Length-growth exponents of alignment and projection:
    log(time ratio) / log(char ratio) between whole encounters (times from
    the traced pipeline) and their first PREFIX_UTTERANCES utterances,
    corrupted with the same noise. An exponent of 1 is linear growth."""
    align_s = project_s = 0.0
    full_chars = prefix_chars = 0
    for k, ref in enumerate(refs):
        prefix = Transcript(ref.encounter_id, TranscriptKind.REFERENCE,
                            ref.utterances[:PREFIX_UTTERANCES])
        asr, _ = corrupt(prefix, NOISE, Rng(seed + k))
        text = render_reference(prefix.utterances)[0]
        start = time.perf_counter()
        soapkit.align.align_transcripts(text, asr.text)
        align_s += time.perf_counter() - start
        start = time.perf_counter()
        soapkit.project.project_transcript(prefix, asr)
        project_s += time.perf_counter() - start
        full_chars += len(render_reference(ref.utterances)[0])
        prefix_chars += len(text)
    char_ratio = math.log(full_chars / prefix_chars)
    return {
        "align.growth_exp": math.log(full_align_s / align_s) / char_ratio,
        "project.growth_exp": math.log(full_project_s / project_s) / char_ratio,
    }

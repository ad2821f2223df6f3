"""Project reference speaker/section labels onto ASR output.

ASR utterances are rebuilt by splitting diarized turns at sentence-final
punctuation; each ASR word then inherits label mass from the reference
segment it aligned to, weighted by how cleanly it aligned; word vectors
are averaged per utterance and normalized into the final soft targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import AlignOp, CharAlignment, align_transcripts
from .corpus import (
    N_SOAP,
    N_SPEAKER,
    AsrRaw,
    LabelDistribution,
    Transcript,
    TranscriptKind,
    Utterance,
    pair_by_encounter,
    render_reference,
)


class ProjectionError(ValueError):
    pass


SENTENCE_END = ".?!"

# Abbreviations whose trailing period never ends a sentence.
ABBREVIATIONS = frozenset({"dr.", "mr.", "mrs.", "ms.", "mg.", "e.g.", "i.e."})


@dataclass
class WordLabelStats:
    """Label mass and alignment confidence for one ASR word."""

    span: tuple  # half-open char range in the ASR text
    soap: np.ndarray  # (5,) mass per section
    speaker: np.ndarray  # (4,) mass per speaker
    confidence: float


@dataclass
class AsrUtterance:
    """A sentence fragment recovered from a diarized turn."""

    turn_id: int
    span: tuple  # half-open char range in the ASR text (trimmed)
    text: str


def _trailing_token(text: str, lo: int, end: int) -> str:
    start = end
    while start > lo and not text[start - 1].isspace():
        start -= 1
    return text[start:end + 1].lower()


def reconstruct_utterances(asr_text: str, turns) -> list:
    """Split each diarized turn into sentences at '.', '?' or '!' followed
    by whitespace, guarding a small abbreviation list; empty fragments are
    dropped. Returned spans are trimmed of surrounding whitespace."""
    out = []
    for turn_id, (ts, te) in enumerate(turns):
        start = ts
        breaks = []
        for k in range(ts, te):
            c = asr_text[k]
            if c in SENTENCE_END and k + 1 < te and asr_text[k + 1].isspace():
                if c == "." and _trailing_token(asr_text, start, k) in ABBREVIATIONS:
                    continue
                breaks.append(k + 1)
                start = k + 1
        pieces = []
        lo = ts
        for b in breaks:
            pieces.append((lo, b))
            lo = b
        pieces.append((lo, te))
        for (fs, fe) in pieces:
            while fs < fe and asr_text[fs].isspace():
                fs += 1
            while fe > fs and asr_text[fe - 1].isspace():
                fe -= 1
            if fe > fs:
                out.append(AsrUtterance(
                    turn_id=turn_id,
                    span=(fs, fe),
                    text=asr_text[fs:fe],
                ))
    return out


def word_spans(text: str, lo: int, hi: int) -> list:
    """Maximal non-space runs of text[lo:hi], as absolute spans."""
    spans = []
    i = lo
    while i < hi:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < hi and not text[j].isspace():
            j += 1
        spans.append((i, j))
        i = j
    return spans


def char_label_table(transcript: Transcript) -> tuple:
    """Render a reference transcript and tag every char with its utterance's
    (section, speaker); separator spaces carry no label.

    Returns (text, labels) where labels[i] is (section_idx, speaker_idx) or
    None for whitespace.
    """
    if transcript.kind is not TranscriptKind.REFERENCE:
        raise ProjectionError("label projection needs a reference transcript")
    text, spans = render_reference(transcript.utterances)
    labels = [None] * len(text)
    for utt, (lo, hi) in zip(transcript.utterances, spans):
        pair = (utt.section.value, utt.speaker.value)
        for k in range(lo, hi):
            if not text[k].isspace():
                labels[k] = pair
    return text, labels


def asr_to_ref_map(alignment: CharAlignment) -> tuple:
    """Per-ASR-char arrays: aligned reference index (-1 for inserts) and
    whether the pair was an exact match."""
    ops = np.array(alignment.ops, dtype=np.int8)
    ref_idx = np.cumsum(ops != AlignOp.INSERT) - 1
    ref_idx[ops == AlignOp.INSERT] = -1
    on_asr = ops != AlignOp.DELETE
    return ref_idx[on_asr], (ops == AlignOp.MATCH)[on_asr]


def word_label_probs(char_map: tuple, ref_labels, spans) -> list:
    """Label mass per ASR word, given the (ref_idx, matched) arrays of
    `asr_to_ref_map` for the whole transcript.

    For each word, the aligned reference segment is the char range spanned
    by the word's matched/substituted chars. Per-class mass is the fraction
    of non-space segment chars labeled with that class, scaled by
    confidence = exactly-matched chars / max(word length, segment length).
    Words aligned to nothing get zero mass and zero confidence.
    """
    ref_idx, matched = char_map
    out = []
    for (ws, we) in spans:
        idx = ref_idx[ws:we]
        covered = idx >= 0
        soap = np.zeros(N_SOAP)
        speaker = np.zeros(N_SPEAKER)
        if not covered.any():
            out.append(WordLabelStats((ws, we), soap, speaker, 0.0))
            continue
        r_lo = int(idx[covered].min())
        r_hi = int(idx[covered].max()) + 1
        n_match = int(matched[ws:we].sum())
        conf = n_match / max(we - ws, r_hi - r_lo)
        seg = [ref_labels[k] for k in range(r_lo, r_hi)]
        labeled = [pair for pair in seg if pair is not None]
        if labeled:
            for sec, spk in labeled:
                soap[sec] += 1.0
                speaker[spk] += 1.0
            soap *= conf / len(labeled)
            speaker *= conf / len(labeled)
        out.append(WordLabelStats((ws, we), soap, speaker, conf))
    return out


def normalize_soap(content) -> np.ndarray:
    """Turn raw mass over the four content sections into a 5-way
    distribution; the none class absorbs the residual probability."""
    arr = np.asarray(content, dtype=float)
    if arr.shape != (N_SOAP - 1,):
        raise ProjectionError(f"expected {N_SOAP - 1} content-section masses, got shape {arr.shape}")
    if (arr < -1e-12).any():
        raise ProjectionError("content-section masses must be non-negative")
    s = float(arr.sum())
    if s > 1.0 + 1e-9:
        raise ProjectionError(f"content-section mass sums to {s!r} > 1")
    out = np.empty(N_SOAP)
    out[0] = max(0.0, 1.0 - s)
    out[1:] = np.clip(arr, 0.0, None)
    return out


def normalize_speaker(raw, mode: str = "l2") -> np.ndarray:
    """Normalize raw speaker mass to unit L2 norm (default) or unit sum.
    An all-zero vector becomes uniform."""
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (N_SPEAKER,):
        raise ProjectionError(f"expected {N_SPEAKER} speaker masses, got shape {arr.shape}")
    if (arr < -1e-12).any():
        raise ProjectionError("speaker masses must be non-negative")
    arr = np.clip(arr, 0.0, None)
    if mode == "l2":
        norm = float(np.linalg.norm(arr))
    elif mode == "l1":
        norm = float(arr.sum())
    else:
        raise ProjectionError(f"unknown speaker normalization mode {mode!r}")
    if norm == 0.0:
        return np.full(N_SPEAKER, 1.0 / N_SPEAKER)
    return arr / norm


def utterance_distributions(word_stats, speaker_mode: str = "l2") -> LabelDistribution:
    """Average the word-level mass vectors and normalize: the soap target
    puts the residual on none, the speaker vector is norm-normalized."""
    if not word_stats:
        raise ProjectionError("utterance has no words")
    soap_raw = np.mean([w.soap for w in word_stats], axis=0)
    spk_raw = np.mean([w.speaker for w in word_stats], axis=0)
    soap = normalize_soap(soap_raw[1:])
    speaker = normalize_speaker(spk_raw, mode=speaker_mode)
    return LabelDistribution(soap=tuple(soap), speaker=tuple(speaker))


def project_transcript(ref: Transcript, asr: AsrRaw, speaker_mode: str = "l2") -> Transcript:
    """Full projection for one encounter: align, rebuild ASR utterances,
    and attach per-utterance label distributions."""
    ref_text, ref_labels = char_label_table(ref)
    char_map = asr_to_ref_map(align_transcripts(ref_text, asr.text))
    new_utts = []
    for utt in reconstruct_utterances(asr.text, asr.turns):
        spans = word_spans(asr.text, utt.span[0], utt.span[1])
        word_stats = word_label_probs(char_map, ref_labels, spans)
        new_utts.append(Utterance(
            id=len(new_utts),
            text=utt.text,
            dist=utterance_distributions(word_stats, speaker_mode=speaker_mode),
        ))
    return Transcript(encounter_id=ref.encounter_id, kind=TranscriptKind.ASR, utterances=tuple(new_utts))


def project_corpus(refs, asr_records, speaker_mode: str = "l2", threads: int = 1) -> list:
    """Project every encounter; ASR records are matched to references by
    encounter_id. Result order follows the reference corpus order."""
    jobs, missing = pair_by_encounter(refs, asr_records)
    if missing:
        raise ProjectionError(f"no asr record for encounters: {', '.join(missing[:5])}")
    if threads <= 1:
        return [project_transcript(t, rec, speaker_mode=speaker_mode) for t, rec in jobs]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(project_transcript, t, rec, speaker_mode=speaker_mode) for t, rec in jobs]
        return [f.result() for f in futures]

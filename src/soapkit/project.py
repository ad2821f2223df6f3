"""Project reference speaker/section labels onto ASR output.

ASR utterances are rebuilt by splitting diarized turns at sentence-final
punctuation; each ASR word then inherits label mass from the reference
segment it aligned to, weighted by how cleanly it aligned; word vectors
are averaged per utterance and normalized into the final soft targets.

The alignment arrives as the op string of `align_transcripts`. Labels,
the word spans, the ASR-to-reference map and the word masses are
per-transcript arrays, and the word masses of a transcript come from one
vectorised pass over cumulative counts.
"""

from __future__ import annotations

import re

import numpy as np

from .align import _codes, align_transcripts
from .corpus import (
    N_SOAP,
    N_SPEAKER,
    AsrRaw,
    DataError,
    LabelDistribution,
    Transcript,
    TranscriptKind,
    Utterance,
    pair_by_encounter,
    render_reference,
)


SENTENCE_END = ".?!"

# Abbreviations whose trailing period never ends a sentence.
ABBREVIATIONS = frozenset({"dr.", "mr.", "mrs.", "ms.", "mg.", "e.g.", "i.e."})
_SENTENCE_BREAK = re.compile(rf"[{SENTENCE_END}](?=\s)")


def _trailing_token(text: str, lo: int, end: int) -> str:
    start = end
    while start > lo and not text[start - 1].isspace():
        start -= 1
    return text[start:end + 1].lower()


def reconstruct_utterances(asr_text: str, turns) -> list:
    """Split each diarized turn into sentences at '.', '?' or '!' followed
    by whitespace, guarding a small abbreviation list; empty fragments are
    dropped. Returns half-open (start, end) spans in the ASR text, trimmed
    of surrounding whitespace."""
    out = []
    for ts, te in turns:
        bounds = [ts]
        # re's \s is str.isspace; ending the scan at te keeps the lookahead in the turn
        for hit in _SENTENCE_BREAK.finditer(asr_text, ts, te):
            k = hit.start()
            if asr_text[k] == "." and _trailing_token(asr_text, bounds[-1], k) in ABBREVIATIONS:
                continue
            bounds.append(k + 1)
        bounds.append(te)
        for fs, fe in zip(bounds, bounds[1:]):
            frag = asr_text[fs:fe]
            body = frag.strip()
            if body:
                fs += len(frag) - len(frag.lstrip())
                out.append((fs, fs + len(body)))
    return out


def _space_mask(text: str) -> np.ndarray:
    """Per char of text: whether str.isspace holds for it."""
    return np.isin(_codes(text), [ord(c) for c in set(text) if c.isspace()])


def word_spans(text: str, utt_spans) -> tuple:
    """The words of each utterance: maximal runs of non-space chars inside
    its span. The spans must be sorted and disjoint, as
    `reconstruct_utterances` returns them. Returns (spans, counts): an
    (n_words, 2) intp array of absolute half-open spans in text order, and
    each utterance's word count."""
    bounds = np.asarray(utt_spans, dtype=np.intp).reshape(-1, 2)
    lo, hi = bounds[:, 0], bounds[:, 1]
    depth = np.zeros(len(text) + 1, dtype=np.int8)
    depth[lo] += 1
    depth[hi] -= 1
    # word[p + 1]: char p is a non-space char inside an utterance
    word = np.zeros(len(text) + 2, dtype=bool)
    word[1:-1] = np.cumsum(depth[:-1], dtype=np.int8) > 0
    word[1:-1] &= ~_space_mask(text)
    starts = word[1:] & ~word[:-1]
    ends = word[:-1] & ~word[1:]
    # two utterances that touch split a run at their shared edge
    starts[lo] |= word[lo + 1]
    ends[hi] |= word[hi]
    spans = np.stack([np.flatnonzero(starts), np.flatnonzero(ends)], axis=1)
    counts = np.searchsorted(spans[:, 0], hi) - np.searchsorted(spans[:, 0], lo)
    return spans, counts


def char_label_table(transcript: Transcript) -> tuple:
    """Render a reference transcript and tag every char with its utterance's
    section and speaker; whitespace, separators included, carries no label.

    Returns (text, (section, speaker)): two int8 arrays over the chars of
    text, -1 on whitespace.
    """
    if transcript.kind is not TranscriptKind.REFERENCE:
        raise DataError("label projection needs a reference transcript")
    text, spans = render_reference(transcript.utterances)
    section = np.full(len(text), -1, dtype=np.int8)
    speaker = np.full(len(text), -1, dtype=np.int8)
    for utt, (lo, hi) in zip(transcript.utterances, spans):
        section[lo:hi] = utt.section.value
        speaker[lo:hi] = utt.speaker.value
    space = _space_mask(text)
    section[space] = -1
    speaker[space] = -1
    return text, (section, speaker)


def asr_to_ref_map(ops: str) -> tuple:
    """Per-ASR-char arrays from an op string: aligned reference index (-1
    for inserts) and whether the pair was an exact match."""
    codes = np.frombuffer(ops.encode("ascii"), dtype=np.uint8)
    on_ref = codes != ord("I")
    ref_idx = np.cumsum(on_ref) - 1
    ref_idx[~on_ref] = -1
    on_asr = codes != ord("D")
    return ref_idx[on_asr], (codes == ord("M"))[on_asr]


def _prefix_counts(mask) -> np.ndarray:
    """out[k] = number of true entries in mask[:k], as int32."""
    out = np.zeros(len(mask) + 1, dtype=np.int32)
    np.cumsum(mask, out=out[1:])
    return out


def _segments(char_map: tuple, ws, we) -> tuple:
    """Which words have an aligned char, their reference segments
    [r_lo, r_hi) and their confidences."""
    ref_idx, matched = char_map
    covered = ref_idx >= 0
    cum_covered = _prefix_counts(covered)
    # covered reference indices rise along the ASR text, so a word's
    # segment runs from its first covered char to its last
    first, last = cum_covered[ws], cum_covered[we] - 1
    hit = np.flatnonzero(last >= first)
    ws, we = ws[hit], we[hit]
    cov_ref = ref_idx[covered]
    r_lo, r_hi = cov_ref[first[hit]], cov_ref[last[hit]] + 1
    cum_matched = _prefix_counts(matched)
    conf = (cum_matched[we] - cum_matched[ws]) / np.maximum(we - ws, r_hi - r_lo)
    return hit, r_lo, r_hi, conf


def _class_counts(labels, n_classes: int, r_lo, r_hi) -> np.ndarray:
    """(n, n_classes) int32 counts of each class among labels[r_lo:r_hi],
    one column of a cumulative one-hot table at a time."""
    counts = np.empty((len(r_lo), n_classes), dtype=np.int32)
    cum = np.zeros(len(labels) + 1, dtype=np.int32)
    for c in range(n_classes):
        np.cumsum(labels == c, out=cum[1:])
        np.subtract(cum[r_hi], cum[r_lo], out=counts[:, c])
    return counts


def word_label_probs(char_map: tuple, ref_labels: tuple, spans) -> tuple:
    """Label mass of every ASR word of a transcript, given the (ref_idx,
    matched) arrays of `asr_to_ref_map`, the (section, speaker) arrays of
    `char_label_table` and the words' spans in the ASR text.

    For each word, the aligned reference segment is the char range spanned
    by the word's matched/substituted chars. Per-class mass is the fraction
    of non-space segment chars labeled with that class, scaled by
    confidence = exactly-matched chars / max(word length, segment length).
    Words aligned to nothing get zero mass.

    Returns (soap (n_words, 5), speaker (n_words, 4)).
    """
    spans = np.asarray(spans, dtype=np.intp).reshape(-1, 2)
    hit, r_lo, r_hi, conf = _segments(char_map, spans[:, 0], spans[:, 1])
    section, speaker = ref_labels
    soap_counts = _class_counts(section, N_SOAP, r_lo, r_hi)
    speaker_counts = _class_counts(speaker, N_SPEAKER, r_lo, r_hi)
    n_labeled = soap_counts.sum(axis=1)
    scale = np.divide(conf, n_labeled, out=np.zeros(len(hit)), where=n_labeled > 0)[:, None]
    soap = np.zeros((len(spans), N_SOAP))
    soap[hit] = soap_counts * scale
    spk = np.zeros((len(spans), N_SPEAKER))
    spk[hit] = speaker_counts * scale
    return soap, spk


def normalize_soap(content) -> np.ndarray:
    """Turn non-negative content-section mass (one 4-vector, or one per row,
    at most 1 in sum) into a 5-way distribution; none absorbs the residual."""
    arr = np.asarray(content, dtype=float)
    s = arr.sum(axis=-1)
    return np.concatenate([np.maximum(0.0, 1.0 - s)[..., None], arr], axis=-1)


def normalize_speaker(raw) -> np.ndarray:
    """Normalize non-negative speaker mass (one vector, or one per row) to
    unit L2 norm. An all-zero vector becomes uniform."""
    arr = np.asarray(raw, dtype=float)
    rows = arr.reshape(-1, N_SPEAKER)
    # row by row: a batched norm sums the squares in another order
    norm = np.array([np.linalg.norm(r) for r in rows])
    out = rows / np.where(norm == 0.0, 1.0, norm)[:, None]
    out[norm == 0.0] = 1.0 / N_SPEAKER
    return out.reshape(arr.shape)


def _run_means(rows, counts) -> np.ndarray:
    """Mean of each run of counts[u] consecutive rows, summed in row order
    one word position at a time, as ndarray.mean(axis=0) sums a run
    (np.add.reduceat sums it in another order)."""
    starts = np.cumsum(counts) - counts
    sums = rows[starts]
    for w in range(1, int(counts.max(initial=0))):
        live = np.flatnonzero(counts > w)
        sums[live] += rows[starts[live] + w]
    return sums / counts[:, None]


def utterance_distributions(soap_rows, speaker_rows, counts) -> list:
    """Soft targets of a transcript's utterances, given its word masses in
    utterance order and each utterance's word count: each utterance's rows
    are averaged, then normalized as one array per transcript."""
    counts = np.asarray(counts, dtype=np.intp)
    if (counts == 0).any():
        raise DataError("utterance has no words")
    soap = normalize_soap(_run_means(soap_rows, counts)[:, 1:])
    speaker = normalize_speaker(_run_means(speaker_rows, counts))
    return [LabelDistribution(soap=tuple(s), speaker=tuple(p)) for s, p in zip(soap, speaker)]


def project_transcript(ref: Transcript, asr: AsrRaw) -> Transcript:
    """Full projection for one encounter: align, rebuild ASR utterances,
    and attach per-utterance label distributions."""
    ref_text, ref_labels = char_label_table(ref)
    char_map = asr_to_ref_map(align_transcripts(ref_text, asr.text))
    utt_spans = reconstruct_utterances(asr.text, asr.turns)
    spans, counts = word_spans(asr.text, utt_spans)
    soap, speaker = word_label_probs(char_map, ref_labels, spans)
    dists = utterance_distributions(soap, speaker, counts)
    new_utts = tuple(Utterance(id=u, text=asr.text[lo:hi], dist=dist)
                     for u, ((lo, hi), dist) in enumerate(zip(utt_spans, dists)))
    return Transcript(encounter_id=ref.encounter_id, kind=TranscriptKind.ASR, utterances=new_utts)


def project_corpus(refs, asr_records) -> list:
    """Project every encounter; ASR records are matched to references by
    encounter_id. Result order follows the reference corpus order."""
    return [project_transcript(t, rec)
            for t, rec in pair_by_encounter(refs, asr_records, "the ASR records")]

"""Synthetic clinical-conversation corpus with a controllable noise model.

Reference transcripts are sampled from small per-(section, speaker)
template vocabularies. An optional context rule makes a configurable
fraction of utterances section-ambiguous on their surface (generic
wording) with the true section copied from the local history, so context
models have something real to gain. The corruption model mimics an ASR
channel: character substitutions/deletions/insertions plus diarization
turn merges and splits.

Seeded outputs fix the draw order. Per utterance: speaker, context-rule
test (after the first), section unless the rule fired, the three word
counts, the three word samples, shuffle, punctuation. Per transcript: a
merge test per turn boundary; a split test per turn holding a space, then
its cut if it fires; per char the delete test, then (if kept) the
substitute test and its index, then the insert test and its index. Tests
are read from bulk draws, rewound before each index draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import (
    AsrRaw,
    DataError,
    Rng,
    SoapSection,
    SpeakerLabel,
    Transcript,
    TranscriptKind,
    Utterance,
    render_reference,
    write_jsonl,
)
from .project import SENTENCE_END

# Template vocabularies. The groups are deliberately disjoint so section
# and speaker signals stay analyzable; a test asserts disjointness.
FUNCTION_WORDS = (
    "the", "and", "so", "well", "you", "know", "that", "just",
    "it", "is", "to", "of", "was", "like",
)

SECTION_WORDS = {
    SoapSection.NONE: (
        "hello", "thanks", "weather", "okay", "sure", "right",
        "weekend", "game", "morning", "nice",
    ),
    SoapSection.SUBJECTIVE: (
        "pain", "dizzy", "headache", "nausea", "tired", "cough",
        "sleeping", "stomach", "chest", "worse",
    ),
    SoapSection.OBJECTIVE: (
        "pressure", "reading", "exam", "monitor", "result", "lab",
        "scan", "rate", "temperature", "bloodwork",
    ),
    SoapSection.ASSESSMENT: (
        "likely", "diagnosis", "consistent", "suggests", "migraine",
        "anxiety", "condition", "explains", "cause", "signs",
    ),
    SoapSection.PLAN: (
        "schedule", "follow", "weeks", "prescribe", "start", "dose",
        "increase", "appointment", "referral", "continue",
    ),
}

# Used instead of section words when the context rule fires: the section
# of such an utterance is not recoverable from its own words.
GENERIC_WORDS = (
    "mhm", "uh", "yeah", "listen", "talk", "here", "now", "look",
    "see", "think",
)

SPEAKER_WORDS = {
    SpeakerLabel.DOCTOR: ("recommend", "order", "review", "clinic", "chart"),
    SpeakerLabel.PATIENT: ("i", "my", "me", "feel", "been"),
    SpeakerLabel.CAREGIVER: ("mom", "dad", "husband", "wife", "home"),
    SpeakerLabel.OTHER: ("insurance", "front", "desk", "paperwork", "billing"),
}

# Table-style default marginals for the reference side.
DEFAULT_SOAP_MARGINALS = (0.63, 0.19, 0.02, 0.12, 0.04)
DEFAULT_SPEAKER_MARGINALS = (0.566, 0.383, 0.045, 0.006)

CORRUPTION_ALPHABET = "abcdefghijklmnopqrstuvwxyz "

# Doubles per bulk draw of tests (speed only): a run between index draws
TEST_BLOCK = 128


@dataclass(frozen=True)
class CorruptionConfig:
    char_sub_rate: float = 0.0
    char_del_rate: float = 0.0
    char_ins_rate: float = 0.0
    turn_merge_rate: float = 0.0
    turn_split_rate: float = 0.0

    def __post_init__(self):
        for name, v in vars(self).items():
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name} must be in [0, 1], got {v!r}")


@dataclass(frozen=True)
class SynthConfig:
    n_transcripts: int = 100
    min_utterances: int = 8
    max_utterances: int = 14
    soap_marginals: tuple = DEFAULT_SOAP_MARGINALS
    speaker_marginals: tuple = DEFAULT_SPEAKER_MARGINALS
    context_rule_strength: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_transcripts < 1:
            raise DataError("n_transcripts must be positive")
        if not 1 <= self.min_utterances <= self.max_utterances:
            raise DataError("bad utterance count range")
        for name, k in (("soap_marginals", 5), ("speaker_marginals", 4)):
            p = getattr(self, name)
            if len(p) != k or not all(0.0 <= v <= 1.0 for v in p) or abs(sum(p) - 1.0) > 1e-9:
                raise DataError(f"{name} must be {k} probabilities summing to 1")
        if not 0.0 <= self.context_rule_strength <= 1.0:
            raise DataError("context_rule_strength must be in [0, 1]")


def context_rule(history) -> SoapSection:
    """Fixed transition rule: copy the most recent section. A
    single-position copy preserves the target marginals exactly at any
    rule strength."""
    return history[-1]


def _make_utterance_text(gen, section, speaker, generic: bool) -> str:
    pools = (FUNCTION_WORDS, GENERIC_WORDS if generic else SECTION_WORDS[section],
             SPEAKER_WORDS[speaker])
    counts = [int(gen.integers(lo, hi)) for lo, hi in ((2, 4), (3, 5), (1, 3))]
    # an index sample draws what a sample of the word tuple itself would
    words = [pool[k] for pool, n in zip(pools, counts)
             for k in gen.choice(len(pool), size=n, replace=False)]
    gen.shuffle(words)
    text = " ".join(words)
    text = text[0].upper() + text[1:]
    punct = "." if gen.random() < 0.8 else "?"
    return text + punct


def _generate_transcript(encounter_id: str, cfg: SynthConfig, gen: np.random.Generator,
                         speaker_cdf, soap_cdf) -> Transcript:
    n = int(gen.integers(cfg.min_utterances, cfg.max_utterances + 1))
    utts = []
    history = []
    for i in range(n):
        speaker = SpeakerLabel(int(speaker_cdf.searchsorted(gen.random(), side="right")))
        fired = i > 0 and gen.random() < cfg.context_rule_strength
        if fired:
            section = context_rule(history)
        else:
            section = SoapSection(int(soap_cdf.searchsorted(gen.random(), side="right")))
        text = _make_utterance_text(gen, section, speaker, generic=fired)
        utts.append(Utterance(id=i, text=text, speaker=speaker, section=section))
        history.append(section)
    return Transcript(encounter_id=encounter_id, kind=TranscriptKind.REFERENCE, utterances=tuple(utts))


def generate_corpus(cfg: SynthConfig) -> list:
    """Deterministic corpus for a given config+seed; each transcript draws
    from its own split of the seed stream."""
    parts = Rng(cfg.seed).spawn(cfg.n_transcripts)
    # the tables `gen.choice(len(p), p=p)` would search its one double in
    cdfs = [c / c[-1] for c in (np.cumsum(p, dtype=float)
                                for p in (cfg.speaker_marginals, cfg.soap_marginals))]
    return [
        _generate_transcript(f"enc{i:05d}", cfg, parts[i], *cdfs)
        for i in range(cfg.n_transcripts)
    ]


@dataclass
class CorruptionStats:
    """Ground-truth corruption record for one encounter; positions index
    into the rendered reference text."""

    encounter_id: str
    n_sub: int = 0
    n_del: int = 0
    n_ins: int = 0
    sub_positions: list = field(default_factory=list)
    del_positions: list = field(default_factory=list)
    ins_after_positions: list = field(default_factory=list)
    dropped_punct_positions: list = field(default_factory=list)
    n_merges: int = 0
    n_splits: int = 0


def corrupt(transcript: Transcript, corruption: CorruptionConfig, gen: np.random.Generator) -> tuple:
    """Apply the ASR channel to one reference transcript.

    Returns (AsrRaw, CorruptionStats). With all rates zero the output text
    equals the rendered reference and turns equal the speaker grouping.

    A turn is a list of offsets into the rendered reference text; a run of
    same-speaker utterances starts as every offset of its span, separators
    included. A merge drops the sentence punctuation ending the left turn
    (a missed speaker change also loses the segmentation cue) and joins
    the turns at the separator before the right one, the space at its
    start - 1; a split moves a boundary to a random offset that holds a
    space. Character noise applies per char: delete, else maybe
    substitute, then maybe insert after.
    """
    stats = CorruptionStats(encounter_id=transcript.encounter_id)
    text, spans = render_reference(transcript.utterances)
    turns = []
    for i, (utt, (lo, hi)) in enumerate(zip(transcript.utterances, spans)):
        if i and utt.speaker == transcript.utterances[i - 1].speaker:
            turns[-1] = range(turns[-1].start, hi)
        else:
            turns.append(range(lo, hi))

    # turn merges: one test per original boundary, left to right
    merged = [list(turn) for turn in turns[:1]]
    for turn, u in zip(turns[1:], gen.random(len(turns[1:])).tolist()):
        if u < corruption.turn_merge_rate:
            left = merged[-1]
            if left and text[left[-1]] in SENTENCE_END:
                stats.dropped_punct_positions.append(left.pop())
            left.append(turn.start - 1)
            left.extend(turn)
            stats.n_merges += 1
        else:
            merged.append(list(turn))

    # Split and char-noise tests read `block[i]`. `block` starts `skipped`
    # doubles past `state`, where the generator stood before it was drawn.
    bits = gen.bit_generator
    state, skipped, block, i = bits.state, 0, [], 0

    def refill():
        nonlocal skipped, block, i
        skipped += i
        block, i = block[i:] + gen.random(TEST_BLOCK).tolist(), 0

    def index(n):
        """gen.integers(n) drawn where a draw per test would draw it."""
        nonlocal state, skipped, block, i
        bits.state = state
        gen.random(skipped + i)
        k = int(gen.integers(n))
        state, skipped, block, i = bits.state, 0, gen.random(TEST_BLOCK).tolist(), 0
        return k

    # turn splits. Offsets rise and skip only dropped punctuation, so a turn
    # holds a space iff the reference slice it spans does.
    split = []
    for turn in merged:
        if turn and " " in text[turn[0]:turn[-1] + 1]:
            if i == len(block):
                refill()
            i += 1
            if block[i - 1] < corruption.turn_split_rate:
                space_at = [k for k, o in enumerate(turn) if text[o] == " "]
                cut = space_at[index(len(space_at))]
                split += [turn[:cut], turn[cut + 1:]]
                stats.n_splits += 1
                continue
        split.append(turn)

    # character noise
    del_rate, sub_rate, ins_rate = (corruption.char_del_rate, corruption.char_sub_rate,
                                    corruption.char_ins_rate)
    out_texts = []
    for turn in split:
        out = []
        for o in turn:
            if i + 3 > len(block):
                refill()
            c = text[o]
            if block[i] < del_rate:
                i += 1
                stats.del_positions.append(o)
            else:
                i += 2
                if block[i - 1] < sub_rate:
                    pool = CORRUPTION_ALPHABET.replace(c, "")
                    c = pool[index(len(pool))]
                    stats.sub_positions.append(o)
                out.append(c)
            i += 1
            if block[i - 1] < ins_rate:
                out.append(CORRUPTION_ALPHABET[index(len(CORRUPTION_ALPHABET))])
                stats.ins_after_positions.append(o)
        out_texts.append("".join(out))
    # leave the generator after the last test read
    bits.state = state
    gen.random(skipped + i)
    stats.n_sub, stats.n_del, stats.n_ins = (
        len(stats.sub_positions), len(stats.del_positions), len(stats.ins_after_positions))

    asr_text = " ".join(out_texts)
    spans = []
    pos = 0
    for i, text in enumerate(out_texts):
        end = pos + len(text) + (1 if i < len(out_texts) - 1 else 0)
        spans.append((pos, end))
        pos = end
    return AsrRaw(encounter_id=transcript.encounter_id, text=asr_text, turns=tuple(spans)), stats


def corrupt_corpus(transcripts, corruption: CorruptionConfig, gen: np.random.Generator) -> tuple:
    """Corrupt every transcript with its own child of `gen`.
    Returns (asr_records, stats_list) in corpus order."""
    pairs = [corrupt(t, corruption, part)
             for t, part in zip(transcripts, gen.spawn(len(transcripts)))]
    return [rec for rec, _ in pairs], [st for _, st in pairs]


def write_sidecar(stats_list, path) -> None:
    # a dataclass instance's __dict__ holds its fields in declaration order
    write_jsonl(map(vars, stats_list), path)

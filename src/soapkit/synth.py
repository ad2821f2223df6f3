"""Synthetic clinical-conversation corpus with a controllable noise model.

Reference transcripts are sampled from small per-(section, speaker)
template vocabularies. An optional context rule makes a configurable
fraction of utterances section-ambiguous on their surface (generic
wording) with the true section copied from the local history, so context
models have something real to gain. The corruption model mimics an ASR
channel: character substitutions/deletions/insertions plus diarization
turn merges and splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import (
    AsrRaw,
    Rng,
    SoapSection,
    SpeakerLabel,
    Transcript,
    TranscriptKind,
    Utterance,
    render_reference,
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


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class CorruptionConfig:
    char_sub_rate: float = 0.0
    char_del_rate: float = 0.0
    char_ins_rate: float = 0.0
    turn_merge_rate: float = 0.0
    turn_split_rate: float = 0.0

    def __post_init__(self):
        for name in ("char_sub_rate", "char_del_rate", "char_ins_rate",
                     "turn_merge_rate", "turn_split_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SynthError(f"{name} must be in [0, 1], got {v!r}")


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
            raise SynthError("n_transcripts must be positive")
        if not 1 <= self.min_utterances <= self.max_utterances:
            raise SynthError("bad utterance count range")
        if len(self.soap_marginals) != 5 or abs(sum(self.soap_marginals) - 1.0) > 1e-9:
            raise SynthError("soap_marginals must be 5 probabilities summing to 1")
        if len(self.speaker_marginals) != 4 or abs(sum(self.speaker_marginals) - 1.0) > 1e-9:
            raise SynthError("speaker_marginals must be 4 probabilities summing to 1")
        if not 0.0 <= self.context_rule_strength <= 1.0:
            raise SynthError("context_rule_strength must be in [0, 1]")


def context_rule(history) -> SoapSection:
    """Fixed transition rule: copy the most recent section. A
    single-position copy preserves the target marginals exactly at any
    rule strength."""
    return history[-1]


def _make_utterance_text(gen, section, speaker, generic: bool) -> str:
    content_pool = GENERIC_WORDS if generic else SECTION_WORDS[section]
    n_func = int(gen.integers(2, 4))
    n_content = int(gen.integers(3, 5))
    n_spk = int(gen.integers(1, 3))
    words = list(gen.choice(FUNCTION_WORDS, size=n_func, replace=False))
    words += list(gen.choice(content_pool, size=n_content, replace=False))
    words += list(gen.choice(SPEAKER_WORDS[speaker], size=n_spk, replace=False))
    gen.shuffle(words)
    text = " ".join(words)
    text = text[0].upper() + text[1:]
    punct = "." if gen.random() < 0.8 else "?"
    return text + punct


def _generate_transcript(encounter_id: str, cfg: SynthConfig, rng: Rng) -> Transcript:
    gen = rng.generator
    n = int(gen.integers(cfg.min_utterances, cfg.max_utterances + 1))
    utts = []
    history = []
    for i in range(n):
        speaker = SpeakerLabel(int(gen.choice(4, p=cfg.speaker_marginals)))
        fired = i > 0 and gen.random() < cfg.context_rule_strength
        if fired:
            section = context_rule(history)
        else:
            section = SoapSection(int(gen.choice(5, p=cfg.soap_marginals)))
        text = _make_utterance_text(gen, section, speaker, generic=fired)
        utts.append(Utterance(id=i, text=text, speaker=speaker, section=section))
        history.append(section)
    return Transcript(encounter_id=encounter_id, kind=TranscriptKind.REFERENCE, utterances=tuple(utts))


def generate_corpus(cfg: SynthConfig) -> list:
    """Deterministic corpus for a given config+seed; each transcript draws
    from its own split of the seed stream."""
    rng = Rng(cfg.seed)
    parts = rng.split(cfg.n_transcripts)
    return [
        _generate_transcript(f"enc{i:05d}", cfg, parts[i])
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

    def to_record(self) -> dict:
        return {
            "encounter_id": self.encounter_id,
            "n_sub": self.n_sub,
            "n_del": self.n_del,
            "n_ins": self.n_ins,
            "sub_positions": self.sub_positions,
            "del_positions": self.del_positions,
            "ins_after_positions": self.ins_after_positions,
            "dropped_punct_positions": self.dropped_punct_positions,
            "n_merges": self.n_merges,
            "n_splits": self.n_splits,
        }


def _speaker_turn_streams(transcript: Transcript) -> list:
    """Group consecutive same-speaker utterances; each turn is a list of
    (char, origin_index) pairs over the rendered reference text."""
    text, spans = render_reference(transcript.utterances)
    turns = []
    current = None
    cur_speaker = None
    for utt, (lo, hi) in zip(transcript.utterances, spans):
        if current is not None and utt.speaker == cur_speaker:
            current.append((" ", lo - 1))  # separator space inside the turn
            current.extend((text[k], k) for k in range(lo, hi))
        else:
            if current is not None:
                turns.append(current)
            current = [(text[k], k) for k in range(lo, hi)]
            cur_speaker = utt.speaker
    if current is not None:
        turns.append(current)
    return turns


def corrupt(transcript: Transcript, corruption: CorruptionConfig, rng: Rng) -> tuple:
    """Apply the ASR channel to one reference transcript.

    Returns (AsrRaw, CorruptionStats). With all rates zero the output text
    equals the rendered reference and turns equal the speaker grouping.

    Turn merges drop the boundary and the sentence punctuation at the seam
    (a missed speaker change also loses the segmentation cue); splits move
    a boundary to a random internal whitespace. Character noise applies
    per char: delete, else maybe substitute, then maybe insert after.
    """
    gen = rng.generator
    stats = CorruptionStats(encounter_id=transcript.encounter_id)
    streams = _speaker_turn_streams(transcript)

    # turn merges: walk original boundaries left to right
    if streams:
        merged = [streams[0]]
        sep_origin = None
        for nxt in streams[1:]:
            left_end = merged[-1][-1][1] if merged[-1] else None
            if gen.random() < corruption.turn_merge_rate:
                left = merged[-1]
                if left and left[-1][0] in SENTENCE_END:
                    stats.dropped_punct_positions.append(left[-1][1])
                    left.pop()
                sep = left_end + 1 if left_end is not None else (nxt[0][1] - 1 if nxt else 0)
                left.append((" ", sep))
                left.extend(nxt)
                stats.n_merges += 1
            else:
                merged.append(nxt)
        streams = merged

    # turn splits: move one boundary into the middle of a turn
    split_streams = []
    for stream in streams:
        space_at = [k for k, (c, _) in enumerate(stream) if c == " "]
        if space_at and gen.random() < corruption.turn_split_rate:
            cut = int(gen.choice(space_at))
            split_streams.append(stream[:cut])
            split_streams.append(stream[cut + 1:])
            stats.n_splits += 1
        else:
            split_streams.append(stream)
    streams = split_streams

    # character noise
    out_texts = []
    for stream in streams:
        chars = []
        for c, origin in stream:
            if gen.random() < corruption.char_del_rate:
                stats.n_del += 1
                stats.del_positions.append(origin)
            else:
                if gen.random() < corruption.char_sub_rate:
                    pool = CORRUPTION_ALPHABET.replace(c, "")
                    c = pool[int(gen.integers(len(pool)))]
                    stats.n_sub += 1
                    stats.sub_positions.append(origin)
                chars.append(c)
            if gen.random() < corruption.char_ins_rate:
                chars.append(CORRUPTION_ALPHABET[int(gen.integers(len(CORRUPTION_ALPHABET)))])
                stats.n_ins += 1
                stats.ins_after_positions.append(origin)
        out_texts.append("".join(chars))

    asr_text = " ".join(out_texts)
    spans = []
    pos = 0
    for i, text in enumerate(out_texts):
        end = pos + len(text) + (1 if i < len(out_texts) - 1 else 0)
        spans.append((pos, end))
        pos = end
    return AsrRaw(encounter_id=transcript.encounter_id, text=asr_text, turns=tuple(spans)), stats


def corrupt_corpus(transcripts, corruption: CorruptionConfig, rng: Rng) -> tuple:
    """Corrupt every transcript with per-transcript seed splits.
    Returns (asr_records, stats_list) in corpus order."""
    parts = rng.split(len(transcripts))
    records = []
    stats = []
    for t, part in zip(transcripts, parts):
        rec, st = corrupt(t, corruption, part)
        records.append(rec)
        stats.append(st)
    return records, stats


def write_sidecar(stats_list, path) -> None:
    import json
    with open(path, "w", encoding="utf-8") as fh:
        for st in stats_list:
            fh.write(json.dumps(st.to_record()))
            fh.write("\n")

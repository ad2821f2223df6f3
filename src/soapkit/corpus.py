"""Domain types, corpus serialization, and seeded randomness.

Everything downstream (alignment, projection, training, evaluation) works
with the types defined here. Transcripts come in two kinds: reference
transcripts carry hard speaker/section labels per utterance, ASR
transcripts carry projected label distributions instead. Corpora are
stored as JSON Lines, one encounter per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

SOAP_STRINGS = ("none", "subjective", "objective", "assessment", "plan")
SPEAKER_STRINGS = ("doctor", "patient", "caregiver", "other")

N_SOAP = 5
N_SPEAKER = 4

DIST_TOLERANCE = 1e-9


class CorpusError(ValueError):
    """Raised on malformed corpus files or invalid record fields."""


class SoapSection(IntEnum):
    NONE = 0
    SUBJECTIVE = 1
    OBJECTIVE = 2
    ASSESSMENT = 3
    PLAN = 4

    def to_string(self) -> str:
        return SOAP_STRINGS[self.value]

    @classmethod
    def from_string(cls, s: str) -> "SoapSection":
        try:
            return cls(SOAP_STRINGS.index(s))
        except ValueError:
            raise CorpusError(f"unknown section label {s!r}") from None


class SpeakerLabel(IntEnum):
    DOCTOR = 0
    PATIENT = 1
    CAREGIVER = 2
    OTHER = 3

    def to_string(self) -> str:
        return SPEAKER_STRINGS[self.value]

    @classmethod
    def from_string(cls, s: str) -> "SpeakerLabel":
        try:
            return cls(SPEAKER_STRINGS.index(s))
        except ValueError:
            raise CorpusError(f"unknown speaker label {s!r}") from None


class TranscriptKind(Enum):
    REFERENCE = "reference"
    ASR = "asr"


@dataclass(frozen=True)
class LabelDistribution:
    """Per-utterance soft targets: a SOAP distribution and a speaker vector.

    The soap vector is a proper distribution (sums to 1). The speaker
    vector is non-negative but its sum depends on the normalization mode
    used to produce it (L2 by default), so only non-negativity is checked.
    Every entry must be finite.
    """

    soap: tuple
    speaker: tuple

    def __post_init__(self):
        try:
            soap = tuple(float(x) for x in self.soap)
            speaker = tuple(float(x) for x in self.speaker)
        except (TypeError, ValueError):
            raise CorpusError("label distributions must be lists of numbers") from None
        object.__setattr__(self, "soap", soap)
        object.__setattr__(self, "speaker", speaker)
        if len(soap) != N_SOAP:
            raise CorpusError(f"soap distribution must have {N_SOAP} entries, got {len(soap)}")
        if len(speaker) != N_SPEAKER:
            raise CorpusError(f"speaker vector must have {N_SPEAKER} entries, got {len(speaker)}")
        if not all(map(math.isfinite, soap + speaker)):
            raise CorpusError("label distribution entries must be finite")
        if any(x < -DIST_TOLERANCE for x in soap) or any(x < -DIST_TOLERANCE for x in speaker):
            raise CorpusError("label distribution entries must be non-negative")
        if abs(sum(soap) - 1.0) > DIST_TOLERANCE:
            raise CorpusError(f"soap distribution must sum to 1, got {sum(soap)!r}")


@dataclass(frozen=True)
class Utterance:
    id: int
    text: str
    speaker: SpeakerLabel | None = None
    section: SoapSection | None = None
    dist: LabelDistribution | None = None
    tokens: tuple | None = None


@dataclass(frozen=True)
class Transcript:
    encounter_id: str
    kind: TranscriptKind
    utterances: tuple

    def __post_init__(self):
        object.__setattr__(self, "utterances", tuple(self.utterances))
        for i, utt in enumerate(self.utterances):
            if utt.id != i:
                raise CorpusError(
                    f"encounter {self.encounter_id}: utterance ids must be dense "
                    f"ascending from 0, found id {utt.id} at position {i}"
                )
            if self.kind is TranscriptKind.REFERENCE:
                if utt.speaker is None or utt.section is None:
                    raise CorpusError(
                        f"encounter {self.encounter_id}: reference utterance {i} "
                        "is missing a speaker or section label"
                    )
            else:
                if utt.dist is None:
                    raise CorpusError(
                        f"encounter {self.encounter_id}: asr utterance {i} "
                        "is missing its label distribution"
                    )


def render_reference(utterances) -> tuple:
    """Render utterance texts into a single string joined by single spaces.

    Returns (text, spans) where spans[i] is the half-open char range of
    utterance i in the rendered text. This joining convention is shared by
    the projection side (label lookup) and the synthesizer (corruption
    input), so the zero-noise round trip is exact.
    """
    parts = []
    spans = []
    pos = 0
    for i, utt in enumerate(utterances):
        text = utt.text if hasattr(utt, "text") else utt
        if i > 0:
            pos += 1
        spans.append((pos, pos + len(text)))
        pos += len(text)
        parts.append(text)
    return " ".join(parts), spans


class Rng:
    """Deterministic splittable random source.

    Wraps numpy's PCG64 behind a SeedSequence so the same 64-bit seed
    yields bit-identical streams on every platform, and child generators
    can be split off deterministically for parallel work.
    """

    def __init__(self, seed: int, _seq=None):
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self.generator = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, n: int) -> list:
        return [Rng(self.seed, child) for child in self._seq.spawn(n)]


# --- corpus serialization ---


def _utterance_to_record(utt: Utterance, kind: TranscriptKind) -> dict:
    rec = {"id": utt.id}
    if kind is TranscriptKind.REFERENCE:
        rec["speaker"] = utt.speaker.to_string()
        rec["section"] = utt.section.to_string()
    else:
        rec["soap_dist"] = list(utt.dist.soap)
        rec["speaker_dist"] = list(utt.dist.speaker)
    rec["text"] = utt.text
    return rec


def _utterance_from_record(rec: dict, kind: TranscriptKind, where: str) -> Utterance:
    if not isinstance(rec, dict):
        raise CorpusError(f"{where}: utterance record must be an object")
    try:
        uid = int(rec["id"])
        text = rec["text"]
    except KeyError as e:
        raise CorpusError(f"{where}: utterance record missing field {e.args[0]!r}") from None
    except (TypeError, ValueError):
        raise CorpusError(f"{where}: field 'id' must be an integer") from None
    if not isinstance(text, str):
        raise CorpusError(f"{where}: field 'text' must be a string")
    if kind is TranscriptKind.REFERENCE:
        for name in ("speaker", "section"):
            if name not in rec:
                raise CorpusError(f"{where}: reference utterance missing field {name!r}")
        try:
            speaker = SpeakerLabel.from_string(rec["speaker"])
        except CorpusError as e:
            raise CorpusError(f"{where}: field 'speaker': {e}") from None
        try:
            section = SoapSection.from_string(rec["section"])
        except CorpusError as e:
            raise CorpusError(f"{where}: field 'section': {e}") from None
        return Utterance(id=uid, text=text, speaker=speaker, section=section)
    for name in ("soap_dist", "speaker_dist"):
        if name not in rec:
            raise CorpusError(f"{where}: asr utterance missing field {name!r}")
    try:
        dist = LabelDistribution(soap=rec["soap_dist"], speaker=rec["speaker_dist"])
    except CorpusError as e:
        raise CorpusError(f"{where}: {e}") from None
    return Utterance(id=uid, text=text, dist=dist)


def transcript_to_record(t: Transcript) -> dict:
    return {
        "encounter_id": t.encounter_id,
        "kind": t.kind.value,
        "utterances": [_utterance_to_record(u, t.kind) for u in t.utterances],
    }


def transcript_from_record(rec: dict, where: str = "record") -> Transcript:
    if not isinstance(rec, dict):
        raise CorpusError(f"{where}: encounter record must be an object")
    for name in ("encounter_id", "kind", "utterances"):
        if name not in rec:
            raise CorpusError(f"{where}: missing field {name!r}")
    kind_str = rec["kind"]
    try:
        kind = TranscriptKind(kind_str)
    except ValueError:
        raise CorpusError(f"{where}: field 'kind': unknown transcript kind {kind_str!r}") from None
    if not isinstance(rec["utterances"], list):
        raise CorpusError(f"{where}: field 'utterances' must be a list")
    utts = [
        _utterance_from_record(u, kind, where)
        for u in rec["utterances"]
    ]
    # ids are reindexed densely in file order
    utts = [
        Utterance(id=i, text=u.text, speaker=u.speaker, section=u.section, dist=u.dist)
        for i, u in enumerate(utts)
    ]
    return Transcript(encounter_id=str(rec["encounter_id"]), kind=kind, utterances=tuple(utts))


def write_corpus(transcripts, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in transcripts:
            fh.write(json.dumps(transcript_to_record(t)))
            fh.write("\n")


def read_jsonl(path, error=CorpusError):
    """Yield (where, record) for every non-blank line of a JSON Lines file,
    `where` being "path: line N". A line that is not a JSON object raises
    `error`."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise error(f"{where}: malformed JSON ({e.msg})") from None
            if not isinstance(rec, dict):
                raise error(f"{where}: record must be an object")
            yield where, rec


def read_corpus(path) -> list:
    return [transcript_from_record(rec, where) for where, rec in read_jsonl(path)]


# --- raw ASR output (pre-projection): text plus diarized turn spans ---


@dataclass(frozen=True)
class AsrRaw:
    """One encounter of raw ASR output: full text and diarized turn spans.

    Turn spans are half-open char ranges that tile the text.
    """

    encounter_id: str
    text: str
    turns: tuple

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise CorpusError(f"encounter {self.encounter_id}: field 'text' must be a string")
        try:
            turns = tuple((int(a), int(b)) for a, b in self.turns)
        except (TypeError, ValueError):
            raise CorpusError(f"encounter {self.encounter_id}: turn spans must be "
                              "[start, end] pairs of integers") from None
        object.__setattr__(self, "turns", turns)
        pos = 0
        for a, b in turns:
            if a != pos or b < a:
                raise CorpusError(
                    f"encounter {self.encounter_id}: turn spans must tile the text, "
                    f"got span ({a}, {b}) at position {pos}"
                )
            pos = b
        if pos != len(self.text):
            raise CorpusError(
                f"encounter {self.encounter_id}: turn spans cover {pos} chars "
                f"but text has {len(self.text)}"
            )


def pair_by_encounter(records, others) -> tuple:
    """Match each of `records` to the one of `others` with its
    encounter_id. Returns (pairs, missing): the (record, other) pairs in
    `records` order and the encounter ids with no match, in that order."""
    by_id = {o.encounter_id: o for o in others}
    pairs, missing = [], []
    for rec in records:
        other = by_id.get(rec.encounter_id)
        if other is None:
            missing.append(rec.encounter_id)
        else:
            pairs.append((rec, other))
    return pairs, missing


def write_asr_raw(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "encounter_id": rec.encounter_id,
                "text": rec.text,
                "turns": [list(t) for t in rec.turns],
            }))
            fh.write("\n")


def read_asr_raw(path) -> list:
    out = []
    for where, rec in read_jsonl(path):
        for name in ("encounter_id", "text", "turns"):
            if name not in rec:
                raise CorpusError(f"{where}: missing field {name!r}")
        try:
            out.append(AsrRaw(encounter_id=str(rec["encounter_id"]),
                              text=rec["text"], turns=rec["turns"]))
        except CorpusError as e:
            raise CorpusError(f"{where}: {e}") from None
    return out


def one_hot_targets(transcript: Transcript) -> tuple:
    """Per-utterance target arrays (speaker (N,4), soap (N,5)).

    Reference transcripts produce one-hot rows from their hard labels; ASR
    transcripts return their stored distributions with the speaker vector
    renormalized to sum 1 (projection stores it L2-normalized).
    """
    n = len(transcript.utterances)
    spk = np.zeros((n, N_SPEAKER))
    soap = np.zeros((n, N_SOAP))
    for i, utt in enumerate(transcript.utterances):
        if transcript.kind is TranscriptKind.REFERENCE:
            spk[i, utt.speaker.value] = 1.0
            soap[i, utt.section.value] = 1.0
        else:
            s = np.asarray(utt.dist.speaker, dtype=float)
            tot = s.sum()
            spk[i] = s / tot if tot > 0 else np.full(N_SPEAKER, 1.0 / N_SPEAKER)
            soap[i] = np.asarray(utt.dist.soap, dtype=float)
    return spk, soap


def gold_labels(transcript: Transcript, task: str) -> np.ndarray:
    """Hard labels for evaluation: stored labels for reference transcripts,
    argmax of the stored target distribution for ASR transcripts."""
    if task not in ("speaker", "soap"):
        raise ValueError(f"unknown task {task!r}")
    out = []
    for utt in transcript.utterances:
        if transcript.kind is TranscriptKind.REFERENCE:
            out.append(utt.speaker.value if task == "speaker" else utt.section.value)
        else:
            vec = utt.dist.speaker if task == "speaker" else utt.dist.soap
            out.append(int(np.argmax(vec)))
    return np.asarray(out, dtype=int)

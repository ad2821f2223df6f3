"""Domain types, corpus serialization, and seeded randomness.

Everything downstream (alignment, projection, training, evaluation) works
with the types defined here. Transcripts come in two kinds: reference
transcripts carry hard speaker/section labels per utterance, ASR
transcripts carry projected label distributions instead. Corpora are
stored as JSON Lines, one encounter per line.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

N_SOAP = 5
N_SPEAKER = 4

DIST_TOLERANCE = 1e-9


class DataError(ValueError):
    """soapkit's one error class (the CLI adds its own CliError): data that
    fails an invariant. The CLI exits 3 when reading an input raises one,
    and 4 for one raised later."""


def _json_typed(value, types):
    """`value` if it is of `types` and not a bool (JSON's true is no number), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError
    return value


class Label(IntEnum):
    """A hard label whose file form is its lowercased member name; `noun`
    names the label kind in errors."""

    def __init_subclass__(cls, noun: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.noun = noun

    def to_string(self) -> str:
        return self.name.lower()

    @classmethod
    def from_string(cls, s: str) -> "Label":
        member = cls.by_string.get(s) if isinstance(s, str) else None
        if member is None:
            raise DataError(f"unknown {cls.noun} label {s!r}")
        return member


class SoapSection(Label, noun="section"):
    NONE = 0
    SUBJECTIVE = 1
    OBJECTIVE = 2
    ASSESSMENT = 3
    PLAN = 4


class SpeakerLabel(Label, noun="speaker"):
    DOCTOR = 0
    PATIENT = 1
    CAREGIVER = 2
    OTHER = 3


# each kind's file forms, so that from_string is one lookup
SoapSection.by_string = {m.to_string(): m for m in SoapSection}
SpeakerLabel.by_string = {m.to_string(): m for m in SpeakerLabel}


class TranscriptKind(Enum):
    REFERENCE = "reference"
    ASR = "asr"


@dataclass(frozen=True)
class LabelDistribution:
    """Per-utterance soft targets: a SOAP distribution and a speaker vector.

    The soap vector is a proper distribution (sums to 1). The speaker
    vector is non-negative; projection stores it at unit L2 norm and
    `one_hot_targets` rescales it to sum 1, so only non-negativity is
    checked. Every entry must be finite.
    """

    soap: tuple
    speaker: tuple

    def __post_init__(self):
        try:
            soap = tuple(float(_json_typed(x, (int, float))) for x in self.soap)
            speaker = tuple(float(_json_typed(x, (int, float))) for x in self.speaker)
        except (TypeError, OverflowError):
            raise DataError("label distributions must be lists of numbers") from None
        object.__setattr__(self, "soap", soap)
        object.__setattr__(self, "speaker", speaker)
        if len(soap) != N_SOAP:
            raise DataError(f"soap distribution must have {N_SOAP} entries, got {len(soap)}")
        if len(speaker) != N_SPEAKER:
            raise DataError(f"speaker vector must have {N_SPEAKER} entries, got {len(speaker)}")
        if not all(map(math.isfinite, soap + speaker)):
            raise DataError("label distribution entries must be finite")
        if any(x < -DIST_TOLERANCE for x in soap) or any(x < -DIST_TOLERANCE for x in speaker):
            raise DataError("label distribution entries must be non-negative")
        if abs(sum(soap) - 1.0) > DIST_TOLERANCE:
            raise DataError(f"soap distribution must sum to 1, got {sum(soap)!r}")


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
                raise DataError(
                    f"encounter {self.encounter_id}: utterance ids must be dense "
                    f"ascending from 0, found id {utt.id} at position {i}"
                )
            if self.kind is TranscriptKind.REFERENCE:
                if utt.speaker is None or utt.section is None:
                    raise DataError(
                        f"encounter {self.encounter_id}: reference utterance {i} "
                        "is missing a speaker or section label"
                    )
            else:
                if utt.dist is None:
                    raise DataError(
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
    spans = []
    pos = 0
    for utt in utterances:
        spans.append((pos, pos + len(utt.text)))
        pos += len(utt.text) + 1
    return " ".join(utt.text for utt in utterances), spans


def Rng(seed: int) -> np.random.Generator:
    """The seeded stream: numpy's PCG64 behind a SeedSequence, bit-identical
    on every platform; `.spawn(n)` splits off n independent children."""
    return np.random.default_rng(seed)


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


def _utterance_from_record(rec: dict, kind: TranscriptKind, uid: int) -> Utterance:
    """Utterance `uid` of a transcript: the record's integer id is checked,
    then replaced by the dense position, so ids are reindexed in file order."""
    if not isinstance(rec, dict):
        raise DataError("utterance record must be an object")
    reference = kind is TranscriptKind.REFERENCE
    try:  # the kind's two label fields are `a` and `b`
        _json_typed(rec["id"], int)
        text = rec["text"]
        a, b = (rec["speaker"], rec["section"]) if reference else (rec["soap_dist"], rec["speaker_dist"])
    except KeyError as e:
        raise DataError(f"{kind.value} utterance missing field {e.args[0]!r}") from None
    except TypeError:
        raise DataError("field 'id' must be an integer") from None
    if not isinstance(text, str):
        raise DataError("field 'text' must be a string")
    if reference:
        return Utterance(id=uid, text=text, speaker=SpeakerLabel.from_string(a),
                         section=SoapSection.from_string(b))
    return Utterance(id=uid, text=text, dist=LabelDistribution(soap=a, speaker=b))


def transcript_to_record(t: Transcript) -> dict:
    return {
        "encounter_id": t.encounter_id,
        "kind": t.kind.value,
        "utterances": [_utterance_to_record(u, t.kind) for u in t.utterances],
    }


def encounter_fields(rec: dict, names: tuple) -> list:
    """A record's string encounter_id, then the values of `names`; else DataError."""
    try:
        return [_json_typed(rec["encounter_id"], str)] + [rec[name] for name in names]
    except KeyError as e:
        raise DataError(f"missing field {e.args[0]!r}") from None
    except TypeError:
        raise DataError("field 'encounter_id' must be a string") from None


def transcript_from_record(rec: dict) -> Transcript:
    encounter_id, kind_str, utts = encounter_fields(rec, ("kind", "utterances"))
    try:
        kind = TranscriptKind(kind_str)
    except ValueError:
        raise DataError(f"field 'kind': unknown transcript kind {kind_str!r}") from None
    if not isinstance(utts, list):
        raise DataError("field 'utterances' must be a list")
    return Transcript(encounter_id=encounter_id, kind=kind,
                      utterances=[_utterance_from_record(u, kind, i) for i, u in enumerate(utts)])


@contextlib.contextmanager
def atomic_output(path):
    """A text handle whose contents replace `path` when the block completes,
    through a sibling temporary file and `os.replace`. On any failure that
    file is removed and `path` is left as it was; an OS error names `path`."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            e.filename, e.filename2 = path, None
        raise


def write_jsonl(records, path) -> None:
    """Write each record as one line of JSON, all or nothing."""
    with atomic_output(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec))
            fh.write("\n")


def write_json(record, path) -> None:
    """Write one JSON object as the whole file, all or nothing."""
    with atomic_output(path) as fh:
        fh.write(json.dumps(record))


def write_corpus(transcripts, path) -> None:
    write_jsonl(map(transcript_to_record, transcripts), path)


def json_object(text: str) -> dict:
    """`text` parsed as JSON; malformed JSON (an integer over Python's digit
    limit and nesting past the recursion limit included), or a value that
    is not an object, raises DataError."""
    try:
        rec = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise DataError(f"malformed JSON ({getattr(e, 'msg', e)})") from None
    if not isinstance(rec, dict):
        raise DataError("not a JSON object")
    return rec


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 raise DataError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text "
                        f"(byte {e.object[e.start]:#04x} at offset {e.start})") from None


def _parsed(text: str, parse, where: str):
    """parse(json_object(text)); a DataError from either is raised again as
    "where: ..."."""
    try:
        return parse(json_object(text))
    except DataError as e:
        raise DataError(f"{where}: {e}") from None


def read_jsonl(path, parse) -> list:
    """[parse(record), ...] over the non-blank lines of a JSON Lines file,
    each line a JSON object; errors name "path: line N"."""
    lines = _read_text(path).split("\n")
    return [_parsed(line, parse, f"{path}: line {n}")
            for n, line in enumerate(lines, start=1) if line.strip()]


def read_json(path, parse):
    """parse(record) for a file that holds one JSON object; errors name the path."""
    return _parsed(_read_text(path), parse, path)


def read_corpus(path) -> list:
    return read_jsonl(path, transcript_from_record)


def checked_array(value, what: str, shape: tuple) -> np.ndarray:
    """A checkpoint value of JSON ints and floats as a finite float array
    of the given shape, else DataError naming `what`."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{what} is not an array of numbers") from None
    if arr.shape != shape:
        raise DataError(f"{what} has shape {arr.shape}, expected {shape}")
    # asarray reads "0.5" and true as numbers; one pass over the entries' types
    entries = value
    for _ in shape[1:]:
        entries = itertools.chain.from_iterable(entries)
    if not {int, float}.issuperset(map(type, entries)):
        raise DataError(f"{what} is not an array of numbers")
    if not np.isfinite(arr).all():
        raise DataError(f"{what} has non-finite entries")
    return arr


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
            raise DataError(f"encounter {self.encounter_id}: field 'text' must be a string")
        try:
            turns = tuple((_json_typed(a, int), _json_typed(b, int)) for a, b in self.turns)
        except (TypeError, ValueError):
            raise DataError(f"encounter {self.encounter_id}: turn spans must be "
                            "[start, end] pairs of integers") from None
        object.__setattr__(self, "turns", turns)
        pos = 0
        for a, b in turns:
            if a != pos or b < a:
                raise DataError(
                    f"encounter {self.encounter_id}: turn spans must tile the text, "
                    f"got span ({a}, {b}) at position {pos}"
                )
            pos = b
        if pos != len(self.text):
            raise DataError(
                f"encounter {self.encounter_id}: turn spans cover {pos} chars "
                f"but text has {len(self.text)}"
            )


def pair_by_encounter(records, others, others_name: str) -> list:
    """The (record, other) pairs, in `records` order, that match each of
    `records` to the one of `others` with its encounter_id; `others` with
    no matching record are left out. An encounter_id that repeats on
    either side, or a record with no match in `others` (named
    `others_name` in the error), raises DataError."""
    for side in (records, others):
        ids = [item.encounter_id for item in side]
        if len(set(ids)) < len(ids):
            raise DataError(f"encounter {next(i for i in ids if ids.count(i) > 1)!r} "
                            "appears more than once")
    by_id = {o.encounter_id: o for o in others}
    pairs = []
    for rec in records:
        if rec.encounter_id not in by_id:
            raise DataError(f"encounter {rec.encounter_id!r} has no match in {others_name}")
        pairs.append((rec, by_id[rec.encounter_id]))
    return pairs


def write_asr_raw(records, path) -> None:
    write_jsonl(({"encounter_id": rec.encounter_id, "text": rec.text,
                  "turns": [list(t) for t in rec.turns]} for rec in records), path)


def _asr_raw_from_record(rec: dict) -> AsrRaw:
    encounter_id, text, turns = encounter_fields(rec, ("text", "turns"))
    return AsrRaw(encounter_id=encounter_id, text=text, turns=turns)


def read_asr_raw(path) -> list:
    return read_jsonl(path, _asr_raw_from_record)


def one_hot_targets(transcript: Transcript) -> tuple:
    """Per-utterance target arrays (speaker (N,4), soap (N,5)).

    Reference transcripts produce one-hot rows from their hard labels; ASR
    transcripts return their stored distributions with the speaker vector
    rescaled to sum 1 (projection stores it at unit L2 norm).
    """
    utts = transcript.utterances
    if transcript.kind is TranscriptKind.REFERENCE:
        return (np.eye(N_SPEAKER)[[u.speaker for u in utts]],
                np.eye(N_SOAP)[[u.section for u in utts]])
    spk = np.array([u.dist.speaker for u in utts]).reshape(-1, N_SPEAKER)
    tot = spk.sum(axis=1, keepdims=True)
    spk = np.divide(spk, tot, out=np.full_like(spk, 1.0 / N_SPEAKER), where=tot > 0)
    return spk, np.array([u.dist.soap for u in utts]).reshape(-1, N_SOAP)


ABSENT_MASS = 1e-300  # a class of at most this total mass is absent; 1/mass could be inf


def inverse_frequency_weights(targets: np.ndarray) -> np.ndarray:
    """Per-class weights proportional to inverse expected class frequency,
    normalized so present classes have mean weight 1; absent classes (mass
    at most ABSENT_MASS) get 1."""
    counts = np.asarray(targets, dtype=float).sum(axis=0)
    present = counts > ABSENT_MASS
    w = np.ones_like(counts)
    if present.any():
        inv = np.zeros_like(counts)
        inv[present] = 1.0 / counts[present]
        w[present] = inv[present] / inv[present].mean()
    return w


def gold_labels(transcript: Transcript, task: str) -> np.ndarray:
    """Hard labels for evaluation: stored labels for reference transcripts,
    argmax of the stored target distribution for ASR transcripts."""
    if task not in ("speaker", "soap"):
        raise DataError(f"unknown task {task!r}")
    speaker, utts = task == "speaker", transcript.utterances
    if transcript.kind is TranscriptKind.REFERENCE:
        return np.array([u.speaker if speaker else u.section for u in utts], dtype=int)
    vecs = np.array([u.dist.speaker if speaker else u.dist.soap for u in utts])
    return vecs.reshape(-1, N_SPEAKER if speaker else N_SOAP).argmax(axis=1)

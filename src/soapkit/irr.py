"""Inter-rater agreement between two sets of SOAP notes.

Notes are compared observation by observation within matching subsections
using an overlap score (Jaccard of cited evidence plus Jaccard of tags),
borrowing the substitution/insertion/deletion framing from ASR error
analysis. A second view scores utterance-level agreement per section,
treating the reference annotator as gold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import (N_SOAP, DataError, SoapSection, encounter_fields, pair_by_encounter,
                     read_jsonl, write_jsonl)
from .metrics import confusion_and_f1

# Fixed subsection taxonomy; every observation must use one of these.
SUBSECTION_SECTIONS = {
    "chief_complaint": SoapSection.SUBJECTIVE,
    "review_of_systems": SoapSection.SUBJECTIVE,
    "past_medical_history": SoapSection.SUBJECTIVE,
    "vitals": SoapSection.OBJECTIVE,
    "physical_exam": SoapSection.OBJECTIVE,
    "lab_results": SoapSection.OBJECTIVE,
    "differential": SoapSection.ASSESSMENT,
    "impression": SoapSection.ASSESSMENT,
    "medications": SoapSection.PLAN,
    "follow_up": SoapSection.PLAN,
    "referrals": SoapSection.PLAN,
}


@dataclass(frozen=True)
class Observation:
    """One note line: a summary sentence, its tags, and the utterance ids
    cited as evidence."""

    subsection: str
    summary: str
    tags: frozenset
    evidence: frozenset

    def __post_init__(self):
        object.__setattr__(self, "tags", frozenset(self.tags))
        object.__setattr__(self, "evidence", frozenset(int(e) for e in self.evidence))
        if self.subsection not in SUBSECTION_SECTIONS:
            raise DataError(f"unknown subsection {self.subsection!r}")
        if not self.evidence:
            raise DataError("observation must cite at least one evidence utterance")

    @property
    def section(self) -> SoapSection:
        return SUBSECTION_SECTIONS[self.subsection]


@dataclass(frozen=True)
class SoapNote:
    encounter_id: str
    observations: tuple

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))


class NoteCategory(Enum):
    IDENTICAL = "identical"
    SUBSTITUTION = "substitution"
    INSERTION = "insertion"


def jaccard(a, b) -> float:
    """|a & b| / |a | b|; two empty sets count as zero overlap."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def overlap_score(a: Observation, b: Observation) -> float:
    return jaccard(a.evidence, b.evidence) + jaccard(a.tags, b.tags)


def _exact_match(a: Observation, b: Observation) -> bool:
    return (a.tags == b.tags and a.evidence == b.evidence
            and a.summary.split() == b.summary.split())


@dataclass
class NoteMapping:
    """Per source observation: its category, the matched reference index
    (None for insertions), and the overlap parts. Deletions list reference
    observations with zero overlap against every source observation."""

    entries: list  # (category, ref_index | None, evidence_jaccard, tag_jaccard)
    deletions: list  # reference indices

    def count(self, category: NoteCategory) -> int:
        return sum(1 for e in self.entries if e[0] is category)


def map_notes(source: SoapNote, reference: SoapNote) -> NoteMapping:
    """Greedy best-overlap matching of source observations onto reference
    observations within the same subsection (many-to-one allowed).

    A source observation with zero overlap against every same-subsection
    reference observation is an insertion; a matched observation is
    identical when tags, whitespace-normalized summary, and evidence all
    agree exactly, else a substitution. Ties in overlap go to the lower
    reference index. A reference observation with zero overlap against
    every same-subsection source observation is a deletion (the mirror of
    insertion, so swapping roles swaps the two counts).
    """
    refs = reference.observations
    table = [[overlap_score(obs, ref) if ref.subsection == obs.subsection else 0.0
              for ref in refs] for obs in source.observations]
    entries = []
    for obs, row in zip(source.observations, table):
        best = max(row, default=0.0)
        if best == 0.0:
            entries.append((NoteCategory.INSERTION, None, 0.0, 0.0))
            continue
        j = row.index(best)
        category = NoteCategory.IDENTICAL if _exact_match(obs, refs[j]) else NoteCategory.SUBSTITUTION
        entries.append((category, j, jaccard(obs.evidence, refs[j].evidence),
                        jaccard(obs.tags, refs[j].tags)))
    deletions = [j for j in range(len(refs)) if not any(row[j] for row in table)]
    return NoteMapping(entries=entries, deletions=deletions)


# --- aggregate report ---


@dataclass
class SectionAgreement:
    accuracy: float
    f1: float
    prevalence: float
    p_pos_given_pos: float
    p_pos_given_neg: float


@dataclass
class IrrReport:
    n_pairs: int
    # fractions: identical/substitution/insertion over source observation
    # count, deletion over reference observation count; (mean, variance)
    # across pairs
    identical: tuple
    substitution: tuple
    insertion: tuple
    deletion: tuple
    evidence_overlap: tuple  # over substitutions; pairs without any are skipped
    tag_overlap: tuple
    sections: dict  # SoapSection -> SectionAgreement (content sections + NONE)
    all_accuracy: float
    all_macro_f1: float


def _mean_var(values) -> tuple:
    if not values:
        return (float("nan"), float("nan"))
    arr = np.asarray(values, dtype=float)
    return (float(arr.mean()), float(arr.var()))


def _utterance_sections(note: SoapNote, n_utterances: int) -> np.ndarray:
    """Per-utterance section id under one annotator: the section of the
    first observation citing the utterance, NONE when uncited."""
    out = np.zeros(n_utterances, dtype=int)
    seen = np.zeros(n_utterances, dtype=bool)
    for obs in note.observations:
        for e in sorted(obs.evidence):
            if e >= n_utterances or e < 0:
                raise DataError(
                    f"encounter {note.encounter_id}: evidence id {e} outside "
                    f"transcript with {n_utterances} utterances")
            if not seen[e]:
                seen[e] = True
                out[e] = obs.section.value
    return out


def irr_report(notes_a, notes_b, transcripts) -> IrrReport:
    """Aggregate agreement of source notes `notes_a` against reference
    notes `notes_b`, which must cover the same encounters.

    `transcripts` supplies the utterance universe of each noted encounter
    for the utterance-level view, where the reference annotator is treated
    as gold; transcripts of other encounters are ignored.
    """
    pairs = pair_by_encounter(notes_a, notes_b, "notes_b")
    pair_by_encounter(notes_b, notes_a, "notes_a")  # refuses a note only in notes_b
    if not pairs:
        raise DataError("no note pairs to compare")
    frac = {name: [] for name in ("identical", "substitution", "insertion", "deletion")}
    ev_overlaps = []
    tag_overlaps = []
    src_all = []
    ref_all = []
    for (source, reference), (_, transcript) in zip(
            pairs, pair_by_encounter(notes_a, transcripts, "transcripts")):
        n_src = len(source.observations)
        n_ref = len(reference.observations)
        if n_src == 0 or n_ref == 0:
            raise DataError(f"encounter {source.encounter_id!r}: empty note")
        mapping = map_notes(source, reference)
        for category in NoteCategory:  # its values name the fractions
            frac[category.value].append(mapping.count(category) / n_src)
        frac["deletion"].append(len(mapping.deletions) / n_ref)
        subs = [e for e in mapping.entries if e[0] is NoteCategory.SUBSTITUTION]
        if subs:
            ev_overlaps.append(float(np.mean([e[2] for e in subs])))
            tag_overlaps.append(float(np.mean([e[3] for e in subs])))
        n_utt = len(transcript.utterances)
        src_all.append(_utterance_sections(source, n_utt))
        ref_all.append(_utterance_sections(reference, n_utt))
    y_src = np.concatenate(src_all)
    y_ref = np.concatenate(ref_all)

    scores = confusion_and_f1(y_src, y_ref, N_SOAP)
    sections = {}
    for section in SoapSection:
        s1 = y_src == section.value
        s2 = y_ref == section.value
        acc = float((s1 == s2).mean())
        prevalence = float((s1.mean() + s2.mean()) / 2.0)
        n_pos = int(s2.sum())
        n_neg = s2.size - n_pos
        p_pos_pos = float((s1 & s2).sum() / n_pos) if n_pos else float("nan")
        p_pos_neg = float((s1 & ~s2).sum() / n_neg) if n_neg else float("nan")
        sections[section] = SectionAgreement(
            accuracy=acc, f1=scores["per_class_f1"][section.value], prevalence=prevalence,
            p_pos_given_pos=p_pos_pos, p_pos_given_neg=p_pos_neg)
    return IrrReport(
        n_pairs=len(pairs),
        **{name: _mean_var(values) for name, values in frac.items()},
        evidence_overlap=_mean_var(ev_overlaps),
        tag_overlap=_mean_var(tag_overlaps),
        sections=sections,
        all_accuracy=scores["accuracy"],
        all_macro_f1=scores["macro_f1"],
    )


# --- note file io ---


def write_notes(notes, path) -> None:
    write_jsonl(({"encounter_id": note.encounter_id, "observations": [
        {"subsection": o.subsection, "summary": o.summary,
         "tags": sorted(o.tags), "evidence": sorted(o.evidence)}
        for o in note.observations]} for note in notes), path)


def _observation_from_record(o) -> Observation:
    if not isinstance(o, dict):
        raise DataError("observation must be an object")
    subsection, summary = o.get("subsection"), o.get("summary")
    tags, evidence = o.get("tags", []), o.get("evidence")
    if not (isinstance(subsection, str) and isinstance(summary, str)
            and isinstance(tags, list) and all(isinstance(t, str) for t in tags)
            and isinstance(evidence, list) and all(type(e) is int for e in evidence)):
        raise DataError("an observation needs a string subsection and summary, "
                        "a list of string tags and a list of integer evidence ids")
    return Observation(subsection, summary, frozenset(tags), frozenset(evidence))


def _note_from_record(rec: dict) -> SoapNote:
    encounter_id, observations = encounter_fields(rec, ("observations",))
    if not isinstance(observations, list):
        raise DataError("field 'observations' must be a list")
    return SoapNote(encounter_id=encounter_id,
                    observations=tuple(map(_observation_from_record, observations)))


def read_notes(path) -> list:
    return read_jsonl(path, _note_from_record)


def format_report(report: IrrReport) -> str:
    """Plain-text tables: note-level fractions (means and variances) and
    utterance-level per-section agreement."""
    lines = []
    lines.append(f"note-level agreement over {report.n_pairs} pairs")
    lines.append(f"{'':14s} {'identical':>10s} {'deletions':>10s} {'insertions':>11s} "
                 f"{'substitutions':>14s} {'evid overlap':>13s} {'tag overlap':>12s}")
    for row, idx in (("mean", 0), ("variance", 1)):
        lines.append(
            f"{row:14s} {report.identical[idx]:10.4f} {report.deletion[idx]:10.4f} "
            f"{report.insertion[idx]:11.4f} {report.substitution[idx]:14.4f} "
            f"{report.evidence_overlap[idx]:13.4f} {report.tag_overlap[idx]:12.4f}")
    lines.append("")
    lines.append("utterance-level agreement (reference annotator as gold)")
    lines.append(f"{'section':14s} {'accuracy':>9s} {'f1':>7s} {'prevalence':>11s} "
                 f"{'P(1|1)':>8s} {'P(1|0)':>8s}")
    for section, agg in report.sections.items():
        lines.append(
            f"{section.to_string():14s} {agg.accuracy:9.4f} {agg.f1:7.4f} "
            f"{agg.prevalence:11.4f} {agg.p_pos_given_pos:8.4f} {agg.p_pos_given_neg:8.4f}")
    lines.append(f"{'all sections':14s} {report.all_accuracy:9.4f} {report.all_macro_f1:7.4f}")
    return "\n".join(lines)

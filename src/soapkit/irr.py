"""Inter-rater agreement between two sets of SOAP notes.

Notes are compared observation by observation within matching subsections
using an overlap score (Jaccard of cited evidence plus Jaccard of tags),
borrowing the substitution/insertion/deletion framing from ASR error
analysis. A second view scores utterance-level agreement per section,
treating the reference annotator as gold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import N_SOAP, SoapSection, read_jsonl

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


class IrrError(ValueError):
    pass


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
            raise IrrError(f"unknown subsection {self.subsection!r}")
        if not self.evidence:
            raise IrrError("observation must cite at least one evidence utterance")

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


def _normalize_summary(s: str) -> str:
    return " ".join(s.split())


def _exact_match(a: Observation, b: Observation) -> bool:
    return (a.tags == b.tags and a.evidence == b.evidence
            and _normalize_summary(a.summary) == _normalize_summary(b.summary))


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
    entries = []
    for obs in source.observations:
        best_score = 0.0
        best_idx = None
        for j, ref in enumerate(reference.observations):
            if ref.subsection != obs.subsection:
                continue
            score = overlap_score(obs, ref)
            if score > best_score:
                best_score = score
                best_idx = j
        if best_idx is None:
            entries.append((NoteCategory.INSERTION, None, 0.0, 0.0))
            continue
        ref = reference.observations[best_idx]
        category = NoteCategory.IDENTICAL if _exact_match(obs, ref) else NoteCategory.SUBSTITUTION
        entries.append((category, best_idx,
                        jaccard(obs.evidence, ref.evidence),
                        jaccard(obs.tags, ref.tags)))
    deletions = []
    for j, ref in enumerate(reference.observations):
        if all(overlap_score(obs, ref) == 0.0
               for obs in source.observations
               if obs.subsection == ref.subsection):
            deletions.append(j)
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
                raise IrrError(
                    f"encounter {note.encounter_id}: evidence id {e} outside "
                    f"transcript with {n_utterances} utterances")
            if not seen[e]:
                seen[e] = True
                out[e] = obs.section.value
    return out


def irr_report(pairs, transcripts) -> IrrReport:
    """Aggregate agreement over (source_note, reference_note) pairs.

    `transcripts` supplies the utterance universe per encounter (matched
    by encounter_id) for the utterance-level view, where the reference
    annotator is treated as gold.
    """
    pairs = list(pairs)
    if not pairs:
        raise IrrError("no note pairs to compare")
    by_id = {}
    for t in transcripts:
        by_id[t.encounter_id] = len(t.utterances)
    frac = {"identical": [], "substitution": [], "insertion": [], "deletion": []}
    ev_overlaps = []
    tag_overlaps = []
    src_all = []
    ref_all = []
    for source, reference in pairs:
        if source.encounter_id != reference.encounter_id:
            raise IrrError(
                f"pair encounter ids disagree: {source.encounter_id!r} vs "
                f"{reference.encounter_id!r}")
        if source.encounter_id not in by_id:
            raise IrrError(f"no transcript for encounter {source.encounter_id!r}")
        n_src = len(source.observations)
        n_ref = len(reference.observations)
        if n_src == 0 or n_ref == 0:
            raise IrrError(f"encounter {source.encounter_id!r}: empty note")
        mapping = map_notes(source, reference)
        frac["identical"].append(mapping.count(NoteCategory.IDENTICAL) / n_src)
        frac["substitution"].append(mapping.count(NoteCategory.SUBSTITUTION) / n_src)
        frac["insertion"].append(mapping.count(NoteCategory.INSERTION) / n_src)
        frac["deletion"].append(len(mapping.deletions) / n_ref)
        subs = [e for e in mapping.entries if e[0] is NoteCategory.SUBSTITUTION]
        if subs:
            ev_overlaps.append(float(np.mean([e[2] for e in subs])))
            tag_overlaps.append(float(np.mean([e[3] for e in subs])))
        n_utt = by_id[source.encounter_id]
        src_all.append(_utterance_sections(source, n_utt))
        ref_all.append(_utterance_sections(reference, n_utt))
    y_src = np.concatenate(src_all)
    y_ref = np.concatenate(ref_all)

    sections = {}
    for section in SoapSection:
        s1 = y_src == section.value
        s2 = y_ref == section.value
        acc = float((s1 == s2).mean())
        tp = float((s1 & s2).sum())
        denom = float(s1.sum() + s2.sum())
        f1 = 2.0 * tp / denom if denom > 0 else 0.0
        prevalence = float((s1.mean() + s2.mean()) / 2.0)
        n_pos = int(s2.sum())
        n_neg = s2.size - n_pos
        p_pos_pos = float((s1 & s2).sum() / n_pos) if n_pos else float("nan")
        p_pos_neg = float((s1 & ~s2).sum() / n_neg) if n_neg else float("nan")
        sections[section] = SectionAgreement(
            accuracy=acc, f1=f1, prevalence=prevalence,
            p_pos_given_pos=p_pos_pos, p_pos_given_neg=p_pos_neg)

    all_accuracy = float((y_src == y_ref).mean())
    f1s = []
    for c in range(N_SOAP):
        tp = float(((y_src == c) & (y_ref == c)).sum())
        denom = float((y_src == c).sum() + (y_ref == c).sum())
        f1s.append(2.0 * tp / denom if denom > 0 else 0.0)
    return IrrReport(
        n_pairs=len(pairs),
        identical=_mean_var(frac["identical"]),
        substitution=_mean_var(frac["substitution"]),
        insertion=_mean_var(frac["insertion"]),
        deletion=_mean_var(frac["deletion"]),
        evidence_overlap=_mean_var(ev_overlaps),
        tag_overlap=_mean_var(tag_overlaps),
        sections=sections,
        all_accuracy=all_accuracy,
        all_macro_f1=float(np.mean(f1s)),
    )


# --- note file io ---


def write_notes(notes, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for note in notes:
            fh.write(json.dumps({
                "encounter_id": note.encounter_id,
                "observations": [
                    {"subsection": o.subsection, "summary": o.summary,
                     "tags": sorted(o.tags), "evidence": sorted(o.evidence)}
                    for o in note.observations
                ],
            }))
            fh.write("\n")


def _observation_from_record(o) -> Observation:
    if not isinstance(o, dict):
        raise IrrError("observation must be an object")
    subsection, summary = o.get("subsection"), o.get("summary")
    tags, evidence = o.get("tags", []), o.get("evidence")
    if not (isinstance(subsection, str) and isinstance(summary, str)
            and isinstance(tags, list) and all(isinstance(t, str) for t in tags)
            and isinstance(evidence, list) and all(type(e) is int for e in evidence)):
        raise IrrError("an observation needs a string subsection and summary, "
                       "a list of string tags and a list of integer evidence ids")
    return Observation(subsection, summary, frozenset(tags), frozenset(evidence))


def read_notes(path) -> list:
    out = []
    for where, rec in read_jsonl(path, IrrError):
        for name in ("encounter_id", "observations"):
            if name not in rec:
                raise IrrError(f"{where}: missing field {name!r}")
        if not isinstance(rec["observations"], list):
            raise IrrError(f"{where}: field 'observations' must be a list")
        try:
            obs = tuple(_observation_from_record(o) for o in rec["observations"])
        except IrrError as e:
            raise IrrError(f"{where}: {e}") from None
        out.append(SoapNote(encounter_id=str(rec["encounter_id"]), observations=obs))
    return out


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

import math

import numpy as np
import pytest

from oracles import irr_map_oracle, population_mean_var

from soapkit.corpus import DataError, SoapSection, SpeakerLabel, Transcript, TranscriptKind, Utterance
from soapkit.irr import (
    NoteCategory,
    Observation,
    SoapNote,
    format_report,
    irr_report,
    jaccard,
    map_notes,
    overlap_score,
    read_notes,
    write_notes,
)


def obs(subsection="medications", summary="take two daily", tags=("rx",), evidence=(0,)):
    return Observation(subsection=subsection, summary=summary,
                       tags=frozenset(tags), evidence=frozenset(evidence))


def toy_transcript(encounter_id, n):
    return Transcript(encounter_id, TranscriptKind.REFERENCE, tuple(
        Utterance(id=i, text=f"utterance {i}.", speaker=SpeakerLabel.DOCTOR,
                  section=SoapSection.NONE)
        for i in range(n)))


class TestPrimitives:
    def test_jaccard(self):
        assert jaccard(frozenset(), frozenset()) == 0.0
        assert jaccard(frozenset({1}), frozenset({1})) == 1.0
        assert jaccard(frozenset({1, 2}), frozenset({2, 3})) == pytest.approx(1.0 / 3.0)

    def test_overlap_score_sums_both_jaccards(self):
        a = obs(tags=("rx", "dose"), evidence=(0, 1))
        b = obs(tags=("rx",), evidence=(1,))
        assert overlap_score(a, b) == pytest.approx(0.5 + 0.5)

    def test_observation_validation(self):
        with pytest.raises(DataError, match="unknown subsection"):
            obs(subsection="prognosis")
        with pytest.raises(DataError, match="evidence"):
            Observation("vitals", "bp high", frozenset(), frozenset())

    def test_section_property(self):
        assert obs(subsection="vitals").section is SoapSection.OBJECTIVE
        assert obs(subsection="chief_complaint").section is SoapSection.SUBJECTIVE


class TestMapNotes:
    def test_identical_substitution_insertion_deletion(self):
        source = SoapNote("e0", (
            obs("chief_complaint", "headache two days", ("hx",), (0,)),
            obs("medications", "refill statin", ("rx",), (3,)),
            obs("medications", "start aspirin", ("new",), (9,)),
        ))
        reference = SoapNote("e0", (
            obs("chief_complaint", "headache  two days", ("hx",), (0,)),  # same modulo spaces
            obs("medications", "refill statin and check", ("rx",), (3, 4)),
            obs("vitals", "bp 120 over 80", ("bp",), (1,)),
        ))
        mapping = map_notes(source, reference)
        cats = [e[0] for e in mapping.entries]
        assert cats == [NoteCategory.IDENTICAL, NoteCategory.SUBSTITUTION,
                        NoteCategory.INSERTION]
        assert mapping.entries[0][1] == 0
        assert mapping.entries[1][1] == 1
        assert mapping.entries[1][2] == pytest.approx(0.5)  # evidence {3} vs {3,4}
        assert mapping.entries[1][3] == pytest.approx(1.0)
        assert mapping.deletions == [2]  # no source vitals at all

    def test_tie_goes_to_lower_reference_index(self):
        source = SoapNote("e0", (obs("medications", "x", ("rx",), (0,)),))
        reference = SoapNote("e0", (
            obs("medications", "y", ("rx",), (5,)),
            obs("medications", "z", ("rx",), (6,)),
        ))
        mapping = map_notes(source, reference)
        assert mapping.entries[0][1] == 0

    def test_matches_exhaustive_oracle_on_random_notes(self):
        gen = np.random.Generator(np.random.PCG64(29))
        subsections = ["chief_complaint", "vitals", "medications", "follow_up"]
        tags_pool = ["a", "b", "c", "d"]
        summaries = ["alpha beta", "gamma delta", "epsilon zeta"]

        def random_note(eid):
            n = int(gen.integers(1, 6))
            out = []
            for _ in range(n):
                ev = gen.choice(6, size=int(gen.integers(1, 4)), replace=False)
                tags = [t for t in tags_pool if gen.random() < 0.5]
                out.append(Observation(
                    subsection=str(gen.choice(subsections)),
                    summary=str(gen.choice(summaries)),
                    tags=frozenset(tags),
                    evidence=frozenset(int(e) for e in ev)))
            return SoapNote(eid, tuple(out))

        for _ in range(100):
            source, reference = random_note("e0"), random_note("e0")
            got = map_notes(source, reference)
            want = irr_map_oracle(source, reference)
            assert [e[0].value for e in got.entries] == want["categories"]
            assert [e[1] for e in got.entries] == want["ref_idx"]
            assert got.deletions == want["deletions"]

    def test_insertion_deletion_symmetry(self):
        gen = np.random.Generator(np.random.PCG64(31))
        subsections = ["vitals", "medications"]

        def random_note(eid):
            return SoapNote(eid, tuple(
                Observation(str(gen.choice(subsections)), "s",
                            frozenset(), frozenset({int(gen.integers(8))}))
                for _ in range(int(gen.integers(1, 5)))))

        for _ in range(50):
            a, b = random_note("e0"), random_note("e0")
            ab = map_notes(a, b)
            ba = map_notes(b, a)
            assert ab.count(NoteCategory.INSERTION) == len(ba.deletions)
            assert len(ab.deletions) == ba.count(NoteCategory.INSERTION)


class TestReport:
    def test_identical_pair_statistics(self):
        note = SoapNote("e0", (
            obs("medications", "refill", ("rx",), (0, 1)),
            obs("vitals", "bp fine", ("bp",), (2,)),
        ))
        report = irr_report([note], [note], [toy_transcript("e0", 4)])
        assert report.identical == (1.0, 0.0)
        assert report.substitution == (0.0, 0.0)
        assert report.insertion == (0.0, 0.0)
        assert report.deletion == (0.0, 0.0)
        assert report.all_accuracy == 1.0
        plan = report.sections[SoapSection.PLAN]
        assert plan.accuracy == 1.0 and plan.f1 == 1.0
        assert plan.p_pos_given_pos == 1.0 and plan.p_pos_given_neg == 0.0
        # sections absent from both notes have no positives: conditional on
        # a positive is undefined, false-positive rate is zero
        subj = report.sections[SoapSection.SUBJECTIVE]
        assert math.isnan(subj.p_pos_given_pos)
        assert subj.p_pos_given_neg == 0.0

    def test_utterance_section_uses_first_citing_observation(self):
        source = SoapNote("e0", (
            obs("vitals", "first", ("a",), (1,)),
            obs("medications", "second also cites 1", ("b",), (1, 2)),
        ))
        report = irr_report([source], [source], [toy_transcript("e0", 3)])
        # utterance 1 belongs to OBJECTIVE (vitals came first); utterance 2
        # to PLAN; utterance 0 uncited -> NONE; all agree -> prevalences
        assert report.sections[SoapSection.OBJECTIVE].prevalence == pytest.approx(1 / 3)
        assert report.sections[SoapSection.PLAN].prevalence == pytest.approx(1 / 3)
        assert report.sections[SoapSection.NONE].prevalence == pytest.approx(1 / 3)

    def test_fraction_denominators_and_aggregation(self):
        # pair 1: 1 identical + 1 insertion over 2 source obs; 1 of 1
        # reference obs deleted. pair 2: all identical.
        src1 = SoapNote("e0", (
            obs("medications", "refill", ("rx",), (0,)),
            obs("vitals", "bp", ("bp",), (1,)),
        ))
        ref1 = SoapNote("e0", (obs("medications", "refill", ("rx",), (0,)),
                               obs("follow_up", "two weeks", ("fu",), (2,))))
        note2 = SoapNote("e1", (obs("impression", "stable", ("dx",), (0,)),))
        report = irr_report([src1, note2], [note2, ref1],
                            [toy_transcript("e1", 2), toy_transcript("e0", 3)])
        assert report.n_pairs == 2
        assert report.identical == pytest.approx(population_mean_var([0.5, 1.0]))
        assert report.insertion == pytest.approx(population_mean_var([0.5, 0.0]))
        assert report.deletion == pytest.approx(population_mean_var([0.5, 0.0]))
        # neither pair produced a substitution: overlap means are undefined
        assert math.isnan(report.evidence_overlap[0])

    def test_substitution_overlaps_averaged_over_substitutions_only(self):
        src = SoapNote("e0", (
            obs("medications", "refill statin", ("rx",), (0,)),
            obs("medications", "identical line", ("rx", "dose"), (1,)),
        ))
        ref = SoapNote("e0", (
            obs("medications", "refill statin now", ("rx",), (0, 2)),
            obs("medications", "identical line", ("rx", "dose"), (1,)),
        ))
        report = irr_report([src], [ref], [toy_transcript("e0", 3)])
        assert report.substitution[0] == pytest.approx(0.5)
        assert report.evidence_overlap == pytest.approx((0.5, 0.0))
        assert report.tag_overlap == pytest.approx((1.0, 0.0))

    def test_pair_validation(self):
        note = SoapNote("e0", (obs(),))
        other = SoapNote("e1", (obs(),))
        transcripts = [toy_transcript("e0", 2)]
        with pytest.raises(DataError, match="^encounter 'e1' has no match in notes_b$"):
            irr_report([note, other], [note], transcripts)
        with pytest.raises(DataError, match="^encounter 'e1' has no match in notes_a$"):
            irr_report([note], [other, note], transcripts)
        with pytest.raises(DataError, match="^encounter 'e1' has no match in transcripts$"):
            irr_report([other], [other], transcripts)
        with pytest.raises(DataError, match="'e0' appears more than once"):
            irr_report([note], [note], transcripts * 2)
        with pytest.raises(DataError, match="no note pairs"):
            irr_report([], [], transcripts)
        # transcripts of encounters without notes are ignored
        assert irr_report([other], [other], transcripts + [toy_transcript("e1", 1)]).n_pairs == 1

    def test_evidence_outside_transcript_rejected(self):
        note = SoapNote("e0", (obs(evidence=(7,)),))
        with pytest.raises(DataError, match="outside"):
            irr_report([note], [note], [toy_transcript("e0", 3)])

    def test_format_report_renders_tables(self):
        note = SoapNote("e0", (obs(),))
        report = irr_report([note], [note], [toy_transcript("e0", 2)])
        text = format_report(report)
        assert "identical" in text and "deletion" in text
        assert "plan" in text and "accuracy" in text.lower()


class TestNotesIo:
    def test_round_trip(self, tmp_path):
        notes = [
            SoapNote("e0", (obs(), obs("vitals", "bp ok", ("bp",), (1, 2)))),
            SoapNote("e1", (obs("impression", "stable", (), (0,)),)),
        ]
        path = tmp_path / "notes.jsonl"
        write_notes(notes, path)
        back = read_notes(path)
        assert back == notes

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text('{"encounter_id": "e0", "observations": []}\nnot json\n')
        with pytest.raises(DataError, match="line 2"):
            read_notes(path)

    def test_bad_subsection_reports_line(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text('{"encounter_id": "e0", "observations": '
                        '[{"subsection": "bogus", "summary": "s", "tags": [], "evidence": [0]}]}\n')
        with pytest.raises(DataError, match="line 1"):
            read_notes(path)

import numpy as np
import pytest

from soapkit.corpus import (
    AsrRaw,
    CorpusError,
    LabelDistribution,
    Rng,
    SoapSection,
    SpeakerLabel,
    Transcript,
    TranscriptKind,
    Utterance,
    gold_labels,
    one_hot_targets,
    pair_by_encounter,
    read_asr_raw,
    read_corpus,
    render_reference,
    transcript_to_record,
    write_asr_raw,
    write_corpus,
)
from soapkit.irr import IrrError, read_notes
from soapkit.synth import CorruptionConfig, SynthConfig, corrupt_corpus, generate_corpus


def _note(obs):
    return '{"encounter_id": "e0", "observations": [' + obs + ']}'


# one malformed line per case; the ids name the reader and the line
WRONGLY_TYPED = [
    (read_corpus, '{"encounter_id": "e0", "kind": "reference", "utterances": 5}', CorpusError),
    (read_corpus, '{"encounter_id": "e0", "kind": "reference", "utterances": '
                  '[{"id": "x", "text": "hi", "speaker": "doctor", "section": "plan"}]}', CorpusError),
    (read_corpus, '{"encounter_id": "e0", "kind": "asr", "utterances": '
                  '[{"id": 0, "text": "hi", "soap_dist": 5, "speaker_dist": [1, 0, 0, 0]}]}',
     CorpusError),
    (read_asr_raw, '{"encounter_id": "e0", "text": "x", "turns": [[0, "x"]]}', CorpusError),
    (read_asr_raw, '{"encounter_id": "e0", "text": "x", "turns": 5}', CorpusError),
    (read_asr_raw, '{"encounter_id": "e0", "text": 5, "turns": []}', CorpusError),
    (read_asr_raw, '{"encounter_id": "e0", "text": "x", "turns": []}', CorpusError),
    (read_asr_raw, '5', CorpusError),
    (read_notes, '5', IrrError),
    (read_notes, '{"encounter_id": "e0", "observations": 5}', IrrError),
    (read_notes, _note("5"), IrrError),
    (read_notes, _note('{"subsection": "vitals", "summary": "s", "evidence": ["a"]}'), IrrError),
    (read_notes, _note('{"subsection": "vitals", "summary": "s", "tags": 5, "evidence": [0]}'),
     IrrError),
    (read_notes, _note('{"subsection": ["vitals"], "summary": "s", "evidence": [0]}'), IrrError),
]


def ref_utt(i, text="hello there.", speaker=SpeakerLabel.DOCTOR, section=SoapSection.PLAN):
    return Utterance(id=i, text=text, speaker=speaker, section=section)


class TestLabelDistribution:
    def test_soap_must_sum_to_one(self):
        with pytest.raises(CorpusError, match="sum to 1"):
            LabelDistribution(soap=(0.5, 0.1, 0.1, 0.1, 0.1), speaker=(1, 0, 0, 0))

    def test_negative_entries_rejected(self):
        with pytest.raises(CorpusError, match="non-negative"):
            LabelDistribution(soap=(1.1, -0.1, 0, 0, 0), speaker=(1, 0, 0, 0))

    @pytest.mark.parametrize("soap, speaker", [
        ((float("nan"),) * 5, (1, 0, 0, 0)),
        ((1, 0, 0, 0, 0), (float("inf"), 0, 0, 0)),
        ((1, 0, 0, 0, 0), (float("nan"), 0, 0, 0)),
    ])
    def test_non_finite_entries_rejected(self, soap, speaker):
        with pytest.raises(CorpusError, match="finite"):
            LabelDistribution(soap=soap, speaker=speaker)

    def test_speaker_sum_is_free(self):
        # L2-normalized speaker vectors do not sum to 1 and must be accepted
        v = 1.0 / np.sqrt(2.0)
        d = LabelDistribution(soap=(1, 0, 0, 0, 0), speaker=(v, v, 0, 0))
        assert sum(d.speaker) != pytest.approx(1.0)

    def test_wrong_lengths_rejected(self):
        with pytest.raises(CorpusError):
            LabelDistribution(soap=(1, 0, 0, 0), speaker=(1, 0, 0, 0))
        with pytest.raises(CorpusError):
            LabelDistribution(soap=(1, 0, 0, 0, 0), speaker=(1, 0, 0))


class TestTranscriptInvariants:
    def test_ids_must_be_dense(self):
        with pytest.raises(CorpusError, match="dense"):
            Transcript("e1", TranscriptKind.REFERENCE, (ref_utt(0), ref_utt(2)))

    def test_reference_needs_hard_labels(self):
        with pytest.raises(CorpusError, match="speaker or section"):
            Transcript("e1", TranscriptKind.REFERENCE,
                       (Utterance(id=0, text="hi.", speaker=SpeakerLabel.DOCTOR),))

    def test_asr_needs_distribution(self):
        with pytest.raises(CorpusError, match="label distribution"):
            Transcript("e1", TranscriptKind.ASR, (Utterance(id=0, text="hi."),))

    def test_enum_string_round_trip(self):
        for sec in SoapSection:
            assert SoapSection.from_string(sec.to_string()) is sec
        for spk in SpeakerLabel:
            assert SpeakerLabel.from_string(spk.to_string()) is spk
        with pytest.raises(CorpusError):
            SoapSection.from_string("prognosis")


class TestRenderReference:
    def test_spans_slice_back_to_texts(self):
        utts = [ref_utt(0, "first one."), ref_utt(1, "second."), ref_utt(2, "third?")]
        text, spans = render_reference(utts)
        assert text == "first one. second. third?"
        for utt, (lo, hi) in zip(utts, spans):
            assert text[lo:hi] == utt.text

    def test_single_utterance(self):
        text, spans = render_reference([ref_utt(0, "only.")])
        assert text == "only." and spans == [(0, 5)]


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(5).generator.random(8)
        b = Rng(5).generator.random(8)
        assert np.array_equal(a, b)

    def test_split_children_deterministic_and_distinct(self):
        kids1 = [r.generator.random(4) for r in Rng(9).split(3)]
        kids2 = [r.generator.random(4) for r in Rng(9).split(3)]
        for x, y in zip(kids1, kids2):
            assert np.array_equal(x, y)
        assert not np.array_equal(kids1[0], kids1[1])

    def test_split_does_not_disturb_parent(self):
        r1 = Rng(3)
        r1.split(2)
        r2 = Rng(3)
        assert np.array_equal(r1.generator.random(4), r2.generator.random(4))


class TestSerialization:
    def test_reference_round_trip_exact(self, small_corpus, tmp_path):
        path = tmp_path / "ref.jsonl"
        write_corpus(small_corpus, path)
        back = read_corpus(path)
        assert len(back) == len(small_corpus)
        for a, b in zip(small_corpus, back):
            assert transcript_to_record(a) == transcript_to_record(b)

    def test_asr_round_trip_exact(self, small_corpus, tmp_path):
        asr, _ = corrupt_corpus(small_corpus,
                                CorruptionConfig(char_sub_rate=0.05, turn_merge_rate=0.3),
                                Rng(2))
        path = tmp_path / "asr.jsonl"
        write_asr_raw(asr, path)
        back = read_asr_raw(path)
        assert [(r.encounter_id, r.text, r.turns) for r in back] == \
               [(r.encounter_id, r.text, r.turns) for r in asr]

    def test_malformed_line_reports_line_number(self, small_corpus, tmp_path):
        import json

        path = tmp_path / "bad.jsonl"
        good = json.dumps(transcript_to_record(small_corpus[0]))
        path.write_text(good + "\n{not json\n")
        with pytest.raises(CorpusError, match="line 2"):
            read_corpus(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"encounter_id": "e0", "text": "hi"}\n')
        with pytest.raises(CorpusError, match="turns"):
            read_asr_raw(path)

    @pytest.mark.parametrize("reader, line, error", WRONGLY_TYPED,
                             ids=[f"{r.__name__}-{line}" for r, line, _ in WRONGLY_TYPED])
    def test_wrongly_typed_fields_are_corpus_errors(self, tmp_path, reader, line, error):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(error, match="line 1"):
            reader(path)

    def test_turn_spans_must_tile(self):
        with pytest.raises(CorpusError, match="tile"):
            AsrRaw("e0", "abcdef", turns=((0, 3), (4, 6)))
        with pytest.raises(CorpusError, match="cover"):
            AsrRaw("e0", "abcdef", turns=((0, 3),))
        with pytest.raises(CorpusError, match="cover 0 chars"):
            AsrRaw("e0", "abcdef", turns=())
        assert AsrRaw("e0", "", turns=()).turns == ()

    def test_pair_by_encounter_keeps_record_order_and_reports_missing(self):
        records = [AsrRaw(e, "", ()) for e in ("e2", "e0", "e9", "e1")]
        others = [AsrRaw(e, "", ()) for e in ("e0", "e1", "e2")]
        pairs, missing = pair_by_encounter(records, others)
        assert [(r.encounter_id, o.encounter_id) for r, o in pairs] == \
               [("e2", "e2"), ("e0", "e0"), ("e1", "e1")]
        assert all(r is records[i] for (r, _), i in zip(pairs, (0, 1, 3)))
        assert missing == ["e9"]


class TestTargets:
    def test_reference_one_hots(self):
        t = Transcript("e1", TranscriptKind.REFERENCE,
                       (ref_utt(0, speaker=SpeakerLabel.PATIENT, section=SoapSection.NONE),
                        ref_utt(1, speaker=SpeakerLabel.DOCTOR, section=SoapSection.PLAN)))
        spk, soap = one_hot_targets(t)
        assert np.array_equal(spk, [[0, 1, 0, 0], [1, 0, 0, 0]])
        assert np.array_equal(soap, [[1, 0, 0, 0, 0], [0, 0, 0, 0, 1]])

    def test_asr_speaker_renormalized_to_sum_one(self):
        v = 1.0 / np.sqrt(2.0)
        d = LabelDistribution(soap=(0.2, 0.2, 0.2, 0.2, 0.2), speaker=(v, v, 0, 0))
        t = Transcript("e1", TranscriptKind.ASR, (Utterance(id=0, text="x.", dist=d),))
        spk, soap = one_hot_targets(t)
        assert spk.sum(axis=1) == pytest.approx([1.0])
        assert np.array_equal(spk[0], [0.5, 0.5, 0, 0])
        assert np.array_equal(soap[0], [0.2] * 5)

    def test_gold_labels_argmax_for_asr(self):
        d = LabelDistribution(soap=(0.1, 0.0, 0.6, 0.3, 0.0), speaker=(0.2, 0.9, 0.1, 0.0))
        t = Transcript("e1", TranscriptKind.ASR, (Utterance(id=0, text="x.", dist=d),))
        assert gold_labels(t, "soap").tolist() == [2]
        assert gold_labels(t, "speaker").tolist() == [1]
        with pytest.raises(ValueError, match="unknown task"):
            gold_labels(t, "diagnosis")

    def test_synthetic_corpus_is_reference_kind(self):
        corpus = generate_corpus(SynthConfig(n_transcripts=2, seed=0))
        assert all(t.kind is TranscriptKind.REFERENCE for t in corpus)

import numpy as np
import pytest

from oracles import asr_to_ref_map_loop, utterance_distributions_loop, word_label_probs_loop

import soapkit.project
from soapkit.corpus import (
    AsrRaw,
    Rng,
    SoapSection,
    SpeakerLabel,
    Transcript,
    TranscriptKind,
    Utterance,
)
from soapkit.project import (
    ProjectionError,
    asr_to_ref_map,
    char_label_table,
    normalize_soap,
    normalize_speaker,
    project_corpus,
    project_transcript,
    reconstruct_utterances,
    utterance_distributions,
    word_label_probs,
    word_spans,
)
from soapkit.synth import CorruptionConfig, corrupt_corpus


def one_utt_ref(text, speaker=SpeakerLabel.DOCTOR, section=SoapSection.PLAN):
    return Transcript("e0", TranscriptKind.REFERENCE,
                      (Utterance(id=0, text=text, speaker=speaker, section=section),))


class TestWordSpans:
    def test_basic(self):
        assert word_spans("  ab  cd ", 0, 9) == [(2, 4), (6, 8)]

    def test_window_restricts(self):
        assert word_spans("ab cd ef", 3, 8) == [(3, 5), (6, 8)]


class TestNormalizeSoap:
    def test_none_absorbs_residual(self):
        out = normalize_soap([0.3, 0.1, 0.0, 0.0])
        assert np.allclose(out, [0.6, 0.3, 0.1, 0.0, 0.0], atol=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_mass_leaves_none_empty(self):
        out = normalize_soap([0.0, 0.0, 0.0, 1.0])
        assert out.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_rejects_mass_above_one(self):
        with pytest.raises(ProjectionError, match="> 1"):
            normalize_soap([0.6, 0.6, 0.0, 0.0])

    def test_rejects_negative_and_bad_shape(self):
        with pytest.raises(ProjectionError):
            normalize_soap([-0.1, 0.2, 0.0, 0.0])
        with pytest.raises(ProjectionError):
            normalize_soap([0.1, 0.2, 0.3, 0.2, 0.1])


class TestNormalizeSpeaker:
    def test_l2_unit_vector_unchanged(self):
        assert normalize_speaker([1.0, 0.0, 0.0, 0.0]).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_l2_norm_is_one(self):
        out = normalize_speaker([0.3, 0.4, 0.0, 0.0])
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_l1_sums_to_one(self):
        out = normalize_speaker([0.2, 0.2, 0.0, 0.0], mode="l1")
        assert out.tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_zero_vector_becomes_uniform(self):
        assert normalize_speaker([0.0] * 4).tolist() == [0.25] * 4

    def test_unknown_mode(self):
        with pytest.raises(ProjectionError, match="mode"):
            normalize_speaker([1.0, 0, 0, 0], mode="max")


class TestReconstructUtterances:
    def test_sentences_split_with_abbreviation_guard(self):
        text = "dr. smith arrived. then what? yes."
        spans = reconstruct_utterances(text, [(0, len(text))])
        assert spans == [(0, 18), (19, 29), (30, 34)]
        assert [text[lo:hi] for lo, hi in spans] == ["dr. smith arrived.", "then what?", "yes."]

    def test_turn_boundaries_force_splits(self):
        text = "hello there yes indeed"
        spans = reconstruct_utterances(text, [(0, 11), (12, 22)])
        assert [text[lo:hi] for lo, hi in spans] == ["hello there", "yes indeed"]


class TestAsrToRefMap:
    def test_matches_loop_oracle(self):
        gen = np.random.Generator(np.random.PCG64(13))
        for n in list(range(6)) + [60] * 100:
            ops = "".join("MSID"[int(x)] for x in gen.integers(0, 4, n))
            ref_idx, matched = asr_to_ref_map(ops)
            want_idx, want_matched = asr_to_ref_map_loop(ops)
            assert ref_idx.tolist() == want_idx and matched.tolist() == want_matched
            assert ref_idx.dtype == np.int64 and matched.dtype == bool


class TestWordLabelProbs:
    @staticmethod
    def random_case(gen, p_insert, p_space):
        """A random op string with (section, speaker) labels on its
        reference side, -1 with probability p_space, and random word spans
        over its ASR side."""
        n = int(gen.integers(0, 80))
        p = np.array([1.0, 1.0, 4.0 * p_insert, 1.0])
        ops = "".join(gen.choice(list("MSID"), size=n, p=p / p.sum()))
        n_ref = len(ops) - ops.count("I")
        n_asr = len(ops) - ops.count("D")
        blank = gen.random(n_ref) < p_space
        section = np.where(blank, -1, gen.integers(0, 5, n_ref)).astype(np.int8)
        speaker = np.where(blank, -1, gen.integers(0, 4, n_ref)).astype(np.int8)
        spans = []
        pos = int(gen.integers(0, 3))
        while pos < n_asr:
            end = min(n_asr, pos + int(gen.integers(1, 7)))
            spans.append((pos, end))
            pos = end + int(gen.integers(0, 3))
        return ops, (section, speaker), spans

    def test_matches_per_word_loop_oracle(self):
        gen = np.random.Generator(np.random.PCG64(29))
        unaligned = all_blank = 0
        for trial in range(400):
            ops, labels, spans = self.random_case(gen, p_insert=(0.1, 0.5, 0.9)[trial % 3],
                                                  p_space=(0.0, 0.3, 0.9)[trial % 4 % 3])
            char_map = asr_to_ref_map(ops)
            soap, speaker = word_label_probs(char_map, labels, spans)
            want_soap, want_speaker = word_label_probs_loop(*char_map, *labels, spans)
            assert soap.shape == (len(spans), 5) and speaker.shape == (len(spans), 4)
            # bit-identical, not merely close
            assert soap.tolist() == want_soap.tolist()
            assert speaker.tolist() == want_speaker.tolist()
            for (ws, we), row in zip(spans, soap):
                idx = char_map[0][ws:we]
                if (idx < 0).all():
                    unaligned += 1
                elif row.sum() == 0.0 and (labels[0][idx[idx >= 0].min():idx.max() + 1] < 0).all():
                    all_blank += 1
        # the draws reach both zero-mass cases many times
        assert unaligned > 100 and all_blank > 100

    def test_zero_words(self):
        char_map = asr_to_ref_map("MMI")
        labels = (np.zeros(2, np.int8), np.zeros(2, np.int8))
        soap, speaker = word_label_probs(char_map, labels, [])
        assert soap.shape == (0, 5) and speaker.shape == (0, 4)


class TestUtteranceDistributions:
    def test_matches_per_utterance_loop_oracle(self):
        # word rows shaped like word_label_probs output: each row is a
        # confidence times class fractions, some rows all zero
        gen = np.random.Generator(np.random.PCG64(53))
        uniform = 0
        for trial in range(200):
            counts = gen.integers(1, 40, size=int(gen.integers(1, 30)))
            n = int(counts.sum())
            conf = gen.random(n) * (gen.random(n) < 0.85)
            soap = gen.dirichlet(np.ones(5), n) * conf[:, None]
            speaker = gen.dirichlet(np.ones(4), n) * conf[:, None]
            speaker[:, 2:] *= gen.random() < 0.5
            for mode in ("l2", "l1"):
                got = utterance_distributions(soap, speaker, counts, speaker_mode=mode)
                want = utterance_distributions_loop(soap, speaker, counts, mode)
                assert [(d.soap, d.speaker) for d in got] == want
                uniform += sum(d.speaker == (0.25,) * 4 for d in got)
        assert uniform > 20

    def test_utterance_without_words_is_rejected(self):
        with pytest.raises(ProjectionError, match="no words"):
            utterance_distributions(np.zeros((2, 5)), np.zeros((2, 4)), [2, 0])


class TestCharLabelTable:
    def test_labels_follow_utterances_and_skip_separators(self):
        ref = Transcript("e0", TranscriptKind.REFERENCE, (
            Utterance(id=0, text="ab.", speaker=SpeakerLabel.DOCTOR, section=SoapSection.PLAN),
            Utterance(id=1, text="cd.", speaker=SpeakerLabel.PATIENT, section=SoapSection.NONE),
        ))
        text, (section, speaker) = char_label_table(ref)
        assert text == "ab. cd."
        plan, none = SoapSection.PLAN.value, SoapSection.NONE.value
        doctor, patient = SpeakerLabel.DOCTOR.value, SpeakerLabel.PATIENT.value
        # the separator space carries no label
        assert section.tolist() == [plan] * 3 + [-1] + [none] * 3
        assert speaker.tolist() == [doctor] * 3 + [-1] + [patient] * 3

    def test_inner_whitespace_carries_no_label(self):
        text, (section, speaker) = char_label_table(one_utt_ref("a b\tc."))
        assert text == "a b\tc."
        assert (section == -1).tolist() == [c.isspace() for c in text]
        assert (speaker == -1).tolist() == [c.isspace() for c in text]

    def test_requires_reference_kind(self):
        from soapkit.corpus import LabelDistribution
        t = Transcript("e0", TranscriptKind.ASR, (Utterance(
            id=0, text="x.", dist=LabelDistribution((1, 0, 0, 0, 0), (1, 0, 0, 0))),))
        with pytest.raises(ProjectionError):
            char_label_table(t)


class TestProjectTranscript:
    def test_identical_text_reproduces_one_hots_exactly(self):
        out = project_transcript(one_utt_ref("abcde fghij."),
                                 AsrRaw("e0", "abcde fghij.", ((0, 12),)))
        assert out.utterances[0].dist.soap == (0.0, 0.0, 0.0, 0.0, 1.0)
        assert out.utterances[0].dist.speaker == (1.0, 0.0, 0.0, 0.0)

    def test_one_substitution_hand_value(self):
        # word "abxde": 4 of 5 chars match, segment all Plan -> mass 0.8;
        # word "fghij.": mass 1.0; utterance mean 0.9, residual 0.1 on none
        out = project_transcript(one_utt_ref("abcde fghij."),
                                 AsrRaw("e0", "abxde fghij.", ((0, 12),)))
        soap = out.utterances[0].dist.soap
        assert soap[0] == pytest.approx(0.1, abs=1e-12)
        assert soap[4] == pytest.approx(0.9, abs=1e-12)
        assert soap[1] == soap[2] == soap[3] == 0.0
        assert out.utterances[0].dist.speaker == (1.0, 0.0, 0.0, 0.0)

    def test_unaligned_word_inside_sentence_dilutes_mass(self):
        # "zzz" has no aligned reference chars: zero mass, zero confidence;
        # the utterance mean over 3 words is then 2/3 Plan, 1/3 none
        out = project_transcript(one_utt_ref("abcde fff."),
                                 AsrRaw("e0", "abcde zzz fff.", ((0, 14),)))
        assert len(out.utterances) == 1
        soap = out.utterances[0].dist.soap
        assert soap[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert soap[4] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert out.utterances[0].dist.speaker == (1.0, 0.0, 0.0, 0.0)

    def test_fully_unaligned_utterance_gets_none_and_uniform_speaker(self):
        out = project_transcript(one_utt_ref("abcde."),
                                 AsrRaw("e0", "abcde. zzz", ((0, 10),)))
        assert [u.text for u in out.utterances] == ["abcde.", "zzz"]
        assert out.utterances[1].dist.soap == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert out.utterances[1].dist.speaker == (0.25, 0.25, 0.25, 0.25)


class TestProjectCorpus:
    def test_zero_corruption_round_trip(self, small_corpus):
        asr, _ = corrupt_corpus(small_corpus, CorruptionConfig(), Rng(0))
        projected = project_corpus(small_corpus, asr)
        assert len(projected) == len(small_corpus)
        for ref, proj in zip(small_corpus, projected):
            assert len(proj.utterances) == len(ref.utterances)
            for r, p in zip(ref.utterances, proj.utterances):
                assert p.text == r.text
                want_soap = tuple(1.0 if i == r.section.value else 0.0 for i in range(5))
                want_spk = tuple(1.0 if i == r.speaker.value else 0.0 for i in range(4))
                assert p.dist.soap == want_soap
                assert p.dist.speaker == want_spk

    def test_missing_encounter_raises(self, small_corpus):
        asr, _ = corrupt_corpus(small_corpus[:3], CorruptionConfig(), Rng(0))
        with pytest.raises(ProjectionError, match="no asr record"):
            project_corpus(small_corpus[:4], asr)

    def test_one_asr_to_ref_map_per_transcript(self, small_corpus, monkeypatch):
        calls = []
        real = soapkit.project.asr_to_ref_map

        def counted(alignment):
            calls.append(alignment)
            return real(alignment)

        monkeypatch.setattr(soapkit.project, "asr_to_ref_map", counted)
        asr, _ = corrupt_corpus(small_corpus, CorruptionConfig(char_sub_rate=0.05), Rng(2))
        projected = project_corpus(small_corpus, asr)
        assert sum(len(t.utterances) for t in projected) > len(small_corpus)
        assert len(calls) == len(small_corpus)

    def test_threads_do_not_change_results(self, small_corpus):
        asr, _ = corrupt_corpus(small_corpus, CorruptionConfig(char_sub_rate=0.05), Rng(1))
        seq = project_corpus(small_corpus, asr, threads=1)
        par = project_corpus(small_corpus, asr, threads=3)
        assert [t.encounter_id for t in seq] == [t.encounter_id for t in par]
        for a, b in zip(seq, par):
            for ua, ub in zip(a.utterances, b.utterances):
                assert ua.dist.soap == ub.dist.soap
                assert ua.dist.speaker == ub.dist.speaker

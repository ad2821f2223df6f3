import re
import sys

import numpy as np
import pytest

from oracles import (
    asr_to_ref_map_loop,
    reconstruct_utterances_loop,
    utterance_distributions_loop,
    word_label_probs_loop,
)

import soapkit.project
from soapkit.cli import main
from soapkit.corpus import (
    AsrRaw,
    DataError,
    Rng,
    SoapSection,
    SpeakerLabel,
    Transcript,
    TranscriptKind,
    Utterance,
    write_asr_raw,
    write_corpus,
)
from soapkit.project import (
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
from soapkit.synth import CorruptionConfig, SynthConfig, corrupt_corpus, generate_corpus


def one_utt_ref(text, speaker=SpeakerLabel.DOCTOR, section=SoapSection.PLAN):
    return Transcript("e0", TranscriptKind.REFERENCE,
                      (Utterance(id=0, text=text, speaker=speaker, section=section),))


class TestWordSpans:
    def test_basic(self):
        spans, counts = word_spans("  ab  cd ", [(0, 9)])
        assert spans.tolist() == [[2, 4], [6, 8]] and counts.tolist() == [2]
        assert spans.dtype == np.intp and counts.dtype == np.intp
        spans, _ = word_spans("a\ud800 b", [(0, 4)])  # a lone surrogate is a non-space char
        assert spans.tolist() == [[0, 2], [3, 4]]

    def test_window_restricts(self):
        spans, counts = word_spans("ab cd ef", [(3, 8)])
        assert spans.tolist() == [[3, 5], [6, 8]] and counts.tolist() == [2]

    def test_matches_regex_per_utterance(self):
        # sorted disjoint spans, some touching, over text with unicode spaces
        gen = np.random.Generator(np.random.PCG64(53))
        alphabet = list("ab.") + [" ", "\n", "\u00a0", "\u2003"]
        for _ in range(300):
            text = "".join(gen.choice(alphabet, size=int(gen.integers(0, 40))))
            cuts = sorted(set(gen.integers(0, len(text) + 1, size=6).tolist()))
            utts = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if gen.random() < 0.7]
            want = [[(lo + m.start(), lo + m.end()) for m in re.finditer(r"\S+", text[lo:hi])]
                    for lo, hi in utts]
            spans, counts = word_spans(text, utts)
            assert counts.tolist() == [len(ws) for ws in want], (text, utts)
            assert [tuple(w) for w in spans.tolist()] == [w for ws in want for w in ws]


class TestNormalizeSoap:
    def test_none_absorbs_residual(self):
        out = normalize_soap([0.3, 0.1, 0.0, 0.0])
        assert np.allclose(out, [0.6, 0.3, 0.1, 0.0, 0.0], atol=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_mass_leaves_none_empty(self):
        out = normalize_soap([0.0, 0.0, 0.0, 1.0])
        assert out.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


class TestNormalizeSpeaker:
    def test_l2_unit_vector_unchanged(self):
        assert normalize_speaker([1.0, 0.0, 0.0, 0.0]).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_l2_norm_is_one(self):
        out = normalize_speaker([0.3, 0.4, 0.0, 0.0])
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_becomes_uniform(self):
        assert normalize_speaker([0.0] * 4).tolist() == [0.25] * 4


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

    def test_regex_whitespace_is_str_isspace(self):
        # the sentence-break scan's lookahead relies on it
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        assert [m.start() for m in re.finditer(r"\s", chars)] == [
            k for k, c in enumerate(chars) if c.isspace()]

    def test_matches_loop_oracle_on_fuzzed_text(self):
        gen = np.random.Generator(np.random.PCG64(61))
        alphabet = list("ab .?!\t\n dDrR.mMsS")
        for _ in range(20_000):
            text = "".join(gen.choice(alphabet, size=int(gen.integers(0, 30))))
            cuts = sorted(set(gen.integers(0, len(text) + 1, size=3).tolist()) | {0, len(text)})
            turns = list(zip(cuts, cuts[1:]))
            assert reconstruct_utterances(text, turns) == \
                reconstruct_utterances_loop(text, turns), (text, turns)

    def test_matches_loop_oracle_on_a_long_encounter(self):
        refs = generate_corpus(SynthConfig(n_transcripts=1, min_utterances=300,
                                           max_utterances=300, seed=7))
        asr, _ = corrupt_corpus(refs, CorruptionConfig(char_sub_rate=0.03, char_del_rate=0.01,
                                                       char_ins_rate=0.01, turn_merge_rate=0.3),
                                Rng(8))
        spans = reconstruct_utterances(asr[0].text, asr[0].turns)
        assert len(spans) > 100
        assert spans == reconstruct_utterances_loop(asr[0].text, asr[0].turns)


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
            got = utterance_distributions(soap, speaker, counts)
            want = utterance_distributions_loop(soap, speaker, counts)
            assert [(d.soap, d.speaker) for d in got] == want
            uniform += sum(d.speaker == (0.25,) * 4 for d in got)
        assert uniform > 10

    def test_utterance_without_words_is_rejected(self):
        with pytest.raises(DataError, match="no words"):
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
        with pytest.raises(DataError, match="needs a reference transcript"):
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
        eid = small_corpus[3].encounter_id
        with pytest.raises(DataError, match=f"^encounter '{eid}' has no match in the ASR records$"):
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

    def test_threads_flag_does_not_change_the_corpus(self, small_corpus, tmp_path):
        asr, _ = corrupt_corpus(small_corpus, CorruptionConfig(char_sub_rate=0.05), Rng(1))
        ref_path, asr_path = str(tmp_path / "ref.jsonl"), str(tmp_path / "asr.jsonl")
        write_corpus(small_corpus, ref_path)
        write_asr_raw(asr, asr_path)
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"projected{threads}.jsonl"
            assert main(["project", "--ref", ref_path, "--asr", asr_path,
                         "--out", str(out), "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == len(small_corpus)

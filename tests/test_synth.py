import json
from dataclasses import asdict

import numpy as np
import pytest
from oracles import corrupt_turn_streams

from soapkit.corpus import (
    Rng,
    SoapSection,
    SpeakerLabel,
    Transcript,
    TranscriptKind,
    Utterance,
    render_reference,
    transcript_to_record,
)
from soapkit.synth import (
    FUNCTION_WORDS,
    GENERIC_WORDS,
    SECTION_WORDS,
    SPEAKER_WORDS,
    CorruptionConfig,
    SynthConfig,
    SynthError,
    context_rule,
    corrupt,
    corrupt_corpus,
    generate_corpus,
    write_sidecar,
)


class TestConfigValidation:
    def test_bad_marginals(self):
        with pytest.raises(SynthError, match="soap_marginals"):
            SynthConfig(n_transcripts=1, soap_marginals=(0.5, 0.5, 0.5, 0, 0))
        with pytest.raises(SynthError, match="speaker_marginals"):
            SynthConfig(n_transcripts=1, speaker_marginals=(1.0, 0.5, 0, 0))

    def test_bad_rates(self):
        with pytest.raises(SynthError, match="char_sub_rate"):
            CorruptionConfig(char_sub_rate=1.5)

    def test_bad_counts(self):
        with pytest.raises(SynthError):
            SynthConfig(n_transcripts=0)
        with pytest.raises(SynthError):
            SynthConfig(n_transcripts=1, min_utterances=5, max_utterances=3)


class TestGenerateCorpus:
    def test_deterministic_per_seed(self):
        cfg = SynthConfig(n_transcripts=5, seed=13)
        a = [transcript_to_record(t) for t in generate_corpus(cfg)]
        b = [transcript_to_record(t) for t in generate_corpus(cfg)]
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_corpus(SynthConfig(n_transcripts=3, seed=1))
        b = generate_corpus(SynthConfig(n_transcripts=3, seed=2))
        assert [t.utterances[0].text for t in a] != [t.utterances[0].text for t in b]

    def test_utterance_counts_in_range(self):
        corpus = generate_corpus(SynthConfig(n_transcripts=40, min_utterances=3,
                                             max_utterances=6, seed=4))
        for t in corpus:
            assert 3 <= len(t.utterances) <= 6

    def test_marginals_respected_at_scale(self):
        soap_m = (0.3, 0.25, 0.2, 0.15, 0.1)
        spk_m = (0.4, 0.3, 0.2, 0.1)
        corpus = generate_corpus(SynthConfig(
            n_transcripts=600, soap_marginals=soap_m, speaker_marginals=spk_m, seed=5))
        sections = np.zeros(5)
        speakers = np.zeros(4)
        for t in corpus:
            for u in t.utterances:
                sections[u.section.value] += 1
                speakers[u.speaker.value] += 1
        sections /= sections.sum()
        speakers /= speakers.sum()
        assert np.abs(sections - soap_m).max() < 0.02
        assert np.abs(speakers - spk_m).max() < 0.02

    def test_context_rule_copies_most_recent_section(self):
        assert context_rule([SoapSection.PLAN, SoapSection.NONE]) is SoapSection.NONE
        assert context_rule([SoapSection.OBJECTIVE]) is SoapSection.OBJECTIVE

    def test_full_strength_rule_makes_sections_constant_and_generic(self):
        corpus = generate_corpus(SynthConfig(
            n_transcripts=10, context_rule_strength=1.0, seed=6))
        section_vocab = {w for words in SECTION_WORDS.values() for w in words}
        for t in corpus:
            first = t.utterances[0].section
            for u in t.utterances[1:]:
                assert u.section is first
                # rule-fired utterances carry generic rather than
                # section-correlated content words
                words = {w.rstrip(".?").lower() for w in u.text.split()}
                assert not words & section_vocab
                assert words & set(GENERIC_WORDS)

    def test_vocabulary_pools_are_disjoint(self):
        pools = [set(FUNCTION_WORDS), set(GENERIC_WORDS)]
        pools.append({w for ws in SECTION_WORDS.values() for w in ws})
        pools.append({w for ws in SPEAKER_WORDS.values() for w in ws})
        for i in range(len(pools)):
            for j in range(i + 1, len(pools)):
                assert not pools[i] & pools[j]


class TestCorrupt:
    def test_zero_rates_identity(self, small_corpus):
        asr, stats = corrupt_corpus(small_corpus, CorruptionConfig(), Rng(3))
        for t, rec, st in zip(small_corpus, asr, stats):
            text, _ = render_reference(t.utterances)
            assert rec.text == text
            assert st.n_sub == st.n_del == st.n_ins == st.n_merges == st.n_splits == 0

    def test_deterministic_per_seed(self, small_corpus):
        cfg = CorruptionConfig(char_sub_rate=0.08, turn_merge_rate=0.4)
        a, _ = corrupt_corpus(small_corpus, cfg, Rng(9))
        b, _ = corrupt_corpus(small_corpus, cfg, Rng(9))
        assert [(r.text, r.turns) for r in a] == [(r.text, r.turns) for r in b]

    def test_substitution_counts_are_binomial(self):
        # > 10k eligible chars at rate 0.1: expect the total count within
        # 4 standard deviations of N * rate
        corpus = generate_corpus(SynthConfig(n_transcripts=40, seed=8))
        clean, _ = corrupt_corpus(corpus, CorruptionConfig(), Rng(0))
        n_chars = sum(len(rec.text) - (len(rec.turns) - 1) for rec in clean)
        assert n_chars > 10_000
        rate = 0.1
        _, stats = corrupt_corpus(corpus, CorruptionConfig(char_sub_rate=rate), Rng(10))
        total = sum(st.n_sub for st in stats)
        sd = np.sqrt(n_chars * rate * (1 - rate))
        assert abs(total - n_chars * rate) < 4 * sd

    def test_stats_positions_index_reference_text(self, small_corpus):
        t = small_corpus[0]
        text, _ = render_reference(t.utterances)
        _, stats = corrupt(t, CorruptionConfig(char_sub_rate=0.2, char_del_rate=0.1,
                                               char_ins_rate=0.1), Rng(11))
        for pos in stats.sub_positions + stats.del_positions + stats.ins_after_positions:
            assert 0 <= pos < len(text)
        assert stats.n_sub == len(stats.sub_positions)
        assert stats.n_del == len(stats.del_positions)
        assert stats.n_ins == len(stats.ins_after_positions)

    def test_merges_reduce_turn_count(self, small_corpus):
        t = small_corpus[0]
        clean, _ = corrupt(t, CorruptionConfig(), Rng(0))
        merged, stats = corrupt(t, CorruptionConfig(turn_merge_rate=1.0), Rng(0))
        assert len(merged.turns) == 1
        assert stats.n_merges == len(clean.turns) - 1
        # the sentence punctuation at each merged seam is dropped
        assert len(stats.dropped_punct_positions) > 0

    def test_splits_increase_turn_count(self, small_corpus):
        t = small_corpus[0]
        clean, _ = corrupt(t, CorruptionConfig(), Rng(0))
        split, stats = corrupt(t, CorruptionConfig(turn_split_rate=1.0), Rng(0))
        assert len(split.turns) == len(clean.turns) + stats.n_splits
        assert stats.n_splits > 0

    # rate settings: none, README noise, heavy char noise with frequent
    # merges and splits, every other boundary merged and turn split (the
    # setting that most often merges two turns of empty-text utterances),
    # and every boundary merged and every turn split
    ORACLE_RATES = (
        CorruptionConfig(),
        CorruptionConfig(char_sub_rate=0.03, char_del_rate=0.01, char_ins_rate=0.01,
                         turn_merge_rate=0.3),
        CorruptionConfig(char_sub_rate=0.2, char_del_rate=0.2, char_ins_rate=0.2,
                         turn_merge_rate=0.9, turn_split_rate=0.9),
        CorruptionConfig(char_sub_rate=0.1, char_del_rate=0.1, char_ins_rate=0.1,
                         turn_merge_rate=0.5, turn_split_rate=0.5),
        CorruptionConfig(char_sub_rate=0.05, turn_merge_rate=1.0, turn_split_rate=1.0),
    )

    @staticmethod
    def _odd_transcript(gen, i):
        """A transcript of 0-9 utterances whose speaker changes with
        probability 0.75 at each boundary, so both same-speaker runs and
        turns of one empty-text utterance are common; the texts include
        empty, punctuation-only and space-edged ones."""
        texts = ("", "", "", "Hi.", ".", "so well", "ok?", " a b ", "Pain is worse!")
        utts, speaker = [], 0
        for k in range(int(gen.integers(10))):
            speaker ^= int(gen.random() < 0.75)
            utts.append(Utterance(id=k, text=texts[int(gen.integers(len(texts)))],
                                  speaker=SpeakerLabel(speaker), section=SoapSection.NONE))
        return Transcript(encounter_id=f"odd{i}", kind=TranscriptKind.REFERENCE,
                          utterances=utts)

    @pytest.fixture(scope="class")
    def oracle_corpus(self):
        gen = np.random.default_rng(2024)
        corpus = generate_corpus(SynthConfig(n_transcripts=40, min_utterances=2,
                                             max_utterances=16, seed=5))
        corpus += [self._odd_transcript(gen, i) for i in range(400)]
        # four turns of empty-text utterances after a non-empty one: their
        # merge seams are the spaces that join them
        chain = [Utterance(id=k, text=text, speaker=SpeakerLabel(k % 2),
                           section=SoapSection.NONE)
                 for k, text in enumerate(("Hi.", "", "", "", "", "ok"))]
        corpus += [Transcript(encounter_id="chain", kind=TranscriptKind.REFERENCE,
                              utterances=chain)] * 40
        return corpus

    def test_matches_turn_stream_oracle(self, oracle_corpus):
        for cfg in self.ORACLE_RATES:
            for seed, t in enumerate(oracle_corpus):
                rec, stats = corrupt(t, cfg, Rng(seed))
                text, turns, want = corrupt_turn_streams(t.utterances, cfg, Rng(seed).generator)
                assert (rec.text, rec.turns) == (text, turns), (cfg, t)
                got = asdict(stats)
                assert got.pop("encounter_id") == t.encounter_id
                assert got == want, (cfg, t)

    def test_sidecar_names_each_position_once(self, oracle_corpus):
        for cfg in self.ORACLE_RATES:
            for seed, t in enumerate(oracle_corpus):
                text = render_reference(t.utterances)[0]
                _, stats = corrupt(t, cfg, Rng(seed))
                assert stats.n_sub == len(stats.sub_positions)
                for positions in (stats.sub_positions, stats.del_positions,
                                  stats.ins_after_positions):
                    assert len(set(positions)) == len(positions), (cfg, t)
                    assert all(0 <= p < len(text) for p in positions), (cfg, t)

    def test_merge_seam_of_empty_turns_is_their_separator(self):
        # reference "Hi.   ok": the merged seams are the spaces at 4 and 5,
        # which the channel turned into "w" and "m"
        utts = [Utterance(id=k, text=text, speaker=SpeakerLabel(k % 2),
                          section=SoapSection.NONE)
                for k, text in enumerate(("Hi.", "", "", "ok"))]
        t = Transcript(encounter_id="e0", kind=TranscriptKind.REFERENCE, utterances=utts)
        rec, stats = corrupt(t, CorruptionConfig(char_sub_rate=0.3, turn_merge_rate=0.5), Rng(0))
        assert render_reference(utts)[0] == "Hi.   ok"
        assert rec.text == "Hik wmok"
        assert stats.sub_positions == [2, 4, 5]

    def test_sidecar_round_trips_as_jsonl(self, small_corpus, tmp_path):
        _, stats = corrupt_corpus(small_corpus, CorruptionConfig(char_sub_rate=0.05), Rng(1))
        path = tmp_path / "sidecar.jsonl"
        write_sidecar(stats, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(stats)
        rec = json.loads(lines[0])
        assert rec["encounter_id"] == small_corpus[0].encounter_id
        assert rec["n_sub"] == stats[0].n_sub

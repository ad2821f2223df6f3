import json
from dataclasses import asdict

import numpy as np
import pytest
from oracles import corrupt_turn_streams, generate_transcript

from soapkit.corpus import (
    DataError,
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
    context_rule,
    corrupt,
    corrupt_corpus,
    generate_corpus,
    write_sidecar,
)


NAN = float("nan")


class TestConfigValidation:
    def test_bad_marginals(self):
        with pytest.raises(DataError, match="soap_marginals"):
            SynthConfig(n_transcripts=1, soap_marginals=(0.5, 0.5, 0.5, 0, 0))
        with pytest.raises(DataError, match="speaker_marginals"):
            SynthConfig(n_transcripts=1, speaker_marginals=(1.0, 0.5, 0, 0))

    @pytest.mark.parametrize("soap, speaker", [((1.2, -0.2, 0, 0, 0), (1.2, -0.2, 0, 0)),
                                               ((NAN, 0, 0, 0, 1.0), (NAN, 0, 0, 1.0))])
    def test_negative_or_nan_marginal(self, soap, speaker):
        # each sums to 1 (a NaN sum passes the sum test too), so only the
        # per-entry check rejects it
        with pytest.raises(DataError, match="soap_marginals"):
            SynthConfig(n_transcripts=1, soap_marginals=soap)
        with pytest.raises(DataError, match="speaker_marginals"):
            SynthConfig(n_transcripts=1, speaker_marginals=speaker)

    def test_bad_rates(self):
        with pytest.raises(DataError, match="char_sub_rate"):
            CorruptionConfig(char_sub_rate=1.5)

    def test_bad_counts(self):
        with pytest.raises(DataError, match="n_transcripts must be positive"):
            SynthConfig(n_transcripts=0)
        with pytest.raises(DataError, match="bad utterance count range"):
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

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_draw_oracle(self, seed):
        marginals = ({}, {"soap_marginals": (0, 0, 0, 0, 1), "speaker_marginals": (1, 0, 0, 0)})
        for lo, hi in ((1, 1), (8, 14), (300, 300)):
            for strength in (0.0, 0.5, 1.0):
                for extra in marginals:
                    cfg = SynthConfig(n_transcripts=1 if lo == 300 else 3, min_utterances=lo,
                                      max_utterances=hi, context_rule_strength=strength,
                                      seed=seed, **extra)
                    want = [transcript_to_record(generate_transcript(f"enc{i:05d}", cfg, part))
                            for i, part in enumerate(Rng(seed).spawn(cfg.n_transcripts))]
                    got = [transcript_to_record(t) for t in generate_corpus(cfg)]
                    assert got == want, cfg

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

    README_NOISE = CorruptionConfig(char_sub_rate=0.03, char_del_rate=0.01, char_ins_rate=0.01,
                                    turn_merge_rate=0.3)

    # rate settings: none, README noise, heavy char noise with frequent
    # merges and splits, every other boundary merged and turn split (the
    # setting that most often merges two turns of empty-text utterances),
    # every boundary merged and every turn split, and each char test
    # firing on every char
    ORACLE_RATES = (
        CorruptionConfig(),
        README_NOISE,
        CorruptionConfig(char_sub_rate=0.2, char_del_rate=0.2, char_ins_rate=0.2,
                         turn_merge_rate=0.9, turn_split_rate=0.9),
        CorruptionConfig(char_sub_rate=0.1, char_del_rate=0.1, char_ins_rate=0.1,
                         turn_merge_rate=0.5, turn_split_rate=0.5),
        CorruptionConfig(char_sub_rate=0.05, turn_merge_rate=1.0, turn_split_rate=1.0),
        CorruptionConfig(char_sub_rate=1.0),
        CorruptionConfig(char_del_rate=1.0),
        CorruptionConfig(char_ins_rate=1.0),
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

    @staticmethod
    def _assert_matches_oracle(t, cfg, seed):
        drawn, gen = Rng(seed), Rng(seed)
        rec, stats = corrupt(t, cfg, drawn)
        text, turns, want = corrupt_turn_streams(t.utterances, cfg, gen)
        assert (rec.text, rec.turns) == (text, turns), (cfg, t)
        got = asdict(stats)
        assert got.pop("encounter_id") == t.encounter_id
        assert got == want, (cfg, t)
        # the bulk draws leave the generator where one draw per test does
        assert drawn.bit_generator.state == gen.bit_generator.state, (cfg, t)

    def test_matches_turn_stream_oracle(self, oracle_corpus):
        for cfg in self.ORACLE_RATES:
            for seed, t in enumerate(oracle_corpus):
                self._assert_matches_oracle(t, cfg, seed)

    def test_matches_turn_stream_oracle_on_long_encounters(self):
        # about 13k chars each, so bulk-draw blocks end mid-turn many times
        corpus = generate_corpus(SynthConfig(n_transcripts=2, min_utterances=300,
                                             max_utterances=300, seed=12))
        heavy = CorruptionConfig(char_sub_rate=0.2, char_del_rate=0.2, char_ins_rate=0.2)
        for cfg in (self.README_NOISE, heavy):
            for seed, t in enumerate(corpus):
                self._assert_matches_oracle(t, cfg, seed)

    def test_numpy_stream_properties_the_bulk_draw_relies_on(self):
        # one bulk draw of n doubles is n scalar draws
        bulk, scalar = Rng(4), Rng(4)
        assert bulk.random(1000).tolist() == [scalar.random() for _ in range(1000)]
        assert bulk.bit_generator.state == scalar.bit_generator.state
        # an integers draw below 2**32 uses half of a 64-bit word and keeps
        # the other half for the next one; putting the state back after a
        # look-ahead of doubles keeps that half pending
        ahead, direct = Rng(5), Rng(5)
        for gen in (ahead, direct):
            gen.integers(26)
        saved = ahead.bit_generator.state
        assert saved["has_uint32"] == 1
        ahead.random(50)
        ahead.bit_generator.state = saved
        assert ahead.random(3).tolist() == direct.random(3).tolist()
        assert ahead.integers(26, size=4).tolist() == direct.integers(26, size=4).tolist()
        assert ahead.bit_generator.state == direct.bit_generator.state

    def test_char_tests_are_drawn_in_bulk(self):
        class CountingGenerator:
            def __init__(self, gen):
                self.gen, self.random_calls = gen, 0

            def random(self, *args, **kwargs):
                self.random_calls += 1
                return self.gen.random(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.gen, name)

        t = generate_corpus(SynthConfig(n_transcripts=1, min_utterances=300,
                                        max_utterances=300, seed=3))[0]
        counting = CountingGenerator(Rng(4))
        rec, _ = corrupt(t, self.README_NOISE, counting)
        n_chars = len(render_reference(t.utterances)[0])
        assert n_chars > 10_000
        # one call per test would be about three per char
        assert counting.random_calls < 0.1 * n_chars
        assert rec == corrupt(t, self.README_NOISE, Rng(4))[0]

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

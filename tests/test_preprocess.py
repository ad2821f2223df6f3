import pytest

from soapkit.corpus import SoapSection, SpeakerLabel, Transcript, TranscriptKind, Utterance
from soapkit.preprocess import (
    MAX_TOKENS,
    clean_and_tokenize,
    preprocess_corpus,
    preprocess_transcript,
    standardize_annotations,
)


class TestStandardizeAnnotations:
    def test_single_word_annotation(self):
        assert standardize_annotations("so [inaudible] yes") == "so INAUDIBLE yes"

    def test_multi_word_annotation_joined_with_underscores(self):
        assert standardize_annotations("[patient name] called") == "PATIENT_NAME called"

    def test_unbalanced_bracket_warns_and_stays_verbatim(self):
        with pytest.warns(UserWarning, match="unbalanced"):
            out = standardize_annotations("this [oops never closes")
        assert "[oops" in out


class TestCleanAndTokenize:
    def test_real_tokens_output(self):
        assert clean_and_tokenize("I have chest pain.") == ["i", "have", "chest", "pain", "."]

    def test_trailing_punctuation_detached(self):
        tokens = clean_and_tokenize("really? yes.")
        assert tokens == ["really", "?", "yes", "."]

    def test_trailing_dashes_stripped(self):
        tokens = clean_and_tokenize("I was going to --")
        assert tokens == ["i", "was", "going", "to"]

    def test_placeholders_keep_case_rest_lowercased(self):
        tokens = clean_and_tokenize("Tell [patient name] Now please")
        assert tokens == ["tell", "PATIENT_NAME", "now", "please"]

    def test_bare_capital_i_is_lowercased(self):
        tokens = clean_and_tokenize("I do")
        assert tokens == ["i", "do"]

    def test_empty_and_annotation_only_have_no_tokens(self):
        assert clean_and_tokenize("   ") == []
        assert clean_and_tokenize("[door slams]") == []

    def test_stopwords_kept_when_under_cap(self):
        tokens = clean_and_tokenize("the cat is on the mat")
        assert "the" in tokens and "is" in tokens

    def test_stopwords_dropped_only_above_cap(self):
        filler = "the a an and it is to of in on " * 4  # 40 stopword tokens
        text = filler + "unique diagnosis tokens appear last here now okay fine yes"
        kept = clean_and_tokenize(text)
        assert "the" not in kept
        assert "unique" in kept and "diagnosis" in kept

    def test_stopword_wipeout_falls_back_to_truncation(self):
        text = "the a an and it is to of in on " * 4  # stopwords only, above cap
        tokens = clean_and_tokenize(text)
        assert len(tokens) == MAX_TOKENS
        assert tokens[0] == "the"  # plain truncation, no stopword removal

    def test_truncation_at_cap(self):
        text = " ".join(f"word{i}" for i in range(50))
        tokens = clean_and_tokenize(text)
        assert tokens == [f"word{i}" for i in range(MAX_TOKENS)]


class TestPreprocessTranscript:
    def test_empty_utterances_dropped_and_ids_redensified(self):
        t = Transcript("e0", TranscriptKind.REFERENCE, (
            Utterance(id=0, text="hello there.", speaker=SpeakerLabel.DOCTOR, section=SoapSection.NONE),
            Utterance(id=1, text="[cough]", speaker=SpeakerLabel.PATIENT, section=SoapSection.NONE),
            Utterance(id=2, text="still here.", speaker=SpeakerLabel.PATIENT, section=SoapSection.PLAN),
        ))
        out = preprocess_transcript(t)
        assert [u.id for u in out.utterances] == [0, 1]
        assert [u.text for u in out.utterances] == ["hello there.", "still here."]
        assert [u.tokens for u in out.utterances] == [("hello", "there", "."), ("still", "here", ".")]

    def test_labels_survive(self, small_corpus):
        out = preprocess_transcript(small_corpus[0])
        for u in out.utterances:
            assert u.speaker is not None and u.section is not None

    def test_corpus_holds_each_distinct_token_once(self):
        ts = [Transcript(f"e{k}", TranscriptKind.REFERENCE, (
            Utterance(id=0, text=text, speaker=SpeakerLabel.DOCTOR, section=SoapSection.PLAN),))
            for k, text in enumerate(("Chest pain today", "chest Pain now"))]
        a, b = (t.utterances[0].tokens for t in preprocess_corpus(ts))
        assert a[0] is b[0] and a[1] is b[1]

    def test_corpus_memo_tokenises_as_each_utterance_alone(self):
        # chunks that recur across utterances and transcripts: with and
        # without trailing punctuation, as placeholders, placeholder-only,
        # and above the cap, where stopwords drop
        long = "the pain is in the chest and the arm. " * 4
        texts = [["Pain, pain. PAIN?", "[patient name] said pain.", "[cough] [cough]"],
                 ["pain? The [patient name]!", long + "Pain.", "I said: PAIN_SCORE 7."],
                 ["chest, Chest. chest--", long, "PAIN_SCORE pain?!"]]
        ts = [Transcript(f"e{k}", TranscriptKind.REFERENCE, tuple(
            Utterance(id=i, text=text, speaker=SpeakerLabel.DOCTOR, section=SoapSection.PLAN)
            for i, text in enumerate(group))) for k, group in enumerate(texts)]
        got = [[u.tokens for u in t.utterances] for t in preprocess_corpus(ts)]
        want = []
        for group in texts:
            kept = [tuple(clean_and_tokenize(text)) for text in group]
            want.append([tokens for tokens in kept if tokens])
        assert got == want
        assert "the" not in got[1][1] and "the" not in got[2][1]  # over the cap

    def test_corpus_drops_fully_empty_transcripts(self):
        t = Transcript("e0", TranscriptKind.REFERENCE, (
            Utterance(id=0, text="[silence]", speaker=SpeakerLabel.OTHER, section=SoapSection.NONE),
        ))
        assert preprocess_corpus([t]) == []

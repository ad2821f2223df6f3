import gc

import numpy as np
import pytest

from oracles import edit_distance_textbook, lcs_brute, lcs_rolling_dp

import soapkit.align
from soapkit.align import (
    AlignmentError,
    CharModel,
    align_transcripts,
    alignment_record,
    dp_align,
    expected_substring_count,
    fold_case,
    longest_common_substring,
    partition_tree,
)
from soapkit.corpus import Rng, render_reference
from soapkit.synth import CorruptionConfig, SynthConfig, corrupt_corpus, generate_corpus

README_NOISE = CorruptionConfig(char_sub_rate=0.03, char_del_rate=0.01,
                                char_ins_rate=0.01, turn_merge_rate=0.3)


@pytest.fixture(scope="module")
def long_pair():
    """One seeded 300-utterance encounter (about 13k chars) and its ASR
    copy at README noise."""
    refs = generate_corpus(SynthConfig(n_transcripts=1, min_utterances=300,
                                       max_utterances=300, seed=5))
    asr, _ = corrupt_corpus(refs, README_NOISE, Rng(6))
    return render_reference(refs[0].utterances)[0], asr[0].text


def edit_cost(ops: str) -> int:
    """Unit edit cost of an op string: every op but a match costs one."""
    return len(ops) - ops.count("M")


def random_string(gen, alphabet, max_len):
    n = int(gen.integers(0, max_len + 1))
    return "".join(gen.choice(list(alphabet)) for _ in range(n))


class TestFoldCase:
    def test_plain_ascii(self):
        assert fold_case("Hello WORLD") == "hello world"

    def test_length_preserved_on_expanding_lowercase(self):
        s = "İstanbul"  # lowercase of the dotted capital I is two chars
        out = fold_case(s)
        assert len(out) == len(s)
        assert out.endswith("stanbul")


class TestLongestCommonSubstring:
    def test_empty_inputs(self):
        assert longest_common_substring("", "abc") == (0, 0, 0)
        assert longest_common_substring("abc", "") == (0, 0, 0)

    def test_matches_brute_force_with_tie_contract(self):
        gen = np.random.Generator(np.random.PCG64(17))
        for trial in range(300):
            alphabet = "ab" if trial % 3 == 0 else "abc"
            a = random_string(gen, alphabet, 18)
            b = random_string(gen, alphabet, 18)
            got = longest_common_substring(a, b)
            want = lcs_brute(a, b)
            assert got == want, f"{a!r} vs {b!r}"
            i, j, L = got
            assert a[i:i + L] == b[j:j + L]

    def test_repetitive_strings(self):
        assert longest_common_substring("aaaa", "aa") == (0, 0, 2)
        assert longest_common_substring("xabcx", "yabcy") == (1, 1, 3)

    def test_matches_rolling_dp_on_longer_strings(self):
        gen = np.random.Generator(np.random.PCG64(41))
        for trial in range(200):
            alphabet = "abcd"[:1 + trial % 4]
            a = random_string(gen, alphabet, 300)
            b = random_string(gen, alphabet, 300)
            assert longest_common_substring(a, b) == lcs_rolling_dp(a, b), f"{a!r} vs {b!r}"

    def test_matches_rolling_dp_on_transcript_text(self, long_pair):
        ref, asr = (fold_case(t) for t in long_pair)
        gen = np.random.Generator(np.random.PCG64(43))
        for _ in range(60):
            n, m = (int(x) for x in gen.integers(0, 301, size=2))
            i = int(gen.integers(0, len(ref) - n + 1))
            j = int(gen.integers(max(0, i - 400), min(len(asr) - m, i + 400) + 1))
            a, b = ref[i:i + n], asr[j:j + m]
            assert longest_common_substring(a, b) == lcs_rolling_dp(a, b), f"{a!r} vs {b!r}"


class TestCharModel:
    def test_empirical_frequencies_and_floor(self):
        m = CharModel.from_texts(["aaab"])
        assert m.prob("a") == pytest.approx(0.75)
        assert m.prob("b") == pytest.approx(0.25)
        assert m.prob("z") == pytest.approx(1.0 / 6.0)  # 1/(4 observed + 2 distinct)

    def test_empty_model(self):
        m = CharModel.from_texts([])
        assert m.prob("a") == 1.0


class TestExpectedSubstringCount:
    def test_hand_value(self):
        m = CharModel.from_texts(["aaab"])
        # (4-2+1) * (4-2+1) * p(a) p(b) = 9 * 0.1875
        assert expected_substring_count("ab", 4, 4, m) == pytest.approx(1.6875)

    def test_errors(self):
        m = CharModel.from_texts(["ab"])
        with pytest.raises(AlignmentError):
            expected_substring_count("", 4, 4, m)
        with pytest.raises(AlignmentError):
            expected_substring_count("abc", 2, 9, m)


class TestDpAlign:
    def test_matches_textbook_distance(self):
        gen = np.random.Generator(np.random.PCG64(23))
        for trial in range(150):
            alphabet = "ab" if trial % 2 == 0 else "abcd"
            a = random_string(gen, alphabet, 30)
            b = random_string(gen, alphabet, 30)
            assert edit_cost(dp_align(a, b)) == edit_distance_textbook(a, b)

    def test_kitten_sitting(self):
        ops = dp_align("kitten", "sitting")
        assert edit_cost(ops) == 3
        assert ops.count("M") == 4 and ops.count("S") == 2 and ops.count("I") == 1

    def test_empty_sides(self):
        assert dp_align("", "abc") == "III"
        assert dp_align("abc", "") == "DDD"
        assert dp_align("", "") == ""

    def test_match_preferred_over_substitute(self):
        assert dp_align("abc", "abc") == "MMM"
        assert dp_align("abc", "axc") == "MSM"

    def test_substitute_preferred_over_indel_pair(self):
        # "ab" -> "ba" admits cost-2 paths via two substitutions or an
        # insert/delete pair; the tie policy picks the substitutions
        assert dp_align("ab", "ba") == "SS"

    def test_op_string_must_cover_both_strings(self, monkeypatch):
        # a leaf alignment one op short covers neither string fully
        real = soapkit.align.dp_align
        monkeypatch.setattr(soapkit.align, "dp_align", lambda a, b: real(a, b)[:-1])
        with pytest.raises(AlignmentError, match="do not cover"):
            align_transcripts("the patient reports pain", "the patient report pain")
        monkeypatch.setattr(soapkit.align, "dp_align", lambda a, b: "M")
        with pytest.raises(AlignmentError, match="do not cover"):
            align_transcripts("ab", "ba")


def walk_partitions(node, out):
    out.append(node)
    for child in node.children:
        walk_partitions(child, out)
    return out


class TestPartitionTree:
    def test_anchor_invariants(self):
        ref = "the patient reports mild chest pain since tuesday evening."
        asr = "the patient report mild chest pane since tuesday evening"
        tree = partition_tree(ref, asr)
        model = CharModel.from_texts([ref, asr])
        nodes = walk_partitions(tree, [])
        anchored = [n for n in nodes if n.anchor is not None]
        assert anchored, "expected at least one confident anchor"
        for node in anchored:
            ri, ai, L = node.anchor
            assert ref[ri:ri + L] == asr[ai:ai + L]
            # the chance-co-occurrence test is applied at the scale of the
            # node being partitioned, not the whole document
            node_ref_len = node.ref_span[1] - node.ref_span[0]
            node_asr_len = node.asr_span[1] - node.asr_span[0]
            e = expected_substring_count(ref[ri:ri + L], node_ref_len, node_asr_len, model)
            assert e < 0.001
            left, right = node.children
            # children plus anchor tile the node's spans without overlap
            assert left.ref_span == (node.ref_span[0], ri)
            assert right.ref_span == (ri + L, node.ref_span[1])
            assert left.asr_span == (node.asr_span[0], ai)
            assert right.asr_span == (ai + L, node.asr_span[1])

    def test_unanchorable_pair_is_a_leaf(self):
        tree = partition_tree("ab", "ba")
        assert tree.anchor is None and tree.children == ()


class TestAlignTranscripts:
    def test_never_beats_and_rarely_exceeds_full_dp(self):
        # anchored partitioning yields a valid alignment, so its cost can
        # never go below the optimum; it is allowed to exceed it on rare
        # adversarial pairs (the acceptance suite bounds this at < 1%)
        gen = np.random.Generator(np.random.PCG64(31))
        words = ["pain", "chest", "mild", "since", "evening", "patient", "reports"]
        agree = 0
        for _ in range(30):
            k = int(gen.integers(3, 9))
            ref = " ".join(gen.choice(words) for _ in range(k))
            chars = list(ref)
            for i in range(len(chars)):
                if gen.random() < 0.08:
                    chars[i] = chr(ord("a") + int(gen.integers(26)))
            asr = "".join(chars)
            hier = edit_cost(align_transcripts(ref, asr))
            flat = edit_cost(dp_align(fold_case(ref), fold_case(asr)))
            assert hier >= flat
            agree += hier == flat
        assert agree >= 27

    def test_case_insensitive(self):
        assert align_transcripts("Chest Pain", "chest pain") == "M" * len("chest pain")

    def test_record_matches_rolling_dp_anchoring(self, long_pair, monkeypatch):
        got = alignment_record("e0", *long_pair)
        monkeypatch.setattr(soapkit.align, "longest_common_substring", lcs_rolling_dp)
        assert got == alignment_record("e0", *long_pair)

    def test_record_and_ops_agree(self, long_pair):
        ref, asr = long_pair
        rec = alignment_record("e0", ref, asr)
        # anchors and leaves tile both strings; in document order they
        # sort by their start offsets
        tiles = [((r, a), "M" * L) for r, a, L in rec["anchors"]]
        tiles += [((leaf["ref_span"][0], leaf["asr_span"][0]), leaf["ops"])
                  for leaf in rec["leaves"]]
        rebuilt = [ops for _, ops in sorted(tiles)]
        assert "".join(rebuilt) == align_transcripts(ref, asr)

    def test_record_leaves_no_cyclic_garbage(self, long_pair):
        ref, asr = long_pair
        n = 2000  # a prefix keeps the tree non-trivial and the call short
        gc.collect()
        gc.disable()
        try:
            rec = alignment_record("e0", ref[:n], asr[:n])
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert rec["anchors"]

    def test_record_shape(self):
        rec = alignment_record("e7", "the patient reports pain.", "the patient report pain")
        assert rec["encounter_id"] == "e7"
        assert isinstance(rec["anchors"], list) and isinstance(rec["leaves"], list)
        for a in rec["anchors"]:
            assert len(a) == 3
        for leaf in rec["leaves"]:
            assert set(leaf) == {"ref_span", "asr_span", "ops"}
            assert set(leaf["ops"]) <= set("MSID")

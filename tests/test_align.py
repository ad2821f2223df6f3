import gc
import tracemalloc

import numpy as np
import pytest

from oracles import (
    CharModel,
    dp_align_table,
    edit_distance_textbook,
    expected_substring_count,
    lcs_brute,
    lcs_per_start,
    lcs_rolling_dp,
    partition_reference,
)

import soapkit.align
from soapkit.align import (
    align_transcripts,
    alignment_record,
    dp_align,
    fold_case,
    longest_common_substring,
    partition_tree,
)
from soapkit.corpus import DataError, Rng, render_reference
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


def planted_pair(gen):
    """Random text over a 2-11 letter alphabet with shared runs of 8-150
    chars planted into both sides, and sometimes a short chunk repeated
    5-10 times in b (more places than a block may be extended from)."""
    letters = np.array(list("abcdefghij "[:int(gen.integers(2, 12))]))

    def text(n):
        return "".join(letters[gen.integers(0, len(letters), n)])

    def insert(s, piece):
        at = int(gen.integers(0, len(s) + 1))
        return s[:at] + piece + s[at:]

    a, b = text(int(gen.integers(0, 300))), text(int(gen.integers(0, 300)))
    for _ in range(int(gen.integers(0, 4))):
        run = text(int(gen.integers(8, 151)))
        a, b = insert(a, run), insert(b, run)
    if gen.random() < 0.4:
        chunk = text(int(gen.integers(3, 13)))
        a, b = insert(a, chunk * 2), insert(b, chunk * int(gen.integers(5, 11)))
    return a, b


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

    def test_matches_per_start_oracle_on_partition_calls(self, long_pair, monkeypatch):
        calls = []
        real = soapkit.align.longest_common_substring

        def recording(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(soapkit.align, "longest_common_substring", recording)
        partition_tree(*(fold_case(t) for t in long_pair))
        assert len(calls) > 500
        results = [real(a, b) for a, b in calls]
        assert results == [lcs_per_start(a, b) for a, b in calls]
        assert max(L for _, _, L in results) >= 100

    def test_matches_per_start_oracle_on_planted_pairs(self, monkeypatch):
        # every step of the scan opens with one `_find` of a block a[k:k+h];
        # replaying its schedule (k the first multiple of h above the last
        # block's k) tells which path each step took
        searched = []
        real_find = soapkit.align._find

        def recording(b, block):
            p = real_find(b, block)
            searched.append((block, 0 if p < 0 else len(soapkit.align._block_hits(b, block, p))))
            return p

        monkeypatch.setattr(soapkit.align, "_find", recording)
        cap = soapkit.align.MAX_BLOCK_HITS
        # over_cap counts blocks of 3+ chars only: the 1-char blocks of a
        # scan's first steps nearly always occur at many places
        paths = dict.fromkeys(["absent", "diagonal", "over_cap", "cut_short"], 0)
        gen = np.random.Generator(np.random.PCG64(47))
        for _ in range(300):
            a, b = planted_pair(gen)
            searched.clear()
            got = longest_common_substring(a, b)
            assert got == lcs_per_start(a, b), f"{a!r} vs {b!r}"
            k = -1
            for block, n_hits in searched:
                h = len(block)
                k = -(-(k + 1) // h) * h
                assert a[k:k + h] == block
                if n_hits == 0:
                    paths["absent"] += 1
                elif n_hits <= cap:
                    paths["diagonal"] += 1
                else:
                    paths["over_cap"] += h >= 3
            # the scan ends at the first block past the last one searched
            # that does not fit in a; cut_short counts those starting inside a
            h = (got[2] + 2) // 2
            paths["cut_short"] += -(-(k + 1) // h) * h < len(a)
        assert min(paths.values()) >= 20, paths

    def test_block_hits_are_capped(self):
        # from the leftmost start: leftmost first, overlapping, and one past
        # the cap at most
        assert soapkit.align._block_hits("xaxaxa", "a", 1) == [1, 3, 5]
        cap = soapkit.align.MAX_BLOCK_HITS
        assert soapkit.align._block_hits("a" * 20, "aa", 0) == list(range(cap + 1))
        assert soapkit.align._block_hits("abcab", "ca", 2) == [2]

    def test_matches_rolling_dp_on_transcript_text(self, long_pair):
        ref, asr = (fold_case(t) for t in long_pair)
        gen = np.random.Generator(np.random.PCG64(43))
        for _ in range(60):
            n, m = (int(x) for x in gen.integers(0, 301, size=2))
            i = int(gen.integers(0, len(ref) - n + 1))
            j = int(gen.integers(max(0, i - 400), min(len(asr) - m, i + 400) + 1))
            a, b = ref[i:i + n], asr[j:j + m]
            assert longest_common_substring(a, b) == lcs_rolling_dp(a, b), f"{a!r} vs {b!r}"


class TestDpAlign:
    def test_matches_textbook_distance(self):
        gen = np.random.Generator(np.random.PCG64(23))
        for trial in range(150):
            alphabet = "ab" if trial % 2 == 0 else "abcd"
            a = random_string(gen, alphabet, 30)
            b = random_string(gen, alphabet, 30)
            assert edit_cost(dp_align(a, b)) == edit_distance_textbook(a, b)

    def test_matches_full_table(self):
        gen = np.random.Generator(np.random.PCG64(29))
        for trial in range(400):
            alphabet = "ab" if trial % 2 == 0 else "abcd"
            a = random_string(gen, alphabet, 14)
            b = random_string(gen, alphabet, 14)
            assert dp_align(a, b) == dp_align_table(a, b), (a, b)
        # a lone surrogate, which JSON text may hold, aligns like any other char
        assert dp_align("a\ud800b", "\ud800ab") == dp_align_table("axb", "xab")

    def test_one_char_side_matches_full_table(self):
        # every pair with one side of one char (a, b, c, or d, which the
        # other side never holds) and the other of 1-7 chars over a, b, c
        others = [""]
        for _ in range(7):
            others = [o + c for o in others for c in "abc"]
            for c in "abcd":
                for o in others:
                    assert dp_align(c, o) == dp_align_table(c, o), (c, o)
                    assert dp_align(o, c) == dp_align_table(o, c), (o, c)

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

    def test_leaf_over_the_cell_budget_is_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="cell budget"):
                align_transcripts("a" * 8000, "b" * 8000)  # one 64M-cell leaf
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000  # the table alone would take 256 MB

    def test_cell_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(soapkit.align, "MAX_DP_CELLS", 12)
        assert dp_align("abc", "abcd") == "MMMI"
        with pytest.raises(DataError, match="cell budget"):
            dp_align("abcd", "abcd")

    def test_op_string_must_cover_both_strings(self, monkeypatch):
        # a leaf alignment one op short covers neither string fully
        real = soapkit.align.dp_align
        monkeypatch.setattr(soapkit.align, "dp_align", lambda a, b: real(a, b)[:-1])
        with pytest.raises(DataError, match="do not cover"):
            align_transcripts("the patient reports pain", "the patient report pain")
        monkeypatch.setattr(soapkit.align, "dp_align", lambda a, b: "M")
        with pytest.raises(DataError, match="do not cover"):
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
        model = CharModel([ref, asr])
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

    @staticmethod
    def _as_tuples(node):
        return (node.ref_span, node.asr_span, node.anchor,
                tuple(TestPartitionTree._as_tuples(c) for c in node.children))

    def test_matches_reference_partition(self):
        # 300-utterance encounters at README noise, shorter ones at heavy
        # char noise with merges and splits, and a few edge pairs
        heavy = CorruptionConfig(char_sub_rate=0.2, char_del_rate=0.2, char_ins_rate=0.2,
                                 turn_merge_rate=0.5, turn_split_rate=0.3)
        # JSON text may hold a lone surrogate, one char like any other
        pairs = [("", "abc"), ("abc", ""), ("ab", "ba"), ("aaaa", "aaaa"),
                 ("the patient reports pain", "the patient reports pain"),
                 ("the patient \ud800 reports pain", "the patient \ud800 report pain")]
        for seed, n_utt, noise in ((11, 300, README_NOISE), (12, 300, README_NOISE),
                                   (13, 40, heavy), (14, 40, heavy), (15, 12, README_NOISE)):
            refs = generate_corpus(SynthConfig(n_transcripts=8 if n_utt < 300 else 2,
                                               min_utterances=n_utt, max_utterances=n_utt,
                                               seed=seed))
            asr, _ = corrupt_corpus(refs, noise, Rng(seed + 100))
            pairs += [(fold_case(render_reference(r.utterances)[0]), fold_case(a.text))
                      for r, a in zip(refs, asr)]
        assert len(pairs) >= 30
        anchors = 0
        for ref, asr in pairs:
            tree = partition_tree(ref, asr)
            assert self._as_tuples(tree) == partition_reference(ref, asr), (ref[:40], asr[:40])
            anchors += sum(n.anchor is not None for n in walk_partitions(tree, []))
        assert anchors > 1000

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

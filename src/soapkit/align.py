"""Character-level alignment of a reference transcript against ASR output.

Long inputs are first partitioned by recursively anchoring longest common
substrings: an LCS is accepted as a fixed anchor only when its expected
number of chance occurrences (under a unigram character model of the two
texts) falls below a threshold, so common short fragments never pin the
alignment. The divergent gaps between anchors are then aligned with
unit-cost edit-distance DP. Alignment is done on lowercased text with
punctuation kept in place, so offsets map back to the original strings.
An alignment is an op string with one letter per step: M (match), S
(substitute), I (char only in the ASR text) or D (char only in the
reference); `align` records and projection both read that string.

The LCS scan keeps O(1) extra memory and runs its substring searches in
C, skipping every start from which no match longer than the best so far
can begin (see `longest_common_substring`). Alignment stays superlinear:
each search scans the ASR side, every recursion level searches all of its
gaps again, and a DP leaf costs the product of its two lengths.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

ANCHOR_THRESHOLD = 0.001
MAX_PARTITION_DEPTH = 64


class AlignmentError(ValueError):
    pass


def _codes(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)


def fold_case(s: str) -> str:
    """Length-preserving lowercase (chars whose lowercase form would change
    the string length are left as is)."""
    lowered = s.lower()
    if len(lowered) == len(s):
        return lowered
    return "".join(c.lower() if len(c.lower()) == 1 else c for c in s)


def longest_common_substring(a: str, b: str) -> tuple:
    """(a_start, b_start, length) of the longest substring shared by a and b.

    Ties are broken by the leftmost start in a, then the leftmost start in
    b. One pass over the starts of a: at start i the best length L found
    so far grows while a[i:i+L+1] occurs in b, so the first start that
    reaches the final length keeps it, and b.find gives the leftmost start
    in b. With h = (L + 2) // 2, a match of length L + 1 from i covers the
    block a[k:k+h] at the first multiple k of h not below i; starts whose
    block does not occur in b cannot improve L and are skipped.
    """
    best = best_i = 0
    block = (0, 0, True)  # (start, length, occurs in b) of the last block searched
    for i in range(len(a)):
        h = (best + 2) // 2
        k = -(-i // h) * h
        if block[:2] != (k, h):
            block = (k, h, a[k:k + h] in b)
        if not block[2]:
            continue
        while i + best < len(a) and a[i:i + best + 1] in b:
            best += 1
            best_i = i
    if best == 0:
        return (0, 0, 0)
    return (best_i, b.find(a[best_i:best_i + best]), best)


@dataclass(frozen=True)
class CharModel:
    """Unigram character model with a floor for unseen characters.

    Observed chars get their empirical frequency; a char absent from the
    model gets 1 / (total observed + alphabet size).
    """

    probs: dict
    floor: float

    @classmethod
    def from_texts(cls, texts) -> "CharModel":
        counts = Counter()
        for t in texts:
            counts.update(t)
        total = sum(counts.values())
        if total == 0:
            return cls(probs={}, floor=1.0)
        probs = {c: n / total for c, n in counts.items()}
        return cls(probs=probs, floor=1.0 / (total + len(counts)))

    def prob(self, ch: str) -> float:
        return self.probs.get(ch, self.floor)


def expected_substring_count(pattern: str, ref_len: int, asr_len: int, model: CharModel) -> float:
    """Expected number of chance co-occurrences of `pattern` in two strings
    of the given lengths under the unigram model:
    (ref_len - L + 1) * (asr_len - L + 1) * prod(p(c))."""
    L = len(pattern)
    if L == 0:
        raise AlignmentError("pattern must be non-empty")
    if ref_len < L or asr_len < L:
        raise AlignmentError("pattern longer than one of the strings")
    p = 1.0
    for c in pattern:
        p *= model.prob(c)
        if p == 0.0:
            break
    return float(ref_len - L + 1) * float(asr_len - L + 1) * p


@dataclass
class Partition:
    """A tile of the (ref, asr) string pair.

    Anchored nodes carry the accepted LCS anchor (absolute offsets, equal
    length in both strings) plus left/right child partitions covering the
    remainders; leaves have no anchor and are aligned by DP. Children and
    anchor tile the node's spans without overlap.
    """

    ref_span: tuple
    asr_span: tuple
    anchor: tuple | None = None  # (ref_start, asr_start, length)
    children: tuple = ()


def partition_tree(ref: str, asr: str) -> Partition:
    """Recursive LCS-anchor partition of the full string pair.

    The character model is estimated once from the concatenation of both
    strings; the expected-count test uses the lengths of the strings
    currently being partitioned.
    """
    model = CharModel.from_texts([ref, asr])
    return _partition(ref, asr, 0, 0, model, 0)


def _partition(ref, asr, ref_off, asr_off, model, depth) -> Partition:
    ref_span = (ref_off, ref_off + len(ref))
    asr_span = (asr_off, asr_off + len(asr))
    if not ref or not asr:
        return Partition(ref_span, asr_span)
    i, j, L = longest_common_substring(ref, asr)
    if L == 0 or depth >= MAX_PARTITION_DEPTH:
        return Partition(ref_span, asr_span)
    e = expected_substring_count(ref[i:i + L], len(ref), len(asr), model)
    if e >= ANCHOR_THRESHOLD:
        return Partition(ref_span, asr_span)
    left = _partition(ref[:i], asr[:j], ref_off, asr_off, model, depth + 1)
    right = _partition(ref[i + L:], asr[j + L:], ref_off + i + L, asr_off + j + L, model, depth + 1)
    return Partition(ref_span, asr_span, anchor=(ref_off + i, asr_off + j, L),
                     children=(left, right))


def dp_align(a: str, b: str) -> str:
    """Unit-cost edit alignment of two strings (full DP), as an op string:
    M (match), S (substitute), I (char only in b), D (char only in a).

    Traceback tie preference: Match > Substitute > Delete > Insert.
    """
    n, m = len(a), len(b)
    if n == 0:
        return "I" * m
    if m == 0:
        return "D" * n
    ca, cb = _codes(a), _codes(b)
    D = np.empty((n + 1, m + 1), dtype=np.int32)
    idx = np.arange(m + 1, dtype=np.int32)
    D[0] = idx
    tmp = np.empty(m + 1, dtype=np.int32)
    for i in range(1, n + 1):
        neq = (cb != ca[i - 1]).astype(np.int32)
        tmp[0] = i
        np.minimum(D[i - 1, :-1] + neq, D[i - 1, 1:] + 1, out=tmp[1:])
        # running-min trick folds in the left-to-right insert recurrence:
        # D[i,j] = j + min_{k<=j}(tmp[k] - k)
        D[i] = idx + np.minimum.accumulate(tmp - idx)
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        d = D[i, j]
        if i > 0 and j > 0 and ca[i - 1] == cb[j - 1] and d == D[i - 1, j - 1]:
            ops.append("M")
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and ca[i - 1] != cb[j - 1] and d == D[i - 1, j - 1] + 1:
            ops.append("S")
            i -= 1
            j -= 1
        elif i > 0 and d == D[i - 1, j] + 1:
            ops.append("D")
            i -= 1
        else:
            ops.append("I")
            j -= 1
    return "".join(reversed(ops))


def _tiles(node: Partition, ref: str, asr: str):
    """The tiles of a partition tree in document order: (node, None) for
    each anchored node and (leaf, its DP alignment) for each leaf that
    covers any characters."""
    if node.anchor is not None:
        left, right = node.children
        yield from _tiles(left, ref, asr)
        yield node, None
        yield from _tiles(right, ref, asr)
        return
    rl, rh = node.ref_span
    al, ah = node.asr_span
    if rh > rl or ah > al:
        yield node, dp_align(ref[rl:rh], asr[al:ah])


def align_transcripts(ref_text: str, asr_text: str) -> str:
    """Hierarchical alignment: partition by statistically confident LCS
    anchors, DP inside the leaves, concatenated in document order.
    Performed on lowercased copies; offsets are valid for the originals.

    The result is an op string (see `dp_align`) that covers every char of
    both strings exactly once."""
    ref_l = fold_case(ref_text)
    asr_l = fold_case(asr_text)
    ops = "".join("M" * node.anchor[2] if sub is None else sub
                  for node, sub in _tiles(partition_tree(ref_l, asr_l), ref_l, asr_l))
    n_ref, n_asr = len(ops) - ops.count("I"), len(ops) - ops.count("D")
    if n_ref != len(ref_text) or n_asr != len(asr_text):
        raise AlignmentError(
            f"op counts ({n_ref} ref, {n_asr} asr) do not cover "
            f"string lengths ({len(ref_text)}, {len(asr_text)})")
    return ops


def alignment_record(encounter_id: str, ref_text: str, asr_text: str) -> dict:
    """Per-encounter alignment dump: anchored spans plus leaf op strings."""
    ref_l = fold_case(ref_text)
    asr_l = fold_case(asr_text)
    anchors = []
    leaves = []
    for node, sub in _tiles(partition_tree(ref_l, asr_l), ref_l, asr_l):
        if sub is None:
            anchors.append(list(node.anchor))
        else:
            leaves.append({
                "ref_span": list(node.ref_span),
                "asr_span": list(node.asr_span),
                "ops": sub,
            })
    return {"encounter_id": encounter_id, "anchors": anchors, "leaves": leaves}

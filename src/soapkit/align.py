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

The LCS scan keeps O(1) extra memory and steps over blocks of the first
string, not over its starts (see `longest_common_substring`): a block
absent from the ASR side costs one substring search in C and no Python
call, and a block found there at a few places is extended along those
diagonals. A block found at many places falls back to a search per
start. A leaf with a one-char side (most leaves of a long encounter) is
answered in closed form, one `rfind`, not by the DP table, and the
tiles are read off the tree by a walk with its own stack. Alignment
stays superlinear: each search scans the ASR side, every recursion level
searches all of its gaps again, and a DP leaf, bounded by `MAX_DP_CELLS`,
costs the product of its two lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DataError

ANCHOR_THRESHOLD = 0.001
MAX_PARTITION_DEPTH = 64
# DP leaves larger than this (200 MB of int32) are refused, not allocated
MAX_DP_CELLS = 50_000_000
# a block found at more places than this is scanned one start at a time
MAX_BLOCK_HITS = 4


def _codes(s: str) -> np.ndarray:
    """The code points of s, a lone surrogate (JSON text may hold one) too."""
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def fold_case(s: str) -> str:
    """Length-preserving lowercase (chars whose lowercase form would change
    the string length are left as is)."""
    lowered = s.lower()
    if len(lowered) == len(s):
        return lowered
    return "".join(c.lower() if len(c.lower()) == 1 else c for c in s)


# the search that opens each scan step; a step whose block it does not
# find ends there (tests wrap this name to watch the steps)
_find = str.find


def _block_hits(b: str, block: str, p: int) -> list:
    """Leftmost-first starts of block in b, from its leftmost start p, at
    most MAX_BLOCK_HITS + 1."""
    hits = [p]
    while len(hits) <= MAX_BLOCK_HITS:
        p = b.find(block, p + 1)
        if p < 0:
            break
        hits.append(p)
    return hits


def _run_length(a: str, x: int, b: str, y: int, L: int) -> int:
    """Length of the common prefix of a[x:] and b[y:], given that its
    first L chars match."""
    limit = min(len(a) - x, len(b) - y)
    while L < limit and a[x + L] == b[y + L]:
        L += 1
    return L


def longest_common_substring(a: str, b: str) -> tuple:
    """(a_start, b_start, length) of the longest substring shared by a and b.

    Ties are broken by the leftmost start in a, then the leftmost start in
    b. `best` is the longest match from the starts seen so far. A match of
    length best + 1 from a start in (k-h, k], with h = (best + 2) // 2 and
    k a multiple of h, covers the block a[k:k+h], so one step settles all
    of those starts, by how often the block occurs in b:

    - never: none of them can beat best, and the next block is searched
      at once, with no other work in between;
    - up to MAX_BLOCK_HITS times: a longer match lies on the diagonal of
      one occurrence, so each is extended left (fewer than h chars) and
      right; of equal runs the one starting furthest left wins;
    - more often: each start is searched in b, and each find is extended;
    - the block is cut short by the end of a: no start left can reach
      best + 1, and the scan ends.
    """
    n, m = len(a), len(b)
    best = best_i = i = 0
    while True:
        h = (best + 2) // 2
        k = -(-i // h) * h
        while k + h <= n and (p := _find(b, a[k:k + h])) < 0:
            k += h
        if k + h > n:
            break
        if k - h >= i:
            # the blocks stepped over settled every start up to k - h
            i = k - h + 1
        hits = _block_hits(b, a[k:k + h], p)
        if len(hits) > MAX_BLOCK_HITS:
            for s in range(i, k + 1):
                while s + best < n and (q := b.find(a[s:s + best + 1])) >= 0:
                    best, best_i = _run_length(a, s, b, q, best + 1), s
        else:
            for p in hits:
                d = p - k
                lo = i if i > -d else -d
                s = k
                while s > lo and a[s - 1] == b[s - 1 + d]:
                    s -= 1
                L = k + h - s
                if L < best:
                    if (n - s < best or m - s - d < best
                            or a[k + h:s + best] != b[p + h:s + d + best]):
                        continue
                    L = best
                L = _run_length(a, s, b, s + d, L)
                # earlier steps saw only starts below i <= s, so s < best_i
                # holds only for a run found in this step
                if L > best or (L == best and s < best_i):
                    best, best_i = L, s
        i = k + 1
    if best == 0:
        return (0, 0, 0)
    return (best_i, b.find(a[best_i:best_i + best]), best)


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

    The character frequencies are counted once over both strings; the
    expected-count test uses the lengths of the strings currently being
    partitioned.
    """
    chars, counts = np.unique(_codes(ref + asr), return_counts=True)
    freqs = dict(zip(map(chr, chars.tolist()), counts.tolist()))
    return _partition(ref, asr, 0, 0, (freqs, len(ref) + len(asr)), 0)


def _partition(ref, asr, ref_off, asr_off, freqs, depth) -> Partition:
    ref_span = (ref_off, ref_off + len(ref))
    asr_span = (asr_off, asr_off + len(asr))
    if not ref or not asr:
        return Partition(ref_span, asr_span)
    i, j, L = longest_common_substring(ref, asr)
    if L == 0 or depth >= MAX_PARTITION_DEPTH:
        return Partition(ref_span, asr_span)
    counts, total = freqs
    places = float(len(ref) - L + 1) * float(len(asr) - L + 1)
    p = 1.0
    for c in ref[i:i + L]:
        p *= counts[c] / total
        # no factor exceeds 1, so p only falls: the test is settled here
        if places * p < ANCHOR_THRESHOLD:
            break
    if places * p >= ANCHOR_THRESHOLD:
        return Partition(ref_span, asr_span)
    left = _partition(ref[:i], asr[:j], ref_off, asr_off, freqs, depth + 1)
    right = _partition(ref[i + L:], asr[j + L:], ref_off + i + L, asr_off + j + L, freqs, depth + 1)
    return Partition(ref_span, asr_span, anchor=(ref_off + i, asr_off + j, L),
                     children=(left, right))


def dp_align(a: str, b: str) -> str:
    """Unit-cost edit alignment of two strings (full DP), as an op string:
    M (match), S (substitute), I (char only in b), D (char only in a).
    Raises DataError, before allocating, when len(a) * len(b) exceeds
    MAX_DP_CELLS.

    Traceback tie preference: Match > Substitute > Delete > Insert.
    """
    n, m = len(a), len(b)
    if n * m > MAX_DP_CELLS:
        raise DataError(
            f"a {n} x {m} alignment leaf exceeds the {MAX_DP_CELLS} cell budget; "
            "the two texts share too little to anchor")
    if n == 0:
        return "I" * m
    if m == 0:
        return "D" * n
    # a one-char side matches the other's last copy of it, or else takes
    # a substitution at the other's end: the tie rule below, in closed form
    if n == 1:
        k = b.rfind(a)
        return "I" * (m - 1) + "S" if k < 0 else "I" * k + "M" + "I" * (m - k - 1)
    if m == 1:
        k = a.rfind(b)
        return "D" * (n - 1) + "S" if k < 0 else "D" * k + "M" + "D" * (n - k - 1)
    ca, cb = _codes(a), _codes(b)
    # E[i, j] = D[i, j] - j, the distance less the j inserts of b[:j]: the
    # left-to-right insert recurrence of a row is then a running minimum
    E = np.empty((n + 1, m + 1), dtype=np.int32)
    E[0] = 0
    for i in range(1, n + 1):
        row = E[i]
        np.minimum(E[i - 1, :-1] - (cb == ca[i - 1]), E[i - 1, 1:] + 1, out=row[1:])
        row[0] = i
        np.minimum.accumulate(row, out=row)
    ops = []
    i, j = n, m
    while i > 0 and j > 0:
        e, same = E.item(i, j), a[i - 1] == b[j - 1]
        if e == E.item(i - 1, j - 1) - same:
            ops.append("M" if same else "S")
            i -= 1
            j -= 1
        elif e == E.item(i - 1, j) + 1:
            ops.append("D")
            i -= 1
        else:
            ops.append("I")
            j -= 1
    return "I" * j + "D" * i + "".join(reversed(ops))


def _tiles(root: Partition, ref: str, asr: str):
    """The tiles of a partition tree in document order: (node, None) for
    each anchored node and (leaf, its DP alignment) for each leaf that
    covers any characters. The walk keeps its own stack: an anchored
    node is pushed back as its tile, between its two children."""
    todo = [root]
    while todo:
        node = todo.pop()
        if node.__class__ is tuple:
            yield node
        elif node.anchor is not None:
            left, right = node.children
            todo += (right, (node, None), left)
        else:
            rl, rh = node.ref_span
            al, ah = node.asr_span
            if rh > rl or ah > al:
                yield node, dp_align(ref[rl:rh], asr[al:ah])


def _folded_tiles(ref_text: str, asr_text: str):
    """The tiles (see `_tiles`) of the partition tree of the case-folded texts."""
    ref_l, asr_l = fold_case(ref_text), fold_case(asr_text)
    return _tiles(partition_tree(ref_l, asr_l), ref_l, asr_l)


def align_transcripts(ref_text: str, asr_text: str) -> str:
    """Hierarchical alignment: partition by statistically confident LCS
    anchors, DP inside the leaves, concatenated in document order.
    Performed on lowercased copies; offsets are valid for the originals.

    The result is an op string (see `dp_align`) that covers every char of
    both strings exactly once."""
    ops = "".join("M" * node.anchor[2] if sub is None else sub
                  for node, sub in _folded_tiles(ref_text, asr_text))
    n_ref, n_asr = len(ops) - ops.count("I"), len(ops) - ops.count("D")
    if n_ref != len(ref_text) or n_asr != len(asr_text):
        raise DataError(
            f"op counts ({n_ref} ref, {n_asr} asr) do not cover "
            f"string lengths ({len(ref_text)}, {len(asr_text)})")
    return ops


def alignment_record(encounter_id: str, ref_text: str, asr_text: str) -> dict:
    """Per-encounter alignment dump: anchored spans plus leaf op strings."""
    anchors = []
    leaves = []
    for node, sub in _folded_tiles(ref_text, asr_text):
        if sub is None:
            anchors.append(list(node.anchor))
        else:
            leaves.append({
                "ref_span": list(node.ref_span),
                "asr_span": list(node.asr_span),
                "ops": sub,
            })
    return {"encounter_id": encounter_id, "anchors": anchors, "leaves": leaves}

"""Utterance cleaning and tokenization for the classifiers.

Bracketed annotations become uppercase placeholder words, trailing dashes
are stripped, sentence punctuation is detached, and every utterance
becomes the list of its real tokens, at most MAX_TOKENS long (stopword
removal and truncation only kick in above the cap).
"""

from __future__ import annotations

import re
import warnings

from .corpus import Transcript, Utterance

MAX_TOKENS = 32

# ~150 common English function words; removed only when an utterance
# exceeds the token cap.
DEFAULT_STOPWORDS = frozenset("""
a about above after again against all am an and any are aren't as at be
because been before being below between both but by can cannot could
couldn't did didn't do does doesn't doing don't down during each few for
from further had hadn't has hasn't have haven't having he he's her here
here's hers herself him himself his how how's i i'd i'll i'm i've if in
into is isn't it it's its itself just let's me more most mustn't my myself
no nor not now of off on once only or other ought our ours ourselves out
over own same shan't she she'd she'll she's should shouldn't so some such
than that that's the their theirs them themselves then there there's these
they they'd they'll they're they've this those through to too under until
up very was wasn't we we'd we'll we're we've were weren't what what's when
when's where where's which while who who's whom why why's will with won't
would wouldn't you you'd you'll you're you've your yours yourself
yourselves
""".split())

_ANNOTATION = re.compile(r"\[([^\[\]]*)\]")
_PLACEHOLDER = re.compile(r"^[A-Z0-9_]{2,}$")  # a bare capital I is a word, not a placeholder
_TRAILING_DASHES = "-–—"
_DETACH_PUNCT = ".,?!"


def standardize_annotations(text: str) -> str:
    """Replace every bracketed annotation with an UPPERCASE_UNDERSCORE
    placeholder word; unbalanced brackets are left verbatim with a warning."""
    out = _ANNOTATION.sub(lambda m: "_".join(m.group(1).split()).upper(), text)
    if "[" in out or "]" in out:
        warnings.warn(f"unbalanced bracket left verbatim in {text!r}", stacklevel=2)
    return out


def _chunk_tokens(chunk: str, memo: dict) -> tuple:
    """(tokens, count of non-placeholders) of one whitespace chunk: trailing
    punctuation detached, all but placeholders lowercased; `memo` keeps one
    string object per token, under the key (token,)."""
    word = chunk.rstrip(_DETACH_PUNCT)
    parts = [part for part in (word, chunk[len(word):]) if part]
    tokens = (p if _PLACEHOLDER.match(p) else p.lower() for p in parts)
    return tuple(memo.setdefault((t,), t) for t in tokens), sum(not _PLACEHOLDER.match(p) for p in parts)


def clean_and_tokenize(text: str, memo: dict | None = None) -> list:
    """The real tokens of one utterance, at most MAX_TOKENS of them.

    Pipeline: standardize annotations, strip trailing dashes, whitespace
    tokenization with trailing-punctuation detachment, lowercase everything
    except placeholders, then stopword-drop / truncate to the cap.
    Returns [] when no linguistic token survives. `memo` maps each chunk
    seen to its `_chunk_tokens`; a corpus shares one.
    """
    memo = {} if memo is None else memo
    t = standardize_annotations(text).strip()
    while t and t[-1] in _TRAILING_DASHES:
        t = t[:-1].rstrip()
    tokens, words = [], 0
    for chunk in t.split():
        chunk_tokens, chunk_words = memo.get(chunk) or memo.setdefault(chunk, _chunk_tokens(chunk, memo))
        tokens += chunk_tokens
        words += chunk_words
    if not words:
        return []
    if len(tokens) > MAX_TOKENS:
        # stopword removal applies only above the cap; if it would wipe the
        # utterance out entirely, fall back to plain truncation
        kept = [tok for tok in tokens if tok not in DEFAULT_STOPWORDS]
        if kept:
            tokens = kept
    return tokens[:MAX_TOKENS]


def preprocess_transcript(transcript: Transcript, memo: dict | None = None) -> Transcript:
    """Attach token lists to every utterance; utterances with no linguistic
    content are dropped and the ids are re-densified. `memo` is
    `clean_and_tokenize`'s, shared across a corpus, which repeats a few
    hundred words thousands of times."""
    kept = []
    for utt in transcript.utterances:
        tokens = tuple(clean_and_tokenize(utt.text, memo))
        if tokens:
            kept.append(Utterance(len(kept), utt.text, utt.speaker, utt.section, utt.dist, tokens))
    return Transcript(encounter_id=transcript.encounter_id, kind=transcript.kind, utterances=tuple(kept))


def preprocess_corpus(transcripts) -> list:
    memo = {}
    return [p for p in (preprocess_transcript(t, memo) for t in transcripts) if p.utterances]

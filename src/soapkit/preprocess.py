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


class EmptyUtteranceError(ValueError):
    """The utterance has no linguistic content after cleaning."""


def standardize_annotations(text: str) -> str:
    """Replace every bracketed annotation with an UPPERCASE_UNDERSCORE
    placeholder word; unbalanced brackets are left verbatim with a warning."""
    out = _ANNOTATION.sub(lambda m: "_".join(m.group(1).split()).upper(), text)
    if "[" in out or "]" in out:
        warnings.warn(f"unbalanced bracket left verbatim in {text!r}", stacklevel=2)
    return out


def _detach(chunk: str) -> list:
    i = len(chunk)
    while i > 0 and chunk[i - 1] in _DETACH_PUNCT:
        i -= 1
    parts = []
    if chunk[:i]:
        parts.append(chunk[:i])
    if chunk[i:]:
        parts.append(chunk[i:])
    return parts


def clean_and_tokenize(text: str) -> list:
    """The real tokens of one utterance, at most MAX_TOKENS of them.

    Pipeline: standardize annotations, strip trailing dashes, whitespace
    tokenization with trailing-punctuation detachment, lowercase everything
    except placeholders, then stopword-drop / truncate to the cap.
    Raises EmptyUtteranceError when no linguistic token survives.
    """
    t = standardize_annotations(text).strip()
    while t and t[-1] in _TRAILING_DASHES:
        t = t[:-1].rstrip()
    tokens = []
    for chunk in t.split():
        for part in _detach(chunk):
            tokens.append(part if _PLACEHOLDER.match(part) else part.lower())
    if not tokens or all(_PLACEHOLDER.match(tok) for tok in tokens):
        raise EmptyUtteranceError(f"no linguistic tokens in {text!r}")
    if len(tokens) > MAX_TOKENS:
        # stopword removal applies only above the cap; if it would wipe the
        # utterance out entirely, fall back to plain truncation
        kept = [tok for tok in tokens if tok not in DEFAULT_STOPWORDS]
        if kept:
            tokens = kept
    return tokens[:MAX_TOKENS]


def preprocess_transcript(transcript: Transcript, shared: dict | None = None) -> Transcript:
    """Attach token lists to every utterance; utterances with no linguistic
    content are dropped and the ids are re-densified. `shared` maps each
    token seen so far to the string object to reuse for it, so that a
    corpus holds each distinct token once."""
    shared = {} if shared is None else shared
    kept = []
    for utt in transcript.utterances:
        try:
            tokens = clean_and_tokenize(utt.text)
        except EmptyUtteranceError:
            continue
        kept.append(Utterance(
            id=len(kept),
            text=utt.text,
            speaker=utt.speaker,
            section=utt.section,
            dist=utt.dist,
            tokens=tuple(shared.setdefault(tok, tok) for tok in tokens),
        ))
    return Transcript(encounter_id=transcript.encounter_id, kind=transcript.kind, utterances=tuple(kept))


def preprocess_corpus(transcripts) -> list:
    # a corpus repeats a few hundred words thousands of times
    shared = {}
    out = []
    for t in transcripts:
        p = preprocess_transcript(t, shared)
        if p.utterances:
            out.append(p)
    return out

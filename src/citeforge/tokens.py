"""Tokenization and per-token orthographic features for reference strings.

Tokens are whitespace-separated runs with punctuation left attached.  The
feature vector holds exactly what the HMM reads: the lowercased surface
(its emission symbol when frequent enough) and the coarse case,
punctuation and last-character classes that make up its backoff symbol.

Features depend on the surface alone, so `extract_features` is memoized
per surface in an LRU cache bounded at FEATURE_CACHE_SIZE (32,768)
entries.  An entry costs about 260 bytes on CPython 3.11 for a 3-12
character surface (the surface key, its lowercased copy, the slotted
vector and the cache's own link), so the cache holds at most about 9 MB
however long the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

CASE_CLASSES = ("Initialcaps", "MixedCaps", "ALLCAPS", "others")
PUNCT_CLASSES = (
    "leadingQuotes",
    "endingQuotes",
    "multipleHyphens",
    "continuingPunctuation",
    "stopPunctuation",
    "pairedBraces",
    "possibleVolume",
    "others",
)
LAST_CHAR_CLASSES = ("upper", "lower", "numeric", "other")

_QUOTES = "\"'`‘’“”"
_HYPHENS = "-‐‑‒–—"
_VOLUME_RE = re.compile(r"\d+\(\d+\)[.,;:]?$")
_PAIRS = (("(", ")"), ("[", "]"), ("{", "}"))


FEATURE_CACHE_SIZE = 1 << 15


@dataclass(frozen=True, slots=True)
class FeatureVector:
    lower: str
    last_char_class: str
    case_class: str
    punct_class: str

    def backoff_class(self) -> str:
        """Coarse emission symbol for surfaces too rare to stand alone.

        The C=/P=/L= markers keep these distinct from any lowercased
        surface form.
        """
        return f"C={self.case_class}|P={self.punct_class}|L={self.last_char_class}"


# Every backoff symbol, case x punctuation x last character.
BACKOFF_CLASSES = tuple(
    FeatureVector("", last, case, punct).backoff_class()
    for case in CASE_CLASSES for punct in PUNCT_CLASSES for last in LAST_CHAR_CLASSES
)


@dataclass(frozen=True)
class Token:
    surface: str
    start: int
    end: int
    features: FeatureVector


def _case_class(surface: str) -> str:
    letters = [c for c in surface if c.isalpha()]
    if not letters:
        return "others"
    if all(c.isupper() for c in letters):
        return "ALLCAPS"
    if all(c.islower() for c in letters):
        return "others"
    if letters[0].isupper() and all(c.islower() for c in letters[1:]):
        return "Initialcaps"
    return "MixedCaps"


def _punct_class(surface: str) -> str:
    if surface[0] in _QUOTES:
        return "leadingQuotes"
    if surface[-1] in _QUOTES or (
        len(surface) > 1 and surface[-1] in ".,;:" and surface[-2] in _QUOTES
    ):
        return "endingQuotes"
    if sum(surface.count(h) for h in _HYPHENS) >= 2:
        return "multipleHyphens"
    if _VOLUME_RE.fullmatch(surface):
        return "possibleVolume"
    if any(a in surface and b in surface for a, b in _PAIRS):
        return "pairedBraces"
    if surface[-1] in ",;":
        return "continuingPunctuation"
    if surface[-1] in ".!?":
        return "stopPunctuation"
    return "others"


def _last_char_class(surface: str) -> str:
    c = surface[-1]
    if c.isupper():
        return "upper"
    if c.islower():
        return "lower"
    if c.isdigit():
        return "numeric"
    return "other"


@lru_cache(maxsize=FEATURE_CACHE_SIZE)
def extract_features(surface: str) -> FeatureVector:
    """Feature vector for a non-empty token surface.  Pure: equal surfaces
    always give equal vectors, and the frozen result is shared between
    them."""
    return FeatureVector(
        lower=surface.lower(),
        last_char_class=_last_char_class(surface),
        case_class=_case_class(surface),
        punct_class=_punct_class(surface),
    )


_WORD = re.compile(r"\S+")


def tokenize(reference: str) -> list[Token]:
    """Split a reference on whitespace into offset-exact tokens.

    Punctuation stays attached; the feature extractor deals with it.
    """
    return [
        Token(m.group(0), m.start(), m.end(), extract_features(m.group(0)))
        for m in _WORD.finditer(reference)
    ]

"""Tokenization and per-token orthographic features for reference strings.

Tokens are whitespace-separated runs with punctuation left attached.  A
token's `FeatureVector` holds exactly the two symbols the HMM reads: the
lowercased surface (its emission symbol when frequent enough) and the
backoff symbol built from its coarse case, punctuation and
last-character classes.  The 128 backoff symbols are built once, and
every vector shares those strings.

Features depend on the surface alone, so a `Token` stores none: its
`features` are computed from its surface when read, and nothing is
cached.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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


class FeatureVector(NamedTuple):
    """The two emission symbols the HMM reads for a surface."""

    lower: str
    # Case x punctuation x last-character class, the symbol of surfaces
    # too rare to stand alone; the C=/P=/L= markers keep it distinct from
    # any lowercased surface.
    backoff: str


# Every backoff symbol, keyed by its (case, punctuation, last character)
# classes.
_BACKOFF = {
    (case, punct, last): f"C={case}|P={punct}|L={last}"
    for case in CASE_CLASSES for punct in PUNCT_CLASSES for last in LAST_CHAR_CLASSES
}
BACKOFF_CLASSES = tuple(_BACKOFF.values())


class Token(NamedTuple):
    surface: str
    start: int
    end: int

    @property
    def features(self) -> FeatureVector:
        return extract_features(self.surface)


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


def backoff_symbol(surface: str) -> str:
    """The backoff symbol of a non-empty token surface."""
    return _BACKOFF[_case_class(surface), _punct_class(surface), _last_char_class(surface)]


def extract_features(surface: str) -> FeatureVector:
    """Feature vector for a non-empty token surface."""
    return FeatureVector(surface.lower(), backoff_symbol(surface))


# A token: a maximal run of non-whitespace.
WORD = re.compile(r"\S+")


def tokenize(reference: str) -> list[Token]:
    """Split a reference on whitespace into offset-exact tokens.

    Punctuation stays attached; the feature extractor deals with it.
    """
    return [Token(m.group(0), m.start(), m.end()) for m in WORD.finditer(reference)]

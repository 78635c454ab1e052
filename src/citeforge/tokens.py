"""Tokenization and per-token orthographic classes for reference strings.

A token is its surface string, a whitespace-separated run with
punctuation left attached: `tokenize(s) == s.split()`.  The HMM reads two
functions of it: the lowercased surface (its emission symbol when
frequent enough) and the backoff symbol built from its coarse case,
punctuation and last-character classes.  The 128 backoff symbols are
built once and shared.

A backoff symbol is computed once per shape, not once per surface.  The
rules read of a character only whether it is a letter, upper, lower, a
digit and a decimal digit, unless it is a quote, hyphen, bracket or stop
mark; `_SHAPES` maps every other character to one representative with
the same five answers, and the symbol of each shape is memoised.  The
table holds one entry per distinct character read, and the memo at most
`_SHAPE_CACHE_SIZE` shapes.
"""

from __future__ import annotations

import re
from functools import lru_cache
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


class Token(str):
    """A token as `tokenize` returns it: its surface string.  `surface`
    and `features` stay only because the benchmark harness
    (`perfbench/tracing.py`) reads them; this class and `FeatureVector`
    go once it no longer does."""

    __slots__ = ()

    @property
    def surface(self) -> str:
        return self

    @property
    def features(self) -> FeatureVector:
        return FeatureVector(self.lower(), backoff_symbol(self))


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


# The characters the rules test by identity; any other is read only
# through five facts, `isdecimal` being what `re`'s `\d` matches.
_NAMED = frozenset(_QUOTES + _HYPHENS + "()[]{}" + ".,;:!?")
_SHAPE_CACHE_SIZE = 4096


class _ShapeTable(dict):
    """`str.translate` table from a surface to its shape: a named
    character stays itself, any other becomes the first character seen
    with the same facts."""

    def __init__(self):
        super().__init__()
        self.first_with_facts: dict[tuple[bool, ...], str] = {}

    def __missing__(self, code: int) -> str:
        c = chr(code)
        if c not in _NAMED:
            facts = (c.isalpha(), c.isupper(), c.islower(), c.isdigit(), c.isdecimal())
            c = self.first_with_facts.setdefault(facts, c)
        self[code] = c
        return c


_SHAPES = _ShapeTable()


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _shape_symbol(shape: str) -> str:
    return _BACKOFF[_case_class(shape), _punct_class(shape), _last_char_class(shape)]


def backoff_symbol(surface: str) -> str:
    """The backoff symbol of a non-empty token surface."""
    return _shape_symbol(surface.translate(_SHAPES))


# A token: a maximal run of non-whitespace.
WORD = re.compile(r"\S+")


def tokenize(reference: str) -> list[Token]:
    """Split a reference on whitespace into tokens, as `str.split` does.

    Punctuation stays attached; the backoff classes deal with it.
    """
    return list(map(Token, WORD.findall(reference)))

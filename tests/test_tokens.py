import pytest

from citeforge.tokens import (
    BACKOFF_CLASSES,
    _case_class,
    _last_char_class,
    _punct_class,
    backoff_symbol,
    tokenize,
)


def test_tokenize_keeps_punctuation_attached():
    tokens = tokenize("Argon C,")
    assert [t.surface for t in tokens] == ["Argon", "C,"]


def test_tokenize_empty_string():
    assert tokenize("") == []


def test_tokenize_splits_like_str_split():
    ref = "  a bb  ccc "
    assert tokenize(ref) == ref.split() == ["a", "bb", "ccc"]


def test_tokenize_idempotent_through_surface_join():
    ref = "1. Argon C, McLaughlin SW. 2002;6:70–72."
    once = [t.surface for t in tokenize(ref)]
    again = [t.surface for t in tokenize(" ".join(once))]
    assert again == once


def test_identity_forms():
    [tok] = tokenize("Letters,")
    assert tok.surface == tok == "Letters,"
    assert tok.features.lower == "letters,"


def test_prefixes_and_suffixes_short_token():
    assert _punct_class("pp.") == "stopPunctuation"
    assert backoff_symbol("pp.") == "C=others|P=stopPunctuation|L=other"


@pytest.mark.parametrize(
    "surface,expected",
    [
        ("IEEE", "ALLCAPS"),
        ("Argon", "Initialcaps"),
        ("McLaughlin", "MixedCaps"),
        ("decoder", "others"),
        ("2002", "others"),
        ("C", "ALLCAPS"),
    ],
)
def test_case_classes(surface, expected):
    assert _case_class(surface) == expected


@pytest.mark.parametrize(
    "surface,expected",
    [
        ("3(4)", "possibleVolume"),
        ("6(2):", "possibleVolume"),
        ('"Quoted', "leadingQuotes"),
        ('end"', "endingQuotes"),
        ('end",', "endingQuotes"),
        ("70--72", "multipleHyphens"),
        ("(eds)", "pairedBraces"),
        ("word,", "continuingPunctuation"),
        ("word;", "continuingPunctuation"),
        ("word.", "stopPunctuation"),
        ("plain", "others"),
        ("70–72", "others"),
    ],
)
def test_punct_classes(surface, expected):
    assert _punct_class(surface) == expected


@pytest.mark.parametrize(
    "surface,expected",
    [("IEEE", "upper"), ("word", "lower"), ("2002", "numeric"), ("end.", "other")],
)
def test_last_char_classes(surface, expected):
    assert _last_char_class(surface) == expected


def test_features_are_deterministic():
    assert tokenize("Token(1)")[0].features == tokenize("Token(1)")[0].features


def test_backoff_class_never_collides_with_lowercased_surface():
    for backoff in BACKOFF_CLASSES:
        assert backoff != backoff.lower()


def test_tokens_cover_all_nonspace_runs():
    ref = "a  b\tc\nd"
    assert tokenize(ref) == ref.split() == ["a", "b", "c", "d"]

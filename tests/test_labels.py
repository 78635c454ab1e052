import pytest

from citeforge.labels import (
    CANONICAL_LABELS,
    CONSISTENCY_MAP,
    FIELD_LABELS,
    LABEL_SET,
    NAME_PART_TAGS,
    field_name,
)


def test_the_vocabulary_is_the_field_labels_then_other_in_order():
    # Models and datasets store labels by name, and tests slice this tuple.
    assert CANONICAL_LABELS == (
        "author", "editor", "issued", "title", "container-title", "volume",
        "issue", "page", "publisher", "edition", "address", "series", "note",
        "url", "doi", "other",
    )
    assert LABEL_SET == frozenset(CANONICAL_LABELS)
    assert "other" not in CONSISTENCY_MAP
    assert not LABEL_SET & set(NAME_PART_TAGS)


# What each field label writes and reads, written out by hand, so that a
# change to CONSISTENCY_MAP must be made here too: the field it writes, and
# each name (lowercase) that reads as it.
WRITES = {
    "author": "author", "editor": "editor", "issued": "year", "title": "title",
    "container-title": "journal", "volume": "volume", "issue": "number",
    "page": "pages", "publisher": "publisher", "edition": "edition",
    "address": "address", "series": "series", "note": "note", "url": "url",
    "doi": "doi",
}
READS_AS = {
    **{label: label for label in WRITES},
    "year": "issued", "journal": "container-title",
    "booktitle": "container-title", "number": "issue", "pages": "page",
}


def test_every_field_label_and_bibtex_name_is_in_the_tables():
    assert list(WRITES) == list(CONSISTENCY_MAP)
    assert FIELD_LABELS == READS_AS
    assert {field_name(label) for label in CONSISTENCY_MAP} <= set(READS_AS)


@pytest.mark.parametrize(
    "name", [*CANONICAL_LABELS, "Title", "OTHER", "journal", "booktitle", "year",
             "pages", "number", "surname", "bogus", ""],
)
def test_to_canonical_gives_a_field_label_other_or_none(name):
    # A name in any case reads as the field label READS_AS gives it, or
    # names no field; `field_name` takes labels alone, exactly as spelt.
    for spelling in (name, name.title(), name.upper()):
        assert FIELD_LABELS.get(spelling.lower()) == READS_AS.get(name.lower())
    if name == "other":
        assert field_name(name) is None
    elif name in WRITES:
        assert field_name(name) == WRITES[name]
    else:
        with pytest.raises(KeyError):
            field_name(name)

import pytest

from citeforge.labels import (
    CANONICAL_LABELS,
    CONSISTENCY_MAP,
    LABEL_SET,
    NAME_PART_TAGS,
    to_canonical,
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


@pytest.mark.parametrize(
    "name", [*CANONICAL_LABELS, "Title", "OTHER", "journal", "booktitle", "year",
             "pages", "number", "surname", "bogus", ""],
)
def test_to_canonical_gives_a_field_label_other_or_none(name):
    # So "names a field" and "a key of CONSISTENCY_MAP" are one test.
    assert to_canonical(name) in {*CONSISTENCY_MAP, "other", None}

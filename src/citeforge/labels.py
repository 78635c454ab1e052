"""Canonical field labels and their mapping onto BibTeX field names.

Rendered references, annotations, trained models and evaluation reports all
speak the same label vocabulary.  `CONSISTENCY_MAP` is its one table: its
keys are the labels that name a field, in order, and the vocabulary is those
keys plus `other`.  The mapping to BibTeX field names is kept explicit so a
field never silently changes name between the source entry and the annotated
output (the "Pages" vs "Locality" class of mismatch).
"""

from __future__ import annotations

# Name-part tags allowed only inside an author span.
NAME_PART_TAGS = ("surname", "firstname")

# Canonical label -> BibTeX field name(s), in lookup priority order.
# `container-title` is the one genuinely ambiguous label: journal articles
# keep it in `journal`, proceedings/collections in `booktitle`.
CONSISTENCY_MAP: dict[str, tuple[str, ...]] = {
    "author": ("author",),
    "editor": ("editor",),
    "issued": ("year",),
    "title": ("title",),
    "container-title": ("journal", "booktitle"),
    "volume": ("volume",),
    "issue": ("number",),
    "page": ("pages",),
    "publisher": ("publisher",),
    "edition": ("edition",),
    "address": ("address",),
    "series": ("series",),
    "note": ("note",),
    "url": ("url",),
    "doi": ("doi",),
}

# Labels a style segment or a tagger state may carry: the map's keys, then
# `other`, which marks tokens that belong to no field (separators, citation
# markers, noise).
CANONICAL_LABELS = (*CONSISTENCY_MAP, "other")

LABEL_SET = frozenset(CANONICAL_LABELS)

# BibTeX field name -> canonical label (inverse of CONSISTENCY_MAP).
_FIELD_TO_LABEL = {
    field: label for label, fields in CONSISTENCY_MAP.items() for field in fields
}


def field_for_label(label: str) -> str:
    """Deterministic BibTeX field name for a canonical label.

    Ambiguous labels resolve to the first name on the priority list
    (`container-title` -> `journal`).  Raises KeyError for `other`, which
    maps to no field.
    """
    return CONSISTENCY_MAP[label][0]


def to_canonical(name: str) -> str | None:
    """Resolve a label given either canonically or as a BibTeX field name."""
    low = name.lower()
    if low in LABEL_SET:
        return low
    return _FIELD_TO_LABEL.get(low)


def entry_value(fields: dict[str, str], label: str) -> str | None:
    """Value a label draws from an entry's field map, or None if absent."""
    for field in CONSISTENCY_MAP.get(label, ()):
        value = fields.get(field)
        if value is not None and value != "":
            return value
    return None

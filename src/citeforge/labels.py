"""Canonical field labels and their mapping onto BibTeX field names.

Rendered references, annotations, trained models and evaluation reports all
speak the same label vocabulary.  `CONSISTENCY_MAP` is its one table: its
keys are the labels that name a field, in order, and the vocabulary is those
keys plus `other`.  The mapping to BibTeX field names is kept explicit so a
field never silently changes name between the source entry and the annotated
output (the "Pages" vs "Locality" class of mismatch).  The tagger and the
scorer read that mapping through two names here: `field_name`, the field a
label writes, and `FIELD_LABELS`, the label that a field label or BibTeX
name reads as.  `other` names no field: `field_name` gives None for it,
and it is not a key of `FIELD_LABELS`.

The tagger and the scorer share two more things from here, so that neither
imports the other: `ExtractedField`, a label and its value, and
`check_nonnegative`, the rule for the HMM's `alpha` and the scorer's `tau`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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

# Each field label, and each of its BibTeX field names, lowercase -> that
# label (the inverse of CONSISTENCY_MAP); `other` names no field and is absent.
FIELD_LABELS: dict[str, str] = {
    name: label for label, fields in CONSISTENCY_MAP.items() for name in (label, *fields)
}


def field_name(label: str) -> str | None:
    """The BibTeX field a label writes, None for `other`.

    An ambiguous label writes the first name on its priority list
    (`container-title` -> `journal`).  Raises KeyError for a string that is
    not a label.
    """
    return None if label == "other" else CONSISTENCY_MAP[label][0]


def entry_value(fields: dict[str, str], label: str) -> str | None:
    """Value a label draws from an entry's field map, or None if absent."""
    for field in CONSISTENCY_MAP.get(label, ()):
        value = fields.get(field)
        if value is not None and value != "":
            return value
    return None


class ExtractedField(NamedTuple):
    label: str
    value: str


def check_nonnegative(name: str, value) -> None:
    """ValueError unless `value` is a finite number >= 0 (a bool is not a
    number here): the rule for `EvalPolicy.tau` and the HMM's `alpha`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        math.isfinite(value) and value >= 0
    ):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")

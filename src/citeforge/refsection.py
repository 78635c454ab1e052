"""Locate the reference section of a plain-text document and split it into
individual reference strings.

A section label ("References", "Bibliography", "References and Notes") only
counts when it sits on its own line in the last 60% of the document; the
last such label wins.  The text after it is split on bracketed or numbered
citation markers when present, otherwise on blank lines.
"""

from __future__ import annotations

import re
from typing import NamedTuple

SECTION_LABELS = ("references", "bibliography", "references and notes")
MIN_POSITION = 0.4

_BRACKET_MARKER = re.compile(r"^\s*\[\d+\]\s*", re.MULTILINE)
_NUMBER_MARKER = re.compile(r"^\s*\d+\.\s+", re.MULTILINE)


class NoReferenceSection(ValueError):
    pass


class ReferenceBlock(NamedTuple):
    section_start: int
    reference_strings: tuple[str, ...]


def _find_label(document: str) -> tuple[int, int]:
    """(start, end-of-line) offsets of the last qualifying section label."""
    best = None
    offset = 0
    for line in document.splitlines(keepends=True):
        stripped = line.strip().rstrip(":").lower()
        if stripped in SECTION_LABELS:
            start = offset + len(line) - len(line.lstrip())
            if len(document) > 0 and start / len(document) >= MIN_POSITION:
                best = (start, offset + len(line))
        offset += len(line)
    if best is None:
        raise NoReferenceSection(
            f"no section label on its own line past {MIN_POSITION:.0%} of the document"
        )
    return best


def extract_references(document: str) -> ReferenceBlock:
    """Reference strings of a document, with the section label's offset.

    Raises NoReferenceSection when no label clears the position bound.
    Citation markers are treated as segmentation symbols and dropped from
    the returned strings; line wraps collapse to single spaces.
    """
    label_start, label_end = _find_label(document)
    tail = document[label_end:]
    # The text before the first marker is not a reference.
    if _BRACKET_MARKER.search(tail):
        pieces = _BRACKET_MARKER.split(tail)[1:]
    elif _NUMBER_MARKER.search(tail):
        pieces = _NUMBER_MARKER.split(tail)[1:]
    else:
        pieces = re.split(r"\n\s*\n", tail)
    refs = (" ".join(piece.split()) for piece in pieces)
    return ReferenceBlock(label_start, tuple(ref for ref in refs if ref))

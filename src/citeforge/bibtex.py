"""BibTeX parsing, validation, cleaning and corpus statistics.

The parser is deliberately forgiving: a malformed entry is reported and
skipped, never aborting the rest of the file, because harvested corpora
reliably contain a few broken blocks.  String macros and `#` concatenation
are out of scope and surface as syntax issues on the affected entry only.
Values are scanned by regular expressions that jump from one brace, quote
or separator to the next, so no Python loop visits every character.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from typing import Iterable, NamedTuple

KNOWN_FIELDS = frozenset(
    {
        "address",
        "annote",
        "author",
        "booktitle",
        "chapter",
        "crossref",
        "edition",
        "editor",
        "howpublished",
        "institution",
        "journal",
        "key",
        "month",
        "note",
        "number",
        "organization",
        "pages",
        "publisher",
        "school",
        "series",
        "title",
        "type",
        "volume",
        "year",
    }
)

# Required fields per entry type; its keys are the supported entry types.
# A tuple with several names is a disjunction: any one member satisfies the
# requirement.
REQUIRED_FIELDS: dict[str, tuple[tuple[str, ...], ...]] = {
    "article": (("author",), ("title",), ("journal",), ("year",)),
    "book": (("author", "editor"), ("title",), ("publisher",), ("year",)),
    "booklet": (("title",),),
    "conference": (("author",), ("title",), ("booktitle",), ("year",)),
    "inbook": (
        ("author", "editor"),
        ("title",),
        ("chapter", "pages"),
        ("publisher",),
        ("year",),
    ),
    "incollection": (
        ("author",),
        ("title",),
        ("booktitle",),
        ("publisher",),
        ("year",),
    ),
    "inproceedings": (("author",), ("title",), ("booktitle",), ("year",)),
    "manual": (("title",),),
    "mastersthesis": (("author",), ("title",), ("school",), ("year",)),
    "misc": (),
    "phdthesis": (("author",), ("title",), ("school",), ("year",)),
    "proceedings": (("title",), ("year",)),
    "techreport": (("author",), ("title",), ("institution",), ("year",)),
    "unpublished": (("author",), ("title",), ("note",)),
}

ENTRY_TYPES = frozenset(REQUIRED_FIELDS)


class IssueKind(Enum):
    MISSING_REQUIRED_FIELD = "missing_required_field"
    UNKNOWN_FIELD = "unknown_field"
    UNKNOWN_TYPE = "unknown_type"
    SYNTAX_ERROR = "syntax_error"
    DUPLICATE_KEY = "duplicate_key"


class ValidationIssue(NamedTuple):
    citation_key: str
    kind: IssueKind
    detail: str


class BibEntry:
    """One bibliographic record: type, citation key and field map.

    Two entries are equal when type, key and fields are; `source_tag` is
    provenance and takes no part."""

    def __init__(
        self, entry_type: str, key: str, fields: dict[str, str], source_tag: str | None = None
    ):
        self.entry_type, self.key, self.fields = entry_type, key, fields
        self.source_tag = source_tag

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entry_type, self.key, self.fields) == (
            other.entry_type, other.key, other.fields
        )

    def __repr__(self) -> str:
        return f"BibEntry({self.entry_type!r}, {self.key!r}, {self.fields!r})"


class CleanPolicy(NamedTuple):
    drop_homepage_misc: bool = True
    fields_to_strip: tuple[str, ...] = ()


class CleanStats:
    def __init__(self):
        self.dropped = 0
        self.dropped_by_reason: Counter = Counter()
        self.stripped: Counter = Counter()


_ENTRY_START = re.compile(r"@\s*([A-Za-z]+)\s*\{", re.ASCII)
_FIELD_NAME = re.compile(r"([A-Za-z][\w.:-]*)\s*=\s*")
_BARE_VALUE = re.compile(r"[^,{}\s#\"]+")
_SEPARATORS = re.compile(r"[\s,]*")
_CONCATENATION = re.compile(r"\s*#")
_WHITESPACE = re.compile(r"\s+")
_BRACES = re.compile(r"[{}]")
_QUOTED_STOPS = re.compile(r'[{}"]')


class _EntrySyntaxError(Exception):
    pass


def _read_braced(text: str, i: int) -> tuple[str, int]:
    """Read a {...} group starting at text[i] == '{'; returns inner value."""
    depth = 0
    for m in _BRACES.finditer(text, i):
        if m[0] == "{":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return text[i + 1 : m.start()], m.end()
    raise _EntrySyntaxError("unbalanced braces in value")


def _read_quoted(text: str, i: int) -> tuple[str, int]:
    """Read a "..." value starting at text[i] == '"'; braces may nest inside."""
    depth = 0
    for m in _QUOTED_STOPS.finditer(text, i + 1):
        c = m[0]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                raise _EntrySyntaxError("unbalanced braces in quoted value")
        elif depth == 0:
            return text[i + 1 : m.start()], m.end()
    raise _EntrySyntaxError("unterminated quoted value")


def _parse_fields(body: str) -> dict[str, str]:
    """Parse the `name = value, ...` tail of an entry body."""
    fields: dict[str, str] = {}
    i = 0
    while (i := _SEPARATORS.match(body, i).end()) < len(body):
        m = _FIELD_NAME.match(body, i)
        if not m:
            raise _EntrySyntaxError(f"expected `name =` near offset {i}")
        name = m.group(1).lower()
        i = m.end()
        c = body[i : i + 1]  # empty at the end of the body: no value
        if c == "{":
            value, i = _read_braced(body, i)
        elif c == '"':
            value, i = _read_quoted(body, i)
        else:
            m = _BARE_VALUE.match(body, i)
            if not m:
                raise _EntrySyntaxError(f"field {name} has no value")
            value = m.group(0)
            i = m.end()
        if _CONCATENATION.match(body, i):
            raise _EntrySyntaxError(f"string concatenation in field {name}")
        # Collapse the line-wrapping whitespace exports insert inside values.
        value = _WHITESPACE.sub(" ", value).strip()
        fields.setdefault(name, value)  # first occurrence wins, as in BibTeX
    return fields


def parse_bibtex(
    text: str, source_tag: str | None = None
) -> tuple[list[BibEntry], list[ValidationIssue]]:
    """Parse BibTeX text into entries plus a list of problems found, one
    `@type{...}` block at a time.

    Nothing here is fatal: a malformed or unsupported block becomes an
    issue and parsing moves on to the next `@`.  `@comment` blocks are
    skipped silently; `@string`/`@preamble` are out of scope and reported.
    An entry whose key an earlier entry has is kept, and reported.
    """
    entries: list[BibEntry] = []
    issues: list[ValidationIssue] = []
    keys: set[str] = set()
    pos = 0
    while m := _ENTRY_START.search(text, pos):
        entry_type = m.group(1).lower()
        try:
            body, pos = _read_braced(text, m.end() - 1)
        except _EntrySyntaxError as exc:
            issues.append(ValidationIssue("?", IssueKind.SYNTAX_ERROR, str(exc)))
            pos = m.end()
            continue

        if entry_type == "comment":
            continue
        if entry_type in ("string", "preamble"):
            issues.append(ValidationIssue(
                "?", IssueKind.SYNTAX_ERROR, f"@{entry_type} is not supported"
            ))
            continue

        key, _, rest = body.partition(",")
        key = key.strip()
        if not key or _WHITESPACE.search(key):
            issues.append(ValidationIssue(
                key or "?", IssueKind.SYNTAX_ERROR, "missing or malformed citation key"
            ))
            continue
        if entry_type not in ENTRY_TYPES:
            issues.append(ValidationIssue(
                key, IssueKind.UNKNOWN_TYPE, f"unknown entry type @{entry_type}"
            ))
            continue
        try:
            fields = _parse_fields(rest)
        except _EntrySyntaxError as exc:
            issues.append(ValidationIssue(key, IssueKind.SYNTAX_ERROR, str(exc)))
            continue
        if key in keys:
            issues.append(ValidationIssue(
                key, IssueKind.DUPLICATE_KEY, "an earlier entry has this key"
            ))
        keys.add(key)
        entries.append(BibEntry(entry_type, key, fields, source_tag))
    return entries, issues


def serialize_entry(entry: BibEntry) -> str:
    lines = [f"@{entry.entry_type}{{{entry.key},"]
    for name, value in entry.fields.items():
        lines.append(f"  {name} = {{{value}}},")
    lines.append("}")
    return "\n".join(lines)


def serialize(entries: Iterable[BibEntry]) -> str:
    """Canonical serialization: one block per entry, lowercase names,
    two-space indent, brace-delimited values."""
    return "\n\n".join(serialize_entry(e) for e in entries) + "\n"


def validate_entry(entry: BibEntry) -> list[ValidationIssue]:
    """Check an entry against the required-field table for its type.

    One issue per missing requirement; disjunctive requirements
    ("author or editor", "chapter and/or pages") are satisfied by either
    member.  Field names outside the standard vocabulary are reported as
    informational unknown_field issues but are never dropped.
    """
    issues: list[ValidationIssue] = []
    if entry.entry_type not in ENTRY_TYPES:
        issues.append(
            ValidationIssue(
                entry.key, IssueKind.UNKNOWN_TYPE, f"unknown type {entry.entry_type}"
            )
        )
        return issues
    for alternatives in REQUIRED_FIELDS[entry.entry_type]:
        if not any(entry.fields.get(name) for name in alternatives):
            issues.append(
                ValidationIssue(
                    entry.key,
                    IssueKind.MISSING_REQUIRED_FIELD,
                    " or ".join(alternatives),
                )
            )
    for name in entry.fields:
        if name not in KNOWN_FIELDS:
            issues.append(ValidationIssue(entry.key, IssueKind.UNKNOWN_FIELD, name))
    return issues


def _homepage_reason(entry: BibEntry) -> str | None:
    """Why `clean_corpus` drops a homepage-style @misc stub, or None."""
    if entry.entry_type == "misc":
        if "homepages" in entry.key:
            return "homepage_key"
        if not entry.fields.get("title") and not entry.fields.get("year"):
            return "misc_no_title_year"
    return None


def clean_corpus(
    entries: Iterable[BibEntry], policy: CleanPolicy
) -> tuple[list[BibEntry], CleanStats]:
    """Drop homepage-style @misc stubs and strip configured fields.

    Idempotent: cleaning an already-clean corpus changes nothing.
    """
    stats = CleanStats()
    strip = {name.lower() for name in policy.fields_to_strip}
    kept: list[BibEntry] = []
    for entry in entries:
        reason = policy.drop_homepage_misc and _homepage_reason(entry)
        if reason:
            stats.dropped += 1
            stats.dropped_by_reason[reason] += 1
            continue
        if strip & entry.fields.keys():
            fields = {}
            for name, value in entry.fields.items():
                if name in strip:
                    stats.stripped[name] += 1
                else:
                    fields[name] = value
            entry = BibEntry(entry.entry_type, entry.key, fields, entry.source_tag)
        kept.append(entry)
    return kept, stats


def field_histogram(entries: Iterable[BibEntry]) -> dict[str, int]:
    """Number of entries containing each field (fields are unique per entry)."""
    counts: Counter = Counter()
    for entry in entries:
        counts.update(entry.fields.keys())
    return dict(counts)


def type_histogram(entries: Iterable[BibEntry]) -> dict[str, int]:
    counts: Counter = Counter()
    for entry in entries:
        counts[entry.entry_type] += 1
    return dict(counts)


def histogram_table(entries: Iterable[BibEntry]) -> str:
    """Aligned per-source count tables: one row per standard field, then one
    row per entry type, in sorted order.

    Columns are source tags in sorted order; entries without a tag fall
    under "all", and so does an empty corpus (an all-zero column).
    """
    groups: dict[str, list[BibEntry]] = {}
    for entry in entries:
        groups.setdefault(entry.source_tag or "all", []).append(entry)
    sources = sorted(groups) or ["all"]
    col_ws = [max(len(src), 8) for src in sources]

    def table(kind: str, rows: list[str], histogram) -> str:
        counts = [histogram(groups.get(src, ())) for src in sources]
        label_w = max(len(r) for r in rows + [kind])
        header = kind.ljust(label_w) + "".join(
            f"  {src:>{w}}" for src, w in zip(sources, col_ws)
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            cells = "".join(f"  {c.get(row, 0):>{w}}" for c, w in zip(counts, col_ws))
            lines.append(row.ljust(label_w) + cells)
        return "\n".join(lines)

    return (
        table("field", sorted(KNOWN_FIELDS), field_histogram)
        + "\n\n"
        + table("type", sorted(ENTRY_TYPES), type_histogram)
    )

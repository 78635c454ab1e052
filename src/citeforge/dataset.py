"""Assemble entries and styles into dataset records; split and export.

Records follow the schema {id, bib_fields, citations:[{style, bibRef,
annoRef}]} and are written as JSON Lines or CSV.  Building streams one
entry at a time (outer loop over entries, inner over styles), so it holds
one record at a time whatever the corpus size.
"""

from __future__ import annotations

import codecs
import hashlib
import random
import re
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .bibtex import BibEntry, histogram_table
from .jsonfile import read_json_lines, replacing, write_json_lines
from .styles import MissingVariable, StyleTemplate, annotate


CITATION_KEYS = ("style", "bibRef", "annoRef")


class NoStyles(ValueError):
    pass


class TooSmall(ValueError):
    pass


class DatasetRecord:
    """One exported record, each citation keyed by CITATION_KEYS.
    `entry_type` and `source_tag` are provenance for statistics, not part
    of the exported schema, and take no part in `==`."""

    def __init__(
        self, id: str, bib_fields: dict[str, str], citations: list[dict[str, str]],
        entry_type: str | None = None, source_tag: str | None = None,
    ):
        self.id, self.bib_fields, self.citations = id, bib_fields, citations
        self.entry_type, self.source_tag = entry_type, source_tag

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.bib_fields, self.citations) == (
            other.id, other.bib_fields, other.citations
        )

    def __repr__(self) -> str:
        return f"DatasetRecord({self.id!r}, {self.bib_fields!r}, {self.citations!r})"

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "bib_fields": self.bib_fields,
            "citations": self.citations,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DatasetRecord":
        record = cls(data["id"], data["bib_fields"], data["citations"])
        fields, citations = record.bib_fields, record.citations
        if not isinstance(record.id, str):
            raise ValueError("id must be a string")
        if not (isinstance(fields, dict) and all(isinstance(v, str) for v in fields.values())):
            raise ValueError("bib_fields must be an object of strings")
        if not isinstance(citations, list):
            raise ValueError("citations must be a list")
        for i, cit in enumerate(citations):
            if not isinstance(cit, dict) or not all(
                isinstance(cit.get(key), str) for key in CITATION_KEYS
            ):
                raise ValueError(
                    f"citation {i} must be an object whose style, bibRef and annoRef are strings"
                )
        return record


class BuildStats:
    def __init__(self):
        self.entries = self.records = self.citations = 0
        self.skipped_renders = self.dropped_records = 0
        self.skip_log: list[tuple[str, str, str]] = []


class SplitManifest(NamedTuple):
    seed: int
    train_ids: tuple[str, ...]
    eval_ids: tuple[str, ...]

    @classmethod
    def from_json_dict(cls, data: dict) -> "SplitManifest":
        seed, train_ids, eval_ids = data["seed"], data["train_ids"], data["eval_ids"]
        if type(seed) is not int:
            raise ValueError("seed must be an integer")
        for ids in (train_ids, eval_ids):
            if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
                raise ValueError("train_ids and eval_ids must be lists of strings")
        on_train = set(train_ids)
        for i in eval_ids:
            if i in on_train:
                raise ValueError(f"id {i!r} is in both train_ids and eval_ids")
        return cls(seed, tuple(train_ids), tuple(eval_ids))


def build_dataset(
    entries: Iterable[BibEntry],
    styles: list[StyleTemplate],
    stats: BuildStats | None = None,
) -> Iterator[DatasetRecord]:
    """Yield one record per entry, each citing every style.

    Its styles share one `annotate` memo per entry.  A render failure
    for one (entry, style) pair is recorded in `stats` and skipped; an entry
    failing every style yields no record.
    """
    if not styles:
        raise NoStyles("at least one style is required")
    if stats is None:
        stats = BuildStats()
    for entry in entries:
        stats.entries += 1
        citations, values = [], {}
        for style in styles:
            try:
                rendered = annotate(entry, style, values)
            except MissingVariable as exc:
                stats.skipped_renders += 1
                stats.skip_log.append((entry.key, style.style_id, str(exc)))
                continue
            citations.append(
                {
                    "style": style.style_id,
                    "bibRef": rendered.bib_ref,
                    "annoRef": rendered.anno_ref,
                }
            )
        if not citations:
            stats.dropped_records += 1
            continue
        stats.records += 1
        stats.citations += len(citations)
        yield DatasetRecord(
            entry.key, dict(entry.fields), citations, entry.entry_type, entry.source_tag
        )


def split_dataset(records: Iterable[DatasetRecord | str], seed: int) -> SplitManifest:
    """Seeded 66/33 split of the distinct record ids, in first-seen order.

    The train side takes floor(0.66*N) ids of a seed-shuffled order; the
    rest are the evaluation side, so a repeated id lands on one side only.
    Same seed, same manifest.
    """
    ids = list(dict.fromkeys(r if isinstance(r, str) else r.id for r in records))
    if len(ids) < 2:
        raise TooSmall(f"need at least 2 distinct record ids, got {len(ids)}")
    random.Random(seed).shuffle(ids)
    n_train = (66 * len(ids)) // 100
    return SplitManifest(seed, tuple(ids[:n_train]), tuple(ids[n_train:]))


def sha256_file(path: Path) -> str:
    """Hex sha256 of a file's bytes, read in 64 KiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# `csv.writer` (excel dialect) quotes a field holding one of these.
_CSV_QUOTED = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text


def export(
    records: Iterable[DatasetRecord], format: str, path: str | Path
) -> str:
    """Write records to `path` as jsonl or csv; returns the file's sha256.

    jsonl: one record per line, LF endings.  csv: the bytes `csv.writer`
    writes (excel dialect, see README), one row per (id, style) with the
    entry's fields flattened into one column of `name:value` pairs; each
    record's rows are built as strings and written at once.
    """
    path = Path(path)
    if format == "jsonl":
        write_json_lines(path, (record.to_json_dict() for record in records))
    elif format == "csv":
        with replacing(path) as fh:
            fh.write("id,style,bibRef,annoRef,bib_fields\r\n")
            for record in records:
                flat = "; ".join(f"{k}:{v}" for k, v in record.bib_fields.items())
                head, tail = _csv_field(record.id), _csv_field(flat)
                fh.write("".join(
                    f"{head},{_csv_field(cit['style'])},{_csv_field(cit['bibRef'])},"
                    f"{_csv_field(cit['annoRef'])},{tail}\r\n"
                    for cit in record.citations
                ))
    else:
        raise ValueError(f"unknown format {format!r}")
    return sha256_file(path)


def load_jsonl(path: str | Path) -> Iterator[DatasetRecord]:
    return read_json_lines(path, DatasetRecord.from_json_dict)


def is_dataset(path: str | Path) -> bool:
    """Whether a file is a dataset rather than text: its first non-blank
    character, past a byte order mark, is `{`, or `[` followed by `{` (a row
    wrapped in a list).  `load_jsonl` then reads it strictly.  A numbered
    reference list (`[1] ...`) stays text."""
    with open(path, "rb") as fh:
        head = b"".join(fh.readline().removeprefix(codecs.BOM_UTF8).split())
        for line in fh:
            if head not in (b"", b"["):
                break
            head += b"".join(line.split())
    return head.startswith((b"{", b"[{"))


def dataset_stats(records: Iterable[DatasetRecord]) -> str:
    """`histogram_table` of the records' entries.

    Sources and types come from build-time provenance; records reloaded
    from disk carry none and group under "all" with unknown types.
    """
    return histogram_table(
        BibEntry(r.entry_type, r.id, r.bib_fields, r.source_tag) for r in records
    )

"""Assemble entries and styles into dataset records; split and export.

Records follow the schema {id, bib_fields, citations:[{style, bibRef,
annoRef}]} and are written as JSON Lines or CSV.  Building streams one
entry at a time (outer loop over entries, inner over styles), so it holds
one record at a time whatever the corpus size.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .bibtex import BibEntry
from .styles import MissingVariable, StyleTemplate, annotate


class NoStyles(ValueError):
    pass


class TooSmall(ValueError):
    pass


@dataclass
class DatasetRecord:
    id: str
    bib_fields: dict[str, str]
    citations: list[dict[str, str]]  # keys: style, bibRef, annoRef
    # provenance for statistics; not part of the exported schema
    entry_type: str | None = field(default=None, compare=False)
    source_tag: str | None = field(default=None, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "bib_fields": self.bib_fields,
            "citations": self.citations,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DatasetRecord":
        return cls(
            id=data["id"],
            bib_fields=dict(data["bib_fields"]),
            citations=[dict(c) for c in data["citations"]],
        )


@dataclass
class BuildStats:
    entries: int = 0
    records: int = 0
    citations: int = 0
    skipped_renders: int = 0
    dropped_records: int = 0
    skip_log: list[tuple[str, str, str]] = field(default_factory=list)


@dataclass(frozen=True)
class SplitManifest:
    seed: int
    train_ids: tuple[str, ...]
    eval_ids: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "train_ids": list(self.train_ids),
            "eval_ids": list(self.eval_ids),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SplitManifest":
        return cls(data["seed"], tuple(data["train_ids"]), tuple(data["eval_ids"]))


def _record_for_entry(
    entry: BibEntry, styles: list[StyleTemplate]
) -> tuple[DatasetRecord | None, list[tuple[str, str, str]]]:
    citations = []
    skips: list[tuple[str, str, str]] = []
    for style in styles:
        try:
            rendered = annotate(entry, style)
        except MissingVariable as exc:
            skips.append((entry.key, style.style_id, str(exc)))
            continue
        citations.append(
            {
                "style": style.style_id,
                "bibRef": rendered.bib_ref,
                "annoRef": rendered.anno_ref,
            }
        )
    if not citations:
        return None, skips
    record = DatasetRecord(
        id=entry.key,
        bib_fields=dict(entry.fields),
        citations=citations,
        entry_type=entry.entry_type,
        source_tag=entry.source_tag,
    )
    return record, skips


def build_dataset(
    entries: Iterable[BibEntry],
    styles: list[StyleTemplate],
    stats: BuildStats | None = None,
) -> Iterator[DatasetRecord]:
    """Yield one record per entry, each citing every style.

    A render failure for one (entry, style) pair is recorded in `stats`
    and skipped; an entry failing every style yields no record.
    """
    if not styles:
        raise NoStyles("at least one style is required")
    if stats is None:
        stats = BuildStats()
    for entry in entries:
        stats.entries += 1
        record, skips = _record_for_entry(entry, styles)
        stats.skipped_renders += len(skips)
        stats.skip_log.extend(skips)
        if record is None:
            stats.dropped_records += 1
        else:
            stats.records += 1
            stats.citations += len(record.citations)
            yield record


def split_dataset(records: Iterable[DatasetRecord | str], seed: int) -> SplitManifest:
    """Seeded 66/33 split of record ids.

    The train side takes floor(0.66*N) ids of a seed-shuffled order; the
    rest are the evaluation side.  Same seed, same manifest.
    """
    ids = [r if isinstance(r, str) else r.id for r in records]
    if len(ids) < 2:
        raise TooSmall(f"need at least 2 records, got {len(ids)}")
    rng = random.Random(seed)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    n_train = (66 * len(ids)) // 100
    return SplitManifest(seed, tuple(shuffled[:n_train]), tuple(shuffled[n_train:]))


def sha256_file(path: Path) -> str:
    """Hex sha256 of a file's bytes, read in 64 KiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def export(
    records: Iterable[DatasetRecord], format: str, path: str | Path
) -> str:
    """Write records to `path` as jsonl or csv; returns the file's sha256.

    jsonl: one record per line, LF endings.  csv: RFC-4180, one row per
    (id, style) with the entry's fields flattened into a single quoted
    column of `name:value` pairs.
    """
    path = Path(path)
    if format == "jsonl":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for record in records:
                fh.write(json.dumps(record.to_json_dict(), ensure_ascii=False))
                fh.write("\n")
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "style", "bibRef", "annoRef", "bib_fields"])
            for record in records:
                flat = "; ".join(f"{k}:{v}" for k, v in record.bib_fields.items())
                for cit in record.citations:
                    writer.writerow(
                        [record.id, cit["style"], cit["bibRef"], cit["annoRef"], flat]
                    )
    else:
        raise ValueError(f"unknown format {format!r}")
    return sha256_file(path)


def load_jsonl(path: str | Path) -> Iterator[DatasetRecord]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield DatasetRecord.from_json_dict(json.loads(line))


FIELD_ROWS = (
    "address", "annote", "author", "booktitle", "chapter", "crossref",
    "edition", "editor", "howpublished", "institution", "journal", "key",
    "month", "note", "number", "organization", "pages", "publisher",
    "school", "series", "title", "type", "volume", "year",
)
TYPE_ROWS = (
    "article", "book", "booklet", "conference", "inbook", "incollection",
    "inproceedings", "manual", "mastersthesis", "misc", "phdthesis",
    "proceedings", "techreport", "unpublished",
)


def dataset_stats(records: Iterable[DatasetRecord]) -> str:
    """Aligned per-source field and type count tables (24 + 14 fixed rows).

    Sources come from build-time provenance; records reloaded from disk
    carry none and group under "all" with unknown types.
    """
    field_counts: dict[str, Counter] = {}
    type_counts: dict[str, Counter] = {}
    for record in records:
        src = record.source_tag or "all"
        field_counts.setdefault(src, Counter()).update(
            k for k in record.bib_fields if k in FIELD_ROWS
        )
        if record.entry_type:
            type_counts.setdefault(src, Counter())[record.entry_type] += 1
        else:
            type_counts.setdefault(src, Counter())

    def table(rows: tuple[str, ...], counts: dict[str, Counter], head: str) -> str:
        sources = sorted(counts) or ["all"]
        label_w = max(len(r) for r in rows + (head,))
        col_ws = [max(len(s), 8) for s in sources]
        lines = [
            head.ljust(label_w)
            + "".join(f"  {s:>{w}}" for s, w in zip(sources, col_ws))
        ]
        lines.append("-" * len(lines[0]))
        for row in rows:
            cells = "".join(
                f"  {counts.get(s, Counter()).get(row, 0):>{w}}"
                for s, w in zip(sources, col_ws)
            )
            lines.append(row.ljust(label_w) + cells)
        return "\n".join(lines)

    return (
        table(FIELD_ROWS, field_counts, "field")
        + "\n\n"
        + table(TYPE_ROWS, type_counts, "type")
    )

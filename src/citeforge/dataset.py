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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .bibtex import BibEntry, histogram_table
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
        try:
            return cls(
                id=data["id"],
                bib_fields=dict(data["bib_fields"]),
                citations=[dict(c) for c in data["citations"]],
            )
        except KeyError as exc:
            raise ValueError(f"dataset record lacks the key {exc}") from None


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
        try:
            return cls(data["seed"], tuple(data["train_ids"]), tuple(data["eval_ids"]))
        except KeyError as exc:
            raise ValueError(f"split manifest lacks the key {exc}") from None


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
        citations = []
        for style in styles:
            try:
                rendered = annotate(entry, style)
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


def read_json_lines(path: str | Path, convert=lambda row: row) -> Iterator:
    """`convert` of each JSON object in a JSON Lines file, blank lines
    skipped.  A line that is not an object `convert` takes is a ValueError
    naming the file and the line."""
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("expected a JSON object")
                item = convert(row)
            except (ValueError, TypeError, RecursionError) as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
            yield item


def load_jsonl(path: str | Path) -> Iterator[DatasetRecord]:
    return read_json_lines(path, DatasetRecord.from_json_dict)


def dataset_stats(records: Iterable[DatasetRecord]) -> str:
    """`histogram_table` of the records' entries.

    Sources and types come from build-time provenance; records reloaded
    from disk carry none and group under "all" with unknown types.
    """
    return histogram_table(
        BibEntry(r.entry_type, r.id, r.bib_fields, r.source_tag) for r in records
    )

"""The one door through which the pipeline reads and writes JSON files.

A converter checks the shape of each file kind read.  Text that is not
UTF-8 or not JSON, nesting past the recursion limit, a missing key or a
wrong type all become one error naming the file, and for JSON Lines the
line.  Three writers live elsewhere: `HmmModel.save` (compact, with no
final newline, as the bytes of `model.json` are pinned), `Checkpoint.write`
(an atomic replace) and the harvest `.log` (a binary append at the byte
offsets the checkpoint records).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator

BAD_DOCUMENT = (ValueError, KeyError, TypeError, RecursionError)


def _reason(exc: Exception) -> str:
    if isinstance(exc, KeyError):
        return f"missing key {exc}"
    if isinstance(exc, json.JSONDecodeError):
        return f"not readable as JSON: {exc}"
    return str(exc)


def read_json(path: str | Path, convert: Callable, error: type = ValueError):
    """`convert` of the JSON document in a file."""
    try:
        return convert(json.loads(Path(path).read_text(encoding="utf-8")))
    except BAD_DOCUMENT as exc:
        raise error(f"{path}: {_reason(exc)}") from exc


def read_json_lines(path: str | Path, convert: Callable) -> Iterator:
    """`convert` of each JSON object in a JSON Lines file; blank lines skipped."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
                if not isinstance(row, dict):
                    raise ValueError("expected a JSON object")
                item = convert(row)
            except BAD_DOCUMENT as exc:
                raise ValueError(f"{path} line {number}: {_reason(exc)}") from exc
            yield item


def write_json(path: str | Path, document) -> None:
    """A document: indented by two spaces, ASCII only, with a final newline."""
    text = json.dumps(document, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_json_lines(path: str | Path, rows: Iterable) -> int:
    """One compact row per line, non-ASCII kept, LF endings; returns the row count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for count, row in enumerate(rows, 1):
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return count

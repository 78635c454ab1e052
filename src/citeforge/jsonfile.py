"""The one door through which the pipeline reads JSON files.

A converter checks the shape of each file kind.  Text that is not UTF-8
or not JSON, nesting past the recursion limit, a missing key or a wrong
type all become one error naming the file, and for JSON Lines the line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator

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

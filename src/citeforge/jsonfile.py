"""The one door through which the pipeline reads JSON and writes files.

A converter checks the shape of each file kind read.  A leading UTF-8 byte
order mark, as Notepad and Excel write one, is read past.  Text that is not
UTF-8 or not JSON, nesting past the recursion limit, a missing key or a
wrong type all become one error naming the file, and for JSON Lines the
line.  Every output is written by `replacing`, so it appears only when
complete and a failed stage leaves its outputs as they were.  Only the
harvest output and its `.log` are written elsewhere: the harvester
appends to them at the byte offsets its checkpoint records.
"""

from __future__ import annotations

import codecs
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

BAD_DOCUMENT = (ValueError, KeyError, TypeError, RecursionError)
# The line breaks of `str.splitlines()` that JSON keeps raw inside a string
# (it escapes every one below U+0020), with their JSON escapes.
LINE_BREAK_ESCAPES = [(c, f"\\u{ord(c):04x}") for c in "\x85\u2028\u2029"]


def _reason(exc: Exception) -> str:
    if isinstance(exc, KeyError):
        return f"missing key {exc}"
    if isinstance(exc, json.JSONDecodeError):
        return f"not readable as JSON: {exc}"
    return str(exc)


def read_json(path: str | Path, convert: Callable, error: type = ValueError):
    """`convert` of the JSON document in a file."""
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
        return convert(json.loads(text))
    except BAD_DOCUMENT as exc:
        raise error(f"{path}: {_reason(exc)}") from exc


def read_json_lines(path: str | Path, convert: Callable) -> Iterator:
    """`convert` of each JSON object in a JSON Lines file; blank lines skipped.
    A byte order mark is read past at the start of line 1 only."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if number == 1:
                line = line.removeprefix(codecs.BOM_UTF8)
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


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file, line ends written as given (LF; CRLF in CSV rows),
    at `<path>.tmp`, renamed onto `path` when the block ends; on an error
    the temporary file is deleted and `path` keeps its old bytes, or stays
    absent.  A symlink is written through to its target; a non-regular path
    (a FIFO, a terminal) is written in place, as a rename would replace it."""
    target = Path(path)
    if target.exists() and not target.is_file():
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    target = target.resolve()
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """`text` as the whole file, UTF-8 with LF endings."""
    with replacing(path) as fh:
        fh.write(text)


def write_json(path: str | Path, document) -> None:
    """A document: indented by two spaces, ASCII only, with a final newline."""
    write_text(path, json.dumps(document, indent=2) + "\n")


def write_json_lines(path: str | Path, rows: Iterable) -> int:
    """One compact row per line, LF endings; returns the row count.  Non-ASCII
    text is kept, except U+0085, U+2028 and U+2029, which are escaped so that
    a row is one line to `str.splitlines()` readers too."""
    count = 0
    with replacing(path) as fh:
        for count, row in enumerate(rows, 1):
            line = json.dumps(row, ensure_ascii=False)
            for char, escape in LINE_BREAK_ESCAPES:
                line = line.replace(char, escape)
            fh.write(line + "\n")
    return count

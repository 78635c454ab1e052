"""The one door through which the pipeline reads JSON and writes files.

A converter checks the shape of each file kind read.  A leading UTF-8 byte
order mark, as Notepad and Excel write one, is read past.  Text that is not
UTF-8 or not JSON, nesting past the recursion limit, a missing key or a
wrong type all become one error naming the file, and for JSON Lines the
line.  Every output is written by `replacing`, so it appears only when
complete and a failed stage leaves its outputs as they were.  Only the
harvest output and its `.log` are written elsewhere: the harvester
appends to them at the byte offsets its checkpoint records.  Each writer
returns the sha256 of the bytes it wrote, taken as it writes them, so a
run's manifest never reads its own outputs back.  Here too are
the two file tests every CLI stage may need: `is_json_lines` tells rows
from text, and `sha256_file` hashes a file for a run's manifest.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

BAD_DOCUMENT = (ValueError, KeyError, TypeError, RecursionError)
# The line breaks of `str.splitlines()` that JSON keeps raw inside a string
# (it escapes every one below U+0020), with their JSON escapes.
LINE_BREAK_ESCAPES = [(c, f"\\u{ord(c):04x}") for c in "\x85\u2028\u2029"]
# The encoder of every JSON Lines row: `json.dumps` with a keyword argument
# builds a new one per call.
ROW_ENCODER = json.JSONEncoder(ensure_ascii=False)


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
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file at `<path>.tmp`, renamed onto `path` when the block
    ends; on an error the temporary file is deleted and `path` keeps its old
    bytes, or stays absent.  A symlink is written through to its target; a
    non-regular path (a FIFO, a terminal) is written in place, as a rename
    would replace it."""
    target = Path(path)
    if target.exists() and not target.is_file():
        with open(target, "wb") as fh:
            yield fh
        return
    target = target.resolve()
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_chunks(path: str | Path, chunks: Iterable[str]) -> str:
    """The chunks in order as the whole file, UTF-8 with line ends as
    given; returns the sha256 of its bytes.  Each chunk is encoded once,
    for the file and the digest alike, so nothing reads the file back."""
    digest = hashlib.sha256()
    with replacing(path) as fh:
        for chunk in chunks:
            data = chunk.encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def write_text(path: str | Path, text: str) -> str:
    """`text` as the whole file, UTF-8 with LF endings; returns its sha256."""
    return write_chunks(path, (text,))


def write_json(path: str | Path, document) -> str:
    """A document: indented by two spaces, ASCII only, with a final
    newline; returns the file's sha256."""
    return write_text(path, json.dumps(document, indent=2) + "\n")


def json_line(row) -> str:
    """A row as one compact line with its LF.  Non-ASCII text is kept, except
    U+0085, U+2028 and U+2029, which are escaped so that a row is one line to
    `str.splitlines()` readers too."""
    line = ROW_ENCODER.encode(row)
    for char, escape in LINE_BREAK_ESCAPES:
        line = line.replace(char, escape)
    return line + "\n"


def write_json_lines(path: str | Path, rows: Iterable) -> str:
    """One `json_line` per row; returns the file's sha256."""
    return write_chunks(path, map(json_line, rows))


def is_json_lines(path: str | Path) -> bool:
    """Whether a file holds JSON Lines rows (a dataset, tagged rows) rather
    than text: its first non-blank character, past a byte order mark, is `{`,
    or `[` followed by `{` (a row wrapped in a list).  `read_json_lines` then
    reads it strictly.  A numbered reference list (`[1] ...`) stays text."""
    with open(path, "rb") as fh:
        head = b"".join(fh.readline().removeprefix(codecs.BOM_UTF8).split())
        for line in fh:
            if head not in (b"", b"["):
                break
            head += b"".join(line.split())
    return head.startswith((b"{", b"[{"))


def sha256_file(path: str | Path) -> str:
    """Hex sha256 of a file's bytes, read in 64 KiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()

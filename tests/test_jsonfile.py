import hashlib
import os
import re
import stat
from pathlib import Path

import pytest

import citeforge
from citeforge.jsonfile import read_json, read_json_lines, write_json, write_json_lines


class Custom(ValueError):
    pass


def test_json_is_decoded_only_in_jsonfile():
    """The door stays the only one: no other module decodes JSON."""
    decoders = re.compile(r"\bjson\.loads?\b|\bfrom json import\b|\bJSONDecoder\b")
    src = Path(citeforge.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if decoders.search(p.read_text()))
    assert users == ["jsonfile.py"]


@pytest.mark.parametrize(
    "raw,message",
    [
        (b'{"a": 1', "not readable as JSON"),
        (b'{"a": "\xff"}', "can't decode byte 0xff"),
        (b"[" * 5000 + b"]" * 5000, "recursion"),
        (b'{"b": 1}', "missing key 'a'"),
        (b'{"a": [1]}', "unhashable"),
    ],
    ids=["cut", "not-utf-8", "too-deep", "missing-key", "wrong-type"],
)
def test_read_json_names_the_file(tmp_path, raw, message):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    with pytest.raises(Custom) as excinfo:
        read_json(path, lambda data: {data["a"]}, Custom)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert message in str(excinfo.value)


def test_read_json_lines_names_the_line_and_skips_blanks(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n\n  \n{"a": 2}\n{"b": 3}\n')
    rows = read_json_lines(path, lambda row: row["a"])
    assert [next(rows), next(rows)] == [1, 2]
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} line 5: missing key 'a'"):
        next(rows)


@pytest.mark.parametrize("line", [b"[1]", b'"a"', b'{"a": \xff}'])
def test_read_json_lines_wants_utf8_objects(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n' + line + b"\n")
    with pytest.raises(ValueError, match="line 2"):
        list(read_json_lines(path, lambda row: row))


def test_a_byte_order_mark_is_read_past_at_the_start_only(tmp_path):
    doc, rows = tmp_path / "doc.json", tmp_path / "rows.jsonl"
    doc.write_bytes(b'\xef\xbb\xbf{"a": 1}\n')
    assert read_json(doc, lambda data: data) == {"a": 1}
    rows.write_bytes(b'\xef\xbb\xbf{"a": 1}\n{"a": 2}\n')
    assert list(read_json_lines(rows, lambda row: row["a"])) == [1, 2]
    rows.write_bytes(b'\xef\xbb\xbf\n{"a": 1}\n\xef\xbb\xbf{"a": 2}\n')
    with pytest.raises(ValueError, match="line 3: not readable as JSON"):
        list(read_json_lines(rows, lambda row: row["a"]))


# --- the way out ----------------------------------------------------------


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_write_json_indents_escapes_and_ends_with_a_newline(tmp_path):
    path = tmp_path / "doc.json"
    digest = write_json(path, {"name": "Müller", "ids": [1, 2]})
    assert path.read_bytes() == (
        b'{\n  "name": "M\\u00fcller",\n  "ids": [\n    1,\n    2\n  ]\n}\n'
    )
    assert digest == sha256_of(path)


def test_write_json_lines_keeps_text_and_counts_rows(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"a": "Müller"}, {"b": "x\ny"}, {"c": 1.5}]
    digest = write_json_lines(path, iter(rows))
    assert path.read_bytes() == (
        '{"a": "Müller"}\n{"b": "x\\ny"}\n{"c": 1.5}\n'.encode("utf-8")
    )
    assert digest == sha256_of(path)
    assert list(read_json_lines(path, lambda row: row)) == rows


def test_write_json_lines_escapes_the_line_breaks_json_keeps_raw(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"reference": "a\x85b\u2028c\u2029d é"}, {"reference": "e"}]
    assert write_json_lines(path, rows) == sha256_of(path)
    assert path.read_text(encoding="utf-8").splitlines() == [
        '{"reference": "a\\u0085b\\u2028c\\u2029d é"}',
        '{"reference": "e"}',
    ]
    assert list(read_json_lines(path, lambda row: row)) == rows


def test_write_json_lines_of_no_rows_is_an_empty_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text("old\n")
    assert write_json_lines(path, []) == hashlib.sha256(b"").hexdigest()
    assert path.read_bytes() == b""



# --- outputs appear only when complete ------------------------------------


def rows_then_fail(count):
    for n in range(count):
        yield {"n": n}
    raise ValueError("row generator failed")


def test_a_failed_write_keeps_the_old_bytes(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"old": true}\n')
    with pytest.raises(ValueError, match="row generator failed"):
        write_json_lines(path, rows_then_fail(50))
    assert path.read_bytes() == b'{"old": true}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]


def test_a_failed_write_leaves_an_absent_path_absent(tmp_path):
    with pytest.raises(ValueError, match="row generator failed"):
        write_json_lines(tmp_path / "rows.jsonl", rows_then_fail(50))
    assert list(tmp_path.iterdir()) == []


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer never blocks
    try:
        write_json(fifo, [1])
        received = os.read(reader, 1024)
    finally:
        os.close(reader)
    assert received == b"[\n  1\n]\n"
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


def test_a_symlink_is_written_through_to_its_target(tmp_path):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "doc.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_json(link, {"a": 1})
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == b'{\n  "a": 1\n}\n'
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["doc.json"]


def test_files_are_written_only_in_jsonfile():
    """The way out stays one door: under the package only `jsonfile` opens a
    file for writing or renames one into place, bar the harvester's two
    binary appends at its checkpoint's offsets."""
    writers = re.compile(
        r"""\bopen\([^)]*["'][rbt]*[wax+][rbt+]*["']|\.write_(?:text|bytes)\(|\bos\.replace\b"""
    )
    src = Path(citeforge.__file__).parent
    found = sorted(
        (p.name, match)
        for p in src.glob("*.py")
        if p.name != "jsonfile.py"
        for match in writers.findall(p.read_text())
    )
    assert found == [
        ("harvest.py", 'open(log_path, "ab"'),
        ("harvest.py", 'open(out_path, "ab"'),
    ]

"""Mutation property over every JSON file a chain reads.

Each example copies a small, valid chain (config, split, dataset, model,
tagged rows, a style file, a harvest checkpoint and its log) into a fresh
directory, damages one file in one way, and runs the stage that reads
it.  The stage must succeed or fail as a domain error: exit 0 or 1 with
no traceback, or for the harvest log a domain exception.
"""

import contextlib
import importlib
import io
import json
import pkgutil
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citeforge
from citeforge import cli
from citeforge.bibtex import serialize
from citeforge.fixture import bibtex_for_id
from citeforge.harvest import Checkpoint, efficiency_series
from citeforge.styles import builtin_styles_dir
from citeforge.synth import random_corpus

LINE_FILES = ("dataset.jsonl", "tagged.jsonl", "harvest.bib.log")
DOCUMENT_FILES = ("config.json", "split.json", "model.json", "style.json",
                  "harvest.bib.checkpoint.json")
OTHER_TYPES = (None, True, 0, 1.5, "x", [], {}, [1], {"k": "v"})


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    d = tmp_path_factory.mktemp("chain")
    (d / "corpus.bib").write_text(serialize(random_corpus(random.Random(77), 8)))
    for argv in (
        ["build", "--in", d / "corpus.bib", "--out", d / "dataset.jsonl"],
        ["split", "--in", d / "dataset.jsonl", "--out", d / "split.json"],
        ["train", "--in", d / "dataset.jsonl", "--out", d / "model.json"],
        ["tag", "--in", d / "dataset.jsonl", "--model", d / "model.json",
         "--out", d / "tagged.jsonl"],
    ):
        assert cli.main([str(a) for a in argv]) == 0
    shutil.copy(builtin_styles_dir() / "abnt_like.json", d / "style.json")
    bodies = "".join(bibtex_for_id(i) for i in (1, 2, 3)).encode()
    log = "".join(
        json.dumps({"ts": float(i), "id": i, "status": "ok", "entries": 1}) + "\n"
        for i in (1, 2, 3)
    ).encode()
    (d / "harvest.bib").write_bytes(bodies)
    (d / "harvest.bib.log").write_bytes(log)
    Checkpoint(3, 3, len(bodies), len(log)).write(d / "harvest.bib.checkpoint.json")
    return d


def stages(d: Path) -> dict:
    """The stages that read each file: argv lists for `cli.main`, or a
    callable for the harvest log."""
    ds, model, out = d / "dataset.jsonl", d / "model.json", d / "out"
    return {
        "config.json": [["evaluate", "--in", d / "tagged.jsonl", "--dataset", ds,
                         "--config", d / "config.json"]],
        "split.json": [["train", "--in", ds, "--split", d / "split.json", "--out", out],
                       ["tag", "--in", ds, "--split", d / "split.json", "--model", model,
                        "--out", out]],
        "dataset.jsonl": [["train", "--in", ds, "--out", out],
                          ["tag", "--in", ds, "--model", model, "--out", out],
                          ["evaluate", "--in", d / "tagged.jsonl", "--dataset", ds],
                          ["stats", "--in", ds]],
        "model.json": [["tag", "--in", ds, "--model", model, "--out", out]],
        "tagged.jsonl": [["evaluate", "--in", d / "tagged.jsonl", "--dataset", ds]],
        "style.json": [["build", "--in", d / "corpus.bib", "--styles", d / "style.json",
                        "--out", out]],
        "harvest.bib.checkpoint.json": [[
            "harvest", "--resume", "--url-template", "http://127.0.0.1:9/bib/{id}",
            "--id-start", "1", "--id-end", "3", "--td", "0", "--rid", "0",
            "--max-retries", "0", "--out", d / "harvest.bib",
            "--efficiency-csv", d / "efficiency.csv",
        ]],
        "harvest.bib.log": [lambda: efficiency_series(d / "harvest.bib.log")],
    }


def value_paths(value, path=()):
    """Paths to every value inside a JSON document, the document excluded."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield path + (key,)
        yield from value_paths(inner, path + (key,))


def mutate_value(data, doc):
    """`doc` with one key dropped, one value of another type, or itself
    wrapped in a list or nested 2,000 deep; None for a plain-text cut."""
    how = data.draw(st.sampled_from(("drop_key", "change_type", "wrap", "nest")))
    if how == "wrap":
        return json.dumps([doc])
    if how == "nest":
        return "[" * 2000 + json.dumps(doc) + "]" * 2000
    paths = [p for p in value_paths(doc)
             if how == "change_type" or isinstance(_at(doc, p[:-1]), dict)]
    if not paths:
        return json.dumps([doc])
    path = data.draw(st.sampled_from(paths))
    parent = _at(doc, path[:-1])
    if how == "drop_key":
        del parent[path[-1]]
    else:
        old = parent[path[-1]]
        parent[path[-1]] = data.draw(
            st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(old)]))
    return json.dumps(doc, ensure_ascii=False)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def damage(data, path: Path) -> str:
    raw = path.read_bytes()
    if data.draw(st.integers(0, 5)) == 0:
        cut = data.draw(st.integers(0, len(raw) - 1))
        path.write_bytes(raw[:cut])
        return f"cut at byte {cut}"
    if path.name in LINE_FILES:
        lines = raw.decode("utf-8").splitlines()
        row = data.draw(st.integers(0, len(lines) - 1))
        lines[row] = mutate_value(data, json.loads(lines[row]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return f"row {row}"
    path.write_text(mutate_value(data, json.loads(raw)), encoding="utf-8")
    return "document"


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_damaged_input_is_a_domain_error(chain, data):
    target = data.draw(st.sampled_from(LINE_FILES + DOCUMENT_FILES))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for path in chain.iterdir():
            shutil.copy(path, d / path.name)
        config = {"split": str(d / "split.json"), "tau": 0.2, "near_as_correct": True,
                  "out": str(d / "report.json")}
        (d / "config.json").write_text(json.dumps(config))
        where = damage(data, d / target)
        for stage in stages(d)[target]:
            if callable(stage):
                with contextlib.suppress(*cli.DOMAIN_ERRORS):
                    stage()
                continue
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([str(a) for a in stage])
            assert code in (0, 1), (target, where, stage[0], err.getvalue())
            assert "Traceback" not in err.getvalue()


def test_every_public_exception_class_is_a_value_error():
    """`cli.main` reports ValueError and OSError as domain errors (exit 1),
    so a public exception class of the package outside ValueError would
    end a run in a traceback."""
    classes = {
        cls.__name__: cls
        for info in pkgutil.iter_modules(citeforge.__path__)
        for cls in vars(importlib.import_module(f"citeforge.{info.name}")).values()
        if isinstance(cls, type) and issubclass(cls, BaseException)
        and cls.__module__ == f"citeforge.{info.name}" and not cls.__name__.startswith("_")
    }
    assert {"MalformedAnnotation", "CorruptCheckpoint", "EmptyCorpus"} <= set(classes)
    assert [name for name, cls in classes.items() if not issubclass(cls, ValueError)] == []

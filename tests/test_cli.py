import json
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import citeforge
from citeforge.bibtex import serialize
from citeforge.cli import SUBCOMMANDS, TAG_BATCH, Run, build_parser, main
from citeforge.hmm import HmmModel, tag_reference
from citeforge.jsonfile import read_json_lines
from citeforge.synth import homepage_misc_entry, random_corpus
from test_hmm import MODEL_CORRUPTIONS, corrupted_model_file


@pytest.fixture()
def corpus_file(tmp_path):
    rng = random.Random(600)
    entries = random_corpus(rng, 20) + [homepage_misc_entry(rng)]
    path = tmp_path / "corpus.bib"
    path.write_text(serialize(entries), encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_parse_writes_canonical_output_and_issues(tmp_path, corpus_file, capsys):
    out = tmp_path / "canonical.bib"
    assert run("parse", "--in", corpus_file, "--out", out) == 0
    assert out.exists()
    assert (tmp_path / "canonical.bib.issues.json").exists()
    assert "parsed 21 entries" in capsys.readouterr().out


def test_parse_missing_input_is_domain_error(tmp_path, capsys):
    code = run("parse", "--in", tmp_path / "nope.bib", "--out", tmp_path / "o.bib")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_2(tmp_path, corpus_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("parse", "--in", corpus_file)
    asser = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert "--out" in asser


@pytest.mark.parametrize(
    "subcommand,missing", [("train", "missing.jsonl"), ("parse", "missing.bib")]
)
def test_a_missing_flag_exits_2_before_any_input_is_read(tmp_path, capsys, subcommand, missing):
    with pytest.raises(SystemExit) as excinfo:
        run(subcommand, "--in", tmp_path / missing)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == "error: missing required flag --out\n"


def test_a_required_flag_can_come_from_the_environment(tmp_path, corpus_file, monkeypatch):
    out = tmp_path / "canonical.bib"
    monkeypatch.setenv("CITEFORGE_OUT", str(out))
    assert run("parse", "--in", corpus_file) == 0
    assert out.exists()


def test_a_bad_environment_value_exits_1_before_a_missing_flag(monkeypatch, capsys):
    monkeypatch.setenv("CITEFORGE_SEED", "forty")
    assert run("split") == 1
    assert "CITEFORGE_SEED" in capsys.readouterr().err


def test_unknown_flag_exits_2(corpus_file):
    with pytest.raises(SystemExit) as excinfo:
        run("parse", "--in", corpus_file, "--frobnicate")
    assert excinfo.value.code == 2


def test_clean_drops_homepage_misc(tmp_path, corpus_file, capsys):
    out = tmp_path / "clean.bib"
    assert run("clean", "--in", corpus_file, "--out", out) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["dropped"] == 1
    assert stats["kept"] == 20


def test_stats_prints_tables(corpus_file, capsys):
    assert run("stats", "--in", corpus_file) == 0
    out = capsys.readouterr().out
    assert "field" in out and "article" in out and "corpus" in out


def test_stats_of_empty_bib_is_an_all_zero_column(tmp_path, capsys):
    empty = tmp_path / "empty.bib"
    empty.write_text("")
    assert run("stats", "--in", empty) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["field", "all"]
    rows = [line.split() for line in lines[2:] if line and not line.startswith("-")]
    rows.remove(["type", "all"])
    assert len(rows) == 24 + 14
    assert all(row[1:] == ["0"] for row in rows)


def _dataset_of(tmp_path, name, n_entries, seed):
    bib = tmp_path / f"{name}.bib"
    bib.write_text(serialize(random_corpus(random.Random(seed), n_entries)), encoding="utf-8")
    out = tmp_path / f"{name}.jsonl"
    assert run("build", "--in", bib, "--out", out) == 0
    return out


def test_stats_counts_every_dataset(tmp_path, capsys):
    a = _dataset_of(tmp_path, "a", 5, 601)
    b = _dataset_of(tmp_path, "b", 7, 602)
    capsys.readouterr()
    assert run("stats", "--in", a, b) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["title", "12"] in rows


@pytest.mark.parametrize("dataset_first", [True, False])
def test_stats_refuses_datasets_mixed_with_bibtex(tmp_path, corpus_file, capsys, dataset_first):
    a = _dataset_of(tmp_path, "a", 5, 601)
    paths, odd = ((a, corpus_file), corpus_file) if dataset_first else ((corpus_file, a), a)
    capsys.readouterr()
    assert run("stats", "--in", *paths) == 1
    captured = capsys.readouterr()
    assert f"{odd} is" in captured.err and captured.out == ""


def test_render_and_annotate(tmp_path, corpus_file):
    # 20 renderable entries; the homepage stub has no title and is skipped
    refs = tmp_path / "refs.txt"
    assert run("render", "--in", corpus_file, "--out", refs, "--style", "author-year-compact") == 0
    assert len(refs.read_text().splitlines()) == 20
    annos = tmp_path / "annos.jsonl"
    assert run("annotate", "--in", corpus_file, "--out", annos) == 0
    rows = list(read_json_lines(annos, dict))
    assert len(rows) == 20 * 10
    assert set(rows[0]) == {"id", "style", "bibRef", "annoRef"}


def test_render_writes_the_bib_refs_and_skips_of_annotate(tmp_path, corpus_file, capsys):
    refs, annos = tmp_path / "refs.txt", tmp_path / "annos.jsonl"
    capsys.readouterr()
    assert run("render", "--in", corpus_file, "--out", refs) == 0
    rendered = capsys.readouterr()
    assert run("annotate", "--in", corpus_file, "--out", annos) == 0
    annotated = capsys.readouterr()
    bib_refs = [row["bibRef"] for row in read_json_lines(annos, dict)]
    assert refs.read_text(encoding="utf-8") == "".join(line + "\n" for line in bib_refs)
    assert rendered.out == "rendered 200 references\n"
    # the homepage stub has no title, so every style skips it
    assert rendered.err == annotated.err
    assert rendered.err.count("skip: ") == 10


def test_annotate_writes_the_citations_of_build(tmp_path, corpus_file, capsys):
    annos, ds = tmp_path / "annos.jsonl", tmp_path / "ds.jsonl"
    assert run("annotate", "--in", corpus_file, "--out", annos) == 0
    captured = capsys.readouterr()
    assert captured.out == "annotated 200 references\n"
    # the homepage stub has no title, so every style skips it
    assert captured.err.count("skip: ") == 10
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    want = [
        {"id": record["id"], **cit}
        for record in read_json_lines(ds, dict)
        for cit in record["citations"]
    ]
    rows = list(read_json_lines(annos, dict))
    assert rows == want
    assert all(list(row) == ["id", "style", "bibRef", "annoRef"] for row in rows)


def test_build_csv_writes_a_nul_in_a_value_raw(tmp_path):
    """Python 3.10's `csv.writer` raised on NUL; every version writes these
    bytes."""
    bib, out = tmp_path / "nul.bib", tmp_path / "ds.csv"
    bib.write_bytes(
        b'@article{k1,\n  author = {Ann Lee and Bo Chen},\n'
        b'  title = {Zero\x00byte, "quoted"},\n  journal = {J},\n  year = {2001}\n}\n'
    )
    code = run("build", "--in", bib, "--out", out, "--format", "csv",
               "--style", "author-year-compact")
    assert code == 0
    assert out.read_bytes() == (
        b'id,style,bibRef,annoRef,bib_fields\r\n'
        b'k1,author-year-compact,"Lee A, Chen B. 2001. Zero\x00byte, ""quoted"". J",'
        b'"<author><surname>Lee</surname> <firstname>A</firstname>, <surname>Chen</surname>'
        b' <firstname>B</firstname></author>. <issued>2001</issued>.'
        b' <title>Zero\x00byte, ""quoted""</title>. <container-title>J</container-title>",'
        b'"author:Ann Lee and Bo Chen; title:Zero\x00byte, ""quoted""; journal:J; year:2001"\r\n'
    )


def test_split_is_deterministic_across_runs(tmp_path, corpus_file):
    ds = tmp_path / "ds.jsonl"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert run("split", "--in", ds, "--seed", 42, "--out", m1) == 0
    assert run("split", "--in", ds, "--seed", 42, "--out", m2) == 0
    assert m1.read_text() == m2.read_text()
    manifest = json.loads(m1.read_text())
    assert set(manifest) == {"seed", "train_ids", "eval_ids"}


def test_full_chain_and_manifests(tmp_path, corpus_file, capsys):
    ds = tmp_path / "ds.jsonl"
    split = tmp_path / "split.json"
    model = tmp_path / "model.json"
    tagged = tmp_path / "tagged.jsonl"
    report = tmp_path / "report.json"

    assert run("build", "--in", corpus_file, "--out", ds) == 0
    build_stats = json.loads(capsys.readouterr().out)
    assert build_stats["citations"] == build_stats["records"] * 10

    assert run("split", "--in", ds, "--seed", 42, "--out", split) == 0
    assert run("train", "--in", ds, "--split", split, "--out", model, "--alpha", 0.1) == 0
    assert run("tag", "--in", ds, "--split", split, "--model", model, "--out", tagged) == 0
    capsys.readouterr()
    assert (
        run("evaluate", "--in", tagged, "--dataset", ds, "--split", split, "--out", report)
        == 0
    )
    text = capsys.readouterr().out
    assert "micro" in text
    data = json.loads(report.read_text())
    assert 0.0 <= data["overall"]["f1"] <= 1.0
    assert data["overall"]["f1"] > 0.3  # trained tagger is far above chance

    for produced in (ds, split, model, tagged, report):
        manifest_path = produced.parent / (produced.name + ".manifest.json")
        assert manifest_path.exists(), produced
        manifest = json.loads(manifest_path.read_text())
        assert manifest["subcommand"] in {
            "build", "split", "train", "tag", "evaluate",
        }
        assert manifest["output_digests"]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_build_hashes_its_output_once(tmp_path, corpus_file, capsys, monkeypatch, fmt):
    """`export` hashes the dataset as it writes it and the manifest reuses
    that digest: the dataset is never read back, and both digests are its
    bytes' sha256."""
    import hashlib

    import citeforge.cli
    import citeforge.jsonfile

    hashed = []

    def counting(path, real=citeforge.jsonfile.sha256_file):
        hashed.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(citeforge.cli, "sha256_file", counting)
    monkeypatch.setattr(citeforge.jsonfile, "sha256_file", counting)
    out = tmp_path / f"ds.{fmt}"
    assert run("build", "--in", corpus_file, "--out", out, "--format", fmt) == 0
    want = hashlib.sha256(out.read_bytes()).hexdigest()
    assert json.loads(capsys.readouterr().out)["sha256"] == want
    manifest = json.loads((tmp_path / f"ds.{fmt}.manifest.json").read_text())
    assert manifest["output_digests"] == [{"path": str(out), "sha256": want}]
    assert hashed.count(out.name) == 0
    assert hashed  # the input digests still read their files


def _write_perfect_tags(ds, tagged):
    """Tag every citation of the dataset `ds` with its own ground truth."""
    from citeforge.dataset import load_jsonl
    from citeforge.evaluate import ground_truth_fields

    with open(tagged, "w", encoding="utf-8") as fh:
        for record in load_jsonl(ds):
            for cit in record.citations:
                fields = ground_truth_fields(cit["annoRef"])
                fh.write(
                    json.dumps(
                        {
                            "id": record.id,
                            "style": cit["style"],
                            "fields": [
                                {"label": f.label, "value": f.value} for f in fields
                            ],
                        }
                    )
                    + "\n"
                )


def test_evaluate_perfect_tags_score_one(tmp_path, corpus_file, capsys):
    # tag the dataset with the ground-truth fields and expect F1 = 1
    ds = tmp_path / "ds.jsonl"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    tagged = tmp_path / "tagged.jsonl"
    _write_perfect_tags(ds, tagged)
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run("evaluate", "--in", tagged, "--dataset", ds, "--out", report) == 0
    data = json.loads(report.read_text())
    assert data["overall"]["f1"] == pytest.approx(1.0)


def test_evaluate_refuses_ambiguous_ground_truth(tmp_path, capsys):
    # Two different entries under one key give one id two annoRefs per
    # style, and no tagged row could tell which is its ground truth.
    entries = random_corpus(random.Random(8), 4)
    entries[0].key = entries[2].key = "same"
    bib = tmp_path / "dup.bib"
    bib.write_text(serialize(entries), encoding="utf-8")
    ds, tagged = tmp_path / "ds.jsonl", tmp_path / "tagged.jsonl"
    assert run("build", "--in", bib, "--out", ds) == 0
    assert len(ds.read_text(encoding="utf-8").splitlines()) == 4
    _write_perfect_tags(ds, tagged)
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run("evaluate", "--in", tagged, "--dataset", ds, "--out", report) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'same'" in err
    assert not report.exists()

    # An exact repeat of a record is harmless: it scores as the record alone.
    entries[2].key = "unique"
    bib.write_text(serialize(entries), encoding="utf-8")
    assert run("build", "--in", bib, "--out", ds) == 0
    _write_perfect_tags(ds, tagged)
    assert run("evaluate", "--in", tagged, "--dataset", ds, "--out", report) == 0
    once = json.loads(report.read_text())
    repeated = tmp_path / "repeated.jsonl"
    lines = ds.read_text(encoding="utf-8").splitlines(keepends=True)
    repeated.write_text("".join(lines + lines[:1]), encoding="utf-8")
    assert run("evaluate", "--in", tagged, "--dataset", repeated, "--out", report) == 0
    assert json.loads(report.read_text()) == once
    assert once["overall"]["f1"] == pytest.approx(1.0)


def test_tag_plain_text_references(tmp_path, corpus_file):
    ds = tmp_path / "ds.jsonl"
    model = tmp_path / "model.json"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    assert run("train", "--in", ds, "--out", model) == 0
    refs = tmp_path / "refs.txt"
    refs.write_text("Argon C, McLaughlin SW. 2002. A parallel decoder. IEEE.\n")
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", refs, "--model", model, "--out", tagged) == 0
    row = list(read_json_lines(tagged, dict))[0]
    assert set(row) == {"reference", "fields", "log_prob"}


def tagged_rows(path, model_path, references):
    """The rows of a tagged.jsonl, checked against `tag_reference` of each
    reference in input order; returns the rows without their decode."""
    model = HmmModel.load(model_path)
    rows = list(read_json_lines(path, dict))
    assert [row["reference"] for row in rows] == references
    for row in rows:
        fields, log_prob = tag_reference(model, row["reference"])
        assert row["fields"] == [{"label": f.label, "value": f.value} for f in fields]
        assert row["log_prob"] == log_prob
    return [{k: v for k, v in row.items() if k not in ("fields", "log_prob")} for row in rows]


def test_tag_rows_of_a_text_file_follow_its_lines(tmp_path, chain_files):
    model = chain_files[2]
    refs = tmp_path / "refs.txt"
    lines = ["Argon C. 2002. A parallel decoder. IEEE.", "Björk B. Über alles. 1999."]
    refs.write_text(f"\n  {lines[0]}  \n\n{lines[1]}\n", encoding="utf-8")
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", refs, "--model", model, "--out", tagged) == 0
    rows = tagged_rows(tagged, model, lines)
    assert [list(row) for row in rows] == [["reference"]] * 2


def test_tag_splits_text_on_line_feeds_only(tmp_path, chain_files):
    model = chain_files[2]
    refs = tmp_path / "refs.txt"
    lines = ["Argon C. A title\x0cwith form feed. 2002", "Doe J.\x85Über\u2028alles\x1e\x0b1999."]
    refs.write_text(f"{lines[0]}\r\n{lines[1]}\n", encoding="utf-8")
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", refs, "--model", model, "--out", tagged) == 0
    # the rows escape U+0085 and U+2028, so "\n" alone ends each one
    *rows, tail = tagged.read_text(encoding="utf-8").split("\n")
    assert tail == ""
    assert [json.loads(row)["reference"] for row in rows] == lines


def test_tag_ends_a_text_line_at_a_lone_carriage_return(tmp_path, chain_files):
    model = chain_files[2]
    refs = tmp_path / "refs.txt"
    refs.write_bytes(b"Argon C. 2002.\rA parallel decoder. IEEE.\n")
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", refs, "--model", model, "--out", tagged) == 0
    rows = read_json_lines(tagged, dict)
    assert [row["reference"] for row in rows] == ["Argon C. 2002.", "A parallel decoder. IEEE."]


@pytest.mark.parametrize(
    "subcommand", ["parse", "clean", "stats", "render", "annotate", "build", "tag"]
)
def test_text_input_that_is_not_utf8_is_named(tmp_path, request, capsys, subcommand):
    bad = tmp_path / ("bad.txt" if subcommand == "tag" else "bad.bib")
    bad.write_bytes("@article{k, author = {Müller, J.}}\n".encode("latin-1"))
    out = tmp_path / "out"
    argv = [subcommand, "--in", bad]
    if subcommand != "stats":
        argv += ["--out", out]
    if subcommand == "tag":
        argv += ["--model", request.getfixturevalue("chain_files")[2]]
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xfc in position 23: invalid start byte\n"
    )
    assert not out.exists()


def test_text_input_that_is_not_utf8_past_the_first_chunk_is_named(tmp_path, chain_files, capsys):
    # Read line by line, the file decodes in chunks; the message still
    # gives the bad byte's offset in the whole file.
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"Argon C. A parallel decoder. 2002.\n" * 1000 + "Müller\n".encode("latin-1"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("tag", "--in", bad, "--model", chain_files[2], "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xfc in position 35001: invalid start byte\n"
    )
    assert not out.exists()


def test_tag_rows_of_a_dataset_follow_its_eval_citations(tmp_path, chain_files):
    ds, split, model = chain_files
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", ds, "--split", split, "--model", model, "--out", tagged) == 0
    eval_ids = set(json.loads(split.read_text())["eval_ids"])
    want = [
        {"id": record["id"], "style": cit["style"], "reference": cit["bibRef"]}
        for record in read_json_lines(ds, dict)
        if record["id"] in eval_ids
        for cit in record["citations"]
    ]
    rows = tagged_rows(tagged, model, [row["reference"] for row in want])
    assert rows == want
    assert all(list(row) == ["id", "style", "reference"] for row in rows)


def test_tag_rows_across_batches_follow_the_input_lines(tmp_path, chain_files):
    ds, _, model = chain_files
    lines = [cit["bibRef"] for record in read_json_lines(ds, dict) for cit in record["citations"]]
    lines = lines[: 2 * TAG_BATCH + 1]
    assert len(lines) == 2 * TAG_BATCH + 1
    refs = tmp_path / "refs.txt"
    refs.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", refs, "--model", model, "--out", tagged) == 0
    assert len(tagged_rows(tagged, model, lines)) == len(lines)


def _tag_peak(tmp_path, source, model, copies):
    """tracemalloc peak (bytes) of `tag` on `copies` copies of the lines of
    `source`, a dataset or a text file."""
    bigger = tmp_path / f"x{copies}-{source.name}"
    bigger.write_bytes(source.read_bytes() * copies)
    tracemalloc.start()
    try:
        assert run("tag", "--in", bigger, "--model", model, "--out", tmp_path / "t.jsonl") == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tag_memory_does_not_follow_the_input(tmp_path, chain_files):
    # 200 -> 800 references: decoded 64 at a time, the peak grew 1.05x
    # (the model file's parse dominates it); with the whole input in one
    # batch it grew 3.3x.
    ds, _, model = chain_files
    _tag_peak(tmp_path, ds, model, 1)  # numpy and the model path warmed up
    small = _tag_peak(tmp_path, ds, model, 1)
    large = _tag_peak(tmp_path, ds, model, 4)
    assert large <= 1.5 * small, (small, large)


def test_tag_memory_does_not_follow_a_text_input(tmp_path, chain_files):
    # 200 -> 3,200 lines: read as they are decoded, the peak grew 1.02x;
    # with the whole file read and split first it grew 3.1x.
    ds, _, model = chain_files
    refs = tmp_path / "refs.txt"
    refs.write_text(
        "".join(cit["bibRef"] + "\n" for row in read_json_lines(ds, dict) for cit in row["citations"]),
        encoding="utf-8",
    )
    _tag_peak(tmp_path, refs, model, 1)
    small = _tag_peak(tmp_path, refs, model, 1)
    large = _tag_peak(tmp_path, refs, model, 16)
    assert large <= 1.5 * small, (small, large)


def test_tag_with_corrupted_model_is_domain_error(tmp_path, corpus_file, capsys):
    ds = tmp_path / "ds.jsonl"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    for name, (corruption, message) in MODEL_CORRUPTIONS.items():
        model = corrupted_model_file(tmp_path / f"{name}.json", corruption)
        capsys.readouterr()
        assert run("tag", "--in", ds, "--model", model, "--out", tmp_path / "t.jsonl") == 1, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and message in err, name
        assert "Traceback" not in err


def test_tag_names_the_row_with_an_empty_reference(tmp_path, corpus_file, capsys):
    ds = tmp_path / "ds.jsonl"
    model = tmp_path / "model.json"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    assert run("train", "--in", ds, "--out", model) == 0
    rows = list(read_json_lines(ds, dict))
    rows[1]["citations"][2]["bibRef"] = " "
    ds.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    assert run("tag", "--in", ds, "--model", model, "--out", tmp_path / "t.jsonl") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert repr(rows[1]["id"]) in err
    assert repr(rows[1]["citations"][2]["style"]) in err


def test_a_failed_tag_leaves_nothing_for_evaluate_to_score(tmp_path, chain_files, capsys):
    ds, _, model = chain_files
    rows = list(read_json_lines(ds, dict))
    rows[5]["citations"][0]["bibRef"] = ""
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
    fresh, earlier = tmp_path / "t.jsonl", tmp_path / "earlier.jsonl"
    assert run("tag", "--in", ds, "--model", model, "--out", earlier) == 0
    kept = earlier.read_bytes()
    for out in (fresh, earlier):
        assert run("tag", "--in", bad, "--model", model, "--out", out) == 1
    assert not fresh.exists()
    assert earlier.read_bytes() == kept
    assert not list(tmp_path.glob("*.tmp"))
    capsys.readouterr()
    assert run("evaluate", "--in", fresh, "--dataset", bad) == 1
    assert str(fresh) in capsys.readouterr().err


def test_an_empty_reference_in_a_later_batch_fails_the_whole_tag(tmp_path, chain_files, capsys):
    ds, _, model = chain_files
    rows = list(read_json_lines(ds, dict))
    where = [(r, c) for r, row in enumerate(rows) for c in range(len(row["citations"]))]
    r, c = where[TAG_BATCH + TAG_BATCH // 2]  # mid-way through the second batch
    rows[r]["citations"][c]["bibRef"] = " "
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "t.jsonl"
    capsys.readouterr()
    assert run("tag", "--in", bad, "--model", model, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: row id {rows[r]['id']!r}, style "
        f"{rows[r]['citations'][c]['style']!r} has a bibRef with no tokens to decode\n"
    )
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_env_variable_override(tmp_path, corpus_file, monkeypatch):
    ds = tmp_path / "ds.jsonl"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    out_env = tmp_path / "m_env.json"
    monkeypatch.setenv("CITEFORGE_SEED", "99")
    assert run("split", "--in", ds, "--out", out_env) == 0
    monkeypatch.delenv("CITEFORGE_SEED")
    out_flag = tmp_path / "m_flag.json"
    assert run("split", "--in", ds, "--seed", 99, "--out", out_flag) == 0
    assert json.loads(out_env.read_text()) == json.loads(out_flag.read_text())


def test_config_digest_covers_environment_values(tmp_path, corpus_file, monkeypatch):
    ds = tmp_path / "ds.jsonl"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    out = tmp_path / "m.json"
    manifest = tmp_path / "m.json.manifest.json"

    def split_digest(*flags):
        assert run("split", "--in", ds, "--out", out, *flags) == 0
        return json.loads(manifest.read_text())["config_digest"]

    default = split_digest()
    monkeypatch.setenv("CITEFORGE_SEED", "99")
    from_env = split_digest()
    monkeypatch.delenv("CITEFORGE_SEED")
    from_flag = split_digest("--seed", 99)
    assert default != from_env
    assert from_env == from_flag


def test_config_file_supplies_flags(tmp_path, corpus_file):
    ds = tmp_path / "ds.jsonl"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    config = tmp_path / "cfg.json"
    out = tmp_path / "m.json"
    config.write_text(json.dumps({"in": str(ds), "seed": 7, "out": str(out)}))
    assert run("split", "--config", config) == 0
    assert json.loads(out.read_text())["seed"] == 7


@pytest.mark.parametrize("seed,shown", [(1.5, "1.5"), (True, "True")])
def test_config_number_of_the_wrong_json_type(tmp_path, corpus_file, capsys, seed, shown):
    ds = tmp_path / "ds.jsonl"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    config = tmp_path / "cfg.json"
    out = tmp_path / "m.json"
    config.write_text(json.dumps({"in": str(ds), "seed": seed, "out": str(out)}))
    capsys.readouterr()
    assert run("split", "--config", config) == 1
    assert capsys.readouterr().err == f"error: config key 'seed': invalid int value {shown}\n"
    assert not out.exists()


def test_config_integer_for_a_float_flag_and_string_for_an_int_flag(tmp_path, chain_files):
    ds, _, model = chain_files
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", ds, "--model", model, "--out", tagged) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tau": 1, "seed": "7"}))
    tau = run_for("evaluate", "--config", config).get("tau")
    assert tau == 1.0 and isinstance(tau, float)
    assert run_for("split", "--config", config).get("seed") == 7
    assert run("evaluate", "--config", config, "--in", tagged, "--dataset", ds) == 0


def test_flag_beats_env_and_config(tmp_path, corpus_file, monkeypatch):
    ds = tmp_path / "ds.jsonl"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1}))
    monkeypatch.setenv("CITEFORGE_SEED", "2")
    out = tmp_path / "m.json"
    assert run("split", "--in", ds, "--seed", 3, "--config", config, "--out", out) == 0
    assert json.loads(out.read_text())["seed"] == 3


def test_inputs_never_mutated(tmp_path, corpus_file):
    before = corpus_file.read_bytes()
    ds = tmp_path / "ds.jsonl"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    assert run("stats", "--in", corpus_file) == 0
    assert corpus_file.read_bytes() == before


def test_harvest_subcommand_with_fixture(tmp_path, capsys):
    from citeforge.fixture import FixtureServer

    with FixtureServer() as server:
        out = tmp_path / "h.bib"
        code = run(
            "harvest",
            "--url-template", server.url_template(),
            "--id-start", 1, "--id-end", 4,
            "--td", 5, "--rid", 0,
            "--out", out,
        )
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 4
    assert out.exists()
    assert (tmp_path / "h.bib.checkpoint.json").exists()


def test_harvest_refuses_external_host(tmp_path, capsys):
    code = run(
        "harvest",
        "--url-template", "https://scholar.google.com/{id}",
        "--id-end", 3, "--out", tmp_path / "h.bib",
    )
    assert code == 1
    assert "non-local" in capsys.readouterr().err


def test_harvest_refuses_negative_retries(tmp_path, capsys):
    code = run(
        "harvest",
        "--url-template", "http://127.0.0.1:9/{id}",
        "--id-end", 3, "--max-retries", -1, "--out", tmp_path / "h.bib",
    )
    assert code == 1
    assert "max_retries" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("port", [99999, -1])
def test_serve_fixture_refuses_a_port_out_of_range(port, capsys):
    assert run("serve-fixture", "--port", port) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --port {port}:") and "Traceback" not in err


# --- typed flags from the environment and the config file ---------------


def run_for(*argv):
    return Run(build_parser().parse_args([str(a) for a in argv]))


def declared(key=None, *values):
    """(subcommand, flag, keywords) of each flag in the declaration, or of
    those whose `add_argument` keyword `key` is one of `values`."""
    return [
        pytest.param(subcommand, flag, keywords, id=subcommand + flag)
        for subcommand, (_, _, flags) in SUBCOMMANDS.items()
        for flag, keywords in flags.items()
        if key is None or keywords.get(key) in values
    ]


@pytest.mark.parametrize("subcommand,flag,keywords", declared())
def test_every_declared_flag_is_in_its_help(capsys, subcommand, flag, keywords):
    with pytest.raises(SystemExit) as excinfo:
        run(subcommand, "--help")
    assert excinfo.value.code == 0
    assert f" {flag}" in capsys.readouterr().out


@pytest.mark.parametrize("subcommand,flag,keywords", declared("type", int, float))
def test_a_number_flag_resolves_alike_from_every_source(
    tmp_path, monkeypatch, subcommand, flag, keywords
):
    name, value = flag[2:].replace("-", "_"), keywords["type"](7)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({name: value}))
    from_config = run_for(subcommand, "--config", config).get(name)
    from_flag = run_for(subcommand, flag, value).get(name)
    monkeypatch.setenv("CITEFORGE_" + name.upper(), str(value))
    from_env = run_for(subcommand).get(name)
    assert from_flag == from_env == from_config == value
    assert type(from_flag) is type(from_env) is type(from_config) is keywords["type"]


@pytest.mark.parametrize("subcommand,flag,keywords", declared("action", "store_const"))
def test_a_switch_is_true_from_the_flag_and_from_1(monkeypatch, subcommand, flag, keywords):
    name = flag[2:].replace("-", "_")
    assert run_for(subcommand, flag).get(name) is True
    monkeypatch.setenv("CITEFORGE_" + name.upper(), "1")
    assert run_for(subcommand).get(name) is True


@pytest.mark.parametrize("subcommand,flag,keywords", declared("action", "append"))
def test_an_append_flag_given_once_is_a_one_item_list(subcommand, flag, keywords):
    assert run_for(subcommand, flag, "5:2").get(flag[2:].replace("-", "_")) == ["5:2"]


@pytest.mark.parametrize(
    "subcommand,name",
    [
        ("evaluate", "near_as_correct"),
        ("harvest", "allow_external"),
        ("harvest", "resume"),
        ("clean", "keep_homepage_misc"),
    ],
)
@pytest.mark.parametrize(
    "word,expected",
    [("1", True), ("true", True), ("Yes", True), ("on", True),
     ("0", False), ("false", False), ("NO", False), ("off", False)],
)
def test_store_const_flag_from_env_is_typed(monkeypatch, subcommand, name, word, expected):
    monkeypatch.setenv("CITEFORGE_" + name.upper(), word)
    assert run_for(subcommand).get(name, False) is expected


@pytest.mark.parametrize("value,expected", [(False, False), ("off", False), (True, True)])
def test_store_const_flag_from_config_is_typed(tmp_path, value, expected):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"near_as_correct": value}))
    assert run_for("evaluate", "--config", config).get("near_as_correct") is expected


def test_allow_external_zero_keeps_localhost_guard(monkeypatch):
    monkeypatch.setenv("CITEFORGE_ALLOW_EXTERNAL", "0")
    assert run_for("harvest").get("allow_external", False) is False


def test_flag_on_command_line_beats_false_env(monkeypatch):
    monkeypatch.setenv("CITEFORGE_NEAR_AS_CORRECT", "false")
    assert run_for("evaluate", "--near-as-correct").get("near_as_correct") is True


def test_bad_boolean_env_is_domain_error(tmp_path, corpus_file, monkeypatch, capsys):
    monkeypatch.setenv("CITEFORGE_KEEP_HOMEPAGE_MISC", "maybe")
    assert run("clean", "--in", corpus_file, "--out", tmp_path / "c.bib") == 1
    err = capsys.readouterr().err
    assert "CITEFORGE_KEEP_HOMEPAGE_MISC" in err and "maybe" in err


def test_false_env_keeps_default_behaviour(tmp_path, corpus_file, monkeypatch, capsys):
    monkeypatch.setenv("CITEFORGE_KEEP_HOMEPAGE_MISC", "false")
    assert run("clean", "--in", corpus_file, "--out", tmp_path / "c.bib") == 0
    assert json.loads(capsys.readouterr().out)["dropped"] == 1


def test_bad_int_env_is_domain_error(tmp_path, corpus_file, monkeypatch, capsys):
    ds = tmp_path / "ds.jsonl"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    monkeypatch.setenv("CITEFORGE_SEED", "forty")
    assert run("split", "--in", ds, "--out", tmp_path / "s.json") == 1
    assert "CITEFORGE_SEED" in capsys.readouterr().err


def test_append_flag_from_env_is_one_element_list(monkeypatch):
    monkeypatch.setenv("CITEFORGE_FAIL", "5:500")
    assert run_for("serve-fixture").get("fail") == ["5:500"]


def test_append_flag_from_config_keeps_list(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"fail": ["5:500", "6:404:2"], "multi": "3:2"}))
    resolved = run_for("serve-fixture", "--config", config)
    assert resolved.get("fail") == ["5:500", "6:404:2"]
    assert resolved.get("multi") == ["3:2"]


def test_config_empty_list_for_a_list_flag(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"in": []}))
    assert run("stats", "--config", config) == 1
    err = capsys.readouterr().err
    assert err == "error: config key 'in': expected at least one value, got []\n"


def test_config_must_be_object(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text("[1, 2]")
    assert run("split", "--config", config) == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["parse", "clean", "render", "annotate", "build"])
def test_source_tag_flag_is_gone(tmp_path, corpus_file, subcommand):
    with pytest.raises(SystemExit) as excinfo:
        run(subcommand, "--in", corpus_file, "--out", tmp_path / "o", "--source-tag", "x")
    assert excinfo.value.code == 2


# --- unreadable inputs are domain errors that name the file --------------


def assert_domain_error(code, capsys, *names):
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error:") and "Traceback" not in err
    for name in names:
        assert str(name) in err, (name, err)


@pytest.fixture()
def chain_files(tmp_path, corpus_file):
    """A dataset, its split and a model trained on it."""
    ds, split, model = tmp_path / "ds.jsonl", tmp_path / "split.json", tmp_path / "model.json"
    assert run("build", "--in", corpus_file, "--out", ds) == 0
    assert run("split", "--in", ds, "--out", split) == 0
    assert run("train", "--in", ds, "--out", model) == 0
    return ds, split, model


@pytest.mark.parametrize("kind", ["model", "split", "config", "dataset"])
def test_json_nested_past_the_recursion_limit(tmp_path, chain_files, capsys, kind):
    ds, split, model = chain_files
    deep = tmp_path / f"deep-{kind}.json"
    deep.write_text('{"seed": ' + "[" * 50_000 + "]" * 50_000 + "}\n")
    out = tmp_path / "out"
    argv = {
        "model": ["tag", "--in", ds, "--model", deep, "--out", out],
        "split": ["train", "--in", ds, "--split", deep, "--out", out],
        "config": ["split", "--config", deep],
        "dataset": ["train", "--in", deep, "--out", out],
    }[kind]
    capsys.readouterr()
    assert_domain_error(run(*argv), capsys, deep)


def test_evaluate_names_a_tagged_line_that_is_not_an_object(tmp_path, chain_files, capsys):
    ds = chain_files[0]
    tagged = tmp_path / "tagged.jsonl"
    tagged.write_text('{"id": "a", "style": "s", "fields": []}\n[1]\n')
    capsys.readouterr()
    code = run("evaluate", "--in", tagged, "--dataset", ds)
    assert_domain_error(code, capsys, tagged, "line 2")


@pytest.mark.parametrize("subcommand", ["tag", "evaluate"])
def test_dataset_row_without_bib_fields(tmp_path, chain_files, capsys, subcommand):
    ds, _, model = chain_files
    rows = list(read_json_lines(ds, dict))
    del rows[2]["bib_fields"]
    ds.write_text("".join(json.dumps(row) + "\n" for row in rows))
    tagged = tmp_path / "tagged.jsonl"
    tagged.write_text("")
    argv = {
        "tag": ["tag", "--in", ds, "--model", model, "--out", tmp_path / "t.jsonl"],
        "evaluate": ["evaluate", "--in", tagged, "--dataset", ds],
    }[subcommand]
    capsys.readouterr()
    assert_domain_error(run(*argv), capsys, ds, "line 3", "'bib_fields'")


def test_train_split_without_seed(tmp_path, chain_files, capsys):
    ds, split, _ = chain_files
    data = json.loads(split.read_text())
    del data["seed"]
    split.write_text(json.dumps(data))
    capsys.readouterr()
    code = run("train", "--in", ds, "--split", split, "--out", tmp_path / "m.json")
    assert_domain_error(code, capsys, split, "'seed'")


@pytest.mark.parametrize("subcommand", ["train", "tag", "evaluate"])
def test_split_with_an_id_on_both_sides(tmp_path, chain_files, capsys, subcommand):
    ds, split, model = chain_files
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", ds, "--model", model, "--out", tagged) == 0
    data = json.loads(split.read_text())
    shared = data["eval_ids"][1]
    data["train_ids"].append(shared)
    split.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--in", ds, "--out", out],
        "tag": ["tag", "--in", ds, "--model", model, "--out", out],
        "evaluate": ["evaluate", "--in", tagged, "--dataset", ds, "--out", out],
    }[subcommand]
    capsys.readouterr()
    code = run(*argv, "--split", split)
    assert_domain_error(code, capsys, split, repr(shared), "train_ids and eval_ids")
    assert not out.exists()


def test_tag_refuses_a_split_for_a_text_input(tmp_path, chain_files, capsys):
    _, _, model = chain_files
    refs = tmp_path / "refs.txt"
    refs.write_text("Smith, J. A title. 2001.\n", encoding="utf-8")
    out = tmp_path / "tagged.jsonl"
    capsys.readouterr()
    code = run("tag", "--in", refs, "--split", tmp_path / "missing.json", "--model", model,
               "--out", out)
    assert_domain_error(code, capsys, "--split", refs)
    assert not out.exists()


def _edit_rows(path, edit):
    rows = list(read_json_lines(path, dict))
    edit(rows)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


@pytest.mark.parametrize(
    "subcommand,key,value",
    [("tag", "bibRef", None), ("tag", "bibRef", 5), ("train", "annoRef", 5)],
    ids=["tag-without-bibRef", "tag-integer-bibRef", "train-integer-annoRef"],
)
def test_dataset_citation_of_the_wrong_shape(
    tmp_path, chain_files, capsys, subcommand, key, value
):
    ds, _, model = chain_files

    def edit(rows):
        cit = rows[1]["citations"][3]
        if value is None:
            del cit[key]
        else:
            cit[key] = value

    _edit_rows(ds, edit)
    out = tmp_path / "out"
    argv = {
        "tag": ["tag", "--in", ds, "--model", model, "--out", out],
        "train": ["train", "--in", ds, "--out", out],
    }[subcommand]
    capsys.readouterr()
    assert_domain_error(run(*argv), capsys, ds, "line 2", "citation 3", key)


@pytest.mark.parametrize(
    "edit",
    [
        lambda row: row["fields"][0].pop("label"),
        lambda row: row.update(fields=5),
        lambda row: row["fields"][0].update(value=5),
        lambda row: row.update(id=[1]),
    ],
    ids=["field-without-label", "fields-not-a-list", "integer-value", "list-id"],
)
def test_evaluate_names_a_tagged_row_of_the_wrong_shape(tmp_path, chain_files, capsys, edit):
    ds, _, model = chain_files
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", ds, "--model", model, "--out", tagged) == 0
    _edit_rows(tagged, lambda rows: edit(rows[2]))
    capsys.readouterr()
    code = run("evaluate", "--in", tagged, "--dataset", ds)
    assert_domain_error(code, capsys, tagged, "line 3")


def test_evaluate_keeps_rows_without_id_and_style(tmp_path, chain_files, capsys):
    ds = chain_files[0]
    tagged = tmp_path / "tagged.jsonl"
    tagged.write_text('{"reference": "x", "fields": [], "log_prob": -1.0}\n')
    capsys.readouterr()
    assert run("evaluate", "--in", tagged, "--dataset", ds) == 0


def test_tag_refuses_a_dataset_with_a_cut_first_line(tmp_path, chain_files, capsys):
    ds, _, model = chain_files
    lines = ds.read_text().splitlines(keepends=True)
    ds.write_text(lines[0][: len(lines[0]) // 2] + "\n" + "".join(lines[1:]))
    out = tmp_path / "t.jsonl"
    capsys.readouterr()
    code = run("tag", "--in", ds, "--model", model, "--out", out)
    assert_domain_error(code, capsys, ds, "line 1")


def test_tag_reads_text_starting_with_a_brace_as_a_dataset(tmp_path, chain_files, capsys):
    model = chain_files[2]
    refs = tmp_path / "refs.txt"
    refs.write_text("{Argon} C. 2002. A parallel decoder. IEEE.\n")
    out = tmp_path / "t.jsonl"
    capsys.readouterr()
    code = run("tag", "--in", refs, "--model", model, "--out", out)
    assert_domain_error(code, capsys, refs, "line 1")


def test_stats_knows_a_dataset_by_its_content(tmp_path, chain_files, capsys):
    ds = chain_files[0]
    renamed = tmp_path / "ds.json"
    renamed.write_text(ds.read_text())
    for path in (ds, renamed):
        capsys.readouterr()
        assert run("stats", "--in", path) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["title", "20"] in rows


@pytest.mark.parametrize("subcommand", ["tag", "stats"])
def test_a_dataset_whose_first_row_is_wrapped_in_a_list(
    tmp_path, chain_files, capsys, subcommand
):
    ds, _, model = chain_files
    lines = ds.read_text().splitlines(keepends=True)
    ds.write_text("[ " + lines[0].rstrip("\n") + "]\n" + "".join(lines[1:]))
    capsys.readouterr()
    if subcommand == "tag":
        code = run("tag", "--in", ds, "--model", model, "--out", tmp_path / "t.jsonl")
    else:
        code = run("stats", "--in", ds)
    assert_domain_error(code, capsys, f"{ds} line 1: expected a JSON object")


def test_tag_reads_a_numbered_reference_list_as_text(tmp_path, chain_files, capsys):
    model = chain_files[2]
    refs = tmp_path / "refs.txt"
    refs.write_text("[1] Argon C. 2002. A parallel decoder. IEEE.\n[2] Björk B. 1999.\n")
    out = tmp_path / "t.jsonl"
    capsys.readouterr()
    assert run("tag", "--in", refs, "--model", model, "--out", out) == 0
    assert capsys.readouterr().out == "tagged 2 references\n"


def test_a_dataset_and_model_with_a_byte_order_mark_read_as_without(tmp_path, chain_files, capsys):
    # Notepad and Excel save UTF-8 with a leading byte order mark.
    ds, split, model = chain_files
    marked = []
    for path in ds, model:
        marked.append(tmp_path / f"bom-{path.name}")
        marked[-1].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    outputs = []
    for data, hmm in [(ds, model), marked]:
        tagged, split_out = tmp_path / "tagged.jsonl", tmp_path / "split-out.json"
        capsys.readouterr()
        assert run("tag", "--in", data, "--model", hmm, "--out", tagged) == 0
        assert run("split", "--in", data, "--out", split_out) == 0
        assert run("stats", "--in", data) == 0
        outputs.append((tagged.read_bytes(), split_out.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert ["title", "20"] in [line.split() for line in outputs[1][2].out.splitlines()]


def test_tag_reads_past_a_byte_order_mark_on_text(tmp_path, chain_files):
    model = chain_files[2]
    refs = tmp_path / "refs.txt"
    lines = ["Argon C. 2002. A parallel decoder. IEEE.", "Björk B. Über alles. 1999."]
    refs.write_text("\ufeff" + "".join(line + "\n" for line in lines), encoding="utf-8")
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", refs, "--model", model, "--out", tagged) == 0
    tagged_rows(tagged, model, lines)
    assert "\ufeff" not in tagged.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "edit",
    [
        lambda b: json.dumps({**json.loads(b), "segments": 5}).encode(),
        lambda b: b.replace(b'"author"', b'["author"]', 1),
        lambda b: b.replace(b"false", b'"no"', 1),
        lambda b: b.replace(b'""', b"[" * 5000 + b"]" * 5000, 1),
        lambda b: b.replace("í".encode(), "í".encode("latin-1")),
    ],
    ids=["segments-not-a-list", "list-variable", "string-omit-if-missing",
         "nested-5000-deep", "not-utf-8"],
)
def test_build_names_a_bad_style_file(tmp_path, corpus_file, capsys, edit):
    from citeforge.styles import builtin_styles_dir

    good = (builtin_styles_dir() / "abnt_like.json").read_bytes()
    style = tmp_path / "one.json"
    style.write_bytes(edit(good))
    assert style.read_bytes() != good
    code = run("build", "--in", corpus_file, "--styles", style, "--out", tmp_path / "o")
    assert_domain_error(code, capsys, style)


@pytest.mark.parametrize(
    "flag,rule",
    [("fail", "3"), ("fail", "3:x"), ("fail", "5:500:-2"),
     ("multi", "3"), ("multi", "3:2:1"), ("multi", "7:-1")],
)
def test_serve_fixture_names_a_bad_rule(capsys, flag, rule):
    code = run("serve-fixture", "--port", 0, f"--{flag}", rule)
    assert_domain_error(code, capsys, f"--{flag}", repr(rule))


# Runs in a fresh interpreter: what each step leaves in sys.modules.
IMPORT_PROBE = """
import json, sys
HEAVY = ("numpy", "urllib.request", "http.client", "ssl")
loaded = lambda: [m for m in HEAVY if m in sys.modules]
import citeforge.cli as cli
seen = {"import": loaded()}
corpus, ds, model = sys.argv[1:]
seen["build_exit"] = cli.main(["build", "--in", corpus, "--out", ds])
seen["build"] = loaded()
seen["train_exit"] = cli.main(["train", "--in", ds, "--out", model])
seen["train"] = loaded()
cli.HmmModel.load(model)
seen["load"] = loaded()
empty = ds + ".empty.txt"
open(empty, "w").close()
seen["tag_empty_exit"] = cli.main(["tag", "--in", empty, "--model", model, "--out", empty + ".tagged"])
seen["tag_missing_exit"] = cli.main(["tag", "--in", ds + ".missing", "--model", model, "--out", empty + ".tagged"])
rows = [json.loads(line) for line in open(ds)]
rows[0]["citations"][0]["bibRef"] = " "
blank = ds + ".blank.jsonl"
open(blank, "w").write("".join(json.dumps(row) + "\\n" for row in rows))
seen["tag_blank_exit"] = cli.main(["tag", "--in", blank, "--model", model, "--out", blank + ".tagged"])
seen["tag_no_refs"] = loaded()
seen["tag_exit"] = cli.main(["tag", "--in", ds, "--model", model, "--out", ds + ".tagged"])
seen["tag"] = loaded()
import citeforge
seen["harvest"] = [callable(citeforge.harvest), citeforge.harvest.__module__]
print(json.dumps(seen))
"""


def test_import_budget_of_cli_stages(tmp_path, corpus_file, child_env):
    """numpy loads only when a model decodes (not to train or load one, nor
    to tag an input with no reference or whose first row has no token),
    and the HTTP stack not at all outside harvesting."""
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(corpus_file),
         str(tmp_path / "ds.jsonl"), str(tmp_path / "model.json")],
        env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    seen = json.loads(result.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["build_exit"] == 0 and seen["build"] == []
    assert seen["train_exit"] == 0 and seen["train"] == []
    assert seen["load"] == []
    assert seen["tag_empty_exit"] == 0 and seen["tag_missing_exit"] == 1
    assert seen["tag_blank_exit"] == 1
    assert seen["tag_no_refs"] == []
    assert seen["tag_exit"] == 0 and seen["tag"] == ["numpy"]
    # the package exports the function, not the submodule of the same name
    assert seen["harvest"] == [True, "citeforge.harvest"]


# Runs one stage, as `python -m citeforge.cli` would, and prints the
# citeforge modules it left loaded besides the package and the CLI.
STAGE_MODULES_PROBE = """
import json, sys
import citeforge.cli as cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(m.split(".")[1] for m in sys.modules
                        if m.startswith("citeforge.") and m != "citeforge.cli")))
sys.exit(code)
"""
BIBTEX_SIDE = {"bibtex", "jsonfile"}
MODEL_SIDE = {"dataset", "hmm", "tokens", "annotation", "labels", "jsonfile"}
STAGE_MODULES = {
    "parse": BIBTEX_SIDE,
    "clean": BIBTEX_SIDE,
    "stats": BIBTEX_SIDE,
    "build": BIBTEX_SIDE | {"dataset", "styles", "annotation", "labels"},
    "split": {"dataset", "jsonfile"},
    "train": MODEL_SIDE,
    "tag": MODEL_SIDE,
    "evaluate": {"dataset", "evaluate", "annotation", "labels", "jsonfile"},
}


def test_each_stage_imports_only_its_modules(tmp_path, corpus_file, chain_files, child_env):
    """Every stage is a fresh interpreter, which compiles each module it
    imports: a stage loads the modules it runs and no others."""
    ds, split, model = chain_files
    tagged = tmp_path / "tagged.jsonl"
    assert run("tag", "--in", ds, "--split", split, "--model", model, "--out", tagged) == 0
    argv = {
        "parse": ["--in", corpus_file, "--out", tmp_path / "parsed.bib"],
        "clean": ["--in", corpus_file, "--out", tmp_path / "clean.bib"],
        "stats": ["--in", corpus_file],
        "build": ["--in", corpus_file, "--out", tmp_path / "built.jsonl"],
        "split": ["--in", ds, "--out", tmp_path / "split2.json"],
        "train": ["--in", ds, "--split", split, "--out", tmp_path / "model2.json"],
        "tag": ["--in", ds, "--split", split, "--model", model, "--out", tmp_path / "t.jsonl"],
        "evaluate": ["--in", tagged, "--dataset", ds, "--split", split],
    }
    loaded = {}
    for stage, args in argv.items():
        result = subprocess.run(
            [sys.executable, "-c", STAGE_MODULES_PROBE, stage, *map(str, args)],
            env=child_env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        loaded[stage] = set(json.loads(result.stdout.splitlines()[-1]))
    assert loaded == STAGE_MODULES


# Every name the package exported when its __init__ imported them all.
PACKAGE_EXPORTS = (
    "BibEntry", "BuildStats", "Checkpoint", "CleanPolicy", "CleanStats", "DatasetRecord",
    "EvalPolicy", "EvalReport", "ExtractedField", "FeatureVector", "HarvestConfig",
    "HarvestStats", "HmmModel", "IssueKind", "LabelSequence", "MalformedAnnotation",
    "MatchClass", "MissingVariable", "NoReferenceSection", "ReferenceBlock",
    "RenderedReference", "Segment", "SplitManifest", "StyleTemplate", "Token",
    "ValidationIssue", "align_training", "annotate", "build_dataset", "classify_match",
    "clean_corpus", "dataset_stats", "efficiency_series", "evaluate_dataset", "export",
    "extract_references", "field_histogram", "format_report", "ground_truth_fields",
    "harvest", "levenshtein", "load_builtin_styles", "load_jsonl", "load_styles",
    "normalize", "parse_annotation", "parse_bibtex", "render", "resume", "score",
    "serialize", "split_dataset", "strip_tags", "tag_reference", "tag_references",
    "tokenize", "train_hmm", "type_histogram", "validate_entry", "viterbi",
)
EXPORTS_PROBE = """
import json, sys, types
modules = []
for name in sys.argv[1:]:
    scope = {}
    exec(f"from citeforge import {name}", scope)
    if isinstance(scope[name], types.ModuleType):
        modules.append(name)
import citeforge
print(json.dumps([modules, sorted(set(sys.argv[1:]) - set(dir(citeforge)))]))
"""


def test_every_package_name_imports_from_the_package(child_env):
    """In a fresh interpreter, one name at a time, each name imports from
    `citeforge` as the object it names, never as a submodule (`harvest` is
    the function), and `dir(citeforge)` lists it."""
    result = subprocess.run(
        [sys.executable, "-c", EXPORTS_PROBE, *PACKAGE_EXPORTS],
        env=child_env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout) == [[], []]


def test_cli_import_loads_no_dataclass_machinery(child_env):
    """Every stage is a fresh interpreter: `dataclasses` would pull in
    `inspect`, `ast`, `dis` and `tokenize` before the stage's own work."""
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, citeforge.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=child_env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout == "[]\n"


def test_version_has_one_home():
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # `[tool.setuptools]` support is marked beta
        assert read_configuration(pyproject, expand=False)["project"]["dynamic"] == ["version"]
        assert read_configuration(pyproject)["project"]["version"] == citeforge.__version__


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_train_refuses_an_alpha_that_is_not_finite(tmp_path, chain_files, capsys, alpha):
    ds = chain_files[0]
    model = tmp_path / "m.json"
    capsys.readouterr()
    code = run("train", "--in", ds, "--out", model, "--alpha", alpha)
    assert_domain_error(code, capsys, "alpha")
    assert not model.exists()


def test_train_names_the_row_and_style_of_a_malformed_annotation(tmp_path, capsys):
    def row(id_, style, anno_ref):
        cit = {"style": style, "bibRef": "Doe J. A title.", "annoRef": anno_ref}
        return json.dumps({"id": id_, "bib_fields": {}, "citations": [cit]}) + "\n"

    ds = tmp_path / "ds.jsonl"
    ds.write_text(
        row("a", "s0", "<author>Doe J.</author> <title>A title.</title>")
        + row("b", "s1", "<author>Doe J.</autor> <title>A title.</title>")
    )
    model = tmp_path / "m.json"
    capsys.readouterr()
    assert run("train", "--in", ds, "--out", model) == 1
    assert capsys.readouterr().err == (
        f"error: {ds}: row id 'b', style 's1': unknown tag <autor>\n"
    )
    assert not model.exists()


@pytest.mark.parametrize("alpha", ["x", None, -1, float("nan")])
def test_tag_refuses_a_model_whose_alpha_is_not_a_finite_nonnegative_number(
    tmp_path, chain_files, capsys, alpha
):
    ds, _, model = chain_files
    data = json.loads(model.read_text())
    data["alpha"] = alpha
    model.write_text(json.dumps(data))
    capsys.readouterr()
    code = run("tag", "--in", ds, "--model", model, "--out", tmp_path / "t.jsonl")
    assert_domain_error(code, capsys, model, "alpha")


@pytest.mark.parametrize("tau", ["nan", "-1", "inf"])
def test_evaluate_refuses_a_tau_that_is_not_finite_and_nonnegative(
    tmp_path, chain_files, capsys, tau
):
    ds, _, model = chain_files
    tagged = tmp_path / "t.jsonl"
    assert run("tag", "--in", ds, "--model", model, "--out", tagged) == 0
    capsys.readouterr()
    code = run("evaluate", "--in", tagged, "--dataset", ds, "--tau", tau)
    assert_domain_error(code, capsys, "tau")

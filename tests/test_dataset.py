import csv
import json
import random

import pytest

from citeforge.annotation import strip_tags
from citeforge.bibtex import BibEntry, histogram_table
from citeforge.dataset import (
    BuildStats,
    DatasetRecord,
    NoStyles,
    TooSmall,
    build_dataset,
    dataset_stats,
    export,
    load_jsonl,
    split_dataset,
)
from citeforge.styles import Segment, StyleTemplate
from citeforge.synth import random_corpus


def build_all(entries, styles, **kw):
    stats = BuildStats()
    records = list(build_dataset(entries, styles, stats=stats, **kw))
    return records, stats


# --- building -----------------------------------------------------------


def test_one_entry_two_styles(argon_entry, styles):
    records, stats = build_all([argon_entry], styles[:2])
    assert len(records) == 1
    assert len(records[0].citations) == 2
    assert stats.citations == 2
    assert {c["style"] for c in records[0].citations} == {s.style_id for s in styles[:2]}


def test_citation_counts_equal_entries_times_styles(rng, styles):
    entries = random_corpus(rng, 40)
    records, stats = build_all(entries, styles[:5])
    assert stats.records == 40
    assert stats.citations == 40 * 5
    # independent counting pass
    assert sum(len(r.citations) for r in records) == 200


def test_desk_scale_400_entries_50_styles(rng, styles):
    # instance count is entries x styles: 400 x 50 = 20,000
    fifty = [
        s._replace(style_id=f"{s.style_id}-v{i}")
        for i in range(5)
        for s in styles
    ]
    entries = random_corpus(rng, 400)
    records, stats = build_all(entries, fifty)
    assert stats.citations == 20_000
    assert sum(len(r.citations) for r in records) == 20_000
    assert all(len({c["style"] for c in r.citations}) == 50 for r in records)


def test_round_trip_inside_records(rng, styles):
    records, _ = build_all(random_corpus(rng, 15), styles)
    for record in records:
        for cit in record.citations:
            assert strip_tags(cit["annoRef"]) == cit["bibRef"]


def test_no_styles_raises(rng):
    with pytest.raises(NoStyles):
        list(build_dataset(random_corpus(rng, 2), []))


def test_render_failures_recorded_not_fatal(styles):
    strict = StyleTemplate(
        "all-strict",
        (
            Segment("author", omit_if_missing=False),
            Segment("title", " ", "", omit_if_missing=False),
            Segment("container-title", " ", "", omit_if_missing=False),
        ),
    )
    with_journal = BibEntry(
        "article", "ok", {"author": "A B", "title": "T", "journal": "J"}
    )
    without = BibEntry("misc", "bad", {"author": "A B", "title": "T"})
    records, stats = build_all([with_journal, without], [strict])
    assert [r.id for r in records] == ["ok"]
    assert stats.skipped_renders == 1
    assert stats.dropped_records == 1
    assert stats.skip_log[0][:2] == ("bad", "all-strict")


def test_records_carry_provenance(rng, styles):
    entries = random_corpus(rng, 5, source_tag="dblp")
    records, _ = build_all(entries, styles[:1])
    assert all(r.source_tag == "dblp" for r in records)
    assert all(r.entry_type == e.entry_type for r, e in zip(records, entries))


# --- splitting ----------------------------------------------------------


def test_split_100_gives_66_34():
    ids = [f"id{i}" for i in range(100)]
    manifest = split_dataset(ids, seed=42)
    assert len(manifest.train_ids) == 66
    assert len(manifest.eval_ids) == 34


def test_split_3_gives_1_2():
    manifest = split_dataset(["a", "b", "c"], seed=1)
    assert len(manifest.train_ids) == 1
    assert len(manifest.eval_ids) == 2


def test_split_too_small():
    for ids in (["only"], ["only", "only"]):
        with pytest.raises(TooSmall):
            split_dataset(ids, seed=1)


def test_split_puts_a_repeated_id_on_one_side():
    # two BibTeX entries with one key build two records with one id
    for seed in range(1, 8):
        manifest = split_dataset(["same", "other", "same", "more"], seed=seed)
        assert sorted(manifest.train_ids + manifest.eval_ids) == ["more", "other", "same"]
        assert len(manifest.train_ids) == (66 * 3) // 100


def test_split_deterministic():
    ids = [f"id{i}" for i in range(57)]
    assert split_dataset(ids, seed=7) == split_dataset(ids, seed=7)
    assert split_dataset(ids, seed=7) != split_dataset(ids, seed=8)


def test_split_partition_over_random_corpora():
    rng = random.Random(1234)
    for _ in range(50):
        n = rng.randint(2, 200)
        ids = [f"k{i}" for i in range(n)]
        manifest = split_dataset(ids, seed=rng.randint(0, 10**6))
        train, evl = set(manifest.train_ids), set(manifest.eval_ids)
        assert train | evl == set(ids)
        assert not train & evl
        assert len(manifest.train_ids) == (66 * n) // 100


# --- export -------------------------------------------------------------


def test_jsonl_round_trip(tmp_path, rng, styles):
    records, _ = build_all(random_corpus(rng, 8), styles[:3])
    path = tmp_path / "ds.jsonl"
    export(records, "jsonl", path)
    loaded = list(load_jsonl(path))
    assert loaded == records
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.count(b"\n") == 8


def test_jsonl_schema_keys_exact(tmp_path, rng, styles):
    records, _ = build_all(random_corpus(rng, 2), styles[:1])
    path = tmp_path / "ds.jsonl"
    export(records, "jsonl", path)
    for line in path.read_text().splitlines():
        row = json.loads(line)
        assert set(row) == {"id", "bib_fields", "citations"}
        for cit in row["citations"]:
            assert set(cit) == {"style", "bibRef", "annoRef"}


def test_csv_row_count_is_total_citations(tmp_path, rng, styles):
    records, stats = build_all(random_corpus(rng, 9), styles[:4])
    path = tmp_path / "ds.csv"
    export(records, "csv", path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "style", "bibRef", "annoRef", "bib_fields"]
    assert len(rows) - 1 == stats.citations


# sha256 of the exports of random_corpus(Random(7), 40) x the built-in
# styles, as `csv.writer` and the earlier renderer wrote them.  Pinned so
# that every Python version the tests run under must write these bytes.
EXPORT_DIGESTS = {
    "jsonl": "cff50ebe22ac893f26ef0446295e5ce6f4ca8e56349f0801dc5b876566877024",
    "csv": "7fd26ab5268c2ceb737063139d1b1d57c081e6fa9d7dd5d1f641b68594b5f3ee",
}


@pytest.mark.parametrize("fmt", sorted(EXPORT_DIGESTS))
def test_exports_of_a_fixed_corpus_keep_their_digests(tmp_path, styles, fmt):
    records = build_dataset(random_corpus(random.Random(7), 40), styles)
    assert export(records, fmt, tmp_path / f"ds.{fmt}") == EXPORT_DIGESTS[fmt]


def test_checksum_deterministic(tmp_path, rng, styles):
    records, _ = build_all(random_corpus(rng, 6), styles[:2])
    first = export(records, "jsonl", tmp_path / "a.jsonl")
    second = export(records, "jsonl", tmp_path / "b.jsonl")
    assert first == second


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export([], "xml", tmp_path / "x")


# --- statistics ---------------------------------------------------------


def test_stats_empty_is_all_zero():
    text = dataset_stats([])
    assert text.count(" 0") >= 38  # 24 field rows + 14 type rows


def test_stats_exact_hand_counts():
    records = [
        DatasetRecord("a", {"author": "A", "title": "T"}, [{"style": "s", "bibRef": "r", "annoRef": "r"}], entry_type="article", source_tag="acm"),
        DatasetRecord("b", {"title": "T2"}, [{"style": "s", "bibRef": "r", "annoRef": "r"}], entry_type="article", source_tag="acm"),
        DatasetRecord("c", {"title": "T3"}, [{"style": "s", "bibRef": "r", "annoRef": "r"}], entry_type="book", source_tag="dblp"),
    ]
    text = dataset_stats(records)
    lines = {line.split()[0]: line.split()[1:] for line in text.splitlines() if line and not line.startswith("-")}
    assert lines["title"] == ["2", "1"]
    assert lines["author"] == ["1", "0"]
    assert lines["article"] == ["2", "0"]
    assert lines["book"] == ["0", "1"]


@pytest.mark.parametrize("tags", [(None,), ("acm", "dblp"), (None, "acm", "a-long-source")])
def test_stats_of_records_equal_the_table_of_their_entries(rng, styles, tags):
    entries = random_corpus(rng, 15)
    for i, entry in enumerate(entries):
        entry.source_tag = tags[i % len(tags)]
    records, _ = build_all(entries, styles[:3])
    kept = {r.id for r in records}
    assert dataset_stats(records) == histogram_table(e for e in entries if e.key in kept)


def test_stats_row_vocabulary_is_complete(rng, styles):
    records, _ = build_all(random_corpus(rng, 10), styles[:1])
    text = dataset_stats(records)
    for row in ("address", "annote", "crossref", "howpublished", "unpublished", "misc"):
        assert f"\n{row}" in text


def test_record_equality_ignores_entry_type_and_source_tag():
    cits = [{"style": "s", "bibRef": "r", "annoRef": "r"}]
    record = DatasetRecord("a", {"title": "T"}, cits, entry_type="article", source_tag="acm")
    assert record == DatasetRecord("a", {"title": "T"}, list(cits))
    assert record == DatasetRecord("a", {"title": "T"}, cits, "book", "dblp")
    for other in (
        DatasetRecord("b", {"title": "T"}, cits, "article", "acm"),
        DatasetRecord("a", {"title": "U"}, cits, "article", "acm"),
        DatasetRecord("a", {"title": "T"}, [], "article", "acm"),
        ("a", {"title": "T"}, cits),
    ):
        assert record != other

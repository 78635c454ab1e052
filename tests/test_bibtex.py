import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citeforge.bibtex import (
    ENTRY_TYPES,
    KNOWN_FIELDS,
    REQUIRED_FIELDS,
    BibEntry,
    CleanPolicy,
    IssueKind,
    ValidationIssue,
    clean_corpus,
    field_histogram,
    parse_bibtex,
    serialize,
    type_histogram,
    validate_entry,
)
from citeforge.synth import homepage_misc_entry, random_bibtex_file, random_corpus


def test_parse_misc_with_no_fields():
    entries, issues = parse_bibtex("@misc{x,}")
    assert issues == []
    assert entries == [BibEntry("misc", "x", {})]


def test_parse_empty_input():
    assert parse_bibtex("") == ([], [])


def test_parse_basic_entry():
    text = """
    @Article{smith2001,
      Author = {Smith, John and Doe, Jane},
      title  = "A thing",
      Year   = 2001,
      pages  = {10--20},
    }
    """
    entries, issues = parse_bibtex(text)
    assert issues == []
    (entry,) = entries
    assert entry.entry_type == "article"
    assert entry.key == "smith2001"
    assert entry.fields == {
        "author": "Smith, John and Doe, Jane",
        "title": "A thing",
        "year": "2001",
        "pages": "10--20",
    }


def test_parse_preserves_nested_braces():
    entries, _ = parse_bibtex("@article{a, title = {The {IEEE} way}, journal={X}}")
    assert entries[0].fields["title"] == "The {IEEE} way"


def test_malformed_block_does_not_abort_file():
    text = "@article{broken, title = {no closing\n\n@misc{ok, note={fine}}"
    entries, issues = parse_bibtex(text)
    assert [e.key for e in entries] == ["ok"]
    assert any(i.kind is IssueKind.SYNTAX_ERROR for i in issues)


def test_unknown_entry_type_reported_and_skipped():
    entries, issues = parse_bibtex("@webpage{w, title={T}}")
    assert entries == []
    assert [i.kind for i in issues] == [IssueKind.UNKNOWN_TYPE]
    assert issues[0].citation_key == "w"


def test_string_macro_and_concatenation_are_syntax_errors():
    text = '@string{me = "Me"}\n@article{a, author = me # " and You", title={T}, journal={J}, year={1999}}'
    entries, issues = parse_bibtex(text)
    assert entries == []
    assert all(i.kind is IssueKind.SYNTAX_ERROR for i in issues)
    assert len(issues) == 2


def test_repeated_key_is_reported_and_kept():
    # Only an earlier entry's key counts, matched exactly: a block that
    # failed to parse leaves no entry, and keys differing in case differ.
    text = (
        "@webpage{w, title={T}}\n@misc{a, note={1}}\n@misc{A, note={2}}\n"
        "@misc{w, note={3}}\n@book{a, title={4}}\n@misc{a, note={5}}"
    )
    entries, issues = parse_bibtex(text)
    assert [(e.key, e.fields) for e in entries] == [
        ("a", {"note": "1"}), ("A", {"note": "2"}), ("w", {"note": "3"}),
        ("a", {"title": "4"}), ("a", {"note": "5"}),
    ]
    assert [(i.citation_key, i.kind) for i in issues] == [
        ("w", IssueKind.UNKNOWN_TYPE),
        ("a", IssueKind.DUPLICATE_KEY),
        ("a", IssueKind.DUPLICATE_KEY),
    ]


def test_comment_blocks_skipped_silently():
    entries, issues = parse_bibtex("@comment{anything goes}\n@misc{m, note={n}}")
    assert [e.key for e in entries] == ["m"]
    assert issues == []


def test_duplicate_field_keeps_first_value():
    entries, _ = parse_bibtex("@misc{m, note={one}, note={two}}")
    assert entries[0].fields["note"] == "one"


def test_serialize_round_trip_on_generated_files():
    # serialize(parse(F)) reparsed must equal parse(F), for 100 noisy files
    for seed in range(100):
        rng = random.Random(seed)
        text = random_bibtex_file(rng, rng.randint(1, 8))
        first, issues = parse_bibtex(text)
        assert not issues, issues
        again, re_issues = parse_bibtex(serialize(first))
        assert re_issues == []
        assert again == first


# A citation key is what the parser takes between `{` and the first comma:
# anything without whitespace, commas or braces.
_KEY = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=",{}"),
    min_size=1,
    max_size=12,
).filter(lambda key: not any(c.isspace() for c in key))
# Field names as the parser reads them (`[A-Za-z][\w.:-]*`), lowercased.
_NAME = st.one_of(
    st.sampled_from(sorted(KNOWN_FIELDS)), st.from_regex(r"[a-z][a-z0-9_.:-]{0,8}", fullmatch=True)
)
# Values BibTeX can hold: balanced braces, whitespace collapsed to single
# spaces with none at either end.
_BRACELESS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="{}"), max_size=8)
_BALANCED = st.recursive(
    _BRACELESS,
    lambda inner: st.lists(st.one_of(inner, inner.map(lambda v: "{" + v + "}")), max_size=4).map("".join),
    max_leaves=12,
)
_ENTRY = st.builds(
    BibEntry,
    st.sampled_from(sorted(ENTRY_TYPES)),
    _KEY,
    st.dictionaries(_NAME, _BALANCED.map(lambda v: " ".join(v.split())), max_size=6),
)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_ENTRY, max_size=4))
def test_serialize_parse_round_trip(entries):
    parsed, issues = parse_bibtex(serialize(entries))
    repeated = [e.key for i, e in enumerate(entries) if e.key in {f.key for f in entries[:i]}]
    assert issues == [
        ValidationIssue(key, IssueKind.DUPLICATE_KEY, "an earlier entry has this key")
        for key in repeated
    ]
    assert parsed == entries


def test_serialize_format():
    entry = BibEntry("article", "k", {"title": "T", "year": "2000"})
    assert serialize([entry]) == "@article{k,\n  title = {T},\n  year = {2000},\n}\n"


# --- validation ---------------------------------------------------------


def test_validate_complete_article():
    entry = BibEntry(
        "article", "a", {"author": "A", "title": "T", "journal": "J", "year": "2000"}
    )
    assert validate_entry(entry) == []


def test_validate_article_missing_year():
    entry = BibEntry("article", "a", {"author": "A", "title": "T", "journal": "J"})
    issues = validate_entry(entry)
    assert len(issues) == 1
    assert issues[0].kind is IssueKind.MISSING_REQUIRED_FIELD
    assert issues[0].detail == "year"


def test_validate_book_editor_satisfies_author_disjunction():
    entry = BibEntry(
        "book", "b", {"editor": "E", "title": "T", "publisher": "P", "year": "1990"}
    )
    assert validate_entry(entry) == []


def test_validate_inbook_chapter_or_pages():
    base = {"author": "A", "title": "T", "publisher": "P", "year": "1990"}
    with_chapter = BibEntry("inbook", "i", dict(base, chapter="3"))
    with_pages = BibEntry("inbook", "i", dict(base, pages="1--10"))
    with_neither = BibEntry("inbook", "i", dict(base))
    assert validate_entry(with_chapter) == []
    assert validate_entry(with_pages) == []
    details = [i.detail for i in validate_entry(with_neither)]
    assert details == ["chapter or pages"]


def test_validate_unknown_field_is_informational():
    entry = BibEntry(
        "article",
        "a",
        {"author": "A", "title": "T", "journal": "J", "year": "2000", "doi": "10.1/x"},
    )
    issues = validate_entry(entry)
    assert [i.kind for i in issues] == [IssueKind.UNKNOWN_FIELD]
    assert issues[0].detail == "doi"


def test_validate_minimal_entries_for_every_type():
    # an entry synthesized from the required-field table never has issues
    for entry_type in sorted(ENTRY_TYPES):
        fields = {alts[0]: "value" for alts in REQUIRED_FIELDS[entry_type]}
        entry = BibEntry(entry_type, "k", fields)
        assert validate_entry(entry) == [], entry_type


# --- cleaning -----------------------------------------------------------


def test_clean_drops_homepage_keyed_misc():
    entry = BibEntry("misc", "homepages/r/Ryan", {"author": "Ryan, N."})
    kept, stats = clean_corpus([entry], CleanPolicy())
    assert kept == []
    assert stats.dropped == 1
    assert stats.dropped_by_reason["homepage_key"] == 1


def test_clean_drops_misc_without_title_and_year():
    entry = BibEntry("misc", "stub1", {"author": "A"})
    kept, stats = clean_corpus([entry], CleanPolicy())
    assert kept == []
    assert stats.dropped_by_reason["misc_no_title_year"] == 1


def test_clean_keeps_article_unchanged_with_empty_strip_list():
    entry = BibEntry("article", "a", {"title": "T"})
    kept, stats = clean_corpus([entry], CleanPolicy(fields_to_strip=()))
    assert kept == [entry]
    assert stats.dropped == 0


def test_clean_counts_dropped(rng):
    corpus = random_corpus(rng, 7) + [homepage_misc_entry(rng) for _ in range(3)]
    kept, stats = clean_corpus(corpus, CleanPolicy())
    assert len(kept) == 7
    assert stats.dropped == 3


def test_clean_strips_fields_everywhere(rng):
    corpus = random_corpus(rng, 20)
    policy = CleanPolicy(fields_to_strip=("note", "url"))
    kept, stats = clean_corpus(corpus, policy)
    expected = sum(1 for e in corpus if "note" in e.fields)
    assert stats.stripped["note"] == expected
    assert all("note" not in e.fields and "url" not in e.fields for e in kept)


def test_clean_is_idempotent(rng):
    corpus = random_corpus(rng, 30) + [homepage_misc_entry(rng) for _ in range(5)]
    policy = CleanPolicy(fields_to_strip=("month",))
    once, _ = clean_corpus(corpus, policy)
    twice, stats = clean_corpus(once, policy)
    assert twice == once
    assert stats.dropped == 0 and not stats.stripped


# --- histograms ---------------------------------------------------------


def test_field_histogram_single_entry():
    entry = BibEntry("article", "a", {"author": "A", "title": "T", "year": "1999"})
    assert field_histogram([entry]) == {"author": 1, "title": 1, "year": 1}


def test_histograms_empty_corpus():
    assert field_histogram([]) == {}
    assert type_histogram([]) == {}


def test_histograms_hand_counts():
    entries = [
        BibEntry("article", "a", {"author": "A", "year": "1"}),
        BibEntry("article", "b", {"author": "B"}),
        BibEntry("book", "c", {"title": "T", "year": "3"}),
        BibEntry("misc", "d", {}),
        BibEntry("misc", "e", {"year": "5"}),
    ]
    assert field_histogram(entries) == {"author": 2, "year": 3, "title": 1}
    assert type_histogram(entries) == {"article": 2, "book": 1, "misc": 2}


def test_type_histogram_totals_match_corpus_size(rng):
    corpus = random_corpus(rng, 64)
    assert sum(type_histogram(corpus).values()) == 64


def test_field_histogram_counts_entries_not_occurrences(rng):
    # fields are unique per entry, so totals never exceed corpus size
    corpus = random_corpus(rng, 40)
    hist = field_histogram(corpus)
    assert hist["title"] == 40
    assert all(count <= 40 for count in hist.values())
    by_hand = Counter()
    for entry in corpus:
        for name in entry.fields:
            by_hand[name] += 1
    assert hist == dict(by_hand)


def test_entry_equality_ignores_source_tag_and_its_attributes_stay_assignable():
    entry = BibEntry("misc", "k", {"title": "T"}, source_tag="dblp")
    assert entry == BibEntry("misc", "k", {"title": "T"})
    assert not entry != BibEntry("misc", "k", {"title": "T"}, source_tag="acm")
    for other in (
        BibEntry("book", "k", {"title": "T"}),
        BibEntry("misc", "k2", {"title": "T"}),
        BibEntry("misc", "k", {"title": "U"}),
        ("misc", "k", {"title": "T"}),
    ):
        assert entry != other
    entry.key, entry.source_tag = "k2", "acm"
    assert (entry.key, entry.source_tag) == ("k2", "acm")
    assert entry == BibEntry("misc", "k2", {"title": "T"})

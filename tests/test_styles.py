import json
import random

import pytest

from citeforge.annotation import parse_annotation, strip_tags
from citeforge.bibtex import BibEntry
from citeforge.labels import CONSISTENCY_MAP
from citeforge.styles import (
    DuplicateStyle,
    MissingVariable,
    SchemaError,
    Segment,
    StyleTemplate,
    annotate,
    load_styles,
    parse_names,
    render,
    style_from_dict,
)
from citeforge.synth import random_corpus

ARGON_STYLE2 = (
    "Argon C, McLaughlin SW. 2002. A parallel decoder for low latency "
    "decoding of turbo product codes. IEEE Communications Letters. "
    "6(2):70–72"
)


def style_by_id(styles, style_id):
    return next(s for s in styles if s.style_id == style_id)


# --- name handling ------------------------------------------------------


def test_parse_names_both_forms():
    names = parse_names("Argon, Cenk and Steven W. McLaughlin")
    assert [(n.surname, n.given) for n in names] == [
        ("Argon", "Cenk"),
        ("McLaughlin", "Steven W."),
    ]


def test_single_token_name_is_surname_only():
    (name,) = parse_names("Aristotle")
    assert name.surname == "Aristotle" and name.given == ""


@pytest.mark.parametrize(
    "fmt,expected",
    [
        ("surname_initials", "Argon C; McLaughlin SW"),
        ("initials_dotted", "Argon C.; McLaughlin S. W."),
        ("surname_first_full", "Argon, Cenk; McLaughlin, Steven W."),
    ],
)
def test_name_formats(fmt, expected):
    style = StyleTemplate(
        "t",
        (Segment("author"), Segment("title", prefix=" | ")),
        name_format=fmt,
        name_delimiter="; ",
    )
    entry = BibEntry("misc", "k", {"author": "Argon, Cenk and McLaughlin, Steven W.", "title": "T"})
    assert render(entry, style) == expected + " | T"


# --- rendering ----------------------------------------------------------


def test_sample_style2_exact(argon_entry, styles):
    assert render(argon_entry, style_by_id(styles, "author-year-compact")) == ARGON_STYLE2


def test_sample_style1_exact(argon_entry, styles):
    assert render(argon_entry, style_by_id(styles, "author-year-amp")) == (
        "Argon C. & McLaughlin S. W. 2002. A parallel decoder for low latency "
        "decoding of turbo product codes. IEEE Communications Letters 6: 70–72."
    )


def test_title_only_style_renders_title_verbatim():
    style = StyleTemplate(
        "only-title",
        (Segment("author", omit_if_missing=True), Segment("title")),
        final_punct="!",
    )
    entry = BibEntry("misc", "m", {"title": "Just This"})
    assert render(entry, style) == "Just This!"


def test_missing_variable_raises():
    style = StyleTemplate(
        "strict",
        (Segment("author", omit_if_missing=False), Segment("title")),
    )
    entry = BibEntry("misc", "m", {"title": "T"})
    with pytest.raises(MissingVariable):
        render(entry, style)


def test_omitted_segment_drops_prefix_and_suffix(argon_entry, styles):
    entry = BibEntry("article", "k", dict(argon_entry.fields))
    del entry.fields["number"]
    out = render(entry, style_by_id(styles, "author-year-compact"))
    assert "()" not in out
    assert out.endswith("IEEE Communications Letters. 6:70–72")


def test_container_title_prefers_journal_over_booktitle():
    style = StyleTemplate(
        "ct", (Segment("author"), Segment("title"), Segment("container-title", " [", "]"))
    )
    fields = {"author": "A B", "title": "T", "journal": "J", "booktitle": "BT"}
    assert render(BibEntry("article", "k", fields), style).endswith("[J]")
    del fields["journal"]
    assert render(BibEntry("article", "k", fields), style).endswith("[BT]")


def _naive_render(entry, style):
    """Straight-line oracle: independent lookup, formatting, concatenation."""
    field_of = {label: names[0] for label, names in CONSISTENCY_MAP.items()}
    out = ""
    for seg in style.segments:
        if seg.variable == "container-title":
            raw = entry.fields.get("journal") or entry.fields.get("booktitle")
        else:
            raw = entry.fields.get(field_of[seg.variable])
        if not raw:
            continue  # builtin styles omit every missing optional
        if seg.variable in ("author", "editor"):
            people = []
            for one in raw.split(" and "):
                if "," in one:
                    sur = one.split(",")[0].strip()
                    given = one.split(",", 1)[1].strip()
                else:
                    bits = one.strip().split()
                    sur, given = bits[-1], " ".join(bits[:-1])
                if not given:
                    people.append(sur)
                elif style.name_format == "surname_first_full":
                    people.append(sur + ", " + given)
                else:
                    initials = [w[0].upper() for w in given.split() if w[0].isalnum()]
                    if style.name_format == "initials_dotted":
                        people.append(sur + " " + " ".join(i + "." for i in initials))
                    else:
                        people.append(sur + " " + "".join(initials))
            raw = style.name_delimiter.join(people)
        if seg.variable == "page":
            raw = raw.replace("--", "–").replace("-", "–")
        out += seg.prefix + raw + seg.suffix
    return out + style.final_punct


def test_render_matches_naive_concatenation_oracle(styles):
    rng = random.Random(99)
    for entry in random_corpus(rng, 1000):
        for style in styles:
            assert render(entry, style) == _naive_render(entry, style), (
                entry.key,
                style.style_id,
            )


def test_render_deterministic(argon_entry, styles):
    for style in styles:
        assert render(argon_entry, style) == render(argon_entry, style)


# --- annotation ---------------------------------------------------------


def test_annotate_wraps_author_name_parts(argon_entry, styles):
    ref = annotate(argon_entry, style_by_id(styles, "author-year-compact"))
    assert ref.anno_ref.startswith(
        "<author><surname>Argon</surname> <firstname>C</firstname>, "
        "<surname>McLaughlin</surname> <firstname>SW</firstname></author>. "
        "<issued>2002</issued>. "
    )


def test_annotate_strip_tags_round_trip(styles):
    rng = random.Random(5)
    for entry in random_corpus(rng, 100):
        for style in styles:
            ref = annotate(entry, style)
            assert strip_tags(ref.anno_ref) == ref.bib_ref == render(entry, style)


def test_annotate_escapes_specials():
    style = StyleTemplate(
        "esc",
        (Segment("author"), Segment("title", " ", "")),
        name_format="initials_dotted",
    )
    entry = BibEntry("misc", "m", {"author": "Smith, A.", "title": "Q & A <best>"})
    ref = annotate(entry, style)
    assert "&amp;" in ref.anno_ref and "&lt;best&gt;" in ref.anno_ref
    assert strip_tags(ref.anno_ref) == "Smith A. Q & A <best>"


def test_annotate_spans_match_emitted_segments(styles):
    # span-extraction oracle: predict each span by searching the plain text
    # for the segment's value after its literal prefix, in segment order
    rng = random.Random(17)
    for entry in random_corpus(rng, 40):
        for style in styles:
            ref = annotate(entry, style)
            plain, spans = parse_annotation(ref.anno_ref)
            assert plain == ref.bib_ref
            cursor = 0
            expected = []
            for seg in style.segments:
                one_seg_style = StyleTemplate(
                    "probe",
                    (Segment(seg.variable, omit_if_missing=True),
                     Segment("title", "\x00", "", omit_if_missing=True),
                     Segment("author", "\x00", "", omit_if_missing=True)),
                    name_format=style.name_format,
                    name_delimiter=style.name_delimiter,
                )
                value = _naive_render(entry, one_seg_style).split("\x00")[0]
                if not value:
                    continue
                assert plain.startswith(seg.prefix, cursor)
                cursor += len(seg.prefix)
                expected.append((seg.variable, cursor, cursor + len(value)))
                cursor += len(value) + len(seg.suffix)
            assert spans == expected


def test_every_tagged_label_resolves_to_a_present_field(styles):
    rng = random.Random(23)
    for entry in random_corpus(rng, 30):
        for style in styles:
            _, spans = parse_annotation(annotate(entry, style).anno_ref)
            for label, _, _ in spans:
                names = CONSISTENCY_MAP[label]
                assert any(n in entry.fields for n in names), label


def test_editor_values_get_no_name_part_tags():
    style = StyleTemplate(
        "eds",
        (Segment("editor"), Segment("title", " ", ""),
         Segment("author", omit_if_missing=True)),
        name_format="initials_dotted",
    )
    entry = BibEntry("proceedings", "p", {"editor": "Doe, Jane", "title": "T"})
    ref = annotate(entry, style)
    assert "<editor>Doe J.</editor>" in ref.anno_ref
    assert "<surname>" not in ref.anno_ref


# --- loading ------------------------------------------------------------


def test_load_builtin_styles(styles):
    assert len(styles) == 10
    assert len({s.style_id for s in styles}) == 10


def test_load_styles_duplicate_id(tmp_path, styles):
    doc = {
        "style_id": "dup",
        "name_format": "surname_initials",
        "name_delimiter": ", ",
        "final_punct": "",
        "segments": [{"variable": "author"}, {"variable": "title"}],
    }
    (tmp_path / "a.json").write_text(json.dumps(doc))
    (tmp_path / "b.json").write_text(json.dumps(doc))
    with pytest.raises(DuplicateStyle):
        load_styles(tmp_path)


def test_load_styles_unknown_variable_names_it(tmp_path):
    doc = {
        "style_id": "bad",
        "name_format": "surname_initials",
        "name_delimiter": ", ",
        "final_punct": "",
        "segments": [{"variable": "authour"}, {"variable": "title"}],
    }
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as excinfo:
        load_styles(tmp_path)
    assert "authour" in str(excinfo.value)
    assert "bad.json" in str(excinfo.value)


def test_load_styles_missing_key_is_schema_error(tmp_path):
    (tmp_path / "x.json").write_text(json.dumps({"style_id": "x"}))
    with pytest.raises(SchemaError) as excinfo:
        load_styles(tmp_path)
    assert "x.json" in str(excinfo.value)


def test_prefix_with_tag_delimiter_rejected():
    # Each literal written outside a tag: a prefix, a suffix, final_punct.
    for prefix, suffix, final_punct, bad in [
        (" <", ">", "", " <"),
        ("", ">", "", ">"),
        ("&amp; ", "", "", "&amp; "),
        ("&lt;", "", "", "&lt;"),
        ("", " & ", "", " & "),
        ("", "", " <note>x</note>", " <note>x</note>"),
        ("", "", "<note>", "<note>"),
        ("", "", "&", "&"),
    ]:
        with pytest.raises(SchemaError) as excinfo:
            StyleTemplate(
                "angled",
                (Segment("author"), Segment("title"), Segment("url", prefix, suffix)),
                final_punct=final_punct,
            )
        assert str(excinfo.value).startswith("angled: ")
        assert repr(bad) in str(excinfo.value)
    # The name delimiter is escaped where it is written, so it may hold them.
    style = StyleTemplate(
        "amp", (Segment("author"), Segment("title", ". ")), name_delimiter=" <&> "
    )
    ref = annotate(BibEntry("misc", "m", {"author": "A, B and C, D", "title": "T"}), style)
    assert ref.bib_ref == "A B <&> C D. T"
    assert strip_tags(ref.anno_ref) == ref.bib_ref


GOOD_STYLE = {
    "style_id": "s",
    "name_format": "surname_initials",
    "name_delimiter": ", ",
    "final_punct": ".",
    "segments": [{"variable": "author"}, {"variable": "title", "prefix": " "}],
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"name_format": "bogus"}, "bad name_format 'bogus'"),
        ({"segments": [{"variable": "title"}]}, "no author or editor segment"),
        ({"segments": [{"variable": "editor"}]}, "no title segment"),
        ({"segments": [{"variable": "author"}, {"variable": "title"}, {"variable": "other"}]},
         "unknown variable 'other'"),
        ({"segments": [{"variable": "author", "suffix": "<"}, {"variable": "title"}]},
         "may not contain"),
        ({"final_punct": "&"}, "may not contain"),
        ({"segments": [{"variable": "author"}, {"variable": "title", "prefix": ">"}]},
         "literal '>' may not contain <, > or &"),
        ({"segments": [{"variable": "author"}, {"variable": "title"}, {"variable": "surname"}]},
         "unknown variable 'surname'"),
    ],
    ids=["name-format", "no-author", "no-title", "other", "suffix", "final-punct", "prefix",
         "name-part"],
)
def test_every_way_to_make_a_style_checks_it(change, message):
    """The constructor, a style file's object and a copy with changed
    fields are all checked the same way."""
    doc = dict(GOOD_STYLE, **change)
    fields = dict(doc, segments=[Segment(**s) for s in doc["segments"]])
    base = style_from_dict(GOOD_STYLE)
    for make in (
        lambda: style_from_dict(doc),
        lambda: StyleTemplate(**fields),
        lambda: base._replace(**{key: fields[key] for key in change}),
    ):
        with pytest.raises(SchemaError, match=f"^s: .*{message}"):
            make()


def test_a_style_holds_its_segments_as_a_tuple_and_hashes():
    base = style_from_dict(GOOD_STYLE)
    segments = [Segment("author"), Segment("title", " ")]
    for style in (
        base,
        StyleTemplate("s", segments, final_punct="."),
        base._replace(segments=segments),
    ):
        assert type(style.segments) is tuple and style.segments == tuple(segments)
        assert style == base and hash(style) == hash(base)
    assert len({base, style_from_dict(GOOD_STYLE), base._replace(style_id="t")}) == 2

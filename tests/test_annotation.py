import pytest

from citeforge.annotation import (
    MalformedAnnotation,
    escape,
    parse_annotation,
    strip_tags,
    unescape,
)


def test_strip_single_tag():
    assert strip_tags("<title>X</title>.") == "X."


def test_strip_author_with_name_parts():
    assert strip_tags("<author><surname>A</surname></author>") == "A"


def test_escape_unescape_round_trip():
    for text in ("a<b>c", "x & y", "&lt;", "&amp;lt;", "plain", "<><>&&"):
        assert unescape(escape(text)) == text


def test_unescape_handles_entities_in_content():
    assert strip_tags("<title>a &lt;b&gt; &amp; c</title>") == "a <b> & c"


def test_bare_ampersand_passes_through():
    assert strip_tags("x & y") == "x & y"


def test_parse_spans_offsets():
    plain, spans = parse_annotation("<author>A B</author>, <issued>1990</issued>.")
    assert plain == "A B, 1990."
    assert spans == [("author", 0, 3), ("issued", 5, 9)]


def test_name_parts_collapse_into_author_span():
    anno = "<author><surname>Doe</surname> <firstname>J.</firstname></author>"
    plain, spans = parse_annotation(anno)
    assert plain == "Doe J."
    assert spans == [("author", 0, 6)]


def test_spaces_inside_tags_are_kept():
    plain, spans = parse_annotation("<issued> 1990. </issued>next")
    assert plain == " 1990. next"
    assert spans == [("issued", 0, 7)]


@pytest.mark.parametrize(
    "bad",
    [
        "<title>unclosed",
        "no opening</title>",
        "<title><issued>X</issued></title>",  # nesting outside author
        "<surname>S</surname>",  # name part outside author
        "<bogus>X</bogus>",
        "<title>X</issued>",
    ],
)
def test_malformed_annotations_raise(bad):
    with pytest.raises(MalformedAnnotation):
        parse_annotation(bad)


def test_other_names_no_field_so_it_is_not_a_tag():
    with pytest.raises(MalformedAnnotation, match="^unknown tag <other>$"):
        parse_annotation("<other>x</other>")


def test_adjacent_tags_without_separator():
    plain, spans = parse_annotation("<edition>E</edition><publisher>P</publisher> .")
    assert plain == "EP ."
    assert [label for label, _, _ in spans] == ["edition", "publisher"]

"""The inline annotation grammar for tagged reference strings.

Tags are ASCII `<label>` / `</label>` with labels from the canonical
vocabulary; `<surname>` and `<firstname>` may appear only inside an author
span.  Content escapes exactly three entities: &lt; &gt; &amp;.  Tags never
overlap and never nest apart from the name parts inside author.
`parse_annotation` unescapes the text between tags only when the
annotation holds an `&`, since every entity starts with one.
"""

from __future__ import annotations

import re

from .labels import CONSISTENCY_MAP, NAME_PART_TAGS


class MalformedAnnotation(ValueError):
    pass


_TAG = re.compile(r"<(/?)([a-zA-Z-]+)>")
_VALID_TAGS = {*CONSISTENCY_MAP, *NAME_PART_TAGS}


def escape(text: str) -> str:
    """Escape annotation content; `&` first so entities stay unambiguous."""
    if "&" in text or "<" in text or ">" in text:
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text


def unescape(text: str) -> str:
    # &amp; must be resolved last or escaped entities would double-decode.
    return text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


def parse_annotation(anno: str) -> tuple[str, list[tuple[str, int, int]]]:
    """Split an annotated reference into plain text and top-level spans.

    Each span is a `(label, start, end)` tuple; its offsets index the
    returned plain text.  Name-part tags are checked for well-formedness
    but collapse into their enclosing author span.  Raises
    MalformedAnnotation on unknown, unbalanced or improperly nested tags.
    """
    # Leading text, then (slash, name, following text) per tag.
    parts = _TAG.split(anno)
    # Every entity starts with `&`: without one, unescaping changes nothing.
    entities = "&" in anno
    plain_parts = [unescape(parts[0]) if entities else parts[0]]
    plain_len = len(plain_parts[0])
    spans: list[tuple[str, int, int]] = []
    stack: list[tuple[str, int]] = []
    for slash, name, text in zip(parts[1::3], parts[2::3], parts[3::3]):
        if name not in _VALID_TAGS:
            raise MalformedAnnotation(f"unknown tag <{name}>")
        if not slash:
            if name in NAME_PART_TAGS:
                if not stack or stack[-1][0] != "author":
                    raise MalformedAnnotation(f"<{name}> outside <author>")
            elif stack:
                raise MalformedAnnotation(
                    f"<{name}> nested inside <{stack[-1][0]}>"
                )
            stack.append((name, plain_len))
        else:
            if not stack or stack[-1][0] != name:
                raise MalformedAnnotation(f"unbalanced </{name}>")
            _, start = stack.pop()
            if name not in NAME_PART_TAGS:
                spans.append((name, start, plain_len))
        if text:
            if entities:
                text = unescape(text)
            plain_parts.append(text)
            plain_len += len(text)
    if stack:
        raise MalformedAnnotation(f"unclosed <{stack[-1][0]}>")
    return "".join(plain_parts), spans


def strip_tags(anno: str) -> str:
    """Plain reference text: tags removed, entities unescaped, everything
    else byte-for-byte intact."""
    plain, _ = parse_annotation(anno)
    return plain

"""Declarative citation styles: render plain and annotated reference strings.

A style is an ordered list of segments, each binding one canonical label
with a literal prefix/suffix.  `annotate` is the one renderer: it walks a
style's segments once and appends each segment's plain and tagged text from
the same formatted value, so the tagged output is exact by construction and
strip_tags(annotated) always equals the plain string.  `render` returns
that plain half.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .annotation import escape
from .jsonfile import read_json
from .labels import CONSISTENCY_MAP, entry_value

if TYPE_CHECKING:
    from .bibtex import BibEntry

NAME_FORMATS = ("surname_initials", "surname_first_full", "initials_dotted")

_DASH_RUN = re.compile(r"[-‐‑‒–—]{1,2}")


class StyleError(ValueError):
    pass


class SchemaError(StyleError):
    pass


class DuplicateStyle(StyleError):
    pass


class MissingVariable(StyleError):
    pass


class Segment(NamedTuple):
    variable: str
    prefix: str = ""
    suffix: str = ""
    omit_if_missing: bool = True


class _StyleFields(NamedTuple):
    style_id: str
    segments: tuple[Segment, ...]
    name_format: str = "surname_initials"
    name_delimiter: str = ", "
    final_punct: str = ""


class StyleTemplate(_StyleFields):
    """A style, checked on every construction: by call, by `_make` and by
    `_replace`; SchemaError names the first problem."""

    __slots__ = ()

    def __new__(cls, style_id, segments, *args, **kwargs):
        self = super().__new__(cls, style_id, tuple(segments), *args, **kwargs)
        if self.name_format not in NAME_FORMATS:
            raise SchemaError(f"{self.style_id}: bad name_format {self.name_format!r}")
        variables = {s.variable for s in self.segments}
        for seg in self.segments:
            if seg.variable not in CONSISTENCY_MAP:
                raise SchemaError(f"{self.style_id}: unknown variable {seg.variable!r}")
        # Literals go into the annotated string unescaped, where one that
        # `escape` would change could read as a tag or an entity.
        literals = [text for seg in self.segments for text in (seg.prefix, seg.suffix)]
        for literal in literals + [self.final_punct]:
            if escape(literal) != literal:
                raise SchemaError(
                    f"{self.style_id}: literal {literal!r} may not contain <, > or &"
                )
        if not variables & {"author", "editor"}:
            raise SchemaError(f"{self.style_id}: no author or editor segment")
        if "title" not in variables:
            raise SchemaError(f"{self.style_id}: no title segment")
        return self

    @classmethod
    def _make(cls, iterable) -> "StyleTemplate":
        # namedtuple's own `_make`, which `_replace` calls, skips `__new__`.
        return cls(*iterable)


class RenderedReference(NamedTuple):
    style_id: str
    bib_ref: str
    anno_ref: str


class _Name(NamedTuple):
    surname: str
    given: str  # may be empty for single-token names


def parse_names(value: str) -> list[_Name]:
    """Split a BibTeX name list on " and " into (surname, given) pairs.

    Accepts both "Surname, Given" and "Given Surname" forms; a single-token
    name is taken as surname only.
    """
    names = []
    for raw in value.split(" and "):
        raw = raw.strip()
        if not raw:
            continue
        if "," in raw:
            surname, _, given = raw.partition(",")
            names.append(_Name(surname.strip(), given.strip()))
        else:
            *given, surname = raw.split()
            names.append(_Name(surname, " ".join(given)))
    return names


def _initials(given: str, dotted: bool) -> str:
    letters = [tok[0].upper() for tok in given.split() if tok and tok[0].isalnum()]
    if dotted:
        return " ".join(f"{c}." for c in letters)
    return "".join(letters)


def format_name(name: _Name, name_format: str) -> tuple[str, str, str]:
    """(surname, joiner, given) of a formatted name; "".join of the three is
    the printed name.  Joiner and given are '' when there is no given part."""
    given = name.given
    if given and name_format != "surname_first_full":
        given = _initials(given, dotted=name_format == "initials_dotted")
    if not given:
        return name.surname, "", ""
    return name.surname, ", " if name_format == "surname_first_full" else " ", given


# Name variables: parsed once per entry, formatted once per name_format and
# joined per name_delimiter.
_NAME_VARIABLES = ("author", "editor")


def render(entry: BibEntry, style: StyleTemplate) -> str:
    """Styled plain reference string: the plain half of `annotate`."""
    return annotate(entry, style).bib_ref


def annotate(entry: BibEntry, style: StyleTemplate) -> RenderedReference:
    """Reference string plus its tagged twin, written in one walk over the
    segments.  A missing value drops an omittable segment, else
    MissingVariable."""
    return renderer(style)(entry, {})


def _value(
    entry: BibEntry, variable: str, style: StyleTemplate, values: dict
) -> tuple[str, str] | None:
    """`(plain value, tagged inner)` of one variable in one style, or None if
    the entry has none.  A name list is parsed once per entry (kept in
    `values` under the variable) and formatted once per name format (under
    `(variable, name_format)`); the style's delimiter only joins the names."""
    if variable not in _NAME_VARIABLES:
        value = entry_value(entry.fields, variable)
        if value is None:
            return None
        if variable == "page":
            # Page ranges come in as 70-72 or 70--72; references print an en dash.
            value = _DASH_RUN.sub("–", value)
        return value, escape(value)
    key = variable, style.name_format
    if key not in values:
        if variable not in values:
            value = entry_value(entry.fields, variable)
            values[variable] = None if value is None else parse_names(value)
        names = values[variable]
        if names is not None:
            plains, tagged = [], []
            for name in names:
                surname, joiner, given = format_name(name, style.name_format)
                plains.append(surname + joiner + given)
                if variable == "author":
                    # Name parts tagged; delimiters and joiners stay outside the tags.
                    tagged.append(f"<surname>{escape(surname)}</surname>" + (
                        f"{joiner}<firstname>{escape(given)}</firstname>" if given else ""
                    ))
                else:
                    tagged.append(escape(plains[-1]))
            names = plains, tagged
        values[key] = names
    names = values[key]
    if names is None:
        return None
    delimiter = style.name_delimiter
    return delimiter.join(names[0]), escape(delimiter).join(names[1])


def renderer(style: StyleTemplate):
    """`annotate` of one style, called as `fn(entry, values)`: each
    segment's memo key and tag texts are prepared once, here.  `values`
    memoises each formatted value as `(plain value, tagged inner)`, or None
    if the entry has none, keyed by variable (names by `(variable,
    name_format, name_delimiter)`, with the entry's parsed names and their
    formats per `name_format` kept beside them), so an entry's styles can
    share one."""
    steps = [
        (
            seg.variable,
            (seg.variable, style.name_format, style.name_delimiter)
            if seg.variable in _NAME_VARIABLES else seg.variable,
            seg.prefix,
            seg.suffix,
            f"{seg.prefix}<{seg.variable}>",
            f"</{seg.variable}>{seg.suffix}",
            seg.omit_if_missing,
        )
        for seg in style.segments
    ]

    def annotate_one(entry: BibEntry, values: dict) -> RenderedReference:
        plain, tagged = [], []
        for variable, key, prefix, suffix, opening, closing, omittable in steps:
            if key in values:
                pair = values[key]
            else:
                pair = values[key] = _value(entry, variable, style, values)
            if pair is None:
                if omittable:
                    continue
                raise MissingVariable(f"{style.style_id}: entry {entry.key} has no {variable}")
            plain.append(f"{prefix}{pair[0]}{suffix}")
            tagged.append(f"{opening}{pair[1]}{closing}")
        plain.append(style.final_punct)
        tagged.append(style.final_punct)
        return RenderedReference(style.style_id, "".join(plain), "".join(tagged))

    return annotate_one


_STYLE_KEYS = {
    "style_id": str, "name_format": str, "name_delimiter": str, "final_punct": str,
    "segments": list,
}
_SEGMENT_KEYS = {"variable": str, "prefix": str, "suffix": str, "omit_if_missing": bool}
_JSON_TYPES = {str: "string", list: "list", bool: "boolean"}


def _check_keys(data: dict, types: dict, where: str) -> None:
    for key, value in data.items():
        if key not in types:
            raise SchemaError(f"{where}unexpected key {key!r}")
        if not isinstance(value, types[key]):
            raise SchemaError(f"{where}{key!r} must be a {_JSON_TYPES[types[key]]}")


def style_from_dict(data: dict) -> StyleTemplate:
    """The style a style file's JSON object describes; SchemaError names the
    first key that is missing, unexpected or of the wrong JSON type."""
    if not isinstance(data, dict):
        raise SchemaError("a style file must hold a JSON object")
    for key in _STYLE_KEYS:
        if key not in data:
            raise SchemaError(f"missing key {key!r}")
    _check_keys(data, _STYLE_KEYS, "")
    segments = []
    for i, seg in enumerate(data["segments"]):
        if not isinstance(seg, dict) or "variable" not in seg:
            raise SchemaError(f"segment {i} missing key 'variable'")
        _check_keys(seg, _SEGMENT_KEYS, f"segment {i} ")
        segments.append(Segment(**seg))
    return StyleTemplate(**dict(data, segments=segments))


def load_styles(path: str | Path) -> list[StyleTemplate]:
    """Load every style file under a directory (or a single JSON file).

    Rejects duplicate style_ids across files; raises SchemaError naming the
    file and first offending key.
    """
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SchemaError(f"no style files under {path}")
    styles: list[StyleTemplate] = []
    seen: dict[str, Path] = {}
    for file in files:
        style = read_json(file, style_from_dict, SchemaError)
        if style.style_id in seen:
            raise DuplicateStyle(
                f"style_id {style.style_id!r} in both {seen[style.style_id].name} "
                f"and {file.name}"
            )
        seen[style.style_id] = file
        styles.append(style)
    return styles


def builtin_styles_dir() -> Path:
    """Directory of the styles shipped with the package."""
    return Path(__file__).parent / "styles_data"


def load_builtin_styles() -> list[StyleTemplate]:
    return load_styles(builtin_styles_dir())

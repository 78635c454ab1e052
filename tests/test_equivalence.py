"""Rewritten code against reference copies of the code it replaced.

Each reference below is the earlier implementation kept verbatim in
logic: the per-character `normalize`, the full feature extractor, the
annotation parser that sliced the text between tag matches, the BibTeX
scanner that stepped through every character of a value, the
tokens x spans alignment scan and the span sweep that replaced it, the
normalizing pass that ran every step on every value, the Viterbi
decoder that took the logs of its tables on every call, HMM training and row normalization on numpy
arrays, the renderer that made the plain and the
annotated string in two separate passes (parsing and formatting each
author list once per string), the CSV export through `csv.writer`,
the statistics tables that the corpus and the dataset side each drew
with their own code, the label-run
grouping that flushed its last run in a second copy of the loop body,
the scorer that normalized every value it met and measured the edit
distance of every pair it could not settle by equality or containment,
and the reference-section splitter that walked the citation markers one
by one.
The new code must agree with them exactly.
"""

import csv
import json
import math
import random
import re
import sys
import tempfile
import unicodedata
from collections import Counter
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from citeforge.annotation import (
    MalformedAnnotation,
    escape,
    parse_annotation,
    strip_tags,
    unescape,
)
from citeforge.bibtex import (
    ENTRY_TYPES,
    BibEntry,
    IssueKind,
    ValidationIssue,
    field_histogram,
    histogram_table,
    parse_bibtex,
    type_histogram,
)
from citeforge.dataset import BuildStats, DatasetRecord, build_dataset, dataset_stats, export
from citeforge.evaluate import (
    _CONTROL,
    EvalPolicy,
    EvalReport,
    ExtractedField,
    LabelScore,
    MatchClass,
    classify_match,
    evaluate_dataset,
    format_report,
    levenshtein,
    normalize,
    score,
)
from citeforge.hmm import (
    MIN_SURFACE_FREQ,
    HmmModel,
    LabelSequence,
    _columns,
    _symbol_column,
    align_training,
    decode_batch,
    fields_from_labels,
    tag_references,
    train_hmm,
    viterbi,
)
from citeforge.labels import (
    CANONICAL_LABELS,
    CONSISTENCY_MAP,
    LABEL_SET,
    NAME_PART_TAGS,
    entry_value,
)
from citeforge.refsection import ReferenceBlock, _find_label, extract_references
from citeforge.styles import (
    NAME_FORMATS,
    MissingVariable,
    annotate,
    load_builtin_styles,
    render,
)
from citeforge.synth import random_bibtex_file, random_corpus
from citeforge.tokens import (
    BACKOFF_CLASSES,
    _case_class,
    _last_char_class,
    _punct_class,
    backoff_symbol,
    tokenize,
)

STYLES = load_builtin_styles()
PROPERTY = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

# --- reference copies ---------------------------------------------------

_DASHES = re.compile(r"(?:--|[‐‑‒–—―−])")
_MULTIDASH = re.compile(r"-{2,}")
_EDGE_PUNCT = re.compile(r"^[^\w]+|[^\w]+$", re.UNICODE)


def reference_normalize(value):
    value = value.lower()
    value = _DASHES.sub("-", value)
    value = _MULTIDASH.sub("-", value)
    value = "".join(
        " " if unicodedata.category(c).startswith("C") else c
        for c in value
        if c != "\\"
    )
    value = " ".join(value.split())
    value = value.replace(" & ", " and ")
    value = _EDGE_PUNCT.sub("", value)
    return value.strip()


_QUOTES = "\"'`‘’“”"
_HYPHENS = "-‐‑‒–—"
_VOLUME_RE = re.compile(r"\d+\(\d+\)[.,;:]?$")
_PAIRS = (("(", ")"), ("[", "]"), ("{", "}"))


def reference_features(surface):
    """(lower, case, punct, last-char, backoff) as the full extractor
    computed them."""
    letters = [c for c in surface if c.isalpha()]
    if not letters:
        case = "others"
    elif all(c.isupper() for c in letters):
        case = "ALLCAPS"
    elif all(c.islower() for c in letters):
        case = "others"
    elif letters[0].isupper() and all(c.islower() for c in letters[1:]):
        case = "Initialcaps"
    else:
        case = "MixedCaps"

    if surface[0] in _QUOTES:
        punct = "leadingQuotes"
    elif surface[-1] in _QUOTES or (
        len(surface) > 1 and surface[-1] in ".,;:" and surface[-2] in _QUOTES
    ):
        punct = "endingQuotes"
    elif sum(surface.count(h) for h in _HYPHENS) >= 2:
        punct = "multipleHyphens"
    elif _VOLUME_RE.fullmatch(surface):
        punct = "possibleVolume"
    elif any(a in surface and b in surface for a, b in _PAIRS):
        punct = "pairedBraces"
    elif surface[-1] in ",;":
        punct = "continuingPunctuation"
    elif surface[-1] in ".!?":
        punct = "stopPunctuation"
    else:
        punct = "others"

    c = surface[-1]
    last = (
        "upper" if c.isupper()
        else "lower" if c.islower()
        else "numeric" if c.isdigit()
        else "other"
    )
    return surface.lower(), case, punct, last, f"C={case}|P={punct}|L={last}"


_REF_TAG = re.compile(r"<(/?)([a-zA-Z-]+)>")
_REF_VALID_TAGS = (LABEL_SET | set(NAME_PART_TAGS)) - {"other"}


def reference_parse_annotation(anno):
    """The parser that tracked match positions and sliced the text between
    tags; spans as (label, start, end)."""
    plain_parts = []
    plain_len = 0
    spans = []
    stack = []
    pos = 0
    for m in _REF_TAG.finditer(anno):
        text = anno[pos : m.start()]
        if text:
            unescaped = unescape(text)
            plain_parts.append(unescaped)
            plain_len += len(unescaped)
        pos = m.end()
        closing, name = m.group(1) == "/", m.group(2)
        if name not in _REF_VALID_TAGS:
            raise MalformedAnnotation(f"unknown tag <{name}>")
        if not closing:
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
            opened, start = stack.pop()
            if opened not in NAME_PART_TAGS:
                spans.append((opened, start, plain_len))
    if stack:
        raise MalformedAnnotation(f"unclosed <{stack[-1][0]}>")
    tail = anno[pos:]
    if tail:
        plain_parts.append(unescape(tail))
    return "".join(plain_parts), spans


_REF_ENTRY_START = re.compile(r"@\s*([A-Za-z]+)\s*\{", re.ASCII)
_REF_FIELD_NAME = re.compile(r"\s*([A-Za-z][\w.:-]*)\s*=\s*")
_REF_BARE_VALUE = re.compile(r"[^,{}\s#\"]+")


class _RefEntrySyntaxError(Exception):
    pass


def _ref_skip_ws(text, i):
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def _ref_read_braced(text, i):
    depth = 0
    start = i + 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[start:i], i + 1
        i += 1
    raise _RefEntrySyntaxError("unbalanced braces in value")


def _ref_read_quoted(text, i):
    i += 1
    start = i
    depth = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                raise _RefEntrySyntaxError("unbalanced braces in quoted value")
        elif c == '"' and depth == 0:
            return text[start:i], i + 1
        i += 1
    raise _RefEntrySyntaxError("unterminated quoted value")


def _ref_parse_fields(body):
    fields = {}
    i = 0
    n = len(body)
    while True:
        i = _ref_skip_ws(body, i)
        if i >= n:
            break
        if body[i] == ",":
            i += 1
            continue
        m = _REF_FIELD_NAME.match(body, i)
        if not m:
            raise _RefEntrySyntaxError(f"expected `name =` near offset {i}")
        name = m.group(1).lower()
        i = m.end()
        if i >= n:
            raise _RefEntrySyntaxError(f"field {name} has no value")
        c = body[i]
        if c == "{":
            value, i = _ref_read_braced(body, i)
        elif c == '"':
            value, i = _ref_read_quoted(body, i)
        else:
            m = _REF_BARE_VALUE.match(body, i)
            if not m:
                raise _RefEntrySyntaxError(f"field {name} has no value")
            value = m.group(0)
            i = m.end()
        i = _ref_skip_ws(body, i)
        if i < n and body[i] == "#":
            raise _RefEntrySyntaxError(f"string concatenation in field {name}")
        value = re.sub(r"\s+", " ", value).strip()
        fields.setdefault(name, value)
    return fields


def reference_parse_bibtex(text, source_tag=None):
    """The scanner that stepped through every character of a value, and
    skipped whitespace one `isspace` call at a time; it now also reports an
    entry whose key an earlier entry has."""
    entries = []
    issues = []
    pos = 0
    while m := _REF_ENTRY_START.search(text, pos):
        entry_type = m.group(1).lower()
        try:
            body, pos = _ref_read_braced(text, m.end() - 1)
        except _RefEntrySyntaxError as exc:
            issues.append(ValidationIssue("?", IssueKind.SYNTAX_ERROR, str(exc)))
            pos = m.end()
            continue
        if entry_type == "comment":
            continue
        if entry_type in ("string", "preamble"):
            issues.append(ValidationIssue(
                "?", IssueKind.SYNTAX_ERROR, f"@{entry_type} is not supported"
            ))
            continue
        key, _, rest = body.partition(",")
        key = key.strip()
        if not key or any(c.isspace() for c in key):
            issues.append(ValidationIssue(
                key or "?", IssueKind.SYNTAX_ERROR, "missing or malformed citation key"
            ))
            continue
        if entry_type not in ENTRY_TYPES:
            issues.append(ValidationIssue(
                key, IssueKind.UNKNOWN_TYPE, f"unknown entry type @{entry_type}"
            ))
            continue
        try:
            fields = _ref_parse_fields(rest)
        except _RefEntrySyntaxError as exc:
            issues.append(ValidationIssue(key, IssueKind.SYNTAX_ERROR, str(exc)))
            continue
        if any(e.key == key for e in entries):
            issues.append(ValidationIssue(
                key, IssueKind.DUPLICATE_KEY, "an earlier entry has this key"
            ))
        entries.append(BibEntry(entry_type, key, fields, source_tag))
    return entries, issues


def reference_align(anno_ref):
    plain, spans = parse_annotation(anno_ref)
    labels = []
    for tok in re.finditer(r"\S+", plain):
        best, best_cover = "other", 0
        for label, start, end in spans:
            cover = min(tok.end(), end) - max(tok.start(), start)
            if cover > best_cover:
                best, best_cover = label, cover
        labels.append(best)
    return labels


def reference_viterbi(model, tokens):
    """Decoding with the logs taken on every call, of the probabilities
    `reference_probabilities` makes of the model's weights."""
    with np.errstate(divide="ignore"):
        log_init, log_trans, log_emis = map(np.log, reference_probabilities(model))
    sym_index = {sym: i for i, sym in enumerate(model.vocab)}
    obs = [reference_symbol_column(sym_index, tok) for tok in tokens]
    t_len, n = len(obs), len(model.states)
    delta = log_init + log_emis[:, obs[0]]
    back = np.zeros((t_len, n), dtype=int)
    for t in range(1, t_len):
        scores = delta[:, None] + log_trans
        best_from = np.argmax(scores, axis=0)
        delta = scores[best_from, np.arange(n)] + log_emis[:, obs[t]]
        back[t] = best_from
    last = int(np.argmax(delta))
    log_prob = float(delta[last])
    path = [last]
    for t in range(t_len - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return [model.states[i] for i in path], log_prob


def reference_normalize_rows(counts):
    counts = counts.astype(float)
    totals = counts.sum(axis=-1, keepdims=True)
    uniform = np.full_like(counts, 1.0 / counts.shape[-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), uniform)
    return out


def reference_probabilities(model):
    """Initial, transition and emission probabilities of a model of row
    weights: each row plus alpha over its total, as `reference_train_hmm`
    normalizes.  An emission row may be a dict of weights by column."""
    emission = np.zeros((len(model.states), len(model.vocab)))
    for row, weights in zip(emission, model.emission):
        for col, weight in (weights.items() if isinstance(weights, dict) else enumerate(weights)):
            row[col] = weight
    return [
        reference_normalize_rows(np.asarray(table, dtype=float) + model.smoothing_alpha)
        for table in (model.initial, model.transition, emission)
    ]


def reference_train_hmm(corpus, alpha):
    """Counting into numpy arrays; the model holds the smoothed
    probabilities as ndarray tables."""
    states = sorted({label for seq in corpus for label in seq.labels})
    surface_freq = Counter(reference_features(tok)[0] for seq in corpus for tok in seq.tokens)
    kept = sorted(s for s, n in surface_freq.items() if n >= MIN_SURFACE_FREQ)
    vocab = kept + list(BACKOFF_CLASSES)
    sym_index = {sym: i for i, sym in enumerate(vocab)}
    state_index = {s: i for i, s in enumerate(states)}
    n, v = len(states), len(vocab)
    initial = np.zeros(n)
    transition = np.zeros((n, n))
    emission = np.zeros((n, v))
    for seq in corpus:
        if not seq.labels:
            continue
        initial[state_index[seq.labels[0]]] += 1
        for prev, cur in zip(seq.labels, seq.labels[1:]):
            transition[state_index[prev], state_index[cur]] += 1
        for tok, label in zip(seq.tokens, seq.labels):
            lower, _, _, _, backoff = reference_features(tok)
            sym = lower if surface_freq[lower] >= MIN_SURFACE_FREQ else backoff
            emission[state_index[label], sym_index[sym]] += 1
    return HmmModel(
        states=states,
        vocab=vocab,
        initial=reference_normalize_rows(initial + alpha),
        transition=reference_normalize_rows(transition + alpha),
        emission=reference_normalize_rows(emission + alpha),
        smoothing_alpha=0.0,  # the tables are smoothed already
    )


_REF_DASH_RUN = re.compile(r"[-‐‑‒–—]{1,2}")


def reference_parse_names(value):
    names = []
    for raw in value.split(" and "):
        raw = raw.strip()
        if not raw:
            continue
        if "," in raw:
            surname, _, given = raw.partition(",")
            names.append((surname.strip(), given.strip()))
        else:
            tokens = raw.split()
            if len(tokens) == 1:
                names.append((tokens[0], ""))
            else:
                names.append((tokens[-1], " ".join(tokens[:-1])))
    return names


def reference_initials(given, dotted):
    letters = [tok[0].upper() for tok in given.split() if tok and tok[0].isalnum()]
    if dotted:
        return " ".join(f"{c}." for c in letters)
    return "".join(letters)


def reference_format_name(name, name_format):
    surname, given = name
    if not given:
        return surname, ""
    if name_format == "surname_initials":
        return surname, reference_initials(given, dotted=False)
    if name_format == "initials_dotted":
        return surname, reference_initials(given, dotted=True)
    return surname, given  # surname_first_full


def reference_joined_name(name, name_format):
    surname, given = reference_format_name(name, name_format)
    if not given:
        return surname
    if name_format == "surname_first_full":
        return f"{surname}, {given}"
    return f"{surname} {given}"


def reference_format_name_list(value, style):
    return style.name_delimiter.join(
        reference_joined_name(n, style.name_format) for n in reference_parse_names(value)
    )


def reference_annotated_name_list(value, style):
    parts = []
    for name in reference_parse_names(value):
        surname, given = reference_format_name(name, style.name_format)
        piece = f"<surname>{escape(surname)}</surname>"
        if given:
            joiner = ", " if style.name_format == "surname_first_full" else " "
            piece += f"{joiner}<firstname>{escape(given)}</firstname>"
        parts.append(piece)
    return escape(style.name_delimiter).join(parts)


def reference_segment_value(entry, seg, style):
    value = entry_value(entry.fields, seg.variable)
    if value is None:
        return None
    if seg.variable in ("author", "editor"):
        return reference_format_name_list(value, style)
    if seg.variable == "page":
        return _REF_DASH_RUN.sub("–", value)
    return value


def reference_render(entry, style, annotated):
    """Plain or tagged string in its own pass, each name list parsed and
    formatted separately for the plain value and the tagged author."""
    parts = []
    for seg in style.segments:
        value = reference_segment_value(entry, seg, style)
        if value is None:
            if seg.omit_if_missing:
                continue
            raise MissingVariable(
                f"{style.style_id}: entry {entry.key} has no {seg.variable}"
            )
        if annotated:
            if seg.variable == "author":
                inner = reference_annotated_name_list(entry.fields["author"], style)
            else:
                inner = escape(value)
            value = f"<{seg.variable}>{inner}</{seg.variable}>"
        parts.append(f"{seg.prefix}{value}{seg.suffix}")
    parts.append(style.final_punct)
    return "".join(parts)


_FIELD_ROWS = (
    "address", "annote", "author", "booktitle", "chapter", "crossref",
    "edition", "editor", "howpublished", "institution", "journal", "key",
    "month", "note", "number", "organization", "pages", "publisher",
    "school", "series", "title", "type", "volume", "year",
)
_TYPE_ROWS = (
    "article", "book", "booklet", "conference", "inbook", "incollection",
    "inproceedings", "manual", "mastersthesis", "misc", "phdthesis",
    "proceedings", "techreport", "unpublished",
)


def reference_histogram_table(entries, rows, kind):
    """One table of the corpus-side `stats`: field or type counts."""
    groups = {}
    for entry in entries:
        groups.setdefault(entry.source_tag or "all", []).append(entry)
    sources = sorted(groups)
    histogram = field_histogram if kind == "field" else type_histogram
    counts = {src: histogram(groups[src]) for src in sources}
    rows = list(rows)
    label_w = max([len(r) for r in rows] + [len(kind)])
    col_ws = [max(len(src), 8) for src in sources]
    header = kind.ljust(label_w) + "".join(
        f"  {src:>{w}}" for src, w in zip(sources, col_ws)
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = "".join(
            f"  {counts[src].get(row, 0):>{w}}" for src, w in zip(sources, col_ws)
        )
        lines.append(row.ljust(label_w) + cells)
    return "\n".join(lines)


def reference_dataset_stats(records):
    """The dataset-side `stats` tables, drawn by their own code."""
    field_counts = {}
    type_counts = {}
    for record in records:
        src = record.source_tag or "all"
        field_counts.setdefault(src, Counter()).update(
            k for k in record.bib_fields if k in _FIELD_ROWS
        )
        if record.entry_type:
            type_counts.setdefault(src, Counter())[record.entry_type] += 1
        else:
            type_counts.setdefault(src, Counter())

    def table(rows, counts, head):
        sources = sorted(counts) or ["all"]
        label_w = max(len(r) for r in rows + (head,))
        col_ws = [max(len(s), 8) for s in sources]
        lines = [
            head.ljust(label_w)
            + "".join(f"  {s:>{w}}" for s, w in zip(sources, col_ws))
        ]
        lines.append("-" * len(lines[0]))
        for row in rows:
            cells = "".join(
                f"  {counts.get(s, Counter()).get(row, 0):>{w}}"
                for s, w in zip(sources, col_ws)
            )
            lines.append(row.ljust(label_w) + cells)
        return "\n".join(lines)

    return (
        table(_FIELD_ROWS, field_counts, "field")
        + "\n\n"
        + table(_TYPE_ROWS, type_counts, "type")
    )


def reference_fields_from_labels(tokens, labels):
    """Label runs to fields, the last run flushed after the loop; a label
    writes the first BibTeX name CONSISTENCY_MAP lists for it."""
    fields = []
    run_label = None
    run_surfaces = []
    for tok, label in zip(tokens, labels):
        if label != run_label:
            if run_label is not None and run_label != "other":
                fields.append(ExtractedField(CONSISTENCY_MAP[run_label][0], " ".join(run_surfaces)))
            run_label, run_surfaces = label, []
        run_surfaces.append(tok)
    if run_label is not None and run_label != "other":
        fields.append(ExtractedField(CONSISTENCY_MAP[run_label][0], " ".join(run_surfaces)))
    return fields


def reference_classify_match(pred, truth, tau=EvalPolicy.tau):
    if pred == truth:
        return MatchClass.RECOGNIZED
    if truth and truth in pred:
        return MatchClass.SUPERSTRING
    if pred and pred in truth:
        return MatchClass.SUBSTRING
    longest = max(len(pred), len(truth))
    if longest and levenshtein(pred, truth) / longest <= tau:
        return MatchClass.NEAR
    return MatchClass.MISS


def reference_resolve(fields, report):
    # A field label, or one of its BibTeX names, in any case; `other` and
    # any other name resolve to None.
    reads_as = {}
    for canonical, names in CONSISTENCY_MAP.items():
        for name in (canonical, *names):
            reads_as[name] = canonical
    out = []
    for f in fields:
        label = reads_as.get(f.label.lower())
        value = normalize(f.value)
        if label is None or not value:
            report.discarded_empty += 1
            continue
        out.append(ExtractedField(label, value))
    return out


def reference_score(predictions, truth, policy=None):
    report = EvalReport()
    reference_score_into(report, predictions, truth, policy or EvalPolicy())
    return report


def reference_score_into(report, predictions, truth, policy):
    report.references += 1
    preds = reference_resolve(predictions, report)
    truths = reference_resolve(truth, report)

    open_truths = {}
    for t in truths:
        open_truths.setdefault(t.label, []).append(t)
        report.per_label.setdefault(t.label, LabelScore())

    precedence = list(MatchClass)
    for pred in preds:
        stats = report.per_label.setdefault(pred.label, LabelScore())
        pool = open_truths.get(pred.label, [])
        best_class, best_at = MatchClass.MISS, None
        for i, t in enumerate(pool):
            cls = reference_classify_match(pred.value, t.value, policy.tau)
            if precedence.index(cls) < precedence.index(best_class):
                best_class, best_at = cls, i
        correct = best_class is MatchClass.RECOGNIZED or (
            policy.count_near_as_correct and best_class is MatchClass.NEAR
        )
        stats.match_classes[best_class.value] += 1
        if correct:
            pool.pop(best_at)
            stats.tp += 1
        else:
            stats.fp += 1
    for label, pool in open_truths.items():
        report.per_label[label].fn += len(pool)


def reference_ground_truth_fields(anno_ref):
    plain, spans = parse_annotation(anno_ref)
    return [ExtractedField(label, plain[start:end]) for label, start, end in spans]


def reference_evaluate_dataset(tagged, records, policy=None, eval_ids=None):
    policy = policy or EvalPolicy()
    truth_index = {}
    for record in records:
        for cit in record.citations:
            truth_index[(record.id, cit["style"])] = cit["annoRef"]

    total = EvalReport()
    for row in tagged:
        rid, style = row.get("id"), row.get("style")
        if eval_ids is not None and rid not in eval_ids:
            continue
        anno = truth_index.get((rid, style))
        if anno is None:
            total.missing_ground_truth += 1
            continue
        try:
            truth = reference_ground_truth_fields(anno)
        except MalformedAnnotation:
            total.missing_ground_truth += 1
            continue
        preds = [ExtractedField(f["label"], f["value"]) for f in row.get("fields", [])]
        reference_score_into(total, preds, truth, policy)
    return total


_REF_BRACKET_MARKER = re.compile(r"^\s*\[\d+\]\s*", re.MULTILINE)
_REF_NUMBER_MARKER = re.compile(r"^\s*\d+\.\s+", re.MULTILINE)


def reference_split_on_markers(text, marker):
    starts = [m for m in marker.finditer(text)]
    refs = []
    for i, m in enumerate(starts):
        end = starts[i + 1].start() if i + 1 < len(starts) else len(text)
        body = text[m.end() : end]
        ref = " ".join(body.split())
        if ref:
            refs.append(ref)
    return refs


def reference_extract_references(document):
    label_start, label_end = _find_label(document)
    tail = document[label_end:]
    if _REF_BRACKET_MARKER.search(tail):
        refs = reference_split_on_markers(tail, _REF_BRACKET_MARKER)
    elif _REF_NUMBER_MARKER.search(tail):
        refs = reference_split_on_markers(tail, _REF_NUMBER_MARKER)
    else:
        refs = [
            " ".join(para.split())
            for para in re.split(r"\n\s*\n", tail)
            if para.strip()
        ]
    return ReferenceBlock(label_start, tuple(refs))


# --- normalize ----------------------------------------------------------

# Control, format (soft hyphen, zero-width space), escape, ampersand, the
# dash family, whitespace variants and non-ASCII letters.
_TRICKY = st.sampled_from(
    list("\x00\x07\t\n\r\x1b\x7f\x85\u00ad\u200b\u00a0\u2028\ufeff\\&-\u2013\u2014\u2010\u2011\u2012\u2015\u2212\u2003 ")
    + ["--", " & ", "&amp;", "é", "ß", "İ", "Ǆ", "ﬁ", "Σ", "中", "\U0001d400", ""]
)
_TEXT = st.lists(st.one_of(_TRICKY, st.characters()), max_size=40).map("".join)


@PROPERTY
@given(_TEXT)
# Word characters beyond ASCII letters and digits (a modifier letter, a
# superscript digit, an Arabic-Indic digit, the underscore) and non-word
# marks (full stop, right quote, soft hyphen) at either edge.
@example("ʰab.")
@example(".abʰ")
@example("²x")
@example("x²’")
@example("٣)")
@example("(٣")
@example("_x_")
@example("._.")
@example("’a’")
@example("\u00ada\u00ad")
def test_normalize_matches_per_character_reference(value):
    # The reference pass is not always a fixpoint ("a & & b", "-\\-");
    # normalize repeats it until it is, and is otherwise the same.
    expected = reference_normalize(value)
    while reference_normalize(expected) != expected:
        expected = reference_normalize(expected)
    assert normalize(value) == expected


def test_normalize_reaches_fixpoint_where_one_pass_does_not():
    assert reference_normalize("x & & y") == "x and & y"
    assert normalize("x & & y") == "x and and y"
    assert reference_normalize("pp. 1-\\-2") == "pp. 1--2"
    assert normalize("pp. 1-\\-2") == "pp. 1-2"


_OLD_DASHES = re.compile(r"[-‐‑‒–—―−]+")
_OLD_LEAD_PUNCT = re.compile(r"[^\w]*")


def reference_normalize_pass(value):
    """The pass that ran the dash pattern and the control-character table
    on every value."""
    value = value.lower()
    value = _OLD_DASHES.sub("-", value)
    value = value.translate(_CONTROL)
    value = " ".join(value.split())
    value = value.replace(" & ", " and ")
    value = value[_OLD_LEAD_PUNCT.match(value).end() :]
    end = len(value)
    while end and not (value[end - 1].isalnum() or value[end - 1] == "_"):
        end -= 1
    return value[:end]


def reference_pass_normalize(value):
    value = reference_normalize_pass(value)
    while " & " in value or "--" in value:
        value = reference_normalize_pass(value)
    return value


# ASCII text, where the fast paths apply, mixed with what turns them off:
# a backslash, C0 controls and DEL, each dash, `&` runs and non-ASCII.
_ASCII_TEXT = st.lists(
    st.one_of(
        st.characters(max_codepoint=0x7F),
        st.sampled_from(["\\", "-", "--", "&", " & ", "& &", "&&", "\x00", "\x1f", "\x7f",
                         "\t", "\n"]),
    ),
    max_size=30,
).map("".join)
_DASH_TEXT = st.lists(
    st.one_of(st.sampled_from(list("-‐‑‒–—―−") + ["\\", " & ", "é", "\x85"]),
              st.characters(max_codepoint=0x7F)),
    max_size=20,
).map("".join)


@PROPERTY
@given(st.one_of(_TEXT, _ASCII_TEXT, _DASH_TEXT))
@example("a-b")
@example("a--\\-b")
@example("x\\y")
@example("A\tB\x7fC")
@example("Ab \x00 & & c")
@example("TOP-DOWN")
@example("Über-\u2013x")
@example("")
def test_normalize_matches_the_pass_without_fast_paths(value):
    assert normalize(value) == reference_pass_normalize(value)


@PROPERTY
@given(_TEXT)
def test_normalize_is_idempotent(value):
    once = normalize(value)
    assert normalize(once) == once


# --- features -----------------------------------------------------------

_SURFACE = st.lists(
    st.one_of(
        st.sampled_from(list("\"'`‘’“”-‐–—()[]{},;:.!?0123456789aZé")),
        st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc")),
    ),
    min_size=1,
    max_size=12,
).map("".join).filter(lambda s: s.split() == [s])


@PROPERTY
@given(_SURFACE)
def test_features_match_full_extractor(surface):
    lower, case, punct, last, backoff = reference_features(surface)
    assert (surface.lower(), backoff_symbol(surface)) == (lower, backoff)
    assert any(backoff_symbol(surface) is shared for shared in BACKOFF_CLASSES)
    classes = (_case_class(surface), _punct_class(surface), _last_char_class(surface))
    assert classes == (case, punct, last)


# Surfaces where `str.isupper`/`islower` and the letter rule part, so a
# case class taken from them would differ: titlecase and uncased letters,
# combining marks, digits or punctuation alone, and ASCII mixed with any
# of them.
_UNICODE_SURFACE = st.one_of(
    st.text(
        st.one_of(
            st.characters(whitelist_categories=("Lt", "Lo", "Lm", "Mn", "Mc", "Lu", "Ll")),
            st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),
            st.sampled_from(list("aZ-'.,(1")),
        ),
        min_size=1,
        max_size=8,
    ),
    st.text(st.characters(whitelist_categories=("Nd",)), min_size=1, max_size=6),
    st.text(st.characters(whitelist_categories=("Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po")),
            min_size=1, max_size=6),
).filter(lambda s: s.split() == [s])


@PROPERTY
@given(_UNICODE_SURFACE)
@example("ǅ")
@example("ǅUNGLA")
@example("Aǅ")
@example("ABʰ")
@example("漢字")
@example("A漢")
@example("é")
@example("E\u0301")
@example("٣٤")
@example("--")
@example("‐‐")
@example("-‐")
def test_features_match_full_extractor_on_unicode_surfaces(surface):
    lower, case, punct, last, backoff = reference_features(surface)
    assert (surface.lower(), backoff_symbol(surface)) == (lower, backoff)
    classes = (_case_class(surface), _punct_class(surface), _last_char_class(surface))
    assert classes == (case, punct, last)


# Every Unicode general category, surrogates and unassigned code points
# included, mixed with the characters the rules name and with digits of
# each kind, so shapes that differ in one fact meet in one run.
_CATEGORIES = (
    "Lu", "Ll", "Lt", "Lm", "Lo", "Mn", "Mc", "Me", "Nd", "Nl", "No",
    "Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po", "Sc", "Sk", "Sm", "So",
    "Zs", "Zl", "Zp", "Cc", "Cf", "Cs", "Co", "Cn",
)
_ANY_CATEGORY_SURFACE = st.text(
    st.one_of(
        st.sampled_from(_CATEGORIES).flatmap(
            lambda cat: st.characters(whitelist_categories=(cat,))
        ),
        st.sampled_from(list(_QUOTES + _HYPHENS + "()[]{}.,;:!?12²³٣٤aZ")),
    ),
    min_size=1,
    max_size=10,
)


@PROPERTY
@given(_ANY_CATEGORY_SURFACE)
@example("2(3)")
@example("²(³)")  # digits, not decimal: no volume
@example("٣(٤)")  # decimal, not ASCII: a volume
@example("Ⅷ")  # upper but not a letter
@example("ǅ")  # a titlecase letter: neither upper nor lower
@example("ß")
@example("İ")
@example("ʰ")  # a lowercase modifier letter
def test_backoff_symbol_of_each_shape_matches_full_extractor(surface):
    assert backoff_symbol(surface) == reference_features(surface)[4]


def reference_symbol_column(sym_index, surface):
    """Column of a surface as chosen from its full feature vector: the
    lowercased surface when in the vocabulary, else its backoff class."""
    lower, _, _, _, backoff = reference_features(surface)
    return sym_index[lower] if lower in sym_index else sym_index[backoff]


@PROPERTY
@given(st.lists(st.tuples(_UNICODE_SURFACE, st.booleans()), min_size=1, max_size=8))
@example([("ǅ", True), ("ǅ", False), ("DŽ", False), ("İ", True), ("ß", True), ("SS", False)])
def test_symbol_column_matches_full_extractor_on_unicode_surfaces(surfaces):
    # The vocabulary holds the lowercased forms of the surfaces flagged
    # True, then every backoff class, in a model's order.
    kept = sorted({s.lower() for s, in_vocab in surfaces if in_vocab})
    vocab = kept + list(BACKOFF_CLASSES)
    sym_index = {sym: i for i, sym in enumerate(vocab)}
    model = HmmModel(["other"], vocab, [1.0], [[1.0]], [[1 / len(vocab)] * len(vocab)], 0.1)
    for surface, _ in surfaces:
        want = reference_symbol_column(sym_index, surface)
        assert _symbol_column(sym_index, surface) == want
        [tok] = tokenize(surface)
        assert model.symbol_index(tok) == model.symbol_index(surface) == want


# --- tokens are strings -------------------------------------------------

# Whitespace to `str.split` beyond ASCII: NEL, the line and paragraph
# separators, the information separators U+001C-U+001F, NBSP and the
# ideographic space.  U+200B is not whitespace and stays inside a token.
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000"
_SPLIT_TEXT = st.text(
    st.one_of(st.sampled_from(list(_WHITESPACE + "\u200baZ.,(1é")), st.characters()),
    max_size=30,
)


@PROPERTY
@given(_SPLIT_TEXT)
@example("a\x85b\u2028c\x1cd\x1fe\xa0f\u200bg")
@example("\x1c\x85\u2028\u3000")
@example("\u200b")
def test_tokenize_is_str_split_and_each_token_its_own_surface(text):
    tokens = tokenize(text)
    assert tokens == text.split()
    for tok in tokens:
        assert tok.surface == tok
        assert tok.features == (tok.lower(), backoff_symbol(tok))
    # `tag` refuses a bibRef with no token by this rule.
    assert (not text or text.isspace()) == (not tokens)


def test_every_whitespace_rule_takes_the_same_code_points():
    """`str.isspace` (`tag`'s refusal of a blank bibRef), the regex `\\s`
    (the BibTeX scanner's old collapse, `re.sub(r"\\s+", " ", v).strip()`)
    and `str.split` (tokens, and the collapse `" ".join(v.split())`) all
    take the same whitespace, over every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = {c for c in every if c.isspace()}
    assert set(re.findall(r"\s", every)) == spaces
    assert set(every) - set("".join(every.split())) == spaces
    assert {c for c in every if not c.strip()} == spaces


@PROPERTY
@given(st.one_of(_SPLIT_TEXT, st.text(), _TEXT))
@example("ΑΣ Σ AΣ.B ΑΣ\u2028Σ")
@example("İ I\u0130\u2028\u0130")
@example("ǅ\x85ǅ\u3000ﬁ")
def test_lowercasing_never_moves_a_token_boundary(text):
    assert [w.lower() for w in text.split()] == text.lower().split()


@PROPERTY
@given(st.lists(st.tuples(_UNICODE_SURFACE, st.booleans(), st.sampled_from(_WHITESPACE)),
                min_size=1, max_size=10))
@example([("ΑΣ", True, " "), ("Σ", False, "\u2028"), ("İ", True, " "), ("ǅ", False, "\x85")])
def test_tag_columns_are_the_symbol_column_of_each_token(surfaces):
    kept = sorted({s.lower() for s, in_vocab, _ in surfaces if in_vocab})
    sym_index = {sym: i for i, sym in enumerate(kept + list(BACKOFF_CLASSES))}
    reference = "".join(space + s for s, _, space in surfaces)
    words = reference.split()
    assert _columns(sym_index, reference, words) == [
        _symbol_column(sym_index, w) for w in words
    ]


@cache
def _trained_model():
    refs = _annotated_corpus(16, 120)
    return train_hmm([align_training(r.anno_ref) for r in refs], alpha=0.1)


@PROPERTY
@given(st.data())
def test_viterbi_and_fields_agree_on_tokens_and_plain_strings(data):
    model = _trained_model()
    word = st.one_of(st.sampled_from(model.vocab[: -len(BACKOFF_CLASSES)]), _SURFACE)
    pieces = data.draw(st.lists(
        st.tuples(st.sampled_from(_WHITESPACE), word), min_size=1, max_size=20))
    ref = "".join(space + w for space, w in pieces)
    tokens, plain = tokenize(ref), ref.split()
    seq, log_prob = viterbi(model, tokens)
    plain_seq, plain_log_prob = viterbi(model, plain)
    assert (seq.tokens, seq.labels, log_prob) == (
        plain_seq.tokens, plain_seq.labels, plain_log_prob)
    assert fields_from_labels(tokens, seq.labels) == fields_from_labels(plain, seq.labels)


# --- annotation parsing -------------------------------------------------


def _parsed(parse, anno):
    """(plain, spans) of `anno`, or the MalformedAnnotation message."""
    try:
        return parse(anno)
    except MalformedAnnotation as exc:
        return str(exc)


def test_parse_annotation_matches_reference_on_synthetic_corpus():
    annos = 0
    for entry in random_corpus(random.Random(12), 300):
        for style in STYLES:
            try:
                anno = annotate(entry, style).anno_ref
            except MissingVariable:
                continue
            annos += 1
            assert parse_annotation(anno) == reference_parse_annotation(anno)
    assert annos > 2_000


_ANNO_TEXT = st.text(alphabet=" .,;-aZ1é<>/&", max_size=6)
# entities, bare and double-escaped
_ENTITY = st.sampled_from(["&lt;", "&gt;", "&amp;", "&", "&amp;lt;", "&lt", "&#60;"])
_NAME_PART = st.sampled_from(
    ["<surname>Doe</surname>", "<surname>A</surname> <firstname>B.</firstname>",
     "<firstname>J</firstname>"]
)
# a labeled span around text, entities and name parts (valid only in author)
_SPAN = st.builds(
    lambda label, inner: f"<{label}>{''.join(inner)}</{label}>",
    st.sampled_from(CANONICAL_LABELS),
    st.lists(st.one_of(_ANNO_TEXT, _ENTITY, _NAME_PART), max_size=4),
)
# valid, unknown, name-part and broken tags on their own
_LONE_TAG = st.sampled_from(
    [f"<{label}>" for label in CANONICAL_LABELS]
    + [f"</{label}>" for label in CANONICAL_LABELS]
    + ["<surname>", "</surname>", "<firstname>", "</firstname>", "<bogus>",
       "</x-y>", "<Title>", "<>", "< title>", "<1>", "</>"]
)
_ANNO_PIECE = st.one_of(_SPAN, _SPAN, _ANNO_TEXT, _ENTITY, _LONE_TAG)


@PROPERTY
@given(st.lists(_ANNO_PIECE, max_size=16).map("".join))
def test_parse_annotation_matches_reference_on_arbitrary_markup(anno):
    assert _parsed(parse_annotation, anno) == _parsed(reference_parse_annotation, anno)


# --- bibtex scanning ----------------------------------------------------


def _bibtex_outcome(parse, text):
    """Entries (with their source tags) and issues of one parse."""
    entries, issues = parse(text, source_tag="src")
    return (
        [(e.entry_type, e.key, e.fields, e.source_tag) for e in entries],
        [(i.citation_key, i.kind, i.detail) for i in issues],
    )


@pytest.mark.parametrize("seed", range(8))
def test_parse_bibtex_matches_reference_on_synthetic_corpus(seed):
    text = random_bibtex_file(random.Random(seed), 300)
    outcome = _bibtex_outcome(parse_bibtex, text)
    assert outcome == _bibtex_outcome(reference_parse_bibtex, text)
    assert len(outcome[0]) > 250


# whitespace that `str.isspace` and the regex `\s` both accept, ASCII and not
_BIB_SPACE = st.sampled_from([" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f",
                              "\x85", "\xa0", "\u2028", "\u3000"])
_BIB_WORD = st.text(alphabet="aZ1.:-_", min_size=1, max_size=4)
# a braced value with inner whitespace, one nested one and two levels deep
# (one match takes the first, the scanner the second), a quoted one with a
# stray brace or a `{...}` group nested one or two levels, a bare one
_BIB_VALUE = st.one_of(
    st.builds("{{{}{}{}}}".format, _BIB_WORD, _BIB_SPACE, _BIB_WORD),
    st.builds("{{{}{{{}{}}}{}}}".format, _BIB_WORD, _BIB_WORD, _BIB_SPACE, _BIB_WORD),
    st.builds("{{{}{{{}{{{}}}}}{}}}".format, _BIB_WORD, _BIB_WORD, _BIB_WORD, _BIB_SPACE),
    st.builds('"{}{}{}"'.format, _BIB_WORD, st.sampled_from(["{", "}", "{x}", "}{"]), _BIB_WORD),
    st.builds('"{}{{{}{}}}{}"'.format, _BIB_WORD, _BIB_SPACE, st.sampled_from(['"', ",", "x"]),
              _BIB_WORD),
    st.builds('"{}{{{{{}}}{}}}"'.format, _BIB_SPACE, _BIB_WORD, _BIB_WORD),
    _BIB_WORD,
)
_BIB_FIELD = st.builds(
    "{}{}={}{}{},".format,
    st.sampled_from(["title", "Year", "x.y:z", "1x"]),
    _BIB_SPACE,
    _BIB_SPACE,
    _BIB_VALUE,
    _BIB_SPACE,
)
_BIB_NOISE = st.one_of(
    _BIB_SPACE,
    st.sampled_from(["@", "@article", "@misc", "{", "}", '"', ",", "=", "#", "Doe, J.", "é"]),
    _BIB_WORD,
)
# an entry head, fields mixed with noise, and a closing brace or none; a
# brace in the key lets a quoted value meet a `}` it cannot match
_BIB_ENTRY = st.builds(
    "{}{}{}".format,
    st.sampled_from(["@article{k,", "@book {k1,", "@misc{a b,", "@bogus{k,", "@string{",
                     "@comment{", "@ARTICLE{k", "@misc{k{,"]),
    st.lists(st.one_of(_BIB_FIELD, _BIB_FIELD, _BIB_NOISE), max_size=6).map("".join),
    st.sampled_from(["}", "}\n", "", "}}"]),
)


@settings(PROPERTY, max_examples=500)
@given(st.lists(st.one_of(_BIB_ENTRY, _BIB_NOISE), max_size=12).map("".join))
@example("@article{k, title = {A\x85B}\x1c#\u3000x}")
@example("@book{k,\xa0\u2028,, title\x0b=\x0c\"a {\"} b\" , year = 2002 }")
@example("@article{k, title = {A\x85\u3000B\xa0}, year = a#b}")
@example('@misc{k{, title = "a}b",}')
@example("@article{a\u2028b, title = x}")
@example("@misc{k, author = {{Nolan,} Ciara and Maeve Levitt}}")
@example("@misc{k, title = {a {b {c}} d}}")
@example('@misc{k, title = "x {y} z"}')
@example('@misc{k, title = "a}b", year = 1}')
def test_parse_bibtex_matches_reference_on_arbitrary_text(text):
    assert _bibtex_outcome(parse_bibtex, text) == _bibtex_outcome(reference_parse_bibtex, text)


# --- alignment ----------------------------------------------------------


def assert_aligned_as_reference(anno):
    """The scan's labels, on the plain text's `str.split` tokens, each a
    plain `str`."""
    seq = align_training(anno)
    assert seq.labels == reference_align(anno)
    assert seq.tokens == strip_tags(anno).split()
    assert all(type(tok) is str for tok in seq.tokens)


def reference_sweep_align(anno_ref):
    """The aligner that swept every token of the plain text across the
    spans that overlap it."""
    plain, spans = parse_annotation(anno_ref)
    tokens, labels = [], []
    first = 0
    for m in re.finditer(r"\S+", plain):
        tok_start, tok_end = m.span()
        while first < len(spans) and spans[first][2] <= tok_start:
            first += 1
        best, best_cover = "other", 0
        for label, start, end in spans[first:]:
            if start >= tok_end:
                break
            cover = min(tok_end, end) - max(tok_start, start)
            if cover > best_cover:
                best, best_cover = label, cover
        tokens.append(m[0])
        labels.append(best)
    return tokens, labels


def assert_aligned_as_sweep(anno):
    seq = align_training(anno)
    assert (seq.tokens, seq.labels) == reference_sweep_align(anno)
    assert all(type(tok) is str for tok in seq.tokens)


# Span text: whitespace of several kinds, punctuation, the three escaped
# characters (so `&amp;`, `&lt;` and `&gt;` in the markup) and non-ASCII.
_SPAN_TEXT = st.text(alphabet=" \t\x1c\u2028.,;()-aB1&<>é", max_size=6)


@st.composite
def _annotation(draw):
    """Markup of gaps and top-level spans in any order: empty, adjacent and
    whitespace-only spans, tokens running across two or more of them, and
    author spans holding name parts."""
    parts = []
    for _ in range(draw(st.integers(0, 8))):
        label = draw(st.sampled_from((None,) + CANONICAL_LABELS[:-1]))
        if label is None:
            parts.append(escape(draw(_SPAN_TEXT)))
        elif label == "author":
            names = draw(st.lists(
                st.tuples(st.sampled_from((None,) + NAME_PART_TAGS), _SPAN_TEXT), max_size=4))
            inner = "".join(
                escape(text) if tag is None else f"<{tag}>{escape(text)}</{tag}>"
                for tag, text in names
            )
            parts.append(f"<author>{inner}</author>")
        else:
            parts.append(f"<{label}>{escape(draw(_SPAN_TEXT))}</{label}>")
    return "".join(parts)


@PROPERTY
@given(_annotation())
@example("")
@example("<title></title>")
@example("x<title></title>y")
@example("<title>ab</title><volume>c</volume><page>de</page>")  # a tie: the first wins
@example("<title>a</title><volume>bc</volume><page>d</page>.")
@example("(<issued>2002</issued>). <title>T</title>")
@example("<author><surname>Sm</surname>ith, <firstname>J.</firstname></author>,x")
@example("&amp;<title>&lt;a&gt;</title>b &amp; <note>&amp;</note>")
@example(" <title> a </title> ")
def test_segment_aligner_matches_the_span_sweep(anno):
    assert_aligned_as_sweep(anno)


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_segment_aligner_matches_the_span_sweep_on_synthetic_corpus(seed):
    for entry in random_corpus(random.Random(seed), 3):
        for style in STYLES:
            try:
                anno = annotate(entry, style).anno_ref
            except MissingVariable:
                continue
            assert_aligned_as_sweep(anno)


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_align_sweep_matches_scan_on_synthetic_corpus(seed):
    for entry in random_corpus(random.Random(seed), 3):
        for style in STYLES:
            try:
                anno = annotate(entry, style).anno_ref
            except MissingVariable:
                continue
            assert_aligned_as_reference(anno)


_PIECE = st.tuples(
    st.sampled_from((None,) + CANONICAL_LABELS[:-1]),
    st.text(alphabet=" \t.,;()-aB1&<é", max_size=8),
)


@PROPERTY
@given(st.lists(_PIECE, max_size=12))
def test_align_sweep_matches_scan_on_arbitrary_spans(pieces):
    # adjacent, empty and whitespace-only spans; tokens straddling several
    anno = "".join(
        escape(text) if label is None else f"<{label}>{escape(text)}</{label}>"
        for label, text in pieces
    )
    assert_aligned_as_reference(anno)


# --- viterbi ------------------------------------------------------------


@st.composite
def _model_and_obs(draw):
    n = draw(st.integers(1, 5))
    v = draw(st.integers(1, 6))
    # zeros give -inf log entries and exact ties, the cases a cached
    # table could get wrong
    weight = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 0.5, 3.7, 1e-9])

    def rows(shape):
        raw = np.array(draw(st.lists(
            st.lists(weight, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        )))
        raw[:, 0] += 1e-3  # no all-zero row
        return raw / raw.sum(axis=1, keepdims=True)

    model = HmmModel(
        states=[f"s{i}" for i in range(n)],
        vocab=[f"w{i}" for i in range(v)],
        initial=rows((1, n))[0],
        transition=rows((n, n)),
        emission=rows((n, v)),
        smoothing_alpha=0.0,
    )
    obs = draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=12))
    return model, tokenize(" ".join(model.vocab[i] for i in obs))


def _fixed_model(initial, transition, emission):
    """A model over states s0, s1, ... and symbols w0, w1, ..."""
    return HmmModel(
        states=[f"s{i}" for i in range(len(initial))],
        vocab=[f"w{i}" for i in range(len(emission[0]))],
        initial=initial,
        transition=transition,
        emission=emission,
        smoothing_alpha=0.0,
    )


# Every score ties at every step, so each argmax must take state 0.
_TIED_MODEL = _fixed_model([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
# Zeros give -inf scores.  s0 starts and emits only w0, s1 emits only w1,
# and the states alternate, so "w0 w1 w0" has one finite path and "w1" or
# "w0 w0" none: every score of such a step is -inf.
_INF_MODEL = _fixed_model([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])


@PROPERTY
@given(_model_and_obs())
@example((_TIED_MODEL, tokenize("w0 w1 w1 w0")))
@example((_INF_MODEL, tokenize("w0 w1 w0")))
@example((_INF_MODEL, tokenize("w0 w0 w1")))
@example((_INF_MODEL, tokenize("w1")))
def test_viterbi_cached_tables_match_per_call_logs(case):
    model, tokens = case
    seq, log_prob = viterbi(model, tokens)
    ref_labels, ref_log_prob = reference_viterbi(model, tokens)
    assert seq.labels == ref_labels
    assert log_prob == ref_log_prob


@st.composite
def _model_and_batch(draw):
    """A model, with zeros (so -inf logs and exact ties) and at times more
    than 255 states, and a ragged batch of observation sequences."""
    n = draw(st.one_of(st.integers(1, 5), st.sampled_from([256, 300])))
    v = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 0.5, 3.7, 1e-9])

    def rows(r, c):
        raw = rng.choice(weights, size=(r, c))
        raw[:, 0] += 1e-3  # no all-zero row
        return raw / raw.sum(axis=1, keepdims=True)

    model = HmmModel(
        states=[f"s{i}" for i in range(n)],
        vocab=[f"w{i}" for i in range(v)],
        initial=rows(1, n)[0],
        transition=rows(n, n),
        emission=rows(n, v),
        smoothing_alpha=0.0,
    )
    lengths = st.one_of(st.just(1), st.integers(1, 12))
    batch = draw(st.lists(lengths.flatmap(
        lambda t: st.lists(st.integers(0, v - 1), min_size=t, max_size=t)
    ), min_size=1, max_size=8))
    return model, batch


@PROPERTY
@given(_model_and_batch())
@example((_TIED_MODEL, [[0, 1, 1], [1], [0, 0]]))
@example((_INF_MODEL, [[0, 1, 0], [0, 0, 1], [1], [1, 0]]))
def test_batched_decode_matches_per_reference_viterbi(case):
    model, batch = case
    decoded = decode_batch(model.decoder, batch)
    assert len(decoded) == len(batch)
    for obs, (path, log_prob) in zip(batch, decoded):
        tokens = tokenize(" ".join(model.vocab[i] for i in obs))
        ref_labels, ref_log_prob = reference_viterbi(model, tokens)
        assert [model.states[i] for i in path] == ref_labels
        assert log_prob == ref_log_prob


def test_tag_references_match_per_reference_viterbi_on_trained_model():
    refs = _annotated_corpus(15, 150)
    model = train_hmm([align_training(r.anno_ref) for r in refs[:90]], alpha=0.1)
    bib_refs = [r.bib_ref for r in refs[90:]]
    tagged = tag_references(model.decoder, bib_refs)
    assert len(tagged) == len(bib_refs)
    for bib_ref, (fields, log_prob) in zip(bib_refs, tagged):
        tokens = tokenize(bib_ref)
        labels, ref_log_prob = reference_viterbi(model, tokens)
        assert fields == reference_fields_from_labels(tokens, labels)
        assert log_prob == ref_log_prob


_FIELD_STATES = [label for label in CANONICAL_LABELS if label != "other"]


@st.composite
def _decoder_and_references(draw):
    """A decoder over a few canonical labels, with `other` at any state
    index or absent, and references of its words, backoff-only words and
    varied whitespace."""
    states = draw(st.lists(st.sampled_from(_FIELD_STATES), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        states.insert(draw(st.integers(0, len(states))), "other")
    n, words = len(states), [f"w{i}" for i in range(draw(st.integers(1, 4)))]
    vocab = words + list(BACKOFF_CLASSES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(r, c):
        raw = rng.choice([0.0, 0.0, 1.0, 2.0, 0.5], size=(r, c))
        raw[:, 0] += 1e-3  # no all-zero row
        return raw / raw.sum(axis=1, keepdims=True)

    model = HmmModel(states, vocab, rows(1, n)[0], rows(n, n), rows(n, len(vocab)), 0.0)
    token = st.sampled_from(words + ["W0", "Zq.", "1999,", "(x)"])
    space = st.sampled_from([" ", "  ", "\t", "\n "])
    reference = st.lists(st.tuples(space, token), min_size=1, max_size=10).map(
        lambda parts: "".join(s + t for s, t in parts)
    )
    return model.decoder, draw(st.lists(reference, min_size=1, max_size=5))


@PROPERTY
@given(_decoder_and_references())
def test_tag_references_fields_are_the_label_runs_of_the_state_path(case):
    dec, references = case
    tagged = tag_references(dec, references)
    assert len(tagged) == len(references)
    for reference, (fields, log_prob) in zip(references, tagged):
        tokens = reference.split()
        [(path, ref_log_prob)] = decode_batch(
            dec, [[reference_symbol_column(dec.sym_index, tok) for tok in tokens]]
        )
        assert fields == reference_fields_from_labels(tokens, [dec.states[i] for i in path])
        assert log_prob == ref_log_prob


def test_viterbi_cached_tables_match_on_trained_model():
    rng = random.Random(5)
    corpus, refs = [], []
    for i, entry in enumerate(random_corpus(rng, 40)):
        style = STYLES[i % len(STYLES)]
        try:
            ref = annotate(entry, style)
        except MissingVariable:
            continue
        (corpus if i % 3 else refs).append(ref)
    model = train_hmm([align_training(r.anno_ref) for r in corpus], alpha=0.1)
    for ref in refs:
        tokens = tokenize(ref.bib_ref)
        seq, log_prob = viterbi(model, tokens)
        assert (seq.labels, log_prob) == reference_viterbi(model, tokens)


# --- training counts, decoding makes the probabilities -----------------

_SURFACES = ("Smith", "smith", "J.", "2002.", "(2002).", "Deep", "parsing,",
             "IEEE", "pp.", "12(3):45", "\u201cQuoted", "and", "x-y-z", "\u00e9t\u00e9")


@st.composite
def _labelled_corpus(draw):
    labels = st.sampled_from(CANONICAL_LABELS[:6])
    # at least one token: a corpus of empty references has no states and
    # is refused (EmptyCorpus) rather than trained
    corpus = [LabelSequence(tokenize("Smith"), [draw(labels)])]
    for _ in range(draw(st.integers(0, 11))):
        surfaces = draw(st.lists(
            st.one_of(st.sampled_from(_SURFACES), st.text("aZ1.,(", min_size=1, max_size=4)),
            max_size=20,
        ))
        tokens = tokenize(" ".join(surfaces))
        corpus.append(LabelSequence(tokens, draw(st.lists(
            labels, min_size=len(tokens), max_size=len(tokens)))))
    return corpus


def assert_decodes_as_numpy_estimate(model, reference):
    """The decoder's log tables are `np.log` of the probabilities the numpy
    estimate gives, bit for bit."""
    assert (model.states, model.vocab) == (reference.states, reference.vocab)
    dec = model.decoder
    with np.errstate(divide="ignore"):
        np.testing.assert_array_equal(dec.log_init, np.log(reference.initial))
        np.testing.assert_array_equal(dec.log_trans_t, np.log(reference.transition).T)
        np.testing.assert_array_equal(dec.log_emis_t, np.log(reference.emission).T)


@PROPERTY
@given(_labelled_corpus(), st.sampled_from([0, 0.0, 0.05, 0.1, 1e6]),
       st.sampled_from([list, lambda corpus: (seq for seq in corpus)]))
@example([LabelSequence(tokenize("Smith J."), ["title", "author"])], 0.0, list)
def test_train_matches_numpy_training_byte_for_byte(corpus, alpha, feed):
    """Trained from a list or from a generator, read once.  In the example,
    `author` never steps to a label: at alpha 0 its transition row has no
    counts and decodes uniform."""
    assert_decodes_as_numpy_estimate(
        train_hmm(feed(corpus), alpha=alpha), reference_train_hmm(corpus, alpha))


def _annotated_corpus(seed, n_entries):
    refs = []
    for i, entry in enumerate(random_corpus(random.Random(seed), n_entries)):
        try:
            refs.append(annotate(entry, STYLES[i % len(STYLES)]))
        except MissingVariable:
            continue
    return refs


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.1, 1e6])
def test_train_matches_numpy_training_on_rendered_references(alpha):
    corpus = [align_training(r.anno_ref) for r in _annotated_corpus(13, 200)]
    assert_decodes_as_numpy_estimate(
        train_hmm(corpus, alpha=alpha), reference_train_hmm(corpus, alpha))


@PROPERTY
@given(_labelled_corpus(), st.sampled_from([0.0, 0.05, 0.1, 1e6]))
def test_loaded_model_matches_numpy_load_and_decodes_alike(corpus, alpha):
    """A saved and reloaded model decodes exactly as the trained one, and
    both as the numpy estimate."""
    model = train_hmm(corpus, alpha=alpha)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        model.save(path)
        loaded = HmmModel.load(path)
    assert (loaded.states, loaded.vocab, loaded.smoothing_alpha) == (
        model.states, model.vocab, model.smoothing_alpha)
    ref = reference_train_hmm(corpus, alpha)
    assert_decodes_as_numpy_estimate(loaded, ref)
    for seq in corpus:
        if not seq.tokens:
            continue
        got, got_lp = viterbi(loaded, seq.tokens)
        want, want_lp = viterbi(model, seq.tokens)
        assert got.labels == want.labels and got_lp == want_lp
        assert (got.labels, got_lp) == reference_viterbi(model, seq.tokens)


def test_loaded_trained_model_decodes_like_numpy_load(tmp_path):
    refs = _annotated_corpus(14, 120)
    corpus = [align_training(r.anno_ref) for r in refs[:80]]
    model = train_hmm(corpus, alpha=0.1)
    model.save(tmp_path / "model.json")
    loaded = HmmModel.load(tmp_path / "model.json")
    assert_decodes_as_numpy_estimate(loaded, reference_train_hmm(corpus, 0.1))
    for r in refs[80:]:
        tokens = tokenize(r.bib_ref)
        got, got_lp = viterbi(loaded, tokens)
        assert (got.labels, got_lp) == reference_viterbi(model, tokens)


# --- one-pass render ----------------------------------------------------


def assert_render_matches_reference(entry):
    for style in STYLES:
        try:
            want = (
                reference_render(entry, style, annotated=False),
                reference_render(entry, style, annotated=True),
            )
        except MissingVariable as exc:
            with pytest.raises(MissingVariable, match=re.escape(str(exc))):
                annotate(entry, style)
            continue
        got = annotate(entry, style)
        assert (got.bib_ref, got.anno_ref) == want
        assert render(entry, style) == want[0]
        assert strip_tags(got.anno_ref) == got.bib_ref


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_one_pass_render_matches_two_pass_on_synthetic_corpus(seed):
    for entry in random_corpus(random.Random(seed), 5):
        assert_render_matches_reference(entry)


# Tag delimiters, entities, name separators, dashes and non-ASCII text.
_FIELD_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["<", ">", "&", "&amp;", " and ", ", ", "--", "-", "é", "中", " "]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
).map("".join)
_FIELDS = st.dictionaries(
    st.sampled_from(
        ["author", "editor", "title", "journal", "booktitle", "year", "volume",
         "number", "pages", "publisher", "address", "doi", "url", "note"]
    ),
    _FIELD_TEXT,
)


@PROPERTY
@given(_FIELDS)
def test_one_pass_render_matches_two_pass_on_arbitrary_fields(fields):
    assert_render_matches_reference(BibEntry("article", "k", fields))


# --- values formatted once per entry -------------------------------------

# Name delimiters, markup among them, which `annotate` escapes.
_NAME_DELIMITERS = st.sampled_from([", ", "; ", " and ", " & ", "<&>", ""])


@PROPERTY
@given(
    _FIELDS,
    st.sampled_from(STYLES),
    st.lists(st.tuples(st.sampled_from(NAME_FORMATS), _NAME_DELIMITERS), max_size=4),
)
@example(
    {"author": "Ann Lee and Chen, Bo Wu", "editor": "Eve Ray and Al Bo", "title": "T",
     "booktitle": "B", "year": "1"},
    next(s for s in STYLES if s.style_id == "incollection-editors"),
    [(f, ", ") for f in NAME_FORMATS] + [("surname_initials", "; ")],
)
def test_build_shares_one_memo_as_a_fresh_memo_per_style_renders(fields, base, variants):
    """Styles that differ only in how they print names share one entry's
    memo in `build_dataset`; each must still print its own names."""
    entry = BibEntry("article", "k", fields)
    styles = STYLES + [
        base._replace(style_id=f"{base.style_id}-{i}", name_format=f, name_delimiter=d)
        for i, (f, d) in enumerate(variants)
    ]
    want, skips = [], []
    for style in styles:
        try:
            rendered = annotate(entry, style)
        except MissingVariable as exc:
            skips.append((entry.key, style.style_id, str(exc)))
            continue
        want.append({"style": style.style_id, "bibRef": rendered.bib_ref,
                     "annoRef": rendered.anno_ref})
    stats = BuildStats()
    records = list(build_dataset([entry], styles, stats=stats))
    assert [r.citations for r in records] == ([want] if want else [])
    assert stats.skip_log == skips


# --- CSV export ---------------------------------------------------------


def reference_export_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "style", "bibRef", "annoRef", "bib_fields"])
        for record in records:
            flat = "; ".join(f"{k}:{v}" for k, v in record.bib_fields.items())
            for cit in record.citations:
                writer.writerow([record.id, cit["style"], cit["bibRef"], cit["annoRef"], flat])


# The characters `csv.writer` quotes for, line breaks it does not, and
# spaces.  Python 3.10's `csv.writer` raises on NUL, so NUL is drawn only
# where it writes one.
_NUL = ["\x00"] if sys.version_info >= (3, 11) else []
_CSV_TEXT = st.lists(
    st.one_of(
        st.sampled_from([",", '"', "\r", "\n", "\r\n", "\x85", "\u2028", " ", ";", ":"] + _NUL),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=8,
).map("".join)
_CSV_RECORDS = st.lists(
    st.builds(
        DatasetRecord,
        _CSV_TEXT,
        st.dictionaries(_CSV_TEXT, _CSV_TEXT, max_size=3),
        st.lists(
            st.fixed_dictionaries({"style": _CSV_TEXT, "bibRef": _CSV_TEXT, "annoRef": _CSV_TEXT}),
            max_size=3,
        ),
    ),
    max_size=4,
)


@PROPERTY
@given(_CSV_RECORDS)
@example([DatasetRecord(" a ", {"": " x\r\ny "}, [{"style": "", "bibRef": 'q"', "annoRef": "\r"}])])
def test_csv_export_writes_the_bytes_of_csv_writer(records):
    with tempfile.TemporaryDirectory() as d:
        got, want = Path(d) / "got.csv", Path(d) / "want.csv"
        export(records, "csv", got)
        reference_export_csv(records, want)
        assert got.read_bytes() == want.read_bytes()


# --- statistics table ---------------------------------------------------


@PROPERTY
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([None, "acm", "dblp", "a-long-source-tag"]), min_size=1, max_size=4),
)
def test_stats_table_matches_both_old_tables(seed, tags):
    entries = random_corpus(random.Random(seed), 8)
    for i, entry in enumerate(entries):
        entry.source_tag = tags[i % len(tags)]
    want = (
        reference_histogram_table(entries, _FIELD_ROWS, "field")
        + "\n\n"
        + reference_histogram_table(entries, _TYPE_ROWS, "type")
    )
    assert histogram_table(entries) == want
    records = list(build_dataset(entries, STYLES[:2]))
    assert dataset_stats(records) == reference_dataset_stats(records)
    reloaded = [DatasetRecord.from_json_dict(r.to_json_dict()) for r in records]
    assert dataset_stats(reloaded) == reference_dataset_stats(reloaded)


def test_stats_tables_of_empty_input():
    assert dataset_stats([]) == reference_dataset_stats([])
    assert histogram_table([]) == dataset_stats([])


# --- label runs to fields -----------------------------------------------

# Few labels, so that runs of one label form often.
_RUN_LABELS = st.sampled_from(["other", "author", "title", "issued", "container-title"])
_RUN_SURFACES = st.lists(st.text("ab.,&é", min_size=1, max_size=4), max_size=30)


def assert_fields_as_reference(surfaces, labels):
    want = reference_fields_from_labels(surfaces, labels)
    assert fields_from_labels(surfaces, labels) == want


@PROPERTY
@given(_RUN_SURFACES, st.lists(_RUN_LABELS, max_size=30))
def test_fields_from_labels_matches_two_flush_grouping(surfaces, labels):
    assert_fields_as_reference(surfaces, labels)


@pytest.mark.parametrize(
    "surfaces,labels",
    [([], []), (["a", "b", "c"], ["other"] * 3), (["a"], ["title"]), (["a"], ["other"])],
    ids=["empty", "all-other", "single-token", "single-other"],
)
def test_fields_from_labels_edge_cases_match_reference(surfaces, labels):
    assert_fields_as_reference(surfaces, labels)


# --- scoring ------------------------------------------------------------

# Few letters: containment, equal lengths and small distances come up often.
_PAIR_TEXT = st.text("ab -", max_size=10)


@st.composite
def _pair_and_tau(draw):
    """Two strings and a tau, often exactly on (or one float beside) a
    boundary k / longest, the length gap's own share included."""
    pred, truth = draw(_PAIR_TEXT), draw(_PAIR_TEXT)
    longest = max(len(pred), len(truth)) or 1
    k = draw(st.one_of(st.just(abs(len(pred) - len(truth))), st.integers(0, longest)))
    at = k / longest
    tau = draw(
        st.one_of(
            st.sampled_from(
                [at, math.nextafter(at, -math.inf), math.nextafter(at, math.inf), 0.0, 1.0, 1.5]
            ),
            st.floats(),
        )
    )
    return pred, truth, tau


@settings(PROPERTY, max_examples=500)
@given(_pair_and_tau())
@example(("ab", "a b", 1 / 3))  # distance == gap == tau * longest: near
@example(("ab", "a b", math.nan))
def test_classify_match_matches_full_distance_reference(case):
    pred, truth, tau = case
    assert classify_match(pred, truth, tau) is reference_classify_match(pred, truth, tau)


# Labels as taggers and callers give them: canonical, `other`, BibTeX
# field names, another case, unknown.  Values with the characters that
# normalize rewrites or drops, drawn from a small pool so they repeat.
_SCORE_LABELS = st.sampled_from(list(CANONICAL_LABELS) + ["Title", "journal", "year", "bogus", ""])
_SPAN_LABELS = st.sampled_from([label for label in CANONICAL_LABELS if label != "other"])
_SCORE_TEXT = st.one_of(
    st.text("abc", min_size=1, max_size=3),
    st.lists(
        st.sampled_from(list("aAbB -\u2013\u2014&\\\x01\x7f.,") + [" & ", "--", "\\-"]),
        max_size=8,
    ).map("".join),
)
_POLICY = st.builds(
    EvalPolicy,
    tau=st.one_of(st.sampled_from([0.0, 0.15, 0.5, 1.0, 1.5]), st.floats(0, 2)),
    count_near_as_correct=st.booleans(),
)


def _fields(draw, labels, values):
    """(label, value) pairs over a few labels and values of this case, so
    that one label's pool often holds several truths."""
    labels = draw(st.lists(labels, min_size=1, max_size=3))
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(values))
    return draw(st.lists(pairs, max_size=6))


def assert_same_report(got, want):
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert format_report(got) == format_report(want)


@st.composite
def _score_case(draw):
    values = draw(st.lists(_SCORE_TEXT, min_size=1, max_size=6))
    preds, truth = (
        [ExtractedField(*pair) for pair in _fields(draw, _SCORE_LABELS, values)]
        for _ in range(2)
    )
    return preds, truth, draw(_POLICY)


def _titles(*values):
    return [ExtractedField("title", value) for value in values]


@PROPERTY
@given(_score_case())
# An equal truth comes after one the prediction is a superstring of, or
# near: the equal one is taken, and the next prediction gets the other.
@example((_titles("abc", "ab"), _titles("ab", "abc"), EvalPolicy()))
@example((_titles("abcd", "abce"), _titles("abce", "abcd"), EvalPolicy(0.5, True)))
@example((_titles("abcd", "abce"), _titles("abce", "abcd"), EvalPolicy(0.5, False)))
# Two equal truths around another: the first is taken, so the near
# prediction takes the middle one and the last prediction is recognized.
@example((_titles("abcd", "abcf", "abcd"), _titles("abcd", "abce", "abcd"), EvalPolicy(0.5, True)))
# Equal only once normalized: the first such truth is taken.
@example((_titles("a-b"), _titles("A–B.", "a-b"), EvalPolicy()))
# A substring comes before a superstring: the walk goes on to the better class.
@example((_titles("abc"), _titles("abcdef", "ab"), EvalPolicy()))
def test_score_matches_reference_scorer(case):
    preds, truth, policy = case
    assert_same_report(score(preds, truth, policy), reference_score(preds, truth, policy))


# Two-letter values of one label: no two distinct ones contain each other,
# so at tau 0.5 or 1 a prediction is often near several open truths, and
# which of them it takes shows in how the later predictions match.
_TIED = st.lists(st.sampled_from(["aa", "ab", "ba", "bb"]).map(
    lambda value: ExtractedField("title", value)), max_size=5)


@settings(PROPERTY, max_examples=300)
@given(_TIED, _TIED, st.sampled_from([0.5, 1.0]))
@example(  # "ab" is near both truths and takes the first, "aa"
    [ExtractedField("title", "ab"), ExtractedField("title", "aa")],
    [ExtractedField("title", "aa"), ExtractedField("title", "bb")],
    1.0,
)
def test_score_takes_the_first_of_tied_truths_like_reference(preds, truth, tau):
    policy = EvalPolicy(tau=tau, count_near_as_correct=True)
    assert_same_report(score(preds, truth, policy), reference_score(preds, truth, policy))


@st.composite
def _dataset_case(draw):
    """Records with one annotated citation each (now and then a malformed
    one), tagged rows for them in any order, rows with an unknown id or
    none, and an eval-id filter or none."""
    values = draw(st.lists(_SCORE_TEXT, min_size=1, max_size=6))
    ids = [f"r{i}" for i in range(draw(st.integers(0, 4)))]
    records = []
    for rid in ids:
        spans = _fields(draw, _SPAN_LABELS, values)
        anno = " ".join(f"<{label}>{escape(value)}</{label}>" for label, value in spans)
        if draw(st.integers(0, 9)) == 0:
            anno += "<title>unclosed"
        records.append(SimpleNamespace(id=rid, citations=[{"style": "s", "annoRef": anno}]))
    keys = st.sampled_from([{"id": rid, "style": "s"} for rid in ids + ["unknown"]] + [{}])
    tagged = [
        dict(
            draw(keys),
            fields=[{"label": label, "value": value}
                    for label, value in _fields(draw, _SCORE_LABELS, values)],
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    eval_ids = draw(st.one_of(st.none(), st.sets(st.sampled_from(ids + ["unknown"]))))
    return tagged, records, draw(_POLICY), eval_ids


@PROPERTY
@given(_dataset_case())
def test_evaluate_dataset_matches_reference_scorer(case):
    tagged, records, policy, eval_ids = case
    assert_same_report(
        evaluate_dataset(tagged, records, policy, eval_ids),
        reference_evaluate_dataset(tagged, records, policy, eval_ids),
    )


# --- reference sections -------------------------------------------------

# Markers of both kinds, markers with nothing after them, blank and
# whitespace-only lines (a paragraph split), line breaks `^` does not
# see, and text that only looks like a marker.
_SECTION_PIECE = st.one_of(
    st.sampled_from([
        "[1] ", "[2]", " [10]\t ", "1. ", "  2.\t", "3.\n", "\n", "\n\n", "\n \t\n",
        " ", "\r\n", "\x0c", "\u2028", "\xa0", "Argon C. A title. 2002.", "12.5", "[x]",
    ]),
    st.text(alphabet="ab .[]12\n\t", max_size=8),
)


def _sectioned_document(parts):
    """A document whose "References" label clears the 40% position bound."""
    before, tail = parts
    return "Intro.\n" * (len(tail) // 4 + 12) + before + "\nReferences\n" + tail


_SECTIONED_DOCUMENT = st.tuples(
    st.text(alphabet="ab .\n[1]", max_size=20),
    st.lists(_SECTION_PIECE, max_size=30).map("".join),
).map(_sectioned_document)


@PROPERTY
@given(_SECTIONED_DOCUMENT)
@example(_sectioned_document(("", "See below.\n[1] Argon C. 2002.\n[2]\n[3] \n Doe J.\n")))
@example(_sectioned_document(("", "x\n1. Argon C.\n2. \n3. Doe\n J.")))
@example(_sectioned_document(("", "\n\nArgon C.\n2002.\n \t\n\nDoe J.\n\n")))
def test_extract_references_matches_marker_walking_reference(document):
    assert extract_references(document) == reference_extract_references(document)

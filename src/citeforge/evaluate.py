"""Field-level scoring of extracted metadata against annotated ground truth.

Values are normalized before comparison (case, dashes, edge punctuation,
whitespace, ampersands); each prediction is classified as recognized /
superstring / substring / near / miss, with only recognized matches (and
optionally near ones) counting as correct.  Precision, recall and F1 come
out per label and micro-averaged.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .annotation import MalformedAnnotation, parse_annotation
from .jsonfile import write_json
from .labels import to_canonical


class MatchClass(Enum):
    RECOGNIZED = "recognized"
    SUPERSTRING = "superstring"
    SUBSTRING = "substring"
    NEAR = "near"
    MISS = "miss"


@dataclass(frozen=True)
class ExtractedField:
    label: str
    value: str


@dataclass
class EvalPolicy:
    tau: float = 0.15
    count_near_as_correct: bool = False


_DASHES = re.compile(r"(?:--|[‐‑‒–—―−])")
_MULTIDASH = re.compile(r"-{2,}")
_EDGE_PUNCT = re.compile(r"^[^\w]+|[^\w]+$", re.UNICODE)


class _ControlTable(dict):
    """`str.translate` table: backslash deleted, every Unicode "C*"
    (control, format, private, unassigned) code point turned into a
    space, anything else kept.  Filled one code point at a time as text
    is seen, so it never holds more than the distinct characters read."""

    def __missing__(self, code: int) -> str | None:
        c = chr(code)
        out = None if c == "\\" else " " if unicodedata.category(c)[0] == "C" else c
        self[code] = out
        return out


_CONTROL = _ControlTable()


def _normalize_pass(value: str) -> str:
    value = value.lower()
    value = _DASHES.sub("-", value)
    value = _MULTIDASH.sub("-", value)
    value = value.translate(_CONTROL)
    value = " ".join(value.split())
    value = value.replace(" & ", " and ")
    value = _EDGE_PUNCT.sub("", value)
    return value.strip()


def normalize(value: str) -> str:
    """Canonical comparison form of a field value.

    Lowercases, maps the dash family to "-", drops control and escape
    characters, rewrites " & " to " and ", collapses whitespace and strips
    edge punctuation.  Idempotent: one pass leaves " & " behind when
    ampersands overlap ("a & & b") and "--" when a dropped backslash joins
    two dashes; only then is the pass repeated, until neither is left.
    """
    value = _normalize_pass(value)
    while " & " in value or "--" in value:
        value = _normalize_pass(value)
    return value


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert, delete, substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def classify_match(pred: str, truth: str, tau: float = EvalPolicy.tau) -> MatchClass:
    """One class per pair, by precedence: equality, containment either way,
    then edit distance within `tau` of the longer length."""
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


@dataclass
class LabelScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    support: int = 0
    match_classes: Counter = field(default_factory=Counter)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvalReport:
    per_label: dict[str, LabelScore] = field(default_factory=dict)
    discarded_empty: int = 0
    missing_ground_truth: int = 0
    references: int = 0

    @property
    def micro(self) -> tuple[float, float, float]:
        scores = self.per_label.values()
        total = LabelScore(
            tp=sum(s.tp for s in scores),
            fp=sum(s.fp for s in scores),
            fn=sum(s.fn for s in scores),
        )
        return total.precision, total.recall, total.f1

    def to_json_dict(self) -> dict:
        p, r, f1 = self.micro
        return {
            "per_label": {
                label: {
                    "precision": s.precision,
                    "recall": s.recall,
                    "f1": s.f1,
                    "support": s.support,
                    "tp": s.tp,
                    "fp": s.fp,
                    "fn": s.fn,
                    "match_classes": dict(s.match_classes),
                }
                for label, s in sorted(self.per_label.items())
            },
            "overall": {"precision": p, "recall": r, "f1": f1},
            "references": self.references,
            "discarded_empty": self.discarded_empty,
            "missing_ground_truth": self.missing_ground_truth,
        }


def _resolve(fields: Iterable[ExtractedField], report: EvalReport) -> list[ExtractedField]:
    """Canonical labels and normalized values; empties are discarded with a
    count, unresolvable labels likewise."""
    out = []
    for f in fields:
        label = to_canonical(f.label)
        value = normalize(f.value)
        if label is None or label == "other" or not value:
            report.discarded_empty += 1
            continue
        out.append(ExtractedField(label, value))
    return out


def score(
    predictions: list[ExtractedField],
    truth: list[ExtractedField],
    policy: EvalPolicy | None = None,
) -> EvalReport:
    """Greedy one-to-one matching in prediction order within each label.

    A prediction scores a true positive when it classifies recognized (or
    near, when the policy says so) against a not-yet-matched truth field of
    the same label; everything else is a false positive, and unmatched
    truths are false negatives.  Each prediction also logs the best match
    class it reached, for the diagnostics table.
    """
    report = EvalReport()
    _score_into(report, predictions, truth, policy or EvalPolicy())
    return report


def _score_into(report: EvalReport, predictions, truth, policy: EvalPolicy) -> None:
    """Add one reference's scores, as `score` defines them, to `report`."""
    report.references += 1
    preds = _resolve(predictions, report)
    truths = _resolve(truth, report)

    open_truths: dict[str, list[ExtractedField]] = {}
    for t in truths:
        open_truths.setdefault(t.label, []).append(t)
        report.per_label.setdefault(t.label, LabelScore()).support += 1

    precedence = list(MatchClass)
    for pred in preds:
        stats = report.per_label.setdefault(pred.label, LabelScore())
        pool = open_truths.get(pred.label, [])
        best_class, best_at = MatchClass.MISS, None
        for i, t in enumerate(pool):
            cls = classify_match(pred.value, t.value, policy.tau)
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


def ground_truth_fields(anno_ref: str) -> list[ExtractedField]:
    """Truth fields of an annotated reference: one field per top-level span."""
    plain, spans = parse_annotation(anno_ref)
    return [ExtractedField(s.label, plain[s.start : s.end]) for s in spans]


def evaluate_dataset(
    tagged: Iterable[dict],
    records: Iterable,
    policy: EvalPolicy | None = None,
    eval_ids: set[str] | None = None,
) -> EvalReport:
    """Aggregate scores of tagged references against their records.

    `tagged` holds dicts with id, style and fields (the tagger's JSON Lines
    rows); ground truth comes from the matching record's annoRef.  Rows
    whose (id, style) has no record are counted, not fatal.  When
    `eval_ids` is given, rows outside it are ignored.
    """
    policy = policy or EvalPolicy()
    truth_index: dict[tuple[str, str], str] = {}
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
            truth = ground_truth_fields(anno)
        except MalformedAnnotation:
            total.missing_ground_truth += 1
            continue
        preds = [ExtractedField(f["label"], f["value"]) for f in row.get("fields", [])]
        _score_into(total, preds, truth, policy)
    return total


def format_report(report: EvalReport) -> str:
    """Aligned text table: P/R/F1 and support per label, match-class
    percentages (share of that label's predictions), micro overall."""
    header = (
        f"{'label':<16}{'P':>8}{'R':>8}{'F1':>8}{'support':>9}"
        f"{'%recog':>9}{'%super':>9}{'%sub':>9}{'%near':>9}"
    )
    lines = [
        "match-class percentages are per-label fractions of predictions",
        header,
        "-" * len(header),
    ]
    for label, s in sorted(report.per_label.items()):
        n_pred = sum(s.match_classes.values())

        def pct(name: str) -> str:
            return f"{100.0 * s.match_classes.get(name, 0) / n_pred:>8.1f}%" if n_pred else f"{'-':>9}"

        lines.append(
            f"{label:<16}{s.precision:>8.3f}{s.recall:>8.3f}{s.f1:>8.3f}"
            f"{s.support:>9}{pct('recognized')}{pct('superstring')}"
            f"{pct('substring')}{pct('near')}"
        )
    p, r, f1 = report.micro
    lines.append("-" * len(header))
    lines.append(f"{'micro':<16}{p:>8.3f}{r:>8.3f}{f1:>8.3f}")
    if report.missing_ground_truth:
        lines.append(f"missing ground truth rows: {report.missing_ground_truth}")
    return "\n".join(lines)


def write_report(report: EvalReport, path) -> None:
    write_json(path, report.to_json_dict())

"""Field-level scoring of extracted metadata against annotated ground truth.

Values are normalized before comparison (case, dashes, edge punctuation,
whitespace, ampersands); each prediction is classified as recognized /
superstring / substring / near / miss, with only recognized matches (and
optionally near ones) counting as correct.  Precision, recall and F1 come
out per label and micro-averaged.

Near means an edit distance within `tau` of the longer length.  No edit
sequence is shorter than the length gap |len(a) - len(b)|, so a pair
whose gap already exceeds that share is a miss without computing the
distance; the shortcut never changes a class (see `classify_match`).
Each distinct raw value is normalized once per scoring call.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from enum import Enum
from typing import Iterable, NamedTuple

from .annotation import MalformedAnnotation, parse_annotation
from .jsonfile import write_json
from .labels import CONSISTENCY_MAP, to_canonical


class MatchClass(Enum):
    RECOGNIZED = "recognized"
    SUPERSTRING = "superstring"
    SUBSTRING = "substring"
    NEAR = "near"
    MISS = "miss"


class ExtractedField(NamedTuple):
    label: str
    value: str


class EvalPolicy:
    tau = 0.15
    count_near_as_correct = False

    def __init__(self, tau: float = tau, count_near_as_correct: bool = count_near_as_correct):
        check_nonnegative("tau", tau)
        self.tau, self.count_near_as_correct = tau, count_near_as_correct


def check_nonnegative(name: str, value) -> None:
    """ValueError unless `value` is a finite number >= 0 (a bool is not a
    number here): the rule for `EvalPolicy.tau` and the HMM's `alpha`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        math.isfinite(value) and value >= 0
    ):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


_DASHES = re.compile(r"[-‐‑‒–—―−]+")
_LEAD_PUNCT = re.compile(r"[^\w]*")


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
    value = value.translate(_CONTROL)
    value = " ".join(value.split())
    value = value.replace(" & ", " and ")
    # Strip non-word characters from both edges: the lead in one anchored
    # match, the tail by a walk back to the last `\w` (alphanumeric or _).
    value = value[_LEAD_PUNCT.match(value).end() :]
    end = len(value)
    while end and not (value[end - 1].isalnum() or value[end - 1] == "_"):
        end -= 1
    return value[:end]


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
    then edit distance within `tau` of the longer length.

    The distance is at least the length gap, and dividing both by the same
    `longest` keeps their order (correctly rounded division is monotone),
    so a gap share above `tau` is a miss whatever the distance: the
    distance is computed only for pairs within the length bound.  A NaN
    `tau` fails both tests, as it always did.
    """
    if pred == truth:
        return MatchClass.RECOGNIZED
    if truth and truth in pred:
        return MatchClass.SUPERSTRING
    if pred and pred in truth:
        return MatchClass.SUBSTRING
    # Unequal, so at least one is non-empty and `longest` is positive.
    longest = max(len(pred), len(truth))
    if abs(len(pred) - len(truth)) / longest > tau:
        return MatchClass.MISS
    if levenshtein(pred, truth) / longest <= tau:
        return MatchClass.NEAR
    return MatchClass.MISS


# Precedence of the classes: a lower rank is a better match.
_RANK = {cls: rank for rank, cls in enumerate(MatchClass)}


class LabelScore:
    def __init__(self, tp: int = 0, fp: int = 0, fn: int = 0):
        self.tp, self.fp, self.fn, self.support = tp, fp, fn, 0
        self.match_classes: Counter = Counter()

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


class EvalReport:
    def __init__(self):
        self.per_label: dict[str, LabelScore] = {}
        self.discarded_empty = self.missing_ground_truth = self.references = 0

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


def _resolve(
    pairs: Iterable[tuple[str, str]], report: EvalReport, normalized: dict[str, str]
) -> list[tuple[str, str]]:
    """Canonical labels and normalized values of (label, value) pairs;
    empties are discarded with a count, unresolvable labels likewise.
    `normalized` maps each raw value seen so far to its `normalize`."""
    out = []
    for label, value in pairs:
        label = to_canonical(label)
        if label not in CONSISTENCY_MAP:
            report.discarded_empty += 1
            continue
        norm = normalized.get(value)
        if norm is None:
            norm = normalized[value] = normalize(value)
        if norm:
            out.append((label, norm))
        else:
            report.discarded_empty += 1
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
    _score_into(report, predictions, truth, policy or EvalPolicy(), {})
    return report


def _score_into(
    report: EvalReport,
    predictions: list[tuple[str, str]],
    truth: list[tuple[str, str]],
    policy: EvalPolicy,
    normalized: dict[str, str],
) -> None:
    """Add one reference's scores, as `score` defines them, to `report`."""
    report.references += 1
    per_label = report.per_label
    open_truths: dict[str, list[str]] = {}
    for label, value in _resolve(truth, report, normalized):
        open_truths.setdefault(label, []).append(value)
        if label not in per_label:
            per_label[label] = LabelScore()
        per_label[label].support += 1

    tau, near_ok = policy.tau, policy.count_near_as_correct
    for label, value in _resolve(predictions, report, normalized):
        if label not in per_label:
            per_label[label] = LabelScore()
        stats = per_label[label]
        pool = open_truths.get(label, ())
        best_class, best_at = MatchClass.MISS, None
        for i, t in enumerate(pool):
            cls = classify_match(value, t, tau)
            if _RANK[cls] < _RANK[best_class]:
                best_class, best_at = cls, i
        stats.match_classes[best_class.value] += 1
        if best_class is MatchClass.RECOGNIZED or (near_ok and best_class is MatchClass.NEAR):
            pool.pop(best_at)
            stats.tp += 1
        else:
            stats.fp += 1
    for label, pool in open_truths.items():
        per_label[label].fn += len(pool)


def ground_truth_fields(anno_ref: str) -> list[ExtractedField]:
    """Truth fields of an annotated reference: one field per top-level span."""
    plain, spans = parse_annotation(anno_ref)
    return [ExtractedField(label, plain[start:end]) for label, start, end in spans]


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
    `eval_ids` is given, rows outside it are ignored, and only records
    inside it are indexed.  ValueError if two indexed records give one
    (id, style) different annoRefs, since a row could not tell which is
    its ground truth; an exact repeat is harmless.
    """
    policy = policy or EvalPolicy()
    truth_index: dict[tuple[str, str], str] = {}
    for record in records:
        if eval_ids is None or record.id in eval_ids:
            for cit in record.citations:
                anno = cit["annoRef"]
                if truth_index.setdefault((record.id, cit["style"]), anno) != anno:
                    raise ValueError(
                        f"ground truth is ambiguous: id {record.id!r}, style "
                        f"{cit['style']!r} has two different annoRefs"
                    )

    total = EvalReport()
    normalized: dict[str, str] = {}
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
        preds = [(f["label"], f["value"]) for f in row.get("fields", [])]
        _score_into(total, preds, truth, policy, normalized)
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

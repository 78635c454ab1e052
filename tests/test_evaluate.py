import math
import random
import re
import string

import pytest

from citeforge.evaluate import (
    EvalPolicy,
    ExtractedField,
    MatchClass,
    classify_match,
    evaluate_dataset,
    format_report,
    ground_truth_fields,
    levenshtein,
    normalize,
    score,
)
from citeforge.dataset import BuildStats, build_dataset
from citeforge.synth import random_corpus


# --- normalization ------------------------------------------------------


def test_normalize_dash_and_trailing_punct():
    assert normalize("70–72.") == "70-72"


def test_normalize_whitespace_and_case():
    assert normalize("  IEEE   Communications  ") == "ieee communications"


def test_normalize_double_hyphen():
    assert normalize("70--72") == "70-72"


def test_normalize_ampersand():
    assert normalize("Books & Texts") == "books and texts"


def test_normalize_strips_escapes_and_controls():
    assert normalize('\\"Quoted\\" title\x07') == "quoted\" title"


def test_normalize_idempotent_on_random_strings():
    rng = random.Random(31)
    alphabet = string.ascii_letters + string.digits + " .,;:-–—&\"'()\\\t"
    for _ in range(500):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        once = normalize(raw)
        assert normalize(once) == once


def test_normalize_case_insensitive():
    rng = random.Random(32)
    for _ in range(100):
        raw = "".join(rng.choice(string.ascii_letters + " -") for _ in range(12))
        assert normalize(raw.upper()) == normalize(raw)


# --- levenshtein --------------------------------------------------------


def brute_force_levenshtein(a, b):
    """Full DP table, no row compression."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[-1][-1]


def test_levenshtein_identity():
    assert levenshtein("x", "x") == 0


def test_levenshtein_kitten_sitting():
    assert levenshtein("kitten", "sitting") == 3
    assert brute_force_levenshtein("kitten", "sitting") == 3


def test_levenshtein_insertions_only():
    assert levenshtein("", "abc") == 3


def test_levenshtein_against_dp_table_oracle():
    rng = random.Random(77)
    for _ in range(300):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 9)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 9)))
        assert levenshtein(a, b) == brute_force_levenshtein(a, b)


def test_levenshtein_metric_axioms():
    rng = random.Random(78)
    for _ in range(1000):
        strings = [
            "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
            for _ in range(3)
        ]
        x, y, z = strings
        assert levenshtein(x, y) >= 0
        assert levenshtein(x, y) == levenshtein(y, x)
        assert (levenshtein(x, y) == 0) == (x == y)
        assert levenshtein(x, z) <= levenshtein(x, y) + levenshtein(y, z)


# --- match classes ------------------------------------------------------


def test_classify_equal_is_recognized():
    assert classify_match("a b", "a b") is MatchClass.RECOGNIZED


def test_classify_superstring():
    got = classify_match("john smith and jane doe", "john smith")
    assert got is MatchClass.SUPERSTRING


def test_classify_substring():
    assert classify_match("smith", "john smith") is MatchClass.SUBSTRING


def test_classify_near_by_threshold():
    # distance 1 over max length 10 = 0.1 <= 0.15
    assert classify_match("jhn smith", "john smith", tau=0.15) is MatchClass.NEAR
    assert classify_match("jhn smith", "john smith", tau=0.05) is MatchClass.MISS


def test_classify_miss():
    assert classify_match("alpha", "omega", tau=0.1) is MatchClass.MISS


def test_classify_precedence_is_observable():
    # equality also satisfies both containment tests; recognized must win
    assert classify_match("x", "x") is MatchClass.RECOGNIZED
    # containment also satisfies the near test for short strings; the
    # containment class must win
    assert classify_match("ab", "a", tau=1.0) is MatchClass.SUPERSTRING
    assert classify_match("a", "ab", tau=1.0) is MatchClass.SUBSTRING


# --- scoring ------------------------------------------------------------


def F(label, value):
    return ExtractedField(label, value)


def test_score_perfect_predictions():
    truth = [F("author", "a b"), F("title", "t"), F("issued", "2000")]
    report = score(list(truth), list(truth))
    assert report.micro == (1.0, 1.0, 1.0)
    for label_score in report.per_label.values():
        assert label_score.precision == 1.0 and label_score.recall == 1.0


def test_score_hand_count_case():
    # 3 predictions, 2 correct, 4 truths: P=2/3, R=1/2, F1=4/7
    truth = [F("title", "t1"), F("title", "t2"), F("title", "t3"), F("title", "t4")]
    preds = [F("title", "t1"), F("title", "t2"), F("title", "wrong")]
    report = score(preds, truth)
    p, r, f1 = report.micro
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(1 / 2)
    assert f1 == pytest.approx(4 / 7)


def test_score_empty_predictions():
    report = score([], [F("title", "t")])
    assert report.micro == (0.0, 0.0, 0.0)


def test_score_duplicate_predictions_get_no_double_credit():
    truth = [F("title", "t")]
    preds = [F("title", "t"), F("title", "t")]
    report = score(preds, truth)
    s = report.per_label["title"]
    assert (s.tp, s.fp, s.fn) == (1, 1, 0)


def test_score_near_counts_only_with_policy():
    truth = [F("title", "john smith")]
    preds = [F("title", "jhn smith")]
    strict = score(preds, truth, EvalPolicy(tau=0.15))
    assert strict.per_label["title"].tp == 0
    lenient = score(preds, truth, EvalPolicy(tau=0.15, count_near_as_correct=True))
    assert lenient.per_label["title"].tp == 1


def test_edit_distance_only_within_the_length_bound(monkeypatch):
    """A pair whose length gap alone exceeds tau * longest is a miss without
    an edit distance; the pairs within the bound still get one."""
    import citeforge.evaluate as evaluate

    measured = []

    def counting(a, b):
        measured.append((a, b))
        return levenshtein(a, b)

    monkeypatch.setattr(evaluate, "levenshtein", counting)
    tau = 0.15
    truth = [
        F("title", "a theory of everything"),
        F("title", "deep nets"),
        F("publisher", "addison-wesley professional"),
        F("volume", "13"),
        F("page", "101-109"),
    ]
    preds = [
        F("title", "a theory of everthing"),
        F("publisher", "springer"),
        F("volume", "12"),
        F("page", "1-9"),
    ]
    report = score(preds, truth, EvalPolicy(tau=tau))
    assert measured == [("a theory of everthing", "a theory of everything"), ("12", "13")]
    assert all(abs(len(a) - len(b)) <= tau * max(len(a), len(b)) for a, b in measured)
    classes = {label: dict(s.match_classes) for label, s in report.per_label.items()}
    assert classes == {
        "title": {"near": 1},
        "publisher": {"miss": 1},
        "volume": {"miss": 1},
        "page": {"miss": 1},
    }


def test_score_resolves_bibtex_field_names():
    truth = [F("issued", "2002"), F("page", "70-72")]
    preds = [F("year", "2002"), F("pages", "70-72")]
    report = score(preds, truth)
    assert report.micro == (1.0, 1.0, 1.0)


def test_score_counts_identities():
    rng = random.Random(55)
    labels = ["title", "author", "issued"]
    for _ in range(50):
        truth = [F(rng.choice(labels), f"v{rng.randint(0, 5)}") for _ in range(rng.randint(0, 6))]
        preds = [F(rng.choice(labels), f"v{rng.randint(0, 5)}") for _ in range(rng.randint(0, 6))]
        report = score(preds, truth)
        resolved_preds = [p for p in preds if normalize(p.value)]
        for label, s in report.per_label.items():
            n_preds = sum(1 for p in resolved_preds if p.label == label)
            n_truth = sum(1 for t in truth if t.label == label and normalize(t.value))
            assert s.tp + s.fp == n_preds
            assert s.tp + s.fn == n_truth


def brute_force_score(preds, truths, tau=0.15, near_ok=False):
    """Independent scorer: plain dict/list bookkeeping, no shared helpers."""
    from citeforge.labels import CONSISTENCY_MAP

    # A field label, or one of its BibTeX names, in any case; `other` and
    # any other name resolve to nothing.
    reads_as = {}
    for label, names in CONSISTENCY_MAP.items():
        for name in (label, *names):
            reads_as[name] = label
    clean_preds = []
    for p in preds:
        lab, val = reads_as.get(p.label.lower()), normalize(p.value)
        if lab and val:
            clean_preds.append((lab, val))
    clean_truths = []
    for t in truths:
        lab, val = reads_as.get(t.label.lower()), normalize(t.value)
        if lab and val:
            clean_truths.append((lab, val))

    used = [False] * len(clean_truths)
    tp = {}
    fp = {}
    for lab, val in clean_preds:
        hit = None
        for i, (tlab, tval) in enumerate(clean_truths):
            if used[i] or tlab != lab:
                continue
            if val == tval:
                hit = i
                break
            if near_ok and hit is None:
                longest = max(len(val), len(tval))
                if longest and brute_force_levenshtein(val, tval) / longest <= tau and tval not in val and val not in tval:
                    hit = i  # keep scanning for an exact match
        if hit is not None:
            used[hit] = True
            tp[lab] = tp.get(lab, 0) + 1
        else:
            fp[lab] = fp.get(lab, 0) + 1
    fn = {}
    for i, (tlab, _) in enumerate(clean_truths):
        if not used[i]:
            fn[tlab] = fn.get(tlab, 0) + 1
    total_tp = sum(tp.values())
    total_fp = sum(fp.values())
    total_fn = sum(fn.values())
    p = total_tp / (total_tp + total_fp) if total_tp + total_fp else 0.0
    r = total_tp / (total_tp + total_fn) if total_tp + total_fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def test_score_matches_independent_scorer_on_random_cases():
    rng = random.Random(4321)
    labels = ["title", "author", "issued", "page", "container-title"]
    values = ["alpha beta", "gamma", "delta epsilon", "zeta", "eta theta", "iota"]
    for _ in range(50):
        truth = [
            F(rng.choice(labels), rng.choice(values))
            for _ in range(rng.randint(0, 8))
        ]
        preds = [
            F(rng.choice(labels), rng.choice(values))
            for _ in range(rng.randint(0, 8))
        ]
        mine = score(preds, truth).micro
        oracle = brute_force_score(preds, truth)
        assert mine == pytest.approx(oracle)


def test_score_permutation_stable_for_distinct_values():
    rng = random.Random(9)
    truth = [F("title", f"value {i}") for i in range(5)]
    preds = [F("title", f"value {i}") for i in (0, 2, 4)] + [F("title", "nope")]
    baseline = score(list(preds), truth).micro
    for _ in range(10):
        rng.shuffle(preds)
        assert score(list(preds), truth).micro == baseline


# --- dataset-level evaluation -------------------------------------------


def _tagged_rows_from_truth(records):
    """Rows a perfect tagger would emit: the ground-truth fields verbatim."""
    rows = []
    for record in records:
        for cit in record.citations:
            fields = ground_truth_fields(cit["annoRef"])
            rows.append(
                {
                    "id": record.id,
                    "style": cit["style"],
                    "reference": cit["bibRef"],
                    "fields": [{"label": f.label, "value": f.value} for f in fields],
                    "log_prob": 0.0,
                }
            )
    return rows


def test_oracle_tagger_scores_f1_one(rng, styles):
    records = list(build_dataset(random_corpus(rng, 12), styles[:4], stats=BuildStats()))
    rows = _tagged_rows_from_truth(records)
    report = evaluate_dataset(rows, records)
    p, r, f1 = report.micro
    assert f1 == pytest.approx(1.0)
    assert report.missing_ground_truth == 0


def test_silent_tagger_scores_zero_recall(rng, styles):
    records = list(build_dataset(random_corpus(rng, 5), styles[:2], stats=BuildStats()))
    rows = [
        {"id": r.id, "style": c["style"], "fields": []}
        for r in records
        for c in r.citations
    ]
    report = evaluate_dataset(rows, records)
    assert report.micro[1] == 0.0
    for label_score in report.per_label.values():
        assert label_score.recall == 0.0


def test_missing_ground_truth_reported_not_fatal(rng, styles):
    records = list(build_dataset(random_corpus(rng, 3), styles[:1], stats=BuildStats()))
    rows = [{"id": "nosuch", "style": "nostyle", "fields": []}]
    report = evaluate_dataset(rows, records)
    assert report.missing_ground_truth == 1


def test_eval_ids_filter(rng, styles):
    records = list(build_dataset(random_corpus(rng, 6), styles[:1], stats=BuildStats()))
    rows = _tagged_rows_from_truth(records)
    keep = {records[0].id, records[1].id}
    report = evaluate_dataset(rows, records, eval_ids=keep)
    assert report.references == sum(1 for r in rows if r["id"] in keep)


def test_ground_truth_fields_from_annotation():
    fields = ground_truth_fields(
        "<author>A B</author>. <title>The Thing</title>. <issued>1999</issued>."
    )
    assert [(f.label, f.value) for f in fields] == [
        ("author", "A B"),
        ("title", "The Thing"),
        ("issued", "1999"),
    ]


def test_evaluate_matches_independent_pipeline_scorer(rng, styles):
    # 100-reference synthetic set scored two ways must agree
    records = list(build_dataset(random_corpus(rng, 25), styles[:4], stats=BuildStats()))
    rows = _tagged_rows_from_truth(records)
    # corrupt a third of the rows to make the comparison non-trivial
    corrupt_rng = random.Random(1000)
    for row in rows:
        if corrupt_rng.random() < 0.33 and row["fields"]:
            victim = corrupt_rng.randrange(len(row["fields"]))
            row["fields"][victim]["value"] = "corrupted beyond recognition"
    assert len(rows) == 100
    report = evaluate_dataset(rows, records)

    totals = [0, 0, 0]  # tp, fp, fn
    for row in rows:
        record = next(r for r in records if r.id == row["id"])
        anno = next(c["annoRef"] for c in record.citations if c["style"] == row["style"])
        truth = ground_truth_fields(anno)
        preds = [ExtractedField(f["label"], f["value"]) for f in row["fields"]]
        p, r, f1 = brute_force_score(preds, truth)
        single = score(preds, truth)
        assert single.micro == pytest.approx((p, r, f1))
        totals[0] += sum(s.tp for s in single.per_label.values())
        totals[1] += sum(s.fp for s in single.per_label.values())
        totals[2] += sum(s.fn for s in single.per_label.values())
    tp = sum(s.tp for s in report.per_label.values())
    fp = sum(s.fp for s in report.per_label.values())
    fn = sum(s.fn for s in report.per_label.values())
    assert [tp, fp, fn] == totals


def test_format_report_has_expected_columns(rng, styles):
    records = list(build_dataset(random_corpus(rng, 4), styles[:2], stats=BuildStats()))
    rows = _tagged_rows_from_truth(records)
    text = format_report(evaluate_dataset(rows, records))
    for column in ("label", "P", "R", "F1", "support", "%recog", "%super", "%sub", "%near"):
        assert column in text
    assert "micro" in text


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -0.01, True, "0.15", None])
def test_policy_rejects_a_tau_that_is_not_a_finite_number_at_least_0(tau):
    message = f"tau must be a finite number >= 0, got {tau!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EvalPolicy(tau=tau)


def test_policy_defaults():
    policy = EvalPolicy()
    assert (policy.tau, policy.count_near_as_correct) == (EvalPolicy.tau, False) == (0.15, False)
    assert EvalPolicy(0.0, True).tau == 0.0

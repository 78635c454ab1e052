import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from citeforge.annotation import strip_tags
from citeforge.dataset import build_dataset
from citeforge.labels import CANONICAL_LABELS
from citeforge.hmm import (
    EmptyCorpus,
    EmptyInput,
    HmmModel,
    LabelSequence,
    align_training,
    fields_from_labels,
    tag_reference,
    tag_references,
    train_hmm,
    viterbi,
)
from citeforge.styles import annotate, load_builtin_styles
from citeforge.synth import random_corpus, random_entry
from citeforge.tokens import BACKOFF_CLASSES, backoff_symbol, tokenize


def make_sequence(surfaces, labels):
    return align_like(surfaces, labels)


def align_like(surfaces, labels):
    tokens = tokenize(" ".join(surfaces))
    return LabelSequence(tokens, list(labels))


# --- alignment ----------------------------------------------------------


def test_align_single_tag_spans_both_tokens():
    seq = align_training("<title>Deep Parsing</title>.")
    assert seq.tokens == ["Deep", "Parsing."]
    assert seq.labels == ["title", "title"]


def test_align_proceedings_sample_names_collapse_to_author():
    anno = (
        "<author><surname>Keane</surname> <firstname>B. D.</firstname>, "
        "<surname>Nolan</surname> <firstname>T. S.</firstname>, "
        "<surname>Walsh</surname> <firstname>L. N.</firstname> &amp; "
        "<surname>Doyle</surname> <firstname>J. F.</firstname> (eds)</author> "
        "<issued> 1990. </issued> "
        "<edition>Proceedings of the Fourth Annual Conference</edition>"
        "<publisher>North-Holland</publisher> ."
    )
    seq = align_training(anno)
    assert seq.labels[:12] == ["author"] * 12
    assert "issued" in seq.labels and "publisher" in seq.labels
    assert seq.labels[-1] == "other"  # the lone trailing period


def test_align_tokens_outside_tags_get_other():
    seq = align_training("see <title>T</title> maybe")
    assert seq.labels == ["other", "title", "other"]


def test_align_majority_coverage_on_partial_overlap():
    # "(1990)," = 7 chars, 4 inside the tag: majority -> issued
    seq = align_training("<author>A B</author> (<issued>1990</issued>),")
    assert seq.tokens == ["A", "B", "(1990),"]
    assert seq.labels == ["author", "author", "issued"]


def test_align_label_count_equals_token_count(styles):
    rng = random.Random(88)
    for entry in random_corpus(rng, 30):
        for style in styles:
            ref = annotate(entry, style)
            seq = align_training(ref.anno_ref)
            assert len(seq.labels) == len(seq.tokens)
            assert len(seq.tokens) == len(tokenize(strip_tags(ref.anno_ref)))


def test_align_labels_match_emitting_segment(styles):
    # cross-check: every token inside a rendered segment carries its label
    rng = random.Random(89)
    for entry in random_corpus(rng, 20):
        for style in styles:
            ref = annotate(entry, style)
            seq = align_training(ref.anno_ref)
            emitted = {seg.variable for seg in style.segments}
            assert set(seq.labels) <= emitted | {"other"}


# --- training -----------------------------------------------------------


def probabilities(model):
    """The initial, transition and emission probabilities a model decodes
    with, out of its decoder's log tables."""
    dec = model.decoder
    return np.exp(dec.log_init), np.exp(dec.log_trans_t.T), np.exp(dec.log_emis_t.T)


def test_train_hand_counts_alpha_zero():
    seq = align_like(["x", "y", "z"], ["A", "A", "B"])
    model = train_hmm([seq], alpha=0.0)
    a, b = model.states.index("A"), model.states.index("B")
    assert model.transition[a][a] == 1 and model.transition[a][b] == 1
    assert model.transition[b] == [0, 0]
    assert model.initial[a] == 1 and model.initial[b] == 0
    initial, transition, _ = probabilities(model)
    assert transition[a][a] == pytest.approx(0.5, abs=1e-12)
    assert transition[a][b] == pytest.approx(0.5, abs=1e-12)
    # B never transitions anywhere: that row falls back to uniform
    assert transition[b] == pytest.approx([0.5, 0.5])
    assert initial[a] == 1.0 and initial[b] == 0.0


def test_train_two_state_deterministic_alpha_hand_computation():
    # A->B always, B->A always; initials always A; alpha = 0.1
    seqs = [
        align_like(["u", "v", "u", "v"], ["A", "B", "A", "B"]),
        align_like(["u", "v"], ["A", "B"]),
    ]
    model = train_hmm(seqs, alpha=0.1)
    a, b = model.states.index("A"), model.states.index("B")
    u, v = model.vocab.index("u"), model.vocab.index("v")
    # transitions out of A: 3 to B, 0 to A; out of B: 1 to A (middle of
    # the first sequence); both sequences start in A
    assert model.transition == [[0, 3], [1, 0]] and model.initial == [2, 0]
    # u and v both occur >= 2 times, so both are surface symbols
    assert model.emission[a] == {u: 3} and model.emission[b] == {v: 3}
    initial, transition, emission = probabilities(model)
    assert transition[a][b] == pytest.approx(3.1 / 3.2, abs=1e-12)
    assert transition[a][a] == pytest.approx(0.1 / 3.2, abs=1e-12)
    assert transition[b][a] == pytest.approx(1.1 / 1.2, abs=1e-12)
    assert initial[a] == pytest.approx(2.1 / 2.2, abs=1e-12)
    n_vocab = len(model.vocab)
    assert emission[a][u] == pytest.approx(3.1 / (3 + 0.1 * n_vocab), abs=1e-12)
    assert emission[b][v] == pytest.approx(3.1 / (3 + 0.1 * n_vocab), abs=1e-12)


def test_train_positive_probabilities_with_alpha():
    seq = align_like(["a", "b", "c"], ["title", "title", "issued"])
    model = train_hmm([seq], alpha=0.1)
    for table in probabilities(model):
        assert (table > 0).all()


def test_train_rows_normalized():
    rng = random.Random(3)
    corpus = [
        align_training(annotate(e, s).anno_ref)
        for e in random_corpus(rng, 10)
        for s in load_builtin_styles()[:3]
    ]
    model = train_hmm(corpus, alpha=0.05)
    initial, transition, emission = probabilities(model)
    assert initial.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(transition.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(emission.sum(axis=1), 1.0, atol=1e-9)


def test_train_large_alpha_approaches_uniform():
    # every transition row tends to uniform as alpha dominates the counts
    seq = align_like(["a", "b", "a", "b"], ["A", "B", "A", "B"])
    model = train_hmm([seq], alpha=1e6)
    n = len(model.states)
    assert np.all(np.abs(probabilities(model)[1] - 1.0 / n) <= n * 1e-5)


def test_training_fed_in_any_order_writes_the_same_file(tmp_path):
    rng = random.Random(4)
    corpus = [
        align_training(annotate(e, s).anno_ref)
        for e in random_corpus(rng, 10)
        for s in load_builtin_styles()[:3]
    ]
    shuffled = corpus[:]
    rng.shuffle(shuffled)
    train_hmm(corpus, alpha=0.1).save(tmp_path / "a.json")
    train_hmm(iter(shuffled), alpha=0.1).save(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_train_empty_corpus_raises():
    for corpus in ([], iter([])):
        with pytest.raises(EmptyCorpus, match="corpus is empty"):
            train_hmm(corpus, alpha=0.1)
        # an empty corpus is reported before a bad alpha
        with pytest.raises(EmptyCorpus, match="corpus is empty"):
            train_hmm(corpus, alpha=float("nan"))


def test_train_corpus_of_empty_references_raises():
    empties = [LabelSequence([], []), LabelSequence([], [])]
    for corpus in (empties, iter(empties)):
        with pytest.raises(EmptyCorpus, match="no tokens"):
            train_hmm(corpus, alpha=0.0)
    with pytest.raises(ValueError, match="alpha must be"):
        train_hmm(iter(empties), alpha=float("nan"))


def _traced_training_peak(n_entries, styles):
    """tracemalloc peak (bytes) of training on `n_entries` random entries in
    every style, each reference generated only when train_hmm reads it."""
    rng = random.Random(5)
    entries = (random_entry(rng) for _ in range(n_entries))
    corpus = (
        align_training(cit["annoRef"])
        for record in build_dataset(entries, styles)
        for cit in record.citations
    )
    tracemalloc.start()
    try:
        model = train_hmm(corpus, alpha=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.vocab) > len(BACKOFF_CLASSES)  # the corpus was counted
    return peak


def test_train_memory_follows_the_model_not_the_corpus(styles):
    # 50 -> 200 entries x 10 styles: streamed, the peak grows about 2.0x
    # (counts and vocabulary); a corpus held in a list
    # grows it about 3.3x.
    small = _traced_training_peak(50, styles)
    large = _traced_training_peak(200, styles)
    assert large <= 2.7 * small, (small, large)


def test_rare_surfaces_back_off_to_class():
    seq = align_like(["common", "common", "rare"], ["A", "A", "B"])
    model = train_hmm([seq], alpha=0.1)
    assert "common" in model.vocab
    assert "rare" not in model.vocab
    backoff = backoff_symbol("rare")
    assert backoff in model.vocab


# --- viterbi ------------------------------------------------------------


def random_model(rng, n_states, vocab_size):
    def rows(shape):
        raw = np.array([[rng.random() + 1e-3 for _ in range(shape[1])] for _ in range(shape[0])])
        return raw / raw.sum(axis=1, keepdims=True)

    return HmmModel(
        states=[f"s{i}" for i in range(n_states)],
        vocab=[f"w{i}" for i in range(vocab_size)],
        initial=rows((1, n_states))[0],
        transition=rows((n_states, n_states)),
        emission=rows((n_states, vocab_size)),
        smoothing_alpha=0.0,
    )


def brute_force_decode(model, obs, slack=1e-9):
    """Independent oracle: score every possible state sequence.

    Returns the best score and every sequence within `slack` of it; ties
    are real (repeated observation symbols make distinct paths score
    identically), so the optimum is a set.
    """
    n = len(model.states)
    scored = []
    for seq in itertools.product(range(n), repeat=len(obs)):
        score = math.log(model.initial[seq[0]]) + math.log(model.emission[seq[0], obs[0]])
        for prev, cur, sym in zip(seq, seq[1:], obs[1:]):
            score += math.log(model.transition[prev, cur])
            score += math.log(model.emission[cur, sym])
        scored.append((score, list(seq)))
    best_score = max(score for score, _ in scored)
    optima = [seq for score, seq in scored if score >= best_score - slack]
    return best_score, optima


def fake_tokens(model, obs):
    # token surfaces equal to vocab words, so symbol lookup is direct
    return tokenize(" ".join(model.vocab[i] for i in obs))


def test_viterbi_single_state_model():
    rng = random.Random(1)
    model = random_model(rng, 1, 4)
    obs = [0, 2, 3, 1]
    seq, log_prob = viterbi(model, fake_tokens(model, obs))
    assert seq.labels == ["s0"] * 4
    expected = math.log(model.initial[0]) + sum(
        math.log(model.emission[0, o]) for o in obs
    )
    assert log_prob == pytest.approx(expected, abs=1e-9)


def test_viterbi_matches_brute_force_enumeration():
    rng = random.Random(42)
    unique = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        t = rng.randint(1, 6)
        model = random_model(rng, n, vocab_size=rng.randint(2, 6))
        obs = [rng.randrange(len(model.vocab)) for _ in range(t)]
        seq, log_prob = viterbi(model, fake_tokens(model, obs))
        oracle_score, optima = brute_force_decode(model, obs)
        decoded = [model.states.index(l) for l in seq.labels]
        assert decoded in optima
        assert log_prob == pytest.approx(oracle_score, abs=1e-9)
        if len(optima) == 1:
            unique += 1
            assert decoded == optima[0]
    assert unique > 150  # ties are the exception, not the rule


def test_viterbi_uniform_model_breaks_ties_low():
    n, v = 4, 3
    model = HmmModel(
        states=[f"s{i}" for i in range(n)],
        vocab=[f"w{i}" for i in range(v)],
        initial=np.full(n, 1.0 / n),
        transition=np.full((n, n), 1.0 / n),
        emission=np.full((n, v), 1.0 / v),
        smoothing_alpha=0.0,
    )
    seq, _ = viterbi(model, fake_tokens(model, [0, 1, 2, 0]))
    assert seq.labels == ["s0"] * 4


def test_viterbi_empty_input_raises():
    rng = random.Random(2)
    with pytest.raises(EmptyInput):
        viterbi(random_model(rng, 2, 2), [])


def test_tag_references_refuses_a_batch_with_a_reference_with_no_token():
    model = train_hmm([align_like(["a", "b"], ["title", "title"])])
    assert tag_references(model.decoder, []) == []
    with pytest.raises(EmptyInput):
        tag_references(model.decoder, ["a b", " \t", "b"])
    with pytest.raises(EmptyInput, match="^no tokens to decode$"):
        tag_reference(model, " ")


# --- model io -----------------------------------------------------------


def loadable_model(rng, n_states, n_words):
    """A random model of counts that `HmmModel.load` accepts: canonical
    states and every backoff class in the vocabulary.  Each state counts
    about half the columns and always the last one, so a shorter
    vocabulary puts a column out of range."""
    vocab = [f"w{i}" for i in range(n_words)] + list(BACKOFF_CLASSES)
    v = len(vocab)

    def counts(width):
        return [rng.choice((0, 1, 2, 7, 40)) for _ in range(width)]

    emission = [
        {c: rng.randint(1, 40) for c in sorted(rng.sample(range(v - 1), v // 2)) + [v - 1]}
        for _ in range(n_states)
    ]
    return HmmModel(list(CANONICAL_LABELS[:n_states]), vocab, counts(n_states),
                    [counts(n_states) for _ in range(n_states)], emission, 0.1)


def assert_decoders_equal(got, want):
    for name in ("log_init", "log_trans_t", "log_emis_t"):
        np.testing.assert_array_equal(getattr(got.decoder, name), getattr(want.decoder, name))


def test_model_save_load_round_trip(tmp_path):
    rng = random.Random(7)
    model = loadable_model(rng, 3, 5)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = HmmModel.load(path)
    assert loaded.states == model.states
    assert loaded.vocab == model.vocab
    assert loaded.smoothing_alpha == model.smoothing_alpha
    assert loaded.initial == model.initial
    assert loaded.transition == model.transition
    assert loaded.emission == model.emission
    assert_decoders_equal(loaded, model)
    # save -> load -> save writes the same bytes
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_model_file_holds_only_the_non_zero_emission_counts(tmp_path):
    model = train_hmm([align_like(["a", "b", "a", "b"], ["title", "title", "issued", "title"])])
    model.save(tmp_path / "model.json")
    data = json.loads((tmp_path / "model.json").read_text())
    assert list(data) == ["states", "vocab", "alpha", "initial", "transition",
                          "emission_columns", "emission_counts"]
    a, b = model.vocab.index("a"), model.vocab.index("b")
    # issued emits one "a"; title emits "a" once and "b" twice
    assert data["emission_columns"] == [[a], [a, b]]
    assert data["emission_counts"] == [[1], [1, 2]]


def _corrupt(data, key, index, value):
    table = data[key]
    if isinstance(index, tuple):
        table[index[0]][index[1]] = value
    else:
        table[index] = value


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def _swap_first_columns(data):
    columns = data["emission_columns"][0]
    columns[0], columns[1] = columns[1], columns[0]


def _dense_probabilities(data):
    """The file as earlier versions wrote it: dense smoothed probabilities."""
    model = HmmModel.from_json_dict(data)
    initial, transition, emission = probabilities(model)
    for key in ("emission_columns", "emission_counts"):
        del data[key]
    data.update(initial=initial.tolist(), transition=transition.tolist(),
                emission=emission.tolist())


# id: (corruption of a saved model's JSON, what the error says)
MODEL_CORRUPTIONS = {
    "emission-rows": (lambda d: d["emission_counts"].pop(), "emission_counts must be a list of 3 rows"),
    "transition-rows": (lambda d: d["transition"].pop(), "transition must be a list of 3 rows"),
    "vocab-size": (lambda d: d["vocab"].pop(0), "row 0 must rise strictly and stay below"),
    "state-count": (lambda d: d["states"].pop(), "initial must be a list of 2 counts"),
    "ragged": (lambda d: d["transition"][0].append(0), "transition row 0 must be a list of 3 counts"),
    "lengths-differ": (lambda d: d["emission_counts"][1].pop(), "emission_counts row 1 must be a list of"),
    "string": (lambda d: _corrupt(d, "emission_counts", (0, 0), "x"), "emission_counts row 0 holds 'x'"),
    "nan": (lambda d: _corrupt(d, "transition", (1, 0), float("nan")), "transition row 1 holds nan"),
    "inf": (lambda d: _corrupt(d, "initial", 0, float("inf")), "initial holds inf"),
    "negative": (lambda d: _corrupt(d, "initial", 0, -1), "initial holds -1"),
    "float": (lambda d: _corrupt(d, "initial", 1, 1.5), "initial holds 1.5"),
    "integral-float": (lambda d: _corrupt(d, "transition", (0, 1), 2.0), "transition row 0 holds 2.0"),
    "bool": (lambda d: _corrupt(d, "transition", (0, 0), True), "transition row 0 holds True"),
    "numeric-string": (lambda d: _corrupt(d, "transition", (0, 0), "5"), "transition row 0 holds '5'"),
    "huge-int": (lambda d: _corrupt(d, "emission_counts", (0, 0), 10**400), "not an integer from 0 to 2**53"),
    "oversized": (lambda d: _corrupt(d, "emission_counts", (2, 1), 2**53 + 1), f"emission_counts row 2 holds {2**53 + 1}"),
    "deep-nesting": (lambda d: d.update(initial=_nested(600)), "initial must be a list of 3 counts"),
    "column-out-of-range": (lambda d: _corrupt(d, "emission_columns", (1, -1), len(d["vocab"])), "row 1 must rise strictly and stay below 132"),
    "negative-column": (lambda d: _corrupt(d, "emission_columns", (0, 0), -1), "emission_columns row 0 holds -1"),
    "repeated-column": (lambda d: _corrupt(d, "emission_columns", (2, 1), d["emission_columns"][2][0]), "row 2 must rise strictly"),
    "unsorted-columns": (_swap_first_columns, "row 0 must rise strictly"),
    "dense-probabilities": (_dense_probabilities, "holds dense probabilities, a model format this version no longer reads"),
    "alpha": (lambda d: d.update(alpha=-0.5), "alpha must be a finite number >= 0"),
    "unknown-state": (lambda d: _corrupt(d, "states", 1, "s1"), "not canonical labels: ['s1']"),
    "non-string-state": (lambda d: _corrupt(d, "states", 1, 7), "lists of strings"),
    "backoff-missing": (lambda d: _corrupt(d, "vocab", -1, "renamed"), "lacks 1 backoff"),
    "repeated-state": (lambda d: _corrupt(d, "states", 1, d["states"][0]), "states repeats 'author'"),
    "repeated-symbol": (lambda d: _corrupt(d, "vocab", 1, d["vocab"][0]), "vocab repeats 'w0'"),
    "missing-key": (lambda d: d.pop("alpha"), "needs the keys"),
}


def corrupted_model_file(path, corruption):
    """A saved `loadable_model` with `corruption` applied to its JSON."""
    loadable_model(random.Random(9), 3, 4).save(path)
    data = json.loads(path.read_text())
    corruption(data)
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "corruption,message",
    [pytest.param(*case, id=name) for name, case in MODEL_CORRUPTIONS.items()],
)
def test_model_load_rejects_corrupted_file(tmp_path, corruption, message):
    path = corrupted_model_file(tmp_path / "model.json", corruption)
    with pytest.raises(ValueError) as excinfo:
        HmmModel.load(path)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert message in str(excinfo.value)


def test_model_load_rejects_non_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="needs the keys"):
        HmmModel.load(path)


def test_model_file_keeps_full_precision(tmp_path):
    rng = random.Random(8)
    model = loadable_model(rng, 2, 3)
    model.smoothing_alpha = rng.random()
    model.emission[0][0] = 2**53  # the largest count a file may hold
    model.save(tmp_path / "m.json")
    text = (tmp_path / "m.json").read_text()
    # repr round-trip means >= 15 significant digits survive
    assert repr(model.smoothing_alpha) in text
    loaded = HmmModel.load(tmp_path / "m.json")
    assert loaded.smoothing_alpha == model.smoothing_alpha
    assert loaded.emission[0][0] == 2**53
    assert_decoders_equal(loaded, model)


# --- field concatenation ------------------------------------------------


def test_fields_from_label_runs():
    seq = align_like(
        ["Argon", "C.", "2002.", "A", "decoder"],
        ["author", "author", "issued", "title", "title"],
    )
    fields = fields_from_labels(seq.tokens, seq.labels)
    assert [(f.label, f.value) for f in fields] == [
        ("author", "Argon C."),
        ("year", "2002."),
        ("title", "A decoder"),
    ]


def test_fields_drop_other_runs():
    seq = align_like(["x", "y", "z"], ["other", "title", "other"])
    fields = fields_from_labels(seq.tokens, seq.labels)
    assert [(f.label, f.value) for f in fields] == [("title", "y")]


def test_all_other_decode_gives_no_fields():
    seq = align_like(["x", "y"], ["other", "other"])
    assert fields_from_labels(seq.tokens, seq.labels) == []


def test_field_count_equals_non_other_runs():
    rng = random.Random(11)
    labels_pool = ["author", "title", "other", "issued"]
    for _ in range(50):
        n = rng.randint(1, 30)
        labels = [rng.choice(labels_pool) for _ in range(n)]
        surfaces = [f"t{i}" for i in range(n)]
        seq = align_like(surfaces, labels)
        runs = sum(
            1
            for i, lab in enumerate(labels)
            if lab != "other" and (i == 0 or labels[i - 1] != lab)
        )
        assert len(fields_from_labels(seq.tokens, seq.labels)) == runs


def test_tag_reference_round_trip_with_oracle_model(styles):
    # train on the exact reference set we decode: the model should be able
    # to reproduce each entry's rendered field values
    rng = random.Random(12)
    entries = random_corpus(rng, 60)
    style = styles[1]
    corpus = [align_training(annotate(e, style).anno_ref) for e in entries]
    model = train_hmm(corpus, alpha=0.01)
    hits = total = 0
    for entry, seq in zip(entries, corpus):
        fields, _ = tag_reference(model, " ".join(seq.tokens))
        truth = fields_from_labels(seq.tokens, seq.labels)
        hits += sum(1 for f in fields if f in truth)
        total += len(truth)
    assert hits / total > 0.9


def test_a_model_takes_attribute_assignment_and_builds_its_decoder_once(monkeypatch):
    import citeforge.hmm as hmm

    built, decoder_type = [], hmm.Decoder

    def counting_decoder(*args):
        built.append(args)
        return decoder_type(*args)

    monkeypatch.setattr(hmm, "Decoder", counting_decoder)
    model = loadable_model(random.Random(5), 3, 4)
    saved = []
    model.save = saved.append  # as a traced run shadows the instance's method
    model.save("model.json")
    assert saved == ["model.json"]
    first = model.decoder
    assert tag_reference(model, "w0 w1") and model.decoder is first
    tag_references(model.decoder, ["w2", "w3 w0"])
    assert len(built) == 1

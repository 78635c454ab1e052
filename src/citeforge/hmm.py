"""Label-sequence HMM: training from annotated references and Viterbi
decoding of new ones.

States are field labels, and a token is its surface string.  Its
observation, picked by `_symbol_column` alone, is its lowercased surface
when seen at least twice in training, else its orthographic backoff
symbol.  Decoding is log-space Viterbi, O(T*N^2), with ties broken
toward the lower state index so output is reproducible.

`train_hmm` reads its corpus in one pass, from any iterable (a generator
will do), and keeps only counts keyed by label and surface, so
its memory follows the model, not the corpus.

A model is its counts.  Training and loading are pure Python and only
count or read: the initial and transition counts, and each state's
non-zero emission counts, which `model.json` holds as parallel lists of
columns and counts, so the file grows with the non-zero counts and not
with states x vocabulary.  numpy is imported only when a model decodes:
its `decoder`, the states, the symbol index and the three log tables, is
built once, on the first decode, each row as `(count + alpha) / row total`
(uniform where a row has no mass), so `train` and `load` never pay that
import.  `tag` holds only that decoder, so the counts a model file loads
into are freed before the first reference is decoded.  `HmmModel.load`
raises ValueError on a file that is not a model of counts: a missing key,
states or vocab that are not distinct strings, a state that is not a
canonical label, a backoff class missing from the vocabulary, a count
that is not an integer from 0 to 2**53 (a bool is not one), a row of the
wrong length, an emission column out of range or out of increasing
order, and a model of dense probabilities, the format of earlier
versions.

Decoding is batched: `decode_batch` runs the max-plus Viterbi recursion
(Rabiner 1989) over many sequences at once, one numpy step per position
for the whole batch, and `viterbi`, `tag_reference` and `tag_references`
are all calls of it.  `tag_references` maps each token straight to its
symbol column.  It splits references on `tokens.WORD` and refuses a
batch holding one with no match (EmptyInput); the CLI's `tag` checks
each dataset row against the same pattern as it reads it, so it names
the row before the batch reaches the decoder.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from itertools import chain, groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .annotation import parse_annotation
from .jsonfile import read_json, write_text
from .labels import LABEL_SET, ExtractedField, check_nonnegative, field_for_label
from .tokens import BACKOFF_CLASSES, WORD, backoff_symbol

if TYPE_CHECKING:
    import numpy as np

    Weights = list[int] | list[list[int]] | list[dict[int, int]] | np.ndarray

MIN_SURFACE_FREQ = 2
MODEL_KEYS = (
    "states", "vocab", "alpha", "initial", "transition",
    "emission_columns", "emission_counts",
)
# The largest count a float holds exactly, with every integer below it.
MAX_COUNT = 2**53


class EmptyCorpus(ValueError):
    pass


class EmptyInput(ValueError):
    """A reference with no token to decode."""


class LabelSequence:
    def __init__(self, tokens: list[str], labels: list[str]):
        if len(tokens) != len(labels):
            raise ValueError("tokens and labels differ in length")
        self.tokens, self.labels = tokens, labels


class HmmModel:
    """Row weights plus the smoothing `alpha` decoding adds to each cell.
    `train_hmm` and `load` give counts: `initial` (N,), `transition` (N, N)
    and, per state, an `emission` dict of its non-zero counts by column.
    Dense weights (lists or ndarrays) decode alike: with alpha 0, a table
    of probabilities decodes as itself.  Only a model of counts is saved;
    the tables are treated as fixed after construction."""

    def __init__(
        self,
        states: list[str],
        vocab: list[str],
        initial: Weights,  # (N,)
        transition: Weights,  # (N, N)
        emission: Weights,  # (N, V)
        smoothing_alpha: float,
    ):
        self.states, self.vocab, self.smoothing_alpha = states, vocab, smoothing_alpha
        self.initial, self.transition, self.emission = initial, transition, emission
        self._sym_index = {sym: i for i, sym in enumerate(vocab)}

    @cached_property
    def decoder(self) -> Decoder:
        """What decoding reads of this model, built on the first decode
        and read by every later one."""
        import numpy as np

        emission = np.zeros((len(self.states), len(self.vocab)))
        for row, weights in zip(emission, self.emission):
            if isinstance(weights, dict):
                row[list(weights)] = list(weights.values())
            else:
                row[:] = weights
        log_init, log_trans, log_emis = (
            _log_probabilities(np, np.asarray(t, dtype=float) + self.smoothing_alpha)
            for t in (self.initial, self.transition, emission)
        )
        return Decoder(
            self.states,
            self._sym_index,
            log_init,
            np.ascontiguousarray(log_trans.T),
            np.ascontiguousarray(log_emis.T),
        )

    def symbol_index(self, token: str) -> int:
        return _symbol_column(self._sym_index, token)

    def save(self, path: str | Path) -> None:
        """Write the counts; each state's emission counts are two parallel
        lists, its columns in increasing order and their counts."""
        emission = [sorted(row.items()) for row in self.emission]
        data = {
            "states": self.states,
            "vocab": self.vocab,
            "alpha": self.smoothing_alpha,
            "initial": self.initial,
            "transition": self.transition,
            "emission_columns": [[col for col, _ in row] for row in emission],
            "emission_counts": [[count for _, count in row] for row in emission],
        }
        write_text(path, json.dumps(data))

    @classmethod
    def load(cls, path: str | Path) -> "HmmModel":
        """Read a model written by `save`; a file that is not a valid model
        raises ValueError naming the file and the first problem found."""
        return read_json(path, cls.from_json_dict)

    @classmethod
    def from_json_dict(cls, data: dict) -> "HmmModel":
        if isinstance(data, dict) and "emission" in data:
            raise ValueError(
                "holds dense probabilities, a model format this version no "
                "longer reads; train the model again"
            )
        if not isinstance(data, dict) or any(k not in data for k in MODEL_KEYS):
            raise ValueError(f"model file needs the keys {', '.join(MODEL_KEYS)}")
        states, vocab = data["states"], data["vocab"]
        if not all(
            isinstance(x, list) and all(isinstance(w, str) for w in x)
            for x in (states, vocab)
        ):
            raise ValueError("states and vocab must be lists of strings")
        for name, symbols in (("states", states), ("vocab", vocab)):
            repeats = [s for s, count in Counter(symbols).items() if count > 1]
            if repeats:
                raise ValueError(f"{name} repeats {repeats[0]!r}")
        check_nonnegative("alpha", data["alpha"])
        n, v = len(states), len(vocab)
        _counts("initial", data["initial"], n)
        transition, columns, counts = (
            _rows(name, data[name], n)
            for name in ("transition", "emission_columns", "emission_counts")
        )
        for i, row in enumerate(transition):
            _counts(f"transition row {i}", row, n)
        for i, (cols, row) in enumerate(zip(columns, counts)):
            _counts(f"emission_columns row {i}", cols)
            if not all(a < b for a, b in zip(cols, [*cols[1:], v])):
                raise ValueError(
                    f"emission_columns row {i} must rise strictly and stay "
                    f"below {v}, the vocabulary size"
                )
            _counts(f"emission_counts row {i}", row, len(cols))
        unknown = [s for s in states if s not in LABEL_SET]
        if unknown:
            raise ValueError(f"states are not canonical labels: {unknown}")
        missing = set(BACKOFF_CLASSES) - set(vocab)
        if missing:
            raise ValueError(
                f"vocabulary lacks {len(missing)} backoff classes, "
                f"e.g. {min(missing)!r}"
            )
        emission = [dict(zip(cols, row)) for cols, row in zip(columns, counts)]
        return cls(states, vocab, data["initial"], transition, emission, data["alpha"])


class Decoder(NamedTuple):
    """A model's states, symbol index and log tables: all that decoding
    reads.  The transition and emission logs are stored transposed, so one
    row holds what a step reads for one target state or one symbol."""

    states: list[str]
    sym_index: dict[str, int]
    log_init: np.ndarray  # (N,)
    log_trans_t: np.ndarray  # (N to, N from)
    log_emis_t: np.ndarray  # (V, N)


def align_training(anno_ref: str) -> LabelSequence:
    """Token/label pairs out of one annotated reference.

    The plain text is tokenized as the tagger will see it; each token takes
    the label whose span covers the majority of its characters (name parts
    count as author), and tokens outside every span get `other`.
    """
    plain, spans = parse_annotation(anno_ref)
    tokens, labels = [], []
    # Tokens and spans are both sorted and non-overlapping, so one sweep
    # visits each token's overlapping spans in order; a span that ends at
    # or before a token's start covers no later token either.
    first = 0
    for m in WORD.finditer(plain):
        tok_start, tok_end = m.span()
        while first < len(spans) and spans[first][2] <= tok_start:
            first += 1
        best, best_cover = "other", 0
        for label, start, end in islice(spans, first, None):
            if start >= tok_end:
                break
            cover = min(tok_end, end) - max(tok_start, start)
            if cover > best_cover:
                best, best_cover = label, cover
        tokens.append(m[0])
        labels.append(best)
    return LabelSequence(tokens, labels)


def _symbol_column(sym_index: dict[str, int], surface: str) -> int:
    """Column of a surface's emission symbol: its lowercased form when in
    the vocabulary, else (rare or unseen) its orthographic backoff class."""
    idx = sym_index.get(surface.lower())
    if idx is None:
        idx = sym_index[backoff_symbol(surface)]
    return idx


def _rows(name: str, value, n: int) -> list:
    """`value` if it is a list of one row per state."""
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"{name} must be a list of {n} rows, one per state")
    return value


def _counts(name: str, row, width: int | None = None) -> None:
    """ValueError unless `row` is a list (of `width` items, when given) of
    counts: ints, not bools, from 0 to MAX_COUNT."""
    if not isinstance(row, list) or width not in (None, len(row)):
        size = "" if width is None else f"{width} "
        raise ValueError(f"{name} must be a list of {size}counts")
    for c in row:
        if type(c) is not int or not 0 <= c <= MAX_COUNT:
            raise ValueError(f"{name} holds {c!r}, not an integer from 0 to 2**53")


def _log_probabilities(np, weights):
    """Log of each row of `weights` over the row's total; a row with no
    mass (only reachable with alpha=0) is uniform."""
    totals = weights.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(np.where(totals > 0, weights / totals, 1.0 / weights.shape[-1]))


def train_hmm(corpus: Iterable[LabelSequence], alpha: float = 0.1) -> HmmModel:
    """Count-based HMM estimation with Laplace smoothing `alpha`.

    One pass over any iterable of sequences (a generator will do) counts
    first labels, label steps and (label, surface) emissions; the
    model is derived from those counts alone, so memory follows the
    model's size, not the corpus's.  The emission vocabulary is every
    lowercased surface with corpus frequency >= 2 plus the full set of
    backoff classes, so any token maps to some column at decode time.
    """
    sequences = iter(corpus)
    first = next(sequences, None)
    if first is None:
        raise EmptyCorpus("training corpus is empty")
    check_nonnegative("alpha", alpha)

    starts, steps, emits = Counter(), Counter(), Counter()
    for seq in chain([first], sequences):
        starts.update(seq.labels[:1])
        steps.update(zip(seq.labels, seq.labels[1:]))
        emits.update(zip(seq.labels, seq.tokens))
    states = sorted({label for label, _ in emits})
    if not states:
        raise EmptyCorpus("training corpus has no tokens")
    surface_freq = Counter()
    for (_, surface), count in emits.items():
        surface_freq[surface.lower()] += count
    kept = sorted(s for s, n in surface_freq.items() if n >= MIN_SURFACE_FREQ)
    vocab = kept + list(BACKOFF_CLASSES)
    sym_index = {sym: i for i, sym in enumerate(vocab)}
    state_index = {s: i for i, s in enumerate(states)}

    emission = [Counter() for _ in states]
    for (label, surface), count in emits.items():
        emission[state_index[label]][_symbol_column(sym_index, surface)] += count
    return HmmModel(
        states=states,
        vocab=vocab,
        initial=[starts[s] for s in states],
        transition=[[steps[prev, cur] for cur in states] for prev in states],
        emission=emission,
        smoothing_alpha=alpha,
    )


def decode_batch(
    dec: Decoder, columns: list[list[int]]
) -> list[tuple[list[int], float]]:
    """Most probable state path (state indices) and its log-probability for
    each non-empty sequence of emission columns, in input order.

    Log-space Viterbi over the whole batch at once.  The sequences are
    decoded longest first, so those still running at step t are a prefix
    of the batch; each keeps the `delta` of its own last step.  At every
    argmax, equal scores resolve to the lower state index.
    """
    import numpy as np

    if not columns:
        return []
    order = sorted(range(len(columns)), key=lambda i: -len(columns[i]))
    lengths = [len(columns[i]) for i in order]
    t_len, n = lengths[0], len(dec.states)
    obs = np.zeros((len(order), t_len), dtype=np.intp)
    for row, i in enumerate(order):
        obs[row, : lengths[row]] = columns[i]

    delta = dec.log_init + dec.log_emis_t[obs[:, 0]]  # (B, N)
    back_type = np.min_scalar_type(n - 1)
    back = []  # back[t - 1]: best predecessor of each state at step t
    b = len(order)  # sequences longer than t: the first b
    for t in range(1, t_len):
        while lengths[b - 1] <= t:
            b -= 1
        scores = delta[:b, None, :] + dec.log_trans_t  # (b, to, from)
        best = scores.argmax(axis=2)  # first max = lowest
        back.append(best.astype(back_type))
        # The max is the element at the argmax: one reduction, not two.
        best_scores = np.take_along_axis(scores, best[..., None], 2)[..., 0]
        np.add(best_scores, dec.log_emis_t[obs[:b, t]], out=delta[:b])

    last = delta.argmax(axis=1)
    log_probs = delta[np.arange(len(order)), last].tolist()
    paths = np.empty((len(order), t_len), dtype=back_type)
    state = last.astype(back_type)
    for t in range(t_len - 1, 0, -1):
        b = len(back[t - 1])
        paths[:b, t] = state[:b]
        state[:b] = back[t - 1][np.arange(b), state[:b]]
    paths[:, 0] = state

    decoded = [None] * len(order)
    for row, (i, path) in enumerate(zip(order, paths.tolist())):
        decoded[i] = path[: lengths[row]], log_probs[row]
    return decoded


def viterbi(model: HmmModel, tokens: list[str]) -> tuple[LabelSequence, float]:
    """Most probable state sequence and its log-probability: `decode_batch`
    of one sequence."""
    if not tokens:
        raise EmptyInput("no tokens to decode")
    dec = model.decoder
    [(path, log_prob)] = decode_batch(
        dec, [[_symbol_column(dec.sym_index, tok) for tok in tokens]]
    )
    return LabelSequence(list(tokens), [dec.states[i] for i in path]), log_prob


def fields_from_labels(tokens: list[str], labels: Iterable[str]) -> list[ExtractedField]:
    """Concatenate maximal runs of one label into (field, value) pairs.

    `other` runs are dropped; tokens join with single spaces; labels map
    to their BibTeX field names.
    """
    return [
        ExtractedField(field_for_label(label), " ".join(tok for tok, _ in run))
        for label, run in groupby(zip(tokens, labels), key=itemgetter(1))
        if label != "other"
    ]


def tag_references(
    dec: Decoder, references: list[str]
) -> list[tuple[list[ExtractedField], float]]:
    """Decode a batch of reference strings, each into extracted fields plus
    the decode log-probability, in input order.

    Each reference splits into the tokens `tokenize` would give, and each
    maps straight to its symbol column.  A reference with no token raises
    EmptyInput.
    """
    surfaces = [WORD.findall(reference) for reference in references]
    if not all(surfaces):
        raise EmptyInput("no tokens to decode")
    columns = [[_symbol_column(dec.sym_index, w) for w in words] for words in surfaces]
    return [
        (fields_from_labels(words, map(dec.states.__getitem__, path)), log_prob)
        for words, (path, log_prob) in zip(surfaces, decode_batch(dec, columns))
    ]


def tag_reference(model: HmmModel, reference: str) -> tuple[list[ExtractedField], float]:
    """Decode one reference string into extracted fields plus the decode
    log-probability: `tag_references` of one reference."""
    return tag_references(model.decoder, [reference])[0]

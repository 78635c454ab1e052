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

Training and loading are pure Python: `train_hmm` and `HmmModel.load`
give the initial, transition and emission tables as nested lists of
floats.  Each row is normalized by a total summed in numpy's pairwise
order (`pairwise_sum`), so the saved model is the same, byte for byte,
as one estimated with numpy.  A model also accepts ndarray tables and
keeps whatever it is given; the tables are treated as fixed after
construction.  numpy is imported only when a model decodes: its
`decoder`, the states, the symbol index and the three log tables, is
built once, on the first decode, so `train` and `load` never pay that
import.  `tag` holds only that decoder, so the nested lists a model
file loads into are freed before the first reference is decoded.
`HmmModel.load` validates a model file (shapes, finite numeric
probabilities, rows summing to 1, canonical states, every backoff class
in the vocabulary) and raises ValueError on a bad one.

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
import math
from collections import Counter
from functools import cached_property, reduce
from itertools import chain, groupby, islice
from operator import add, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .annotation import parse_annotation
from .evaluate import ExtractedField, check_nonnegative
from .jsonfile import read_json, write_text
from .labels import LABEL_SET, field_for_label
from .tokens import BACKOFF_CLASSES, WORD, backoff_symbol

if TYPE_CHECKING:
    import numpy as np

    Table = list[float] | list[list[float]] | np.ndarray

MIN_SURFACE_FREQ = 2


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
    def __init__(
        self,
        states: list[str],
        vocab: list[str],
        initial: Table,  # (N,)
        transition: Table,  # (N, N)
        emission: Table,  # (N, V)
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

        with np.errstate(divide="ignore"):
            log_init, log_trans, log_emis = (
                np.log(np.asarray(t, dtype=float))
                for t in (self.initial, self.transition, self.emission)
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
        data = {
            "states": self.states,
            "vocab": self.vocab,
            "alpha": self.smoothing_alpha,
            "initial": [float(p) for p in self.initial],
            "transition": [[float(p) for p in row] for row in self.transition],
            "emission": [[float(p) for p in row] for row in self.emission],
        }
        write_text(path, json.dumps(data))

    @classmethod
    def load(cls, path: str | Path) -> "HmmModel":
        """Read a model written by `save`; a file that is not a valid model
        raises ValueError naming the file and the first problem found."""
        return read_json(path, cls.from_json_dict)

    @classmethod
    def from_json_dict(cls, data: dict) -> "HmmModel":
        keys = ("states", "vocab", "alpha", "initial", "transition", "emission")
        if not isinstance(data, dict) or any(k not in data for k in keys):
            raise ValueError(f"model file needs the keys {', '.join(keys)}")
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
        try:
            tables = {
                k: _numeric_table(data[k]) for k in ("initial", "transition", "emission")
            }
        except (ValueError, RecursionError) as exc:  # ragged, non-numeric, too deep
            raise ValueError(
                "probability tables are not rectangular numeric arrays"
            ) from exc
        check_nonnegative("alpha", data["alpha"])
        n, v = len(states), len(vocab)
        expected = {"initial": (n,), "transition": (n, n), "emission": (n, v)}
        for name, (shape, table) in tables.items():
            if shape != expected[name]:
                raise ValueError(
                    f"{name} has shape {shape}, expected "
                    f"{expected[name]} for {n} states and {v} symbols"
                )
            rows = [table] if len(shape) == 1 else table
            if not all(math.isfinite(p) and p >= 0 for row in rows for p in row):
                raise ValueError(f"{name} has negative or non-finite values")
            # np.allclose(row_sums, 1.0): |sum - 1| <= atol + rtol * 1
            if not all(abs(pairwise_sum(row) - 1.0) <= 1e-8 + 1e-5 for row in rows):
                raise ValueError(f"{name} rows do not sum to 1")
        unknown = [s for s in states if s not in LABEL_SET]
        if unknown:
            raise ValueError(f"states are not canonical labels: {unknown}")
        missing = set(BACKOFF_CLASSES) - set(vocab)
        if missing:
            raise ValueError(
                f"vocabulary lacks {len(missing)} backoff classes, "
                f"e.g. {min(missing)!r}"
            )
        return cls(
            states=states,
            vocab=vocab,
            initial=tables["initial"][1],
            transition=tables["transition"][1],
            emission=tables["emission"][1],
            smoothing_alpha=data["alpha"],
        )


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


def _numeric_table(value) -> tuple[tuple[int, ...], list]:
    """Shape and float contents of a JSON table, as `np.array(value,
    dtype=float)` would read it, except that every entry must be a JSON
    number (not a bool, string or null).  ValueError if the nesting is
    ragged or an entry is not a number."""
    if isinstance(value, list):
        if all(type(x) is float for x in value):
            return (len(value),), value  # a row as `save` writes it
        parts = [_numeric_table(x) for x in value]
        shapes = {shape for shape, _ in parts}
        if len(shapes) > 1:
            raise ValueError("ragged nesting")
        inner = shapes.pop() if shapes else ()
        return (len(value), *inner), [part for _, part in parts]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return (), float(value)
        except OverflowError as exc:
            raise ValueError(f"{value} does not fit a float") from exc
    raise ValueError(f"{value!r} is not a number")


def pairwise_sum(xs: list[float]) -> float:
    """Sum of `xs` added in the order numpy's pairwise summation uses, so
    the total equals `np.sum` bit for bit.

    Below 8 values a plain loop; up to 128, eight running sums over
    interleaved values, combined pairwise, then the tail; above 128, the
    two halves split at `n // 2` rounded down to a multiple of 8.
    """
    n = len(xs)
    if n < 8:
        return reduce(add, xs, 0.0)
    if n <= 128:
        end = n - n % 8
        r = [reduce(add, xs[j:end:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, xs[end:], total)
    half = n // 2
    half -= half % 8
    return pairwise_sum(xs[:half]) + pairwise_sum(xs[half:])


def _normalize_row(counts: list[float], alpha: float) -> list[float]:
    """Smoothed counts scaled to sum to 1; a row with no mass at all falls
    back to uniform (only reachable with alpha=0)."""
    row = [c + alpha for c in counts]
    total = pairwise_sum(row)
    if total > 0:
        return [c / total for c in row]
    return [1.0 / len(row)] * len(row)


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

    # Counts are integers held in floats, so the order of the additions
    # cannot change a row.
    emission = [[0.0] * len(vocab) for _ in states]
    for (label, surface), count in emits.items():
        emission[state_index[label]][_symbol_column(sym_index, surface)] += count
    return HmmModel(
        states=states,
        vocab=vocab,
        initial=_normalize_row([float(starts[s]) for s in states], alpha),
        transition=[
            _normalize_row([float(steps[prev, cur]) for cur in states], alpha)
            for prev in states
        ],
        emission=[_normalize_row(row, alpha) for row in emission],
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

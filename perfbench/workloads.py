"""Seeded inputs, CLI stage chains and output checks of the three workloads.

Every input is generated from the workload seed before any timing starts;
citeforge only ever sees the generated files.  The checks here read what a
chain wrote and raise CheckFailed on the first mismatch.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from citeforge.annotation import strip_tags
from citeforge.bibtex import serialize_entry
from citeforge.dataset import build_dataset, export, load_jsonl
from citeforge.styles import load_builtin_styles
from citeforge.synth import (
    TITLE_OPENERS,
    homepage_misc_entry,
    random_bibtex_file,
    random_corpus,
)

WORKLOADS = ("pipeline", "tag_stream", "corpus_build")

# Seed handed to the `split` stage; the workload seed varies the corpus.
SPLIT_SEED = 42


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Sizes:
    pipeline_entries: int = 300
    stream_train_entries: int = 60
    stream_heldout_entries: int = 2000
    stream_pool_words: int = 20000
    corpus_entries: int = 1500


FULL = Sizes()
# Small enough for the self-test to run every chain in a few seconds.
TINY = Sizes(
    pipeline_entries=12,
    stream_train_entries=8,
    stream_heldout_entries=20,
    stream_pool_words=500,
    corpus_entries=20,
)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# --------------------------------------------------------------- inputs


def _pseudo_words(rng: random.Random, n: int) -> list[str]:
    """n distinct pronounceable words, in generation order (a set's order
    would depend on the interpreter's hash seed)."""
    onsets = ("", "b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "j",
              "k", "kl", "l", "m", "n", "p", "pr", "qu", "r", "s", "sh", "st",
              "t", "th", "tr", "v", "w", "z")
    vowels = ("a", "e", "i", "o", "u", "ae", "io", "ou", "y")
    codas = ("", "", "n", "r", "s", "l", "m", "nd", "rt", "st", "x")
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        word = "".join(
            rng.choice(onsets) + rng.choice(vowels) + rng.choice(codas)
            for _ in range(rng.randint(2, 4))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _pool_entries(rng: random.Random, n: int, pool: list[str]):
    """synth entries whose names and titles are redrawn from `pool`, so most
    surfaces are rare and decode through their backoff class."""
    entries = random_corpus(rng, n)
    for entry in entries:
        names = []
        for _ in range(rng.choice((1, 2, 2, 3))):
            surname, given = rng.choice(pool).title(), rng.choice(pool).title()
            names.append(f"{surname}, {given}")
        entry.fields["author"] = " and ".join(names)
        words = rng.sample(pool, rng.randint(4, 9))
        entry.fields["title"] = " ".join([rng.choice(TITLE_OPENERS)] + words)
    return entries


def make_inputs(workload: str, seed: int, work: Path, sizes: Sizes) -> dict:
    """Write the workload's input files into `work`; returns input sizes."""
    rng = random.Random(seed)
    if workload == "pipeline":
        text = random_bibtex_file(rng, sizes.pipeline_entries)
        (work / "corpus.bib").write_text(text, encoding="utf-8")
        return {"entries": sizes.pipeline_entries, "bibtex_bytes": len(text.encode())}
    if workload == "corpus_build":
        # DBLP-style homepage stubs give `clean` something to drop.
        stubs = [homepage_misc_entry(rng) for _ in range(sizes.corpus_entries // 50)]
        text = random_bibtex_file(rng, sizes.corpus_entries)
        text += "\n" + "\n\n".join(serialize_entry(s) for s in stubs) + "\n"
        (work / "corpus.bib").write_text(text, encoding="utf-8")
        return {
            "entries": sizes.corpus_entries + len(stubs),
            "bibtex_bytes": len(text.encode()),
        }
    if workload == "tag_stream":
        pool = _pseudo_words(rng, sizes.stream_pool_words)
        entries = _pool_entries(
            rng, sizes.stream_train_entries + sizes.stream_heldout_entries, pool
        )
        styles = load_builtin_styles()
        train = entries[: sizes.stream_train_entries]
        heldout = entries[sizes.stream_train_entries :]
        export(build_dataset(train, styles), "jsonl", work / "train.jsonl")
        # One style per held-out entry, in turn: each pool word is rendered
        # once rather than once per style, so surfaces repeat little.
        records = [
            record
            for i, entry in enumerate(heldout)
            for record in build_dataset([entry], [styles[i % len(styles)]])
        ]
        export(records, "jsonl", work / "heldout.jsonl")
        return {
            "entries": len(entries),
            "train_entries": len(train),
            "heldout_entries": len(heldout),
            "pool_words": len(pool),
        }
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------- chains


def chain(workload: str) -> list[tuple[str, list[str]]]:
    """(stage, CLI arguments) in run order; paths are relative to the work
    directory the stages run in."""
    if workload == "pipeline":
        return [
            ("parse", ["parse", "--in", "corpus.bib", "--out", "parsed.bib"]),
            ("build", ["build", "--in", "parsed.bib", "--out", "dataset.jsonl"]),
            ("split", ["split", "--in", "dataset.jsonl", "--seed", str(SPLIT_SEED),
                       "--out", "split.json"]),
            ("train", ["train", "--in", "dataset.jsonl", "--split", "split.json",
                       "--out", "model.json"]),
            ("tag", ["tag", "--in", "dataset.jsonl", "--split", "split.json",
                     "--model", "model.json", "--out", "tagged.jsonl"]),
            ("evaluate", ["evaluate", "--in", "tagged.jsonl", "--dataset",
                          "dataset.jsonl", "--split", "split.json",
                          "--out", "report.json"]),
        ]
    if workload == "tag_stream":
        return [
            ("train", ["train", "--in", "train.jsonl", "--out", "model.json"]),
            ("tag", ["tag", "--in", "heldout.jsonl", "--model", "model.json",
                     "--out", "tagged.jsonl"]),
            ("evaluate", ["evaluate", "--in", "tagged.jsonl", "--dataset",
                          "heldout.jsonl", "--out", "report.json"]),
        ]
    if workload == "corpus_build":
        return [
            ("parse", ["parse", "--in", "corpus.bib", "--out", "parsed.bib"]),
            ("clean", ["clean", "--in", "parsed.bib", "--out", "clean.bib"]),
            ("stats", ["stats", "--in", "clean.bib", "--out", "stats.txt"]),
            ("build", ["build", "--in", "clean.bib", "--out", "dataset.jsonl",
                       "--format", "jsonl"]),
            ("build", ["build", "--in", "clean.bib", "--out", "dataset.csv",
                       "--format", "csv"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Files the chain reads that the benchmark generated.
INPUTS = {
    "pipeline": ("corpus.bib",),
    "tag_stream": ("train.jsonl", "heldout.jsonl"),
    "corpus_build": ("corpus.bib",),
}

# Files whose sha256 must repeat across reps and runs of one seed.
OUTPUTS = {
    "pipeline": ("parsed.bib", "dataset.jsonl", "split.json", "model.json",
                 "tagged.jsonl", "report.json"),
    "tag_stream": ("train.jsonl", "heldout.jsonl", "model.json", "tagged.jsonl",
                   "report.json"),
    "corpus_build": ("parsed.bib", "clean.bib", "stats.txt", "dataset.jsonl",
                     "dataset.csv"),
}

# The dataset the `tag` stage reads and which of its ids it tags.
EVAL_DATASET = {"pipeline": "dataset.jsonl", "tag_stream": "heldout.jsonl"}


def output_digests(workload: str, work: Path) -> dict[str, str]:
    return {name: sha256_file(work / name) for name in OUTPUTS[workload]}


def eval_citations(workload: str, work: Path) -> list[tuple[str, str]]:
    """(id, style) of every citation the `tag` stage should emit a row for."""
    keep = None
    if workload == "pipeline":
        split = json.loads((work / "split.json").read_text(encoding="utf-8"))
        keep = set(split["eval_ids"])
    return [
        (record.id, cit["style"])
        for record in load_jsonl(work / EVAL_DATASET[workload])
        if keep is None or record.id in keep
        for cit in record.citations
    ]


def input_sizes(workload: str, work: Path, generated: dict, seen: dict) -> dict:
    """Entries, citations, references sent to train and tag, and the
    whitespace tokens of the dataset's references."""
    dataset = work / ("heldout.jsonl" if workload == "tag_stream" else "dataset.jsonl")
    tokens = sum(
        len(cit["bibRef"].split())
        for record in load_jsonl(dataset)
        for cit in record.citations
    )
    sizes = dict(generated, citations=seen["citations"], tokens=tokens,
                 train_refs=0, tag_refs=0)
    if workload in EVAL_DATASET:
        sizes["tag_refs"] = len(eval_citations(workload, work))
        sizes["train_refs"] = _train_refs(workload, work)
    return sizes


def _train_refs(workload: str, work: Path) -> int:
    if workload == "tag_stream":
        return sum(len(r.citations) for r in load_jsonl(work / "train.jsonl"))
    split = json.loads((work / "split.json").read_text(encoding="utf-8"))
    train_ids = set(split["train_ids"])
    return sum(
        len(r.citations) for r in load_jsonl(work / "dataset.jsonl") if r.id in train_ids
    )



# --------------------------------------------------------------- checks


def check_round_trip_jsonl(path: Path) -> int:
    """strip_tags(annoRef) == bibRef for every citation; returns the count."""
    n = 0
    for record in load_jsonl(path):
        for cit in record.citations:
            if strip_tags(cit["annoRef"]) != cit["bibRef"]:
                raise CheckFailed(
                    f"{path.name}: {record.id}/{cit['style']}: "
                    "annoRef does not strip to bibRef"
                )
            n += 1
    if n == 0:
        raise CheckFailed(f"{path.name}: no citations")
    return n


def check_round_trip_csv(path: Path) -> int:
    n = 0
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if strip_tags(row["annoRef"]) != row["bibRef"]:
                raise CheckFailed(
                    f"{path.name}: {row['id']}/{row['style']}: "
                    "annoRef does not strip to bibRef"
                )
            n += 1
    if n == 0:
        raise CheckFailed(f"{path.name}: no citations")
    return n


def check_tagged(workload: str, work: Path) -> int:
    """One tagged row per eval citation, no more, no fewer."""
    expected = eval_citations(workload, work)
    got = []
    with open(work / "tagged.jsonl", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                got.append((row.get("id"), row.get("style")))
    if len(got) != len(expected):
        raise CheckFailed(
            f"tagged.jsonl: {len(got)} rows for {len(expected)} eval citations"
        )
    if sorted(got) != sorted(expected):
        raise CheckFailed("tagged.jsonl: rows do not match the eval citations")
    return len(got)


def check_report(work: Path) -> dict:
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    if report["missing_ground_truth"] != 0:
        raise CheckFailed(
            f"report.json: missing_ground_truth = {report['missing_ground_truth']}"
        )
    return report


def check_outputs(workload: str, work: Path) -> dict:
    """Every output check of one chain; returns the counts they saw."""
    seen: dict = {}
    if workload == "corpus_build":
        seen["citations"] = check_round_trip_jsonl(work / "dataset.jsonl")
        if check_round_trip_csv(work / "dataset.csv") != seen["citations"]:
            raise CheckFailed("dataset.csv and dataset.jsonl differ in citations")
        return seen
    if workload == "pipeline":
        seen["citations"] = check_round_trip_jsonl(work / "dataset.jsonl")
    else:
        seen["train_citations"] = check_round_trip_jsonl(work / "train.jsonl")
        seen["citations"] = check_round_trip_jsonl(work / "heldout.jsonl")
    seen["tagged"] = check_tagged(workload, work)
    seen["f1_micro"] = check_report(work)["overall"]["f1"]
    return seen

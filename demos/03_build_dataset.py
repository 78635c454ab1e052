"""Building, exporting and splitting a citation dataset.

Run:  python demos/03_build_dataset.py
"""

import random
import tempfile
from pathlib import Path

from citeforge import BuildStats, build_dataset, dataset_stats, export, load_jsonl, split_dataset
from citeforge.styles import load_builtin_styles
from citeforge.synth import random_corpus

rng = random.Random(42)
entries = random_corpus(rng, 120, source_tag="synthetic")
styles = load_builtin_styles()

# One record per entry; each record cites every style. Entries stream
# through one at a time, so memory stays flat however large the corpus is.
stats = BuildStats()
records = list(build_dataset(entries, styles, stats=stats))
print(f"built {stats.records} records, {stats.citations} citations "
      f"({stats.skipped_renders} skipped renders)")

record = records[0]
print(f"record {record.id}: {len(record.citations)} citations, "
      f"fields {sorted(record.bib_fields)}")

workdir = Path(tempfile.mkdtemp())

# JSON Lines is the primary format; CSV flattens to one row per citation.
jsonl_path = workdir / "dataset.jsonl"
checksum = export(records, "jsonl", jsonl_path)
print(f"wrote {jsonl_path.name}  sha256 {checksum[:16]}…")
export(records, "csv", workdir / "dataset.csv")

# Reloading reproduces the records exactly.
assert list(load_jsonl(jsonl_path)) == records

# Deterministic 66/33 split: same seed, same manifest, every id on exactly
# one side.
manifest = split_dataset(records, seed=42)
print(f"split with seed 42: {len(manifest.train_ids)} train, "
      f"{len(manifest.eval_ids)} eval")
assert split_dataset(records, seed=42) == manifest

# Field and type count tables over the built records.
print()
print(dataset_stats(records))

"""The benchmark's traced pass still runs against this source tree: it
wraps and reads names of citeforge (`cli.tag_reference`, `tokenize`,
`viterbi`, `HmmModel.symbol_index`, `Token.features.lower`), so a change
that breaks one of them fails here rather than in the benchmark.

`tag` decodes through `tag_references`, so the traced pass sees no
`tag_reference` call and skips its tag probes; the probes are run here
once more on references and a model given to them directly."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter from the checkout's root, as perfbench/run.py
# does; prints, per workload, what the traced pass on tiny inputs reported
# and the stages it ran.
TRACED_PASS = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import run, workloads
out = {}
for workload in ("pipeline", "tag_stream", "corpus_build"):
    result = run.run(workload, seed=3, seconds=0.1, trace=True, sizes=workloads.TINY,
                     log=lambda text: None)
    out[workload] = {k: result[k] for k in ("correct", "failed")}
    out[workload]["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    out[workload]["stages"] = [stage for stage, _ in workloads.chain(workload)]

import random, tracing
from citeforge.dataset import build_dataset
from citeforge.hmm import align_training, train_hmm
from citeforge.styles import load_builtin_styles
from citeforge.synth import random_corpus
records = build_dataset(random_corpus(random.Random(3), 10), load_builtin_styles())
citations = [cit for record in records for cit in record.citations]
traced = tracing.TracedCli(tracing.Tracer("probes"))
traced.model = train_hmm(align_training(cit["annoRef"]) for cit in citations)
traced.refs = [cit["bibRef"] for cit in citations]
counters = dict(tokens=0)
tracing.run_probes(traced.tracer, traced, counters)
out["tag_probes"] = counters
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def traced_pass():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASS],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_benchmark_pass_emits_every_per_layer_metric(traced_pass):
    named = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    results = dict(traced_pass)
    probes = results.pop("tag_probes")
    assert 0 < probes["backoff_tokens"] < probes["tag_tokens"], probes
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert named <= set(result["metrics"]), (workload, named - set(result["metrics"]))


# Layers that the traced pass reads from the names it wraps in citeforge.cli.
# Each reads 0 when the handlers call their library functions past that
# namespace (say, imported inside the handler) instead of through it.
WRAPPED_LAYERS = {
    "pipeline": ("bibtex.parse_s", "dataset.export_s", "dataset.load_s", "hmm.align_s",
                 "hmm.train_s", "hmm.save_s", "hmm.load_s", "evaluate.evaluate_s"),
    "corpus_build": ("bibtex.parse_s", "bibtex.clean_s", "dataset.export_s"),
}


def test_traced_pass_sees_every_layer_of_the_cli(traced_pass):
    for workload, layers in WRAPPED_LAYERS.items():
        result = traced_pass[workload]
        names = [*layers, *(f"cli.{stage}_s" for stage in result["stages"])]
        assert [name for name in names if not result["metrics"][name] > 0] == [], workload

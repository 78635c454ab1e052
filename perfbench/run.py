#!/usr/bin/env python3
"""citeforge benchmark: run one workload on one seed and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a citeforge checkout.  With --trace 0 each timed rep
runs the workload's CLI chain (`python -m citeforge.cli <stage>`, one child
process per stage, one after another) and the end-to-end metrics are
medians over reps.  With --trace 1 the same stages also run in this
process through `citeforge.cli.main`, with a span around every library call
the CLI makes, which gives the per-layer metrics (see perfbench/README.md).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2, and no result line,
when there is no citeforge source tree to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Work directories (removed after each run) and span files.
OUT = ROOT / ".perfbench-out"

STAGE_TIMEOUT_S = 150
MIN_REPS = 3

# Metrics of the result line.  Times are at reference speed (see below).
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed for reading only, as measured: stage throughputs, which only
# some workloads have, and quality and failure shares, which can be 0.
NAMED_UNITS = {
    "citations_per_s": "1/s",
    "train_refs_per_s": "1/s",
    "tag_refs_per_s": "1/s",
    "reference_s": "s",
    "f1_micro": "ratio",
    "error_rate": "ratio",
}

# A fixed job that does not use citeforge: string and dict work in Python,
# then a loop of small numpy steps like Viterbi's.  It runs in a fresh
# interpreter after every rep.  Shared hosts swing in speed for minutes at
# a time; dividing by this job's median time and multiplying by REFERENCE_S
# gives seconds at the speed where it takes REFERENCE_S, and cancels most
# of the swing.
REFERENCE_CODE = """
import json, re
import numpy as np
words = [f"w{i % 7919}q{i % 131}" for i in range(100_000)]
counts = {}
for w in words:
    key = w.upper()
    counts[key] = counts.get(key, 0) + 1
text = json.dumps(counts)
n = len(re.findall(r"\\S+", " ".join(words)))
table = np.arange(256, dtype=float).reshape(16, 16) / 7.0
delta = np.zeros(16)
cols = np.arange(16)
for t in range(12000):
    scores = delta[:, None] + table
    best = np.argmax(scores, axis=0)
    delta = scores[best, cols] - 1.0
"""
REFERENCE_S = 0.6


@dataclass
class StageRun:
    name: str
    seconds: float
    rss_mb: float
    code: int


@dataclass
class Rep:
    stages: list[StageRun] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(s.code == 0 for s in self.stages)

    def stage_s(self, name: str) -> float:
        return sum(s.seconds for s in self.stages if s.name == name)


class Runner:
    """Runs CLI stages of one workload in its work directory."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("CITEFORGE_")}
        self.env["PYTHONPATH"] = str(SRC)

    def _spawn(self, argv: list[str]) -> tuple[float, int, float]:
        """Wall seconds, exit code and peak RSS (MB) of one child process."""
        with open(self.work / "stages.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.work, env=self.env,
                stdout=log, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss / 1024.0

    def chain(self, stages: list[tuple[str, list[str]]]) -> Rep:
        """One pass over the chain; stops at the first failing stage."""
        rep = Rep()
        start = time.perf_counter()
        for name, args in stages:
            seconds, code, rss = self._spawn(["-m", "citeforge.cli", *args])
            rep.stages.append(StageRun(name, seconds, rss, code))
            if code != 0:
                break
        rep.wall_s = time.perf_counter() - start
        return rep

    def setup(self) -> float:
        """Fresh interpreter: import the CLI and load the built-in styles
        (and, on tag_stream, the trained model)."""
        code = (
            "import citeforge.cli\n"
            "from citeforge.styles import load_builtin_styles\n"
            "load_builtin_styles()\n"
        )
        if self.workload == "tag_stream":
            code += "from citeforge.hmm import HmmModel\nHmmModel.load('model.json')\n"
        seconds, status, _ = self._spawn(["-c", code])
        if status != 0:
            raise RuntimeError("set-up interpreter failed; see stages.log")
        return seconds

    def reference(self) -> float:
        seconds, status, _ = self._spawn(["-c", REFERENCE_CODE])
        if status != 0:
            raise RuntimeError("reference interpreter failed; see stages.log")
        return seconds

    def log_tail(self, lines: int = 20) -> str:
        path = self.work / "stages.log"
        if not path.exists():
            return ""
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the package's source and style files, so a result names
    the code it measured even where the checkout has no git metadata."""
    digest = hashlib.sha256()
    pkg = SRC / "citeforge"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(pkg)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(workload: str, seed: int, inputs: dict) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
    }


def rep_metrics(rep: Rep, sizes: dict) -> dict:
    """Throughputs of one rep, for the stages the workload has."""
    out = {"wall_s": rep.wall_s, "peak_rss_mb": max(s.rss_mb for s in rep.stages)}
    if rep.stage_s("build"):
        builds = sum(1 for s in rep.stages if s.name == "build")
        out["citations_per_s"] = builds * sizes["citations"] / rep.stage_s("build")
    if rep.stage_s("train"):
        out["train_refs_per_s"] = sizes["train_refs"] / rep.stage_s("train")
    if rep.stage_s("tag"):
        out["tag_refs_per_s"] = sizes["tag_refs"] / rep.stage_s("tag")
    return out


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


class Tally:
    """Operations attempted and failed: one per stage invocation and one per
    reference sent to `tag` (a row missing from its output is a failure)."""

    def __init__(self, work: Path, tag_refs: int):
        self.work, self.tag_refs = work, tag_refs
        self.attempted = 0
        self.failed = 0

    def add(self, rep: Rep) -> None:
        self.attempted += len(rep.stages)
        self.failed += sum(1 for s in rep.stages if s.code != 0)
        if any(s.name == "tag" for s in rep.stages):
            self.attempted += self.tag_refs
            path = self.work / "tagged.jsonl"
            rows = _count_lines(path) if path.exists() else 0
            self.failed += max(0, self.tag_refs - rows)


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        log=print) -> dict:
    """One benchmark run; returns the result object printed last."""
    import workloads as wl

    sizes = sizes or wl.FULL
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _run(wl, workload, seed, seconds, trace, sizes, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl, workload, seed, seconds, trace, sizes, work, log) -> dict:
    generated = wl.make_inputs(workload, seed, work, sizes)
    runner = Runner(workload, work)
    stages = wl.chain(workload)
    problems: list[str] = []

    # Untimed warm-up rep: fills the page cache and byte-code cache, and
    # its outputs get the full checks.  Later reps must match its digests.
    warm = runner.chain(stages)
    if not warm.ok:
        log(runner.log_tail())
        return {"correct": False, "attempted": len(warm.stages),
                "failed": sum(1 for s in warm.stages if s.code), "metrics": {}}
    try:
        seen = wl.check_outputs(workload, work)
    except wl.CheckFailed as exc:
        problems.append(str(exc))
        seen = {"citations": 0}
    digests = wl.output_digests(workload, work)
    sizes_seen = wl.input_sizes(workload, work, generated, seen)
    tally = Tally(work, sizes_seen["tag_refs"])

    log(f"citeforge benchmark  workload={workload}  seed={seed}  trace={int(trace)}")
    log("meta " + json.dumps(metadata(workload, seed, sizes_seen), sort_keys=True))
    for name, value in digests.items():
        log(f"sha256 {value}  {name}")

    def timed_rep() -> Rep:
        rep = runner.chain(stages)
        tally.add(rep)
        if rep.ok and wl.output_digests(workload, work) != digests:
            problems.append("outputs differ from the warm-up rep of the same seed")
        return rep

    if trace:
        import tracing as tr

        metrics = tr.traced_run(workload, work, stages, timed_rep, seconds, digests, problems)
        tr.write_spans(OUT / f"spans-{workload}.jsonl", metrics.pop("_spans"))
        units = tr.PER_LAYER_UNITS
        for name in units:
            if name in metrics:
                log(f"layer {name:<32} {metrics[name]:>16.6f} {units[name]}")
    else:
        metrics = _measure(runner, timed_rep, seconds, sizes_seen, problems, log)
        if "f1_micro" in seen:
            log(f"metric {'f1_micro':<18} {seen['f1_micro']:>14.6f} ratio")
        units = END_TO_END_UNITS

    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    log(f"metric {'error_rate':<18} {error_rate:>14.6f} ratio"
        f" ({tally.failed} of {tally.attempted} operations)")
    for problem in problems:
        log(f"check FAILED: {problem}")
    return {
        "correct": not problems and tally.failed == 0 and len(metrics) == len(units),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }


def _measure(runner, timed_rep, seconds, sizes, problems, log) -> dict:
    """Timed reps until `seconds` are used (at least MIN_REPS), each followed
    by the reference job and one set-up sample; the metrics are medians."""
    deadline = time.perf_counter() + seconds
    reps: list[Rep] = []
    samples: dict[str, list[float]] = {"reference_s": [], "setup_s": []}
    round_s: list[float] = []
    while len(reps) < MIN_REPS or time.perf_counter() + statistics.median(round_s) <= deadline:
        start = time.perf_counter()
        reps.append(timed_rep())
        samples["reference_s"].append(runner.reference())
        samples["setup_s"].append(runner.setup())
        round_s.append(time.perf_counter() - start)
    good = [r for r in reps if r.ok]
    if len(good) < len(reps):
        problems.append(f"{len(reps) - len(good)} of {len(reps)} reps failed")
    if not good:
        return {}
    for rep in good:
        for name, value in rep_metrics(rep, sizes).items():
            samples.setdefault(name, []).append(value)
    med = {}
    for name, values in samples.items():
        q1, med[name], q3 = quartiles(values)
        log(f"raw    {name:<18} {med[name]:>14.6f} {_unit(name):<5}"
            f" q1={q1:.6f} q3={q3:.6f} n={len(values)}")
    speed = REFERENCE_S / med["reference_s"]
    out = {
        "wall_s": med["wall_s"] * speed,
        "setup_s": med["setup_s"] * speed,
        "peak_rss_mb": med["peak_rss_mb"],
    }
    for name, value in out.items():
        log(f"metric {name:<18} {value:>14.6f} {_unit(name):<5}")
    return out


def _unit(name: str) -> str:
    return END_TO_END_UNITS.get(name) or NAMED_UNITS[name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "tag_stream", "corpus_build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "citeforge" / "cli.py").is_file():
        print(f"error: no citeforge source tree under {SRC}; "
              "run from the root of a citeforge checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

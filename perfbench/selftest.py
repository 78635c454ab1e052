#!/usr/bin/env python3
"""Self-test of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, in both modes; that a traced run puts citeforge.cli's
own functions back; that two runs of one seed print the same
output digests; that each output check fails when its output is corrupted;
and that run.py refuses to run where there is no citeforge source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        raise SystemExit(1)


def tiny_run(workload: str, trace: bool) -> tuple[dict, dict]:
    lines: list[str] = []
    result = run.run(workload, seed=3, seconds=0.1, trace=trace, sizes=wl.TINY,
                     log=lambda text: lines.append(str(text)))
    digests = {l.split()[2]: l.split()[1] for l in lines if l.startswith("sha256 ")}
    return result, digests


def check_metrics() -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        named = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in wl.WORKLOADS:
            result, digests = tiny_run(workload, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={int(trace)}: correct, nothing failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == named, f"{workload} trace={int(trace)}: every {key} "
                                 "metric emitted with its unit")
            if trace:
                import citeforge.cli as cli
                import tracing

                expect(all(getattr(cli, n).__module__ != "tracing" for n in tracing.TRACED)
                       and cli.HmmModel.__module__ == "citeforge.hmm",
                       f"{workload} trace=1: citeforge.cli's functions restored")
            else:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{workload}: end-to-end metrics are non-zero")
                _, again = tiny_run(workload, trace)
                expect(digests and digests == again,
                       f"{workload}: same seed, same output digests")


def corrupt_jsonl(path: Path, mutate) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps(mutate(json.loads(lines[0])), ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def fails(check, *args) -> bool:
    try:
        check(*args)
    except wl.CheckFailed:
        return True
    return False


def check_corruption() -> None:
    def bad_anno(record):
        record["citations"][0]["annoRef"] += " x"
        return record

    for workload in wl.WORKLOADS:
        work = run.OUT / f"selftest-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            wl.make_inputs(workload, 5, work, wl.TINY)
            expect(run.Runner(workload, work).chain(wl.chain(workload)).ok,
                   f"{workload}: chain runs")
            expect(not fails(wl.check_outputs, workload, work),
                   f"{workload}: checks pass on intact outputs")
            digests = wl.output_digests(workload, work)
            dataset = "heldout.jsonl" if workload == "tag_stream" else "dataset.jsonl"
            saved = {p.name: p.read_bytes() for p in work.iterdir() if p.is_file()}

            def restore():
                for name, data in saved.items():
                    (work / name).write_bytes(data)

            corrupt_jsonl(work / dataset, bad_anno)
            expect(fails(wl.check_outputs, workload, work),
                   f"{workload}: annoRef that does not strip to bibRef is caught")
            expect(wl.output_digests(workload, work) != digests,
                   f"{workload}: changed output changes the digests")
            restore()
            if workload == "corpus_build":
                text = (work / "dataset.csv").read_text(encoding="utf-8")
                (work / "dataset.csv").write_text(text.replace("</title>", "</title>!", 1),
                                                  encoding="utf-8")
                expect(fails(wl.check_outputs, workload, work),
                       f"{workload}: csv round-trip mismatch is caught")
                restore()
                continue
            lines = (work / "tagged.jsonl").read_text(encoding="utf-8").splitlines()
            (work / "tagged.jsonl").write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
            expect(fails(wl.check_outputs, workload, work),
                   f"{workload}: a missing tagged row is caught")
            restore()
            corrupt_jsonl(work / "tagged.jsonl", lambda row: dict(row, id="nope"))
            expect(fails(wl.check_outputs, workload, work),
                   f"{workload}: a tagged row for an unknown citation is caught")
            restore()
            report = json.loads((work / "report.json").read_text(encoding="utf-8"))
            report["missing_ground_truth"] = 1
            (work / "report.json").write_text(json.dumps(report), encoding="utf-8")
            expect(fails(wl.check_outputs, workload, work),
                   f"{workload}: missing ground truth in the report is caught")
        finally:
            shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_source() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, *SPEC["command"][1:], "--workload", "pipeline",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "no source tree: non-zero exit and no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    check_refuses_without_source()
    check_corruption()
    check_metrics()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --out results.json
    python3 perfbench/collect.py --seeds 1-10 --compare results.json

Each (workload, seed) is one `run.py` process with --trace 0.  For every
end-to-end metric the summary gives the median and quartiles over seeds,
and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json.  --trace-seeds adds --trace 1 runs for the per-layer
metrics; --compare reports how far each median moved from an earlier file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    meta = next(json.loads(l[5:]) for l in lines if l.startswith("meta "))
    result["sha256"] = {l.split()[2]: l.split()[1] for l in lines if l.startswith("sha256 ")}
    # Raw medians, stage throughputs, f1_micro and error_rate, as printed.
    result["printed"] = {
        f"{l.split()[0]}.{l.split()[1]}": float(l.split()[2])
        for l in lines if l.startswith(("raw ", "metric "))
    }
    result["seed"] = seed
    result["inputs"] = meta.pop("inputs")
    result["meta"] = meta
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for spec in SPEC["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else [values[0]] * 3)
        med = statistics.median(values)
        out[spec["name"]] = {
            "unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": spec["bound"], "n": len(values),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    report = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    before = json.loads(args.compare.read_text()) if args.compare else None
    for workload in args.workloads:
        runs = [one_run(workload, seed, 0) for seed in args.seeds]
        traced = [one_run(workload, seed, 1) for seed in args.trace_seeds]
        entry = {"summary": summarise(runs), "runs": runs, "traced": traced}
        report["workloads"][workload] = entry
        print(f"{workload}: {sum(r['correct'] for r in runs)}/{len(runs)} correct")
        for name, s in entry["summary"].items():
            line = (f"  {name:<14} median {s['median']:.6g} {s['unit']:<4}"
                    f" spread {s['spread']:.3f} (bound {s['bound']},"
                    f" a third {s['bound'] / 3:.3f})")
            if before and workload in before["workloads"]:
                old = before["workloads"][workload]["summary"][name]["median"]
                change = s["median"] / old - 1
                worse = change if better[name] == "lower" else -change
                line += f"  vs before {change:+.3f}" + (" WORSE" if worse > s["bound"] else "")
            print(line)
    report["meta"] = report["workloads"][args.workloads[0]]["runs"][0]["meta"]
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

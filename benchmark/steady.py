#!/usr/bin/env python3
"""Steadiness study: repeated runs of run.py and their spread.

    python3 benchmark/steady.py [--workloads a,b] [--runs 10] [--sets 2] [--seed0 1000] [--seconds S]

Runs every workload --runs times per set, each run with its own seed, and
prints for every end-to-end metric and set the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, then
the change of each median from the first set to the others and whether the
share of failed operations is the same in every run. Each run's JSON line is
kept in .bench_out/steady/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out" / "steady"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    (OUT / f"{workload}-seed{seed}.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    return result


def summary(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    OUT.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seed = args.seed0
    results = {}  # (workload, set) -> [result, ...]
    for k in range(args.sets):
        for workload in args.workloads.split(","):
            for _ in range(args.runs):
                res = one_run(workload, seed, args.seconds)
                seed += 1
                results.setdefault((workload, k), []).append(res)
                print(f"set {k} {workload} seed {seed - 1}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr, flush=True)

    ok = True
    for workload in args.workloads.split(","):
        runs = [results[(workload, k)] for k in range(args.sets)]
        shares = {r["failed"] / r["attempted"] for s in runs for r in s}
        correct = all(r["correct"] for s in runs for r in s)
        print(f"\n{workload}: correct={correct} failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for name, bound in bounds.items():
            cells, medians = [], []
            for s in runs:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in s])
                medians.append(med)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}")
                ok &= spread <= bound
            drift = " ".join(f"{m / medians[0] - 1:+.3f}" for m in medians[1:])
            print(f"  {name:14} bound {bound:.2f} | " + " | ".join(cells) + f" | median change {drift}")
    print("\nwithin bounds" if ok else "\nNOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

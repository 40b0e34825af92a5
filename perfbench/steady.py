#!/usr/bin/env python3
"""Steadiness check for perfbench/run.py.

Runs --sets sets of one run of every workload, the workloads taking
turns so that each workload's runs are spread out in time, each run with
its own seed, and reports per workload and end-to-end metric:

  median   the median over every run
  spread   (Q3 - Q1) / median over every run, the quartiles as
           statistics.quantiles(values, n=4) gives them
  halves   the distance between the medians of the first and the second
           half of the sets, as a share of the first

Run from the root of a psopt source tree:

  python3 perfbench/steady.py --sets 10 --seconds 35 --first-seed 1

The raw per-run results go to .bench_work/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True  # keep the benchmark directory clean

import run as bench  # noqa: E402


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit("checks failed: %s seed %d" % (workload, seed))
    result["note"] = lines[-2] if len(lines) > 1 else ""
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.sets < 2:
        ap.error("--sets must be at least 2")

    runs = []
    seed = args.first_seed
    for set_index in range(args.sets):
        for workload in bench.WORKLOADS:
            result = one_run(workload, seed, args.seconds)
            runs.append({"set": set_index, "workload": workload,
                         "seed": seed, "time": time.time(),
                         "note": result["note"],
                         "metrics": {k: v["value"] for k, v in
                                     result["metrics"].items()}})
            print("set %d %s seed %d: %s" % (
                set_index, workload, seed,
                " ".join("%s=%.4f" % kv for kv in
                         runs[-1]["metrics"].items())), flush=True)
            seed += 1

    out = ROOT / ".bench_work" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")

    print("\n| workload | metric | median | spread | halves |")
    print("|---|---|---|---|---|")
    half = args.sets // 2
    for workload in bench.WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        for metric in mine[0]["metrics"]:
            values = [r["metrics"][metric] for r in mine]
            first = statistics.median(r["metrics"][metric] for r in mine
                                      if r["set"] < half)
            second = statistics.median(r["metrics"][metric] for r in mine
                                       if r["set"] >= half)
            print("| %s | %s | %.4g | %.1f%% | %.1f%% |" % (
                workload, metric, statistics.median(values),
                100 * spread(values), 100 * abs(second - first) / first))


if __name__ == "__main__":
    main()

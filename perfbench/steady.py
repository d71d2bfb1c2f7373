"""Steadiness of the end-to-end metrics: run one workload k times, each with
another seed, and print every end-to-end metric's median, quartiles and
spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload lattice-windows --runs 10

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  A metric is steady when its spread is
below a third of its bound.  Runs are sequential; --seeds picks the first
seed (seeds first, first+1, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread_of(xs):
    """Q1, median, Q3 and (Q3 - Q1) / median."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = str(spec["run_seconds"])
    for workload in args.workload:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        unscaled = {}
        shares = set()
        for seed in range(args.seeds, args.seeds + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            for kv in lines[-2].split()[1:]:
                key, val = kv.split("=")
                unscaled.setdefault(key, []).append(float(val))
            if not res["correct"]:
                sys.exit("%s seed %d: wrong output" % (workload, seed))
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (k, m["value"])
                for k, m in res["metrics"].items())), flush=True)
        print("\n%s, %d runs, failed share %s" % (
            workload, args.runs, sorted(shares)))
        print("%-12s %10s %10s %10s %7s %6s  %-12s %s" % (
            "metric", "Q1", "median", "Q3", "spread", "bound", "verdict",
            "unscaled spread"))
        for m in spec["end_to_end"]:
            q1, med, q3, spread = spread_of(values[m["name"]])
            verdict = "steady" if spread < m["bound"] / 3 else \
                "within bound" if spread <= m["bound"] else "TOO WIDE"
            raw = "%6.1f%%" % (100 * spread_of(unscaled[m["name"]])[3]) \
                if m["name"] in unscaled else ""
            print("%-12s %10.5g %10.5g %10.5g %6.1f%% %5.0f%%  %-12s %s" % (
                m["name"], q1, med, q3, 100 * spread, 100 * m["bound"],
                verdict, raw))
        print()


if __name__ == "__main__":
    main()

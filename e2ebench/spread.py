#!/usr/bin/env python3
"""Steadiness check: runs the benchmark once per seed on each workload and
prints, per end-to-end metric, the median and the spread (distance between
the first and third quartile, as a share of the median) next to the
metric's bound in BENCHMARK.json.

    python3 e2ebench/spread.py --workloads sbm-strong lfr-weak --seeds 1-10

Run from the repository root. Exits 1 when a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in args.workloads:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [*bench["command"], "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed} reported incorrect output:\n{proc.stdout}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w} ({len(args.seeds)} seeds)")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            if bound:
                worst = max(worst, spread / bound)
            print(f"  {name:<16} median {med:.6g}  spread {spread:.4f}  "
                  f"bound {bound}  spread/bound {spread / bound if bound else 0:.2f}")
    print(f"worst spread/bound: {worst:.2f}")
    return 1 if worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics (see perfbench/README.md).

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3] [--seconds S]

Runs perfbench/run.py once per seed (untraced) and prints, for every
end-to-end metric, the median over the runs and the spread: the distance
between the first and third quartiles (statistics.quantiles(values, n=4))
as a share of the median, next to the metric's bound in BENCHMARK.json and
a third of it, the steadiness target. Exits 1 when a run is incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    correct = True
    for seed in [int(s) for s in args.seeds.split(",")]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True)
        result = json.loads(done.stdout.strip().split("\n")[-1])
        correct = correct and result["correct"] and done.returncode == 0
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} " +
              " ".join(f"{k}={v['value']:.6g}"
                       for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6} "
          f"{'bound/3':>8}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name, float("nan"))
        flag = "" if spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<16} {median:>12.6g} {spread:>8.4f} {bound:>6.3f} "
              f"{bound / 3:>8.4f}{flag}")
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

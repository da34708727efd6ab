"""Run one workload over several seeds and report each end-to-end metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --workload query_mix --seeds 1-10

Runs are made one after another, each as its own process, with the
``run_seconds`` of BENCHMARK.json.  For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles`` with n=4) and the spread,
the distance between the quartiles as a share of the median, next to the
metric's bound.  A spread at or above a third of the bound is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        took = time.monotonic() - started
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"run took {took:.1f} s", flush=True)
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med
        mark = " <-- over a third of the bound" if spread >= bound / 3 else ""
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

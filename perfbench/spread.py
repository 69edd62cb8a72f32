"""Run a workload on several seeds and report each end-to-end metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve_mixed --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one after another, and prints per
metric the median, the interquartile distance as a share of the median (as
``statistics.quantiles(values, n=4)`` gives the quartiles) and the metric's
bound from ``BENCHMARK.json``.  A spread above a third of its bound is
flagged: such a metric is not yet steady enough to gate a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """Interquartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        share = spread(values[name])
        flag = "" if share <= bound / 3 else "  <-- above bound/3"
        print(f"{name:20s} median {statistics.median(values[name]):12.5g} "
              f"spread {share:7.4f} bound {bound:5.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload select --seed 1 --seconds 20 --trace 0

The workload runs in a child process (``python -m perfbench.child``) with the
library from ``src/`` on its path and BLAS pinned to one thread, so each run
has its own peak RSS.  This process adds the provenance stamp, writes the
full artifact to ``.perfbench/`` and prints the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every oracle check passed, 1 when one failed, 2 when the run could not
produce a result (a missing library, an untyped exception, a timeout).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.provenance import BLAS_ENV, git_state, host  # noqa: E402

WORKLOAD_NAMES = ("select", "serve_mixed", "serve_churn", "shard_lattice")
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for key in BLAS_ENV:
        env[key] = BLAS_THREADS
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    stamp = {**git_state(ROOT), **host(), "seed": args.seed,
             "workload": args.workload, "seconds": args.seconds,
             "trace": args.trace}
    command = [sys.executable, "-m", "perfbench.child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: workload process exited with {done.returncode}",
              file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    stamp["versions"] = result.pop("versions")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    artifact = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    artifact.write_text(json.dumps({"provenance": stamp, **result}, indent=2,
                                   default=float))

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {spec["name"]: {"value": float(result["metrics"][spec["name"]]),
                              "unit": spec["unit"]}
               for spec in units[kind]}
    print(json.dumps(stamp, default=str))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

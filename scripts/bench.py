#!/usr/bin/env python3
"""Record the benchmark's end-to-end results of one checkout as BENCH_<label>.json.

    python3 scripts/bench.py --label baseline --root path/to/checkout

Runs ``tvbench/run.py --workload W --seed S --seconds 25 --trace 0`` of the
given checkout, one run at a time, for the three workloads and seeds 1 to 5,
and writes BENCH_<label>.json in the current directory: the last line of each
run with its wall time, and the machine facts (nproc, Python, numpy).
Compare two such files by their medians.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

WORKLOADS = ("scalar-certify", "operator-certify", "long-path")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 25


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                    help="checkout whose tvbench/run.py and src/ are measured")
    args = ap.parse_args(argv)

    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            cmd = [sys.executable, "tvbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
            start = perf_counter()
            proc = subprocess.run(cmd, cwd=args.root, capture_output=True, text=True)
            wall = perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"workload": workload, "seed": seed, "wall_s": round(wall, 2),
                         "returncode": proc.returncode, "result": result})
            print(f"{workload} seed {seed}: {wall:.1f} s, {lines[-1] if lines else ''}",
                  file=sys.stderr)

    doc = {"label": args.label, "seconds": SECONDS,
           "machine": {"nproc": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(), "numpy": np.__version__},
           "runs": runs}
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

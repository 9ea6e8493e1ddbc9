#!/usr/bin/env python3
"""Record the benchmark's end-to-end results as BENCH_<label>.json.

    python3 scripts/bench.py --label baseline --root path/to/checkout
    python3 scripts/bench.py --label my-change --parent path/to/parent --seeds 21-30

Runs ``tvbench/run.py --workload W --seed S --seconds 25 --trace 0``, one run
at a time, for each workload (all three, or those named by ``--workload``)
and each seed (``--seeds A-B``, default 1-5), and writes BENCH_<label>.json
in the current directory: the last line of each run with its wall time, and
the machine facts (nproc, Python, numpy).

With ``--parent`` it measures alternating pairs: for each workload and seed
it runs the parent checkout and ``--root`` back to back, the parent first on
odd seeds, and then prints, per workload and end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the number of pairs the
change wins, whether the claim rule holds (at least 9/10 of the pairs won,
and a median gap larger than the parent's interquartile range), and each
side's total wall time.  Without it, it records ``--root`` alone; compare two
such files by their medians.
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

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("scalar-certify", "operator-certify", "long-path")
SECONDS = 25


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _run(root: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "tvbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(f"{workload} seed {seed} {root}: {wall:.1f} s, {lines[-1] if lines else ''}",
          file=sys.stderr)
    return {"workload": workload, "seed": seed, "wall_s": round(wall, 2),
            "returncode": proc.returncode, "result": result}


def _value(run: dict, metric: str) -> float:
    result = run["result"]
    return result["metrics"][metric]["value"] if result else float("nan")


def _summary(runs: list[dict], workloads, metrics) -> None:
    """Print each side's median [q1, q3], the change's wins and the claim verdict
    per metric, then each side's total wall time.

    A gain may be claimed when the change wins at least nine tenths of the
    pairs (ties count for neither) and its median is better than the parent's
    by more than the parent's interquartile range.
    """
    for workload in workloads:
        sides = {side: [r for r in runs if r["workload"] == workload and r["side"] == side]
                 for side in ("parent", "change")}
        print(f"{workload} ({len(sides['change'])} pairs)")
        for metric in [{"name": "wall_s", "better": "lower"}] + metrics:
            name = metric["name"]
            vals = {side: np.array([r["wall_s"] if name == "wall_s" else _value(r, name)
                                    for r in rs]) for side, rs in sides.items()}
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = int(np.sum(sign * (vals["change"] - vals["parent"]) > 0.0))
            quart = {side: np.percentile(v, [50, 25, 75]) for side, v in vals.items()}
            pairs = len(vals["change"])
            gap = sign * (quart["change"][0] - quart["parent"][0])
            iqr = quart["parent"][2] - quart["parent"][1]
            most = wins >= 0.9 * pairs
            print(f"  {name:12s} parent {quart['parent'][0]:.4g} "
                  f"[{quart['parent'][1]:.4g}, {quart['parent'][2]:.4g}]  "
                  f"change {quart['change'][0]:.4g} "
                  f"[{quart['change'][1]:.4g}, {quart['change'][2]:.4g}]  "
                  f"wins {wins}/{pairs} ({'>=' if most else '<'} 9/10)  "
                  f"gap {gap:.4g} {'>' if gap > iqr else '<='} parent IQR {iqr:.4g}  "
                  f"claim {'met' if most and gap > iqr else 'not met'}")
    for side in ("parent", "change"):
        total = sum(r["wall_s"] for r in runs if r["side"] == side)
        print(f"{side} total wall time {total:.1f} s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--root", default=str(HERE),
                    help="checkout whose tvbench/run.py and src/ are measured")
    ap.add_argument("--parent", help="checkout to alternate with --root, run for run")
    ap.add_argument("--seeds", type=_seed_range, default=_seed_range("1-5"),
                    help="inclusive seed range A-B")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="measure only this workload (repeatable)")
    args = ap.parse_args(argv)
    workloads = args.workload or WORKLOADS

    runs = []
    for workload in workloads:
        for seed in args.seeds:
            if args.parent is None:
                runs.append(_run(args.root, workload, seed))
                continue
            order = (("parent", args.parent), ("change", args.root))
            for side, root in order if seed % 2 else order[::-1]:
                runs.append({"side": side, **_run(root, workload, seed)})

    doc = {"label": args.label, "seconds": SECONDS,
           "machine": {"nproc": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(), "numpy": np.__version__},
           "runs": runs}
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.parent is not None:
        metrics = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]
        _summary(runs, workloads, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

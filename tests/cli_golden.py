"""Golden corpus of tvkit CLI invocations: the exact bytes each one prints.

``tests/test_cli_golden.py`` replays every record and requires its exit code,
stdout and stderr to match byte for byte.  After a change that moves CLI
bytes on purpose, list the records that moved, then re-record:

    PYTHONPATH=src python tests/cli_golden.py            # list changed records
                                                         # and their first moved lines
    PYTHONPATH=src python tests/cli_golden.py --write    # rewrite the corpus

Input files are drawn from a seeded generator into a temporary directory, so
the corpus holds argv lists and outputs only; ``{tmp}`` in an argv stands for
that directory and ``<tmp>`` replaces its path in stderr.  Each invocation
runs in-process with COLUMNS=80 (argparse wraps its usage lines to the
terminal width).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from tvkit import SampledPath, write_path_csv, write_path_json
from tvkit.cli import run

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"
NORMS = ("euclidean", "sup", "l1")


def write_inputs(root: Path) -> None:
    """Seeded input files in ``root``.

    walk1..walk3.csv: heavy-tailed walks in d = 1..3 (walk1.json repeats
    walk1); op1.csv, op2.csv: 1x1 and row-major 2x2 integrands on a uniform
    grid; g1.csv, g2.csv: integrators that jump only at the midpoints of that
    grid, so each (op_d, g_d) pair has disjoint jump times; ragged.csv: a
    malformed file.
    """
    rng = np.random.default_rng(20261018)
    for d, n in ((1, 64), (2, 48), (3, 40)):
        times = np.cumsum(rng.uniform(0.1, 1.0, n))
        path = SampledPath(times, np.cumsum(rng.standard_t(3, (n, d)), axis=0))
        write_path_csv(path, str(root / f"walk{d}.csv"))
        if d == 1:
            write_path_json(path, str(root / "walk1.json"))
    for d, n in ((1, 40), (2, 32)):
        grid = np.linspace(0.0, 1.0, n + 1)
        ops = np.cumsum(rng.normal(size=(n + 1, d * d)), axis=0)
        write_path_csv(SampledPath(grid, ops), str(root / f"op{d}.csv"))
        mids = np.concatenate(([0.0], 0.5 * (grid[:-1] + grid[1:]), [1.0]))
        vals = np.cumsum(rng.normal(size=(n + 1, d)), axis=0)
        vals = np.concatenate((vals, vals[-1:]))
        write_path_csv(SampledPath(mids, vals), str(root / f"g{d}.csv"))
    (root / "ragged.csv").write_text("time,v1\n0.0,1.0\n1.0\n")


def _pair(d: int) -> list[str]:
    return ["--input", f"{{tmp}}/op{d}.csv", "--input", f"{{tmp}}/g{d}.csv"]


def cases() -> list[dict]:
    """Every recorded invocation, as ``{"argv": [...]}``."""
    out = []

    def add(*argv):
        out.append({"argv": list(argv)})

    for norm in NORMS:
        nv = ("--norm", norm)
        add("ttv", "--input", "{tmp}/walk2.csv", "--c", "0.7", *nv)
        add("pvar", "--input", "{tmp}/walk3.csv", "--p", "2.5", *nv)
        add("phivar", "--input", "{tmp}/walk2.csv", "--p", "2", "--gamma", "2", *nv)
        add("seminorm", "--input", "{tmp}/walk3.csv", "--p", "2", *nv)
        add("approx", "--input", "{tmp}/walk2.csv", "--c", "1.5", "--lambda", "2,3", *nv)
        add("integrate", *_pair(2), "--p", "1.6", "--q", "1.6", *nv)
        add("ly-check", *_pair(2), "--p", "1.5", "--q", "1.5", *nv)
        add("irregularity", *_pair(2), "--p", "1.5", "--q", "1.5", *nv)
        add("gen", "--input", "{tmp}/walk3.csv", "--format", "csv", *nv)
    # scalar paths, fixtures and 1x1 integrands
    add("ttv", "--input", "{tmp}/walk1.csv", "--c", "0.25")
    add("ttv", "--input", "{tmp}/walk1.json", "--c", "0.25", "--format", "csv")
    add("pvar", "--input", "{tmp}/walk1.csv", "--p", "1")
    add("phivar", "--input", "{tmp}/walk1.csv", "--p", "2", "--gamma", "3", "--kind", "2")
    add("seminorm", "--fixture", "circle3", "--p", "2", "--format", "csv")
    add("seminorm", "--fixture", "logSeq", "--fixture-p", "2", "--fixture-n", "6", "--p", "1.5")
    add("approx", "--input", "{tmp}/walk1.csv", "--c", "0.5", "--eps-cont", "0.2")
    add("approx", "--input", "{tmp}/walk1.csv", "--c", "0.5", "--format", "csv")
    add("integrate", *_pair(1))
    add("integrate", *_pair(1), "--p", "1.5", "--q", "1.8", "--format", "csv")
    add("ly-check", *_pair(1), "--p", "1.4", "--q", "1.7", "--tol", "1e-3")
    add("irregularity", *_pair(1), "--p", "1.7", "--q", "1.4")
    add("gen", "--fixture", "stepSplit")
    add("gen", "--gen", "alpha-stable", "--n", "12", "--alpha", "1.5", "--seed", "3")
    # generated pairs: linear completion (trapezoid sum) and staggered steps
    add("integrate", "--gen", "alpha-stable", "--n", "48", "--seed", "5", "--tol", "1e-3")
    add("integrate", "--gen", "alpha-stable", "--n", "32", "--seed", "6", "--tol", "1e-3",
        "--p", "1.6", "--q", "1.6")
    add("ly-check", "--gen", "alpha-stable", "--n", "40", "--alpha", "1.6", "--seed", "7",
        "--p", "1.8", "--q", "1.8", "--tol", "1e-3", "--trials", "2")
    add("ly-check", "--gen", "alpha-stable", "--n", "24", "--seed", "8", "--p", "1.8",
        "--q", "1.8", "--tol", "1e-3", "--trials", "2", "--format", "csv")
    add("irregularity", "--gen", "alpha-stable", "--n", "32", "--seed", "9",
        "--p", "1.5", "--q", "1.5", "--trials", "3")
    add("pvar", "--gen", "alpha-stable", "--n", "32", "--seed", "2", "--p", "2", "--trials", "2")
    add("integrate", "--gen", "alpha-stable", "--n", "48", "--seed", "5", "--tol", "1e-12")
    # error exits
    add("ly-check", *_pair(1), "--p", "1.5", "--q", "1.5", "--tol", "inf")
    add("irregularity", *_pair(1), "--p", "1.5", "--q", "1.5", "--tol", "1.5")
    add("ly-check", *_pair(1), "--p", "2", "--q", "2")
    add("ly-check", "--input", "{tmp}/op2.csv", "--input", "{tmp}/g1.csv", "--p", "1.5",
        "--q", "1.5")
    add("irregularity", "--fixture", "stepSplit", "--p", "1.5", "--q", "1.5")
    add("ttv", "--input", "{tmp}/missing.csv", "--c", "0.1")
    add("ttv", "--input", "{tmp}/ragged.csv", "--c", "0.1")
    add("ttv", "--fixture", "stepSplit", "--c", "-1")
    add("ttv", "--fixture", "stepSplit")
    add("seminorm", "--fixture", "stepSplit", "--p", "nan")
    add("pvar", "--input", "{tmp}/walk1.csv", "--fixture", "stepSplit", "--p", "2")
    add("gen", "--gen", "alpha-stable", "--n", "16")
    add("approx", "--fixture", "circle3", "--c", "0.5", "--trials", "0")
    add("integrate", *_pair(1), "--norm", "frobenius")
    add("unknown")
    add("--version")
    return out


def invoke(case: dict, root: Path) -> dict:
    """Run one case in-process; the record of its exit code, stdout and stderr."""
    argv = [a.replace("{tmp}", str(root)) for a in case["argv"]]
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
    finally:
        if saved is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return {**case, "code": code, "stdout": out.getvalue(),
            "stderr": stderr.replace(str(root), "<tmp>")}


def differences(old: dict, new: dict) -> list[str]:
    """The exit codes if they differ, and the first differing line of stdout
    and of stderr, as recorded in the corpus and as printed by the run."""
    out = []
    if old["code"] != new["code"]:
        out.append(f"code    corpus: {old['code']}  run: {new['code']}")
    for stream in ("stdout", "stderr"):
        a, b = old[stream].splitlines(), new[stream].splitlines()
        for i in range(max(len(a), len(b))):
            was = a[i] if i < len(a) else "<no line>"
            now = b[i] if i < len(b) else "<no line>"
            if was != now:
                out.append(f"{stream} line {i + 1}")
                out.append(f"  corpus: {was}")
                out.append(f"  run:    {now}")
                break
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="List or re-record the CLI golden corpus.")
    ap.add_argument("--write", action="store_true", help="rewrite the corpus file")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        records = [invoke(case, Path(tmp)) for case in cases()]
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    old_by_argv = {json.dumps(r["argv"]): r for r in old}
    for rec in records:
        prev = old_by_argv.get(json.dumps(rec["argv"]))
        if prev is None:
            print("new: " + " ".join(rec["argv"]))
        elif prev != rec:
            print("changed: " + " ".join(rec["argv"]))
            for line in differences(prev, rec):
                print("  " + line)
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

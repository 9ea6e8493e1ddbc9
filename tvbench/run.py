"""Run one tvkit benchmark workload and print its metrics as a JSON line.

    python3 tvbench/run.py --workload scalar-certify --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: a job starts when the previous one has
finished.  tvkit is imported from ``src/`` of the checkout this file sits in.
The run sets up its inputs several times (``setup_s`` is their median), then
runs whole rounds of jobs until the summed job time reaches ``--seconds``,
checking every job's output after it has been timed.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
runs rounds untraced for half the time, runs the same rounds again with
spans around tvkit's layer entry points, writes the spans to
``tvbench/out/``, and reports the per-layer metrics, per job, together with
the tracing overhead.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15
FAILURE_LINES = 5


def _import_tvkit():
    """Import tvkit afresh from the checkout's src/, so each set-up pays it."""
    for name in [m for m in sys.modules if m == "tvkit" or m.startswith("tvkit.")]:
        del sys.modules[name]
    tv = importlib.import_module("tvkit")
    for sub in ("cli", "paths", "variation", "seminorm", "approx", "integrate"):
        importlib.import_module("tvkit." + sub)
    if Path(tv.__file__).resolve().parent != ROOT / "src" / "tvkit":
        raise ImportError(f"tvkit was imported from {tv.__file__}, not from src/")
    return tv


class Loop:
    """Timed rounds, failure counts and the job times of one pass."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.times: list[float] = []
        self.failed = 0
        self.unexpected: list[str] = []

    def run_round(self, r: int) -> None:
        for job in self.workload.round(r):
            if self.tracer is not None:
                self.tracer.start_job(len(self.times))
                span = self.tracer.open("job")
            error = None
            start = perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a job that raises is a failed job
                error = exc
            elapsed = perf_counter() - start
            if self.tracer is not None:
                self.tracer.close(span)
            self.times.append(elapsed)
            if error is None:
                try:
                    job.check(out)
                except Exception as exc:  # a check that cannot finish fails the job
                    error = exc
            if error is not None:
                self.failed += 1
                if not job.excused(error):
                    self.unexpected.append(f"{job.kind}: {type(error).__name__}: {error}")

    def until(self, seconds: float) -> int:
        rounds = 0
        while rounds == 0 or sum(self.times) < seconds:
            self.run_round(rounds)
            rounds += 1
        return rounds


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tvkit" / "__init__.py").is_file():
        print(f"no tvkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            tv = _import_tvkit()
            workload = WORKLOADS[args.workload]()
            workload.setup(tv, args.seed, work)
            setups.append(perf_counter() - start)

        if args.trace == 0:
            loop = Loop(workload)
            loop.until(args.seconds)
            loops = [loop]
            metrics = {
                "jobs_per_s": {"value": len(loop.times) / sum(loop.times), "unit": "1/s"},
                "job_s.p50": {"value": statistics.median(loop.times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
            }
        else:
            from tracing import Tracer, layer_metrics
            plain = Loop(workload)
            rounds = plain.until(args.seconds / 2.0)
            tracer = Tracer()
            tracer.install(tv)
            traced = Loop(workload, tracer)
            for r in range(rounds):
                traced.run_round(r)
            tracer.uninstall()
            loops = [plain, traced]
            jobs = len(traced.times)
            metrics = layer_metrics(tracer, jobs)
            metrics["trace.overhead_s"] = {
                "value": (sum(traced.times) - sum(plain.times)) / jobs, "unit": "s"}
            tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(loop.times) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    unexpected = [line for loop in loops for line in loop.unexpected]
    for line in unexpected[:FAILURE_LINES]:
        print("failed:", line, file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around calls into tvkit's public functions.

The tracer wraps functions and methods from outside the program: every
module attribute of the tvkit package that is bound to a traced function is
rebound to a wrapper, so calls between tvkit modules are seen too.  Spans are
kept in a list and written out when the run ends; per-layer metrics are
derived from them afterwards.  A span's self time is its duration minus the
durations of its direct child spans (one thread, so children nest fully).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index, job]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._job = -1
        self._matrices_seen: set = set()
        self._profiles_seen: dict[int, object] = {}
        self._restore: list[tuple] = []

    # -- spans ------------------------------------------------------------
    def start_job(self, job: int) -> None:
        """Per-job state: repeats and cache hits are judged within one job."""
        self._job = job
        self._matrices_seen.clear()
        self._profiles_seen.clear()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- counters at the traced boundaries -----------------------------------
    def _distance_matrix(self, args, _result) -> None:
        path = args[0]
        values = path.values
        key = (type(path).__name__, path.norm, values.shape,
               hashlib.blake2b(values.tobytes(), digest_size=16).digest())
        self.counts["paths.distance_matrix.calls"] += 1
        self.counts["paths.distance_matrix.cells"] += path.n ** 2
        if key in self._matrices_seen:
            self.counts["paths.distance_matrix.repeats"] += 1
        self._matrices_seen.add(key)

    def _operator_norm(self, args, _result) -> None:
        self.counts["paths.operator_norm.matrices"] += math.prod(args[0].shape[:-2])

    def _ttv_profile(self, _args, result) -> None:
        # a cache hit hands back a profile object this job has already seen
        if id(result) not in self._profiles_seen:
            self._profiles_seen[id(result)] = result
            self.counts["variation.ttv_profile.builds"] += 1

    def _greedy_skeleton(self, _args, result) -> None:
        self.counts["approx.greedy_skeleton.stops"] += result.steps

    def _rs_integral(self, _args, result) -> None:
        self.counts["integrate.rs_integral.levels"] += result.refinement_levels

    # -- installation -------------------------------------------------------
    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, tv) -> None:
        """Wrap tvkit's layer entry points; ``tv`` is the imported package."""
        spans = [
            (tv.cli, "run", "cli.run", None),
            (tv.paths, "operator_norm", "paths.operator_norm", self._operator_norm),
            (tv.paths, "oscillation", "paths.oscillation", None),
            (tv.paths, "read_path_csv", "paths.read_path_csv", None),
            (tv.paths, "gen_alpha_stable", "paths.gen_alpha_stable", None),
            (tv.variation, "ttv_profile", "variation.ttv_profile", self._ttv_profile),
            (tv.variation, "p_variation", "variation.p_variation", None),
            (tv.variation, "phi_variation", "variation.phi_variation", None),
            (tv.seminorm, "p_tv_seminorm", "seminorm.p_tv_seminorm", None),
            (tv.approx, "greedy_skeleton", "approx.greedy_skeleton", self._greedy_skeleton),
            (tv.approx, "step_approx", "approx.step_approx", None),
            (tv.approx, "linear_approx", "approx.linear_approx", None),
            (tv.approx, "sandwich", "approx.sandwich", None),
            (tv.integrate, "rs_integral", "integrate.rs_integral", self._rs_integral),
            (tv.integrate, "step_integral", "integrate.step_integral", None),
            (tv.integrate, "indefinite_integral", "integrate.indefinite_integral", None),
            (tv.integrate, "young_bound_S", "integrate.young_bound_S", None),
            (tv.integrate, "choose_sequences", "integrate.choose_sequences", None),
            (tv.integrate, "ly_constant", "integrate.ly_constant", None),
            (tv.integrate, "irregularity_constant", "integrate.irregularity_constant", None),
        ]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tvkit" or name.startswith("tvkit."))]
        for owner, attr, name, after in spans:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        for cls in (tv.paths.SampledPath, tv.paths.OperatorPath):
            self._rebind(cls, "distance_matrix",
                         self._wrap(cls.distance_matrix, "paths.distance_matrix",
                                    self._distance_matrix))
        self._rebind(tv.variation.TtvProfile, "ttv",
                     self._counted(tv.variation.TtvProfile.ttv, "variation.profile_reads"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def totals(self) -> tuple[dict, dict]:
        """Total duration and total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        full: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            full[name] += end - start
            own[name] += end - start - child[idx]
        return full, own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# (metric, source): source is ("self"|"full", span names) for times in s, or
# ("count",) for the tracer's counter of the metric's name; values are per job
LAYER_METRICS = [
    ("cli.run.self_s", ("self", "cli.run")),
    ("paths.distance_matrix.self_s", ("self", "paths.distance_matrix")),
    ("paths.distance_matrix.calls", ("count",)),
    ("paths.distance_matrix.repeats", ("count",)),
    ("paths.distance_matrix.cells", ("count",)),
    ("paths.operator_norm.s", ("full", "paths.operator_norm")),
    ("paths.operator_norm.matrices", ("count",)),
    ("paths.oscillation.self_s", ("self", "paths.oscillation")),
    ("paths.read_path_csv.s", ("full", "paths.read_path_csv")),
    ("paths.gen_alpha_stable.s", ("full", "paths.gen_alpha_stable")),
    ("variation.ttv_profile.self_s", ("self", "variation.ttv_profile")),
    ("variation.ttv_profile.builds", ("count",)),
    ("variation.profile_reads", ("count",)),
    ("variation.p_variation.self_s", ("self", "variation.p_variation")),
    ("variation.phi_variation.self_s", ("self", "variation.phi_variation")),
    ("seminorm.p_tv_seminorm.self_s", ("self", "seminorm.p_tv_seminorm")),
    ("approx.greedy_skeleton.s", ("full", "approx.greedy_skeleton")),
    ("approx.greedy_skeleton.stops", ("count",)),
    ("approx.step_approx.self_s", ("self", "approx.step_approx")),
    ("approx.linear_approx.self_s", ("self", "approx.linear_approx")),
    ("approx.sandwich.self_s", ("self", "approx.sandwich")),
    ("integrate.rs_integral.self_s", ("self", "integrate.rs_integral")),
    ("integrate.rs_integral.levels", ("count",)),
    ("integrate.step_integral.s", ("full", "integrate.step_integral")),
    ("integrate.indefinite_integral.s", ("full", "integrate.indefinite_integral")),
    ("integrate.young_bound_S.self_s", ("self", "integrate.young_bound_S")),
    ("integrate.choose_sequences.self_s", ("self", "integrate.choose_sequences")),
    ("integrate.constants.s",
     ("full", "integrate.ly_constant", "integrate.irregularity_constant")),
]


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Every per-layer metric as a mean per job of the traced loop."""
    full, own = tracer.totals()
    out = {}
    for name, (kind, *sources) in LAYER_METRICS:
        if kind == "count":
            total, unit = tracer.counts.get(name, 0.0), "count"
        else:
            table = own if kind == "self" else full
            total, unit = sum(table.get(src, 0.0) for src in sources), "s"
        out[name] = {"value": total / jobs, "unit": unit}
    return out

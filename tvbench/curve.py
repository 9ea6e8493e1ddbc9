"""One-off reference table: pair-profile and spectral-norm time against n.

    python3 tvbench/curve.py

Times one call per case, in this process, with a wall-time cap of CAP_S
seconds; a case over its cap is stopped by an alarm and printed as
``timeout``.  Rows are JSON: ``{"case", "n", "seconds"}``.

- ``ttv_profile``: the pair profile of a scalar alpha-stable path (alpha 1.5),
  distance matrix included; O(n^3).
- ``operator_norm`` / ``lapack_norm``: spectral norms of the n x n batch of
  differences of a 2x2 operator path whose four entries are independent
  alpha-stable walks, by tvkit's power iteration and by
  ``np.linalg.norm(..., ord=2)``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tvkit.paths import NormKind, gen_alpha_stable, operator_norm  # noqa: E402
from tvkit.variation import ttv_profile  # noqa: E402


CAP_S = 30.0


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout


def _timed(fn, cap: float):
    signal.setitimer(signal.ITIMER_REAL, cap)
    start = perf_counter()
    try:
        fn()
        return perf_counter() - start
    except _Timeout:
        return "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    for n in (256, 512, 1024, 2048):
        path = gen_alpha_stable(n, 1.5, seed=n)
        print(json.dumps({"case": "ttv_profile", "n": n,
                          "seconds": _timed(lambda: ttv_profile(path), CAP_S)}))
    for n in (64, 128, 256, 512):
        walks = np.stack([gen_alpha_stable(n, 1.5, seed=[n, k]).values[:, 0]
                          for k in range(4)], axis=1).reshape(n, 2, 2)
        diffs = walks[None, :, :, :] - walks[:, None, :, :]
        for case, fn in (("operator_norm", lambda: operator_norm(diffs, NormKind.euclidean)),
                         ("lapack_norm", lambda: np.linalg.norm(diffs, ord=2, axis=(-2, -1)))):
            print(json.dumps({"case": case, "n": n, "seconds": _timed(fn, CAP_S)}))


if __name__ == "__main__":
    main()

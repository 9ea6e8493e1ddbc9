"""Exact variation functionals on sampled paths.

Everything here is a supremum over subsequences of sample indices, which for
step completions equals the supremum over arbitrary partitions (partition
points between samples never help because the path is constant there).  The
truncated variation is served through the pair profile M_1 <= ... <= M_K,
where M_k is the largest sum of k increment norms over k disjoint ordered
index pairs; then TTV(c) = max(0, max_k (M_k - k c)) for every threshold c at
once.  p- and phi-variation run one subsequence DP over distance columns;
a 2^n enumeration oracle is provided for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .paths import _distance_columns

__all__ = [
    "TtvProfile",
    "PhiSpec",
    "ttv_profile",
    "ttv",
    "ttv_brute",
    "total_variation",
    "p_variation",
    "phi_variation",
    "phi_value",
    "subsequence_sup_brute",
]

_BRUTE_MAX_SAMPLES = 14


@dataclass(frozen=True)
class TtvProfile:
    """Nondecreasing maxima M_k over systems of k disjoint ordered pairs."""

    M: np.ndarray  # shape (K,), K = n - 1; empty for single-point paths

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.M, dtype=float))
        m.flags.writeable = False
        object.__setattr__(self, "M", m)

    @property
    def K(self) -> int:
        return self.M.size

    @property
    def total_variation(self) -> float:
        return float(self.M[-1]) if self.K else 0.0

    def ttv(self, c):
        """Truncated variation at threshold c, read off the profile; for an
        array of thresholds, the array of the one-threshold reads."""
        cs = np.asarray(c, dtype=float)
        if not np.all(cs >= 0.0):
            raise DomainError("threshold c must be nonnegative")
        ks = np.arange(1, self.K + 1)
        best = np.max(self.M - cs[..., None] * ks, axis=-1, initial=-np.inf)
        out = np.where(best > 0.0, best, 0.0)
        return float(out) if cs.ndim == 0 else out

    def sup_weighted(self, p: float) -> tuple[float, int | None, float | None]:
        """(value, k, delta) of the seminorm (sup_delta delta^(p-1) TTV(delta))^(1/p):
        value = max_k c_p^(1/p) M_k / k^(1-1/p) at k, attained at delta = M_k (p-1)/(k p);
        (0.0, None, None) when the profile has no nonzero increment."""
        cp = c_p_const(p)
        if self.total_variation == 0.0:
            return 0.0, None, None
        ks = np.arange(1, self.K + 1, dtype=float)
        candidates = cp ** (1.0 / p) * self.M / ks ** (1.0 - 1.0 / p)
        k = int(np.argmax(candidates)) + 1
        return float(candidates[k - 1]), k, float(self.M[k - 1]) * (p - 1.0) / (k * p)


def c_p_const(p: float) -> float:
    """(p-1)^(p-1) / p^p, the sharp constant of the single-jump supremum."""
    if not 1.0 <= p < math.inf:
        raise DomainError("p must be finite and at least 1")
    if p == 1.0:
        return 1.0
    return (p - 1.0) ** (p - 1.0) / p ** p


def _pair_profile(dist: np.ndarray) -> np.ndarray:
    """Dynamic program for the pair profile on a pairwise distance matrix.

    State A[j] after m rounds = best sum of m disjoint pairs whose last
    endpoint is <= j; consecutive pairs may share an endpoint.
    """
    n = dist.shape[0]
    gains = np.where(np.triu(np.ones((n, n), dtype=bool), k=1), dist, -np.inf)
    best = np.zeros(n)
    profile = np.empty(n - 1)
    for m in range(n - 1):
        ended_here = np.max(best[:, None] + gains, axis=0)
        best = np.maximum.accumulate(ended_here)
        profile[m] = best[-1]
    return profile


def ttv_profile(path) -> TtvProfile:
    """Pair profile of a path, cached on the (immutable) path instance."""
    cached = getattr(path, "_ttv_profile", None)
    if cached is None:
        cached = TtvProfile(_pair_profile(path.distance_matrix()))
        object.__setattr__(path, "_ttv_profile", cached)
    return cached


def ttv(path, c: float) -> float:
    """Exact discrete truncated variation at threshold c >= 0."""
    return ttv_profile(path).ttv(c)


def total_variation(path) -> float:
    return ttv_profile(path).total_variation


def subsequence_sup_brute(path, weight: Callable[[float], float]) -> float:
    """Enumerate all index subsequences; oracle for the dynamic programs.

    The sum of a mask whose highest sample is k extends the sum of the mask
    without k by the weight of the last pair, so every sum adds its pair
    weights left to right, exactly as a per-mask loop would.
    """
    n = path.n
    if n > _BRUTE_MAX_SAMPLES:
        raise DomainError(f"brute enumeration limited to {_BRUTE_MAX_SAMPLES} samples")
    w = np.zeros((n, n))
    for k, dist in _distance_columns(path):
        w[:k, k] = [weight(float(x)) for x in dist]
    totals = np.zeros(1 << n)
    top = np.zeros(1 << n, dtype=int)   # highest sample of each mask
    for k in range(n):
        lo = 1 << k
        totals[lo + 1:2 * lo] = totals[1:lo] + w[top[1:lo], k]
        top[lo:2 * lo] = k
    # NaN sums never win, as in a running `total > best` scan
    return float(np.max(np.where(totals > 0.0, totals, 0.0)))


def ttv_brute(path, c: float) -> float:
    """2^n enumeration of the truncated variation; tests only."""
    if not c >= 0.0:
        raise DomainError("threshold c must be nonnegative")
    return subsequence_sup_brute(path, lambda d: max(d - c, 0.0))


def _subsequence_sup(path, weight: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup over index subsequences of the summed pair weights weight(distance).

    best[j] is the best sum over subsequences ending at sample j; the
    distances to sample j are built one column at a time.
    """
    best = np.zeros(path.n)
    for j, dist in _distance_columns(path):
        best[j] = np.max(best[:j] + weight(dist))
    return float(best.max(initial=0.0))


def p_variation(path, p: float) -> float:
    """Discrete p-variation: sup over subsequences of sum ||increment||^p.

    Returns the p-th power sum itself, not its 1/p root.
    """
    if not 1.0 <= p < math.inf:
        raise DomainError("p must be finite and at least 1")
    return _subsequence_sup(path, lambda dist: dist ** p)


@dataclass(frozen=True)
class PhiSpec:
    """A monotone variation weight with phi(0) = 0.

    Either one of the two built-in families

        kind 1:  phi(x) = x^p / (ln(1 + 1/x))^gamma
        kind 2:  phi(x) = x^p / (ln(1 + 1/x) * (ln ln(e + 1/x))^gamma)

    (requiring p > 1, gamma > 1, which makes them admissible weights), or a
    caller-supplied callable with an explicit admissibility flag.
    """

    kind: int | None = None
    p: float | None = None
    gamma: float | None = None
    func: Callable | None = None
    admissible: bool = True

    @classmethod
    def family(cls, kind: int, p: float, gamma: float) -> "PhiSpec":
        if kind not in (1, 2):
            raise DomainError("family kind must be 1 or 2")
        if not (p > 1.0 and gamma > 1.0):
            raise DomainError("family weights require p > 1 and gamma > 1")
        return cls(kind=kind, p=float(p), gamma=float(gamma), admissible=True)

    @classmethod
    def custom(cls, func: Callable, admissible: bool) -> "PhiSpec":
        spec = cls(func=func, admissible=admissible)
        if abs(spec(0.0)) != 0.0:
            raise DomainError("phi(0) must be 0")
        grid = np.geomspace(1e-6, 10.0, 1000)
        vals = spec(grid)
        if np.any(np.diff(vals) < -1e-12 * max(1.0, float(np.max(np.abs(vals))))):
            raise DomainError("phi must be nondecreasing (spot check failed)")
        return spec

    def __call__(self, x):
        return phi_value(self, x)


def phi_value(phi: PhiSpec, x) -> np.ndarray | float:
    """Evaluate a variation weight; the x = 0 value is the continuous limit 0."""
    xs = np.asarray(x, dtype=float)
    if not np.all(xs >= 0.0):
        raise DomainError("phi is defined on nonnegative arguments")
    if phi.func is not None:
        out = np.asarray(phi.func(xs), dtype=float)
    else:
        with np.errstate(divide="ignore"):
            inv = np.where(xs > 0.0, 1.0 / np.where(xs > 0.0, xs, 1.0), np.inf)
            log_term = np.log1p(inv)
            if phi.kind == 1:
                denom = log_term ** phi.gamma
            else:
                denom = log_term * np.log(np.log(np.e + inv)) ** phi.gamma
        out = np.where(xs > 0.0, xs ** np.where(xs > 0.0, phi.p, 1.0) / denom, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def phi_variation(path, phi: PhiSpec) -> float:
    """Discrete phi-variation via the subsequence DP with weight phi."""
    if abs(float(phi_value(phi, 0.0))) != 0.0:
        raise DomainError("phi(0) must be 0")
    return _subsequence_sup(path, lambda dist: phi_value(phi, dist))

"""The threshold-weighted variation seminorm.

For p >= 1 the functional (sup_{delta>0} delta^(p-1) TTV(f, delta))^(1/p) is
a seminorm; adding ||f(a)|| makes it a norm.  On sampled paths the supremum
over delta is attained: with the pair profile M_k,

    sup_delta delta^(p-1) max_k (M_k - k delta) = max_k c_p M_k^p / k^(p-1),

because sup_delta delta^(p-1) (x - delta)_+ = c_p x^p with
c_p = (p-1)^(p-1) / p^p (convention 0^0 = 1, so p = 1 recovers the total
variation).  Each inner supremum is attained at delta = x (p-1)/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .variation import ttv_profile

__all__ = [
    "SeminormReport",
    "c_p_const",
    "sup_delta_single",
    "fixed_partition_seminorm",
    "p_tv_seminorm",
    "tv_p_norm",
]


def c_p_const(p: float) -> float:
    """(p-1)^(p-1) / p^p, the sharp constant of the single-jump supremum."""
    if not 1.0 <= p < math.inf:
        raise DomainError("p must be finite and at least 1")
    if p == 1.0:
        return 1.0
    return (p - 1.0) ** (p - 1.0) / p ** p


def sup_delta_single(x: float, p: float) -> float:
    """sup over delta > 0 of delta^(p-1) (x - delta)_+, in closed form."""
    if not x >= 0.0:
        raise DomainError("x must be nonnegative")
    return c_p_const(p) * x ** p


def fixed_partition_seminorm(increments, p: float) -> float:
    """Seminorm contribution of one fixed set of increment norms.

    Equals (sup_delta delta^(p-1) sum_i (x_i - delta)_+)^(1/p); computed by
    sorting the increments nondecreasingly and maximising
    (n-j+1)^(1/p-1) c_p^(1/p) sum_{i>=j} x*_i over the cut index j.
    """
    cp = c_p_const(p)
    xs = np.sort(np.asarray(increments, dtype=float).ravel())
    if xs.size == 0:
        return 0.0
    if not np.all(xs >= 0.0):
        raise DomainError("increments must be nonnegative")
    tail_sums = np.cumsum(xs[::-1])[::-1]        # sum_{i>=j} x*_i for j = 1..n
    counts = np.arange(xs.size, 0, -1, dtype=float)
    return float(np.max(counts ** (1.0 / p - 1.0) * cp ** (1.0 / p) * tail_sums))


@dataclass(frozen=True)
class SeminormReport:
    """Seminorm value with the profile index and threshold attaining it."""

    value: float
    p: float
    argmax_k: int | None = None
    argmax_delta: float | None = None


def p_tv_seminorm(path, p: float) -> SeminormReport:
    """Seminorm of a sampled path via its pair profile.

    value^p = max_k c_p M_k^p / k^(p-1); the maximiser k and the attaining
    threshold delta* = M_k (p-1)/(k p) are reported.  A path with no nonzero
    increment has value 0 and no maximiser.
    """
    if not 1.0 <= p < math.inf:
        raise DomainError("p must be finite and at least 1")
    prof = ttv_profile(path)
    if prof.K == 0 or prof.total_variation == 0.0:
        return SeminormReport(value=0.0, p=float(p))
    ks = np.arange(1, prof.K + 1, dtype=float)
    candidates = c_p_const(p) ** (1.0 / p) * prof.M / ks ** (1.0 - 1.0 / p)
    i = int(np.argmax(candidates))
    k_star = i + 1
    delta_star = float(prof.M[i]) * (p - 1.0) / (k_star * p)
    return SeminormReport(value=float(candidates[i]), p=float(p),
                          argmax_k=k_star, argmax_delta=delta_star)


def tv_p_norm(path, p: float) -> float:
    """||f(a)|| plus the seminorm; a genuine norm on sampled paths."""
    start = float(path.norm_of(path.values[0]))
    return start + p_tv_seminorm(path, p).value

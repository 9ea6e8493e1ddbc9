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
from .variation import c_p_const, ttv_profile

__all__ = [
    "SeminormReport",
    "c_p_const",
    "sup_delta_single",
    "fixed_partition_seminorm",
    "p_tv_seminorm",
    "tv_p_norm",
]


def sup_delta_single(x: float, p: float) -> float:
    """sup over delta > 0 of delta^(p-1) (x - delta)_+, in closed form."""
    x = float(x)  # a NumPy scalar's x ** p would overflow to inf silently
    if not 0.0 <= x < math.inf:
        raise DomainError("x must be finite and nonnegative")
    cp = c_p_const(p)
    try:
        return cp * x ** p
    except OverflowError:  # x^p alone leaves the float range
        pass
    try:
        return math.exp(math.log(cp) + p * math.log(x))
    except OverflowError:
        raise DomainError("sup_delta_single exceeds the float range") from None


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
    value, k, delta = ttv_profile(path).sup_weighted(p)
    return SeminormReport(value=value, p=float(p), argmax_k=k, argmax_delta=delta)


def tv_p_norm(path, p: float) -> float:
    """||f(a)|| plus the seminorm; a genuine norm on sampled paths."""
    start = float(path.norm_of(path.values[0]))
    return start + p_tv_seminorm(path, p).value

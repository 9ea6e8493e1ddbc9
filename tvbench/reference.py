"""Reference computations for the benchmark's correctness checks.

Everything here is written from the definitions, apart from tvkit, with the
euclidean norm throughout: vectors use the 2-norm, operators the spectral
norm from LAPACK (``np.linalg.norm(..., ord=2)``).  A path is an array of
values, shape (n, d) for vector paths and (n, d, d) for operator paths; the
variation functionals are suprema over index subsequences, computed by a
dynamic program that builds one column of distances at a time, so no n x n
matrix is ever held (the benchmark's peak memory stays the program's).
"""

from __future__ import annotations

import math

import numpy as np


def norms(x: np.ndarray) -> np.ndarray:
    """2-norms of (.., d) vectors, or spectral norms of (.., d, d) operators."""
    if x.ndim == 3:
        if x.shape[-1] == 1:
            return np.abs(x[..., 0, 0])
        return np.linalg.norm(x, ord=2, axis=(-2, -1))
    return np.sqrt(np.sum(x * x, axis=-1))


def distances_to(values: np.ndarray, j: int) -> np.ndarray:
    """Distances from values[0..j-1] to values[j]."""
    return norms(values[:j] - values[j])


def subsequence_sup(values: np.ndarray, weight) -> np.ndarray:
    """sup over index subsequences of sum weight(distance), for each weight row.

    ``weight`` maps a (j,) distance column to a (m, j) array of nonnegative
    weights; returns the m suprema.  best[:, j] is the best sum over
    subsequences ending at j.
    """
    n = values.shape[0]
    best = None
    for j in range(1, n):
        w = np.atleast_2d(weight(distances_to(values, j)))
        if best is None:
            best = np.zeros((w.shape[0], n))
        best[:, j] = np.max(best[:, :j] + w, axis=1)
    return best.max(axis=1)


def ttv(values: np.ndarray, cs) -> np.ndarray:
    """Truncated variation sup sum (|increment| - c)_+ at each threshold c."""
    c = np.asarray(cs, dtype=float).reshape(-1, 1)
    return subsequence_sup(values, lambda d: np.maximum(d[None, :] - c, 0.0))


def p_variation(values: np.ndarray, p: float) -> float:
    """sup over subsequences of sum |increment|^p (the p-th power sum)."""
    return float(subsequence_sup(values, lambda d: d ** p)[0])


def phi_weight(kind: int, p: float, gamma: float, x: np.ndarray) -> np.ndarray:
    """x^p / ln(1+1/x)^gamma (kind 1) or x^p / (ln(1+1/x) lnln(e+1/x)^gamma)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    inv = 1.0 / x[pos]
    if kind == 1:
        denom = np.log1p(inv) ** gamma
    else:
        denom = np.log1p(inv) * np.log(np.log(np.e + inv)) ** gamma
    out[pos] = x[pos] ** p / denom
    return out


def phi_variation(values: np.ndarray, kind: int, p: float, gamma: float) -> float:
    return float(subsequence_sup(values, lambda d: phi_weight(kind, p, gamma, d))[0])


def oscillation(values: np.ndarray) -> float:
    """Largest distance between two values."""
    return max((float(distances_to(values, j).max()) for j in range(1, len(values))),
               default=0.0)


def subsequence_sup_brute(values: np.ndarray, weight) -> float:
    """2^n enumeration of sup over subsequences of sum weight(distance)."""
    n = values.shape[0]
    best = 0.0
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        total = 0.0
        for a, b in zip(idx, idx[1:]):
            total += weight(float(distances_to(values[[a, b]], 1)[0]))
        best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# seminorm
# ---------------------------------------------------------------------------

def seminorm_pow_bracket(values: np.ndarray, p: float, rtol: float = 1e-11,
                         rounds: int = 60):
    """Bounds (lower, upper) on sup_delta delta^(p-1) TTV(delta), within rtol.

    TTV is a supremum of sums of (d - delta)_+, so it is convex, nonincreasing
    and piecewise linear in delta, and 0 from the oscillation on.  Between two
    evaluated thresholds it lies below its chord, and delta^(p-1) times the
    chord has a closed-form maximum: that is the interval's upper bound.  An
    interval whose bound exceeds the best value found is split where the
    chord's maximum lies; on a piece where TTV is linear the chord is exact,
    so the bound is attained there.  The lower bound is the best value found.
    """
    osc = oscillation(values)
    if osc == 0.0:
        return 0.0, 0.0
    ds = np.concatenate(([0.0], np.geomspace(osc * 1e-5, osc, 48)))
    ts = ttv(values, ds)
    for _ in range(rounds):
        lower = float(np.max(ds ** (p - 1.0) * ts))
        a, b, ta = ds[:-1], ds[1:], ts[:-1]
        slope = (ta - ts[1:]) / (b - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            peak = np.where(slope > 0.0, (p - 1.0) * (ta + slope * a) / (p * slope), b)
        x = np.clip(peak, a, b)
        bound = x ** (p - 1.0) * (ta - slope * (x - a))
        upper = max(lower, float(np.max(bound)))
        split = bound > lower * (1.0 + rtol)
        if not split.any():
            break
        new = np.where((a < x) & (x < b), x, 0.5 * (a + b))[split]
        ds, ts = np.concatenate((ds, new)), np.concatenate((ts, ttv(values, new)))
        order = np.argsort(ds)
        ds, ts = ds[order], ts[order]
    return lower, upper


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def as_operator(values: np.ndarray) -> np.ndarray:
    """Scalar (n,) or (n, 1) values as (n, 1, 1) operators."""
    v = np.asarray(values, dtype=float)
    return v.reshape(v.shape[0], 1, 1) if v.ndim < 3 else v


def trapezoid(f_ops: np.ndarray, g_vecs: np.ndarray) -> np.ndarray:
    """Limit of left-tag sums for linear completions on one shared grid:
    sum_i (f_i + f_(i+1))/2 (g_(i+1) - g_i)."""
    mid = 0.5 * (f_ops[:-1] + f_ops[1:])
    return np.einsum("kij,kj->i", mid, np.diff(g_vecs, axis=0))


def _at_jumps(f_times, f_ops, g_times, g_vecs):
    """f(s) and dg(s) at each jump s of g, f being a step function.

    f holds each value until its next time stamp; the two paths share no
    jump time, so f is continuous at every jump of g.
    """
    dg = np.diff(g_vecs, axis=0)
    moved = norms(dg) > 0.0
    idx = np.searchsorted(f_times, g_times[1:][moved], side="right") - 1
    return f_ops[idx], dg[moved]


def jump_sum(f_times, f_ops, g_times, g_vecs) -> np.ndarray:
    """Exact integral of step completions: sum over g's jumps of f(s) dg(s)."""
    fs, dg = _at_jumps(f_times, f_ops, g_times, g_vecs)
    return np.einsum("kij,kj->i", fs, dg)


def indefinite_values(f_times, f_ops, g_times, g_vecs) -> np.ndarray:
    """Values of t -> int_a^t [f - f(a)] dg at a and after each jump of g."""
    fs, dg = _at_jumps(f_times, f_ops, g_times, g_vecs)
    terms = np.einsum("kij,kj->ki", fs - f_ops[0], dg)
    return np.concatenate((np.zeros((1, g_vecs.shape[1])), np.cumsum(terms, axis=0)))


# ---------------------------------------------------------------------------
# constants and the majorant S
# ---------------------------------------------------------------------------

def alpha_r(p: float, q: float) -> tuple[float, float]:
    alpha = (math.sqrt((q - 1.0) * (p - 1.0)) + 1.0) / 2.0
    return alpha, alpha * alpha / ((q - 1.0) * (p - 1.0))


def double_exp_series(const: float, coef: float, r: float) -> float:
    """sum_(k>=0) 3^(k + const - coef r^k), summed until the terms underflow."""
    total = 0.0
    for k in range(100_000):
        expo = k + const - coef * r ** k
        if expo < -700.0 and coef * r ** k > k:
            return total
        total += 3.0 ** expo
    raise ArithmeticError("series did not settle")


def series_pair(p: float, q: float) -> tuple[float, float]:
    alpha, r = alpha_r(p, q)
    return (double_exp_series(1.0, 1.0 - alpha, r),
            double_exp_series(1.0 - p, alpha * (1.0 - alpha) / (q - 1.0), r))


def c_pq(p: float, q: float) -> float:
    s1, s2 = series_pair(p, q)
    return 4.0 ** q * s1 + 4.0 ** p * s2


def d_pq(p: float, q: float) -> float:
    s1, s2 = series_pair(p, q)
    return (4.0 ** q * s1 * (2.0 * 4.0 ** p * s2) ** (q - 1.0)) ** (1.0 / q)


def majorant_S(f_ops: np.ndarray, g_vecs: np.ndarray, p: float, q: float,
               vp: float, vq: float) -> float:
    """S = 4 sum_k 3^k [eta_(k-1) TTV(g, theta_k/4) + theta_k TTV(f, eta_k/4)]

    with beta = max ||f - f(a)|| / 2, gamma = (V^q(g)/V^p(f))^(1/q) beta^(p/q),
    eta_(k-1) = beta 3^(1 - r^k) and theta_k = gamma 3^(-r^k alpha/(q-1)).
    Summed until a term bound with TTV replaced by TV is 1e-18 of the sum.
    """
    beta = 0.5 * float(np.max(norms(f_ops - f_ops[0])))
    if vp == 0.0 or vq == 0.0 or beta == 0.0:
        return 0.0
    alpha, r = alpha_r(p, q)
    gamma = (vq / vp) ** (1.0 / q) * beta ** (p / q)

    def eta(k):   # eta_k
        return beta * 3.0 ** (1.0 - r ** (k + 1)) if (k + 1) * math.log(r) < 700 else 0.0

    def theta(k):
        return gamma * 3.0 ** (-(r ** k) * alpha / (q - 1.0)) if k * math.log(r) < 700 else 0.0

    tv_f = float(ttv(f_ops, [0.0])[0])
    tv_g = float(ttv(g_vecs, [0.0])[0])
    ks, bound_sum = [], 0.0
    for k in range(10_000):
        bound = 4.0 * 3.0 ** k * (eta(k - 1) * tv_g + theta(k) * tv_f)
        bound_sum += bound
        ks.append(k)
        if k > 2 and bound <= 1e-18 * bound_sum:
            break
    ttv_g = ttv(g_vecs, [theta(k) / 4.0 for k in ks])
    ttv_f = ttv(f_ops, [eta(k) / 4.0 for k in ks])
    return float(sum(4.0 * 3.0 ** k * (eta(k - 1) * ttv_g[i] + theta(k) * ttv_f[i])
                     for i, k in enumerate(ks)))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def alpha_stable_values(n: int, alpha: float, seed) -> np.ndarray:
    """Symmetric alpha-stable walk on [0, 1] by the Chambers-Mallows-Stuck
    transform, scale 1, starting at 0.

    Draws V ~ U(-pi/2, pi/2) then W ~ Exp(1) from numpy's default generator,
    the documented input of ``tvkit gen --gen alpha-stable``.
    """
    rng = np.random.default_rng(seed)
    m = n - 1
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, m)
    w = rng.exponential(1.0, m)
    x = (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
         * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha))
    return np.concatenate(([0.0], np.cumsum((1.0 / m) ** (1.0 / alpha) * x)))


def cli_pair_seeds(seed: int):
    """The two child seeds the CLI derives for a generated (f, g) pair."""
    return np.random.SeedSequence(seed).spawn(2)


def stagger(times: np.ndarray, values: np.ndarray):
    """Move each jump to the midpoint after its sample; hold the last value."""
    mids = 0.5 * (times[:-1] + times[1:])
    return (np.concatenate(([times[0]], mids, [times[-1]])),
            np.concatenate((values, values[-1:])))

"""Riemann-Stieltjes integration of operator paths against vector paths.

Integrals are limits of tagged sums sum_i f(xi_i) [g(t_i) - g(t_{i-1})].
Two sampled operands are integrated exactly: step completions with disjoint
jump times give the finite sum of f(s) dg(s) over the jumps of g, and linear
completions the trapezoid sum on the merged time grid.  Dyadic refinement is
left only for operands that include a callable.  The module also evaluates
the two-sided multiscale majorant

    S = 4 sum_k 3^k eta_{k-1} TTV(g, theta_k / 4)
      + 4 sum_k 3^k theta_k TTV(f, eta_k / 4)

for nonincreasing positive sequences eta, theta (S bounds the integral's
deviation from f(a)[g(b) - g(a)] and its finiteness guarantees existence),
the closed-form choice of sequences driven by the p- and q-variations, the
resulting variation-product bound with its explicit constant, and the
matching bound on the threshold-variation seminorm of the indefinite
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CommonJumpError, ConvergenceError, DomainError, SeriesError
from .paths import NormKind, OperatorPath, SampledPath, oscillation, vector_norm
from .seminorm import p_tv_seminorm
from .variation import p_variation, ttv_profile

__all__ = [
    "SequencePair",
    "IntegralReport",
    "IrregularityReport",
    "sum_by_parts_sides",
    "rs_sum",
    "rs_integral",
    "step_integral",
    "indefinite_integral",
    "young_bound_S",
    "partition_deviation_bound",
    "choose_sequences",
    "ly_constant",
    "irregularity_constant",
    "improved_ly_check",
    "irregularity_check",
]

_GROWTH_CAP = 20
_CHUNK = 1 << 20


def _check_exponents(p: float, q: float) -> None:
    if not (p > 1.0 and q > 1.0):
        raise DomainError("need p > 1 and q > 1")
    if not 1.0 / p + 1.0 / q > 1.0:
        raise DomainError("exponent constraint violated: 1/p+1/q <= 1")


def _alpha_r(p: float, q: float) -> tuple[float, float]:
    alpha = (math.sqrt((q - 1.0) * (p - 1.0)) + 1.0) / 2.0
    r = alpha * alpha / ((q - 1.0) * (p - 1.0))
    return alpha, r


# ---------------------------------------------------------------------------
# evaluables: anything we can sample at arbitrary times
# ---------------------------------------------------------------------------

class _PathLinear:
    """Piecewise-linear completion through the samples."""

    def __init__(self, path):
        self.source = path
        self._flat = path.values.reshape(path.n, -1)

    def eval_at(self, t):
        ts = np.asarray(t, dtype=float)
        # written so that NaN fails the test
        if ts.size and not (ts.min() >= self.source.a and ts.max() <= self.source.b):
            raise DomainError("evaluation time outside the sampled range")
        cols = [np.interp(ts, self.source.times, self._flat[:, j])
                for j in range(self._flat.shape[1])]
        out = np.stack(cols, axis=-1)
        return out.reshape(ts.shape + self.source.values.shape[1:])


class _PathStep:
    """Step completion: the path's own right-continuous evaluation."""

    def __init__(self, path):
        self.source = path
        self.eval_at = path.eval_at


class _Func:
    """A callable of time; 1-d results are promoted to values of the given rank."""

    source = None

    def __init__(self, fn: Callable, rank: int):
        self.fn = fn
        self.rank = rank

    def eval_at(self, t):
        out = np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)
        if out.ndim == 1:
            out = out.reshape((out.size,) + (1,) * (self.rank - 1))
        return out


def _evaluable(x, completion: str, operator: bool):
    """Adapter sampling an integrand (``operator``) or an integrator at any times."""
    if completion not in ("step", "linear"):
        raise DomainError(f"unknown completion {completion!r}; expected step or linear")
    if operator and isinstance(x, SampledPath):
        x = OperatorPath.from_scalar_path(x)
    if isinstance(x, OperatorPath if operator else SampledPath):
        return _PathLinear(x) if completion == "linear" else _PathStep(x)
    if callable(x):
        return _Func(x, 3 if operator else 2)
    if operator:
        raise DomainError("integrand must be an operator path, scalar path, or callable")
    raise DomainError("integrator must be a sampled path or a callable")


def _as_operator(f) -> OperatorPath:
    """The integrand as an operator path; a scalar path becomes 1x1."""
    return f if isinstance(f, OperatorPath) else OperatorPath.from_scalar_path(f)


def _check_partition(partition, tags) -> tuple[np.ndarray, np.ndarray]:
    """Partition points and tags as arrays, each tag inside its cell."""
    pts = np.asarray(partition, dtype=float)
    xi = np.asarray(tags, dtype=float)
    if (pts.ndim != 1 or pts.size < 2 or not np.all(np.isfinite(pts))
            or not np.all(np.diff(pts) > 0.0)):
        raise DomainError("partition must be finite, strictly increasing, with >= 2 points")
    if xi.shape != (pts.size - 1,):
        raise DomainError("need exactly one tag per partition cell")
    # written so that NaN fails the test
    if not np.all((xi >= pts[:-1]) & (xi <= pts[1:])):
        raise DomainError("each tag must lie inside its cell")
    return pts, xi


def _require_disjoint_jumps(f, g) -> None:
    """Exact shared times at which both step paths jump are a violation."""
    shared = np.intersect1d(f.jump_times(), g.jump_times())
    if shared.size:
        raise CommonJumpError(f"integrand and integrator share jump times {shared[:5]}")


def _result_norm_kind(f, g) -> NormKind:
    for obj in (g, f):
        kind = getattr(obj, "norm", None)
        if kind is not None:
            return kind
    return NormKind.euclidean


# ---------------------------------------------------------------------------
# tagged sums and refinement
# ---------------------------------------------------------------------------

def sum_by_parts_sides(op_values: np.ndarray, vec_values: np.ndarray):
    """Both sides of the Abel rearrangement of a tagged sum.

    ``op_values`` holds f(xi_0), ..., f(xi_n) (xi_0 = c) and ``vec_values``
    holds g(t_0), ..., g(t_n); returns the pair

        sum_i [f(xi_i) - f(c)] [g(t_i) - g(t_{i-1})],
        sum_i [f(xi_i) - f(xi_{i-1})] [g(t_n) - g(t_{i-1})].

    The two are identical for any inputs; tests exercise the identity.
    """
    fo = np.asarray(op_values, dtype=float)
    gv = np.asarray(vec_values, dtype=float)
    lhs = np.einsum("kij,kj->i", fo[1:] - fo[0], np.diff(gv, axis=0))
    rhs = np.einsum("kij,kj->i", np.diff(fo, axis=0), gv[-1] - gv[:-1])
    return lhs, rhs


def rs_sum(f, g, partition, tags, completion: str = "step") -> np.ndarray:
    """Tagged Riemann-Stieltjes sum sum_i f(xi_i) [g(t_i) - g(t_{i-1})]."""
    pts, xi = _check_partition(partition, tags)
    fe = _evaluable(f, completion, operator=True)
    ge = _evaluable(g, completion, operator=False)
    fo = fe.eval_at(xi)
    gv = ge.eval_at(pts)
    return np.einsum("kij,kj->i", fo, np.diff(gv, axis=0))


def _merged_grid(fe, ge, a: float, b: float) -> np.ndarray:
    """a, b and the sampled operands' times inside [a, b], sorted and unique."""
    knots = [ev.source.times for ev in (fe, ge) if ev.source is not None]
    grid = np.unique(np.concatenate([[a, b], *knots]))
    return grid[(grid >= a) & (grid <= b)]


@dataclass(frozen=True)
class IntegralReport:
    """Integral value with refinement diagnostics and optional bounds."""

    value: np.ndarray
    refinement_levels: int
    cauchy_gap: float
    ly_lhs: float | None = None
    ly_rhs: float | None = None
    ratio: float | None = None
    c_pq: float | None = None


def _level_sum(fe, ge, a: float, b: float, cells: int, tag_rule: str) -> np.ndarray:
    total = None
    for start in range(0, cells, _CHUNK):
        stop = min(start + _CHUNK, cells)
        edges = a + (b - a) * np.arange(start, stop + 1) / cells
        if tag_rule == "left":
            tags = edges[:-1]
        elif tag_rule == "right":
            tags = edges[1:]
        else:
            tags = 0.5 * (edges[:-1] + edges[1:])
        fo = fe.eval_at(tags)
        gv = ge.eval_at(edges)
        part = np.einsum("kij,kj->i", fo, np.diff(gv, axis=0))
        total = part if total is None else total + part
    return total


def _sampled_integral(fe, ge, a: float, b: float) -> np.ndarray:
    """Exact integral over [a, b] of two sampled operands' completions.

    Step completions give the jump sum; linear ones are both linear on each
    cell of the merged grid, where int f dg = (f_i + f_{i+1})/2 [g_{i+1} - g_i].
    Neither limit depends on the tags.
    """
    if isinstance(fe, _PathStep):
        return step_integral(fe.source.restrict(a, b), ge.source.restrict(a, b))
    grid = _merged_grid(fe, ge, a, b)
    fo = fe.eval_at(grid)
    return np.einsum("kij,kj->i", 0.5 * (fo[:-1] + fo[1:]),
                     np.diff(ge.eval_at(grid), axis=0))


def rs_integral(f, g, tol: float = 1e-9, max_levels: int = 24,
                interval: tuple[float, float] | None = None,
                tag_rule: str = "left", completion: str = "step") -> IntegralReport:
    """Riemann-Stieltjes integral of f dg over ``interval`` (default: the domain).

    Two sampled operands are integrated exactly (jump sum of step
    completions, trapezoid sum of linear ones on the merged grid) and report
    0 levels and gap 0.0; step operands must not share jump times.  When
    either operand is a callable, dyadic partitions are refined until two
    levels in a row agree to tol (failure within ``max_levels`` raises); that
    result is a Cauchy-stopped estimate, not a certified value, because coarse
    sums can agree by accident (the README gives an example).
    """
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if tag_rule not in ("left", "mid", "right"):
        raise DomainError("tag_rule must be left, mid, or right")
    fe = _evaluable(f, completion, operator=True)
    ge = _evaluable(g, completion, operator=False)
    src = ge.source or fe.source
    if not interval and src is None:
        raise DomainError("no integration interval: pass interval=(a, b)")
    a, b = map(float, interval or (src.a, src.b))
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("integration interval must be finite with a < b")
    if fe.source is not None and ge.source is not None:
        return IntegralReport(value=_sampled_integral(fe, ge, a, b),
                              refinement_levels=0, cauchy_gap=0.0)
    kind = _result_norm_kind(f, g)
    # insist on two small gaps in a row once the cells resolve every sample
    # time of a sampled operand: coarse dyadic sums coincide by accident
    min_gap = float(np.min(np.diff(_merged_grid(fe, ge, a, b))))
    floor = min(max_levels, max(0, math.ceil(math.log2((b - a) / min_gap))))
    prev = _level_sum(fe, ge, a, b, 1, tag_rule)
    gap = prev_gap = math.inf
    for level in range(1, max_levels + 1):
        cur = _level_sum(fe, ge, a, b, 1 << level, tag_rule)
        prev_gap, gap = gap, float(vector_norm(cur - prev, kind))
        if gap <= tol and prev_gap <= tol and level >= floor:
            return IntegralReport(value=cur, refinement_levels=level, cauchy_gap=gap)
        prev = cur
    raise ConvergenceError(
        f"refinement did not reach tol={tol:g} within {max_levels} levels (last gap {gap:g})")


def step_integral(f, g: SampledPath) -> np.ndarray:
    """Exact integral of step completions with disjoint jump times.

    Each jump of g at time s contributes f(s) dg(s); f is continuous at
    every such s, so the tagged sums converge to exactly this finite sum.
    """
    fop = _as_operator(f)
    _require_disjoint_jumps(fop, g)
    jumps = np.nonzero(g.increments() > 0.0)[0] + 1
    fo = fop.eval_at(g.times[jumps])
    dg = g.values[jumps] - g.values[jumps - 1]
    return np.einsum("kij,kj->i", fo, dg)


def indefinite_integral(f, g: SampledPath) -> SampledPath:
    """Running integral of [f(s) - f(a)] dg(s), sampled at g's jump times."""
    fop = _as_operator(f)
    _require_disjoint_jumps(fop, g)
    fa = fop.eval_at(np.array([g.a]))[0]
    jumps = np.nonzero(g.increments() > 0.0)[0] + 1
    fo = fop.eval_at(g.times[jumps]) - fa
    dg = g.values[jumps] - g.values[jumps - 1]
    terms = np.einsum("kij,kj->ki", fo, dg)
    times = np.concatenate(([g.a], g.times[jumps]))
    values = np.concatenate((np.zeros((1, g.dim)), np.cumsum(terms, axis=0)))
    return SampledPath(times, values, g.norm)


# ---------------------------------------------------------------------------
# sequence pairs and the majorant S
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequencePair:
    """Nonincreasing threshold sequences (eta_k) and (theta_k).

    ``eta(k)`` is defined for k >= -1 (the -1 entry is half the integrand's
    sup-deviation from its start value when bound to one), ``theta(k)`` for
    k >= 0.  Either explicit finite lists, or the closed-form rule

        eta_{k-1} = beta * 3^(1 - r^k),   theta_k = gamma * 3^(-r^k alpha/(q-1)),

    with alpha = (sqrt((q-1)(p-1)) + 1)/2 and r = alpha^2 / ((q-1)(p-1)) > 1,
    whose doubly exponential decay makes S summable with a certifiable tail.
    """

    mode: str  # "explicit" | "closed-form" | "zero"
    eta_values: np.ndarray | None = None    # explicit: [eta_{-1}, eta_0, ...]
    theta_values: np.ndarray | None = None  # explicit: [theta_0, theta_1, ...]
    p: float | None = None
    q: float | None = None
    beta: float | None = None
    gamma: float | None = None

    @classmethod
    def from_lists(cls, eta, theta) -> "SequencePair":
        ev = np.asarray(eta, dtype=float)
        tv = np.asarray(theta, dtype=float)
        if ev.ndim != 1 or tv.ndim != 1 or ev.size != tv.size + 1:
            raise DomainError("eta must carry the -1 entry: len(eta) == len(theta) + 1")
        for name, arr in (("eta", ev), ("theta", tv)):
            if arr.size == 0:
                raise DomainError(f"{name} must be non-empty")
            if not np.all(arr >= 0.0):
                raise DomainError(f"{name} must be nonnegative")
            if np.any(np.diff(arr) > 0.0):
                raise DomainError(f"{name} must be nonincreasing")
        return cls(mode="explicit", eta_values=ev, theta_values=tv)

    @classmethod
    def closed_form(cls, p: float, q: float, beta: float, gamma: float) -> "SequencePair":
        _check_exponents(p, q)
        if not (beta > 0.0 and gamma > 0.0):
            raise DomainError("beta and gamma must be positive")
        return cls(mode="closed-form", p=float(p), q=float(q),
                   beta=float(beta), gamma=float(gamma))

    @classmethod
    def zero(cls) -> "SequencePair":
        return cls(mode="zero")

    def eta(self, k: int) -> float:
        if k < -1:
            raise DomainError("eta is defined for k >= -1")
        if self.mode == "zero":
            return 0.0
        if self.mode == "explicit":
            if k + 1 >= self.eta_values.size:
                raise DomainError("eta index beyond the explicit list")
            return float(self.eta_values[k + 1])
        _, r = _alpha_r(self.p, self.q)
        if (k + 1) * math.log(r) > 700.0:  # r^(k+1) would overflow; eta underflows
            return 0.0
        return float(self.beta * 3.0 ** (1.0 - r ** (k + 1)))

    def theta(self, k: int) -> float:
        if k < 0:
            raise DomainError("theta is defined for k >= 0")
        if self.mode == "zero":
            return 0.0
        if self.mode == "explicit":
            if k >= self.theta_values.size:
                raise DomainError("theta index beyond the explicit list")
            return float(self.theta_values[k])
        alpha, r = _alpha_r(self.p, self.q)
        if k * math.log(r) > 700.0:  # r^k would overflow; theta underflows
            return 0.0
        return float(self.gamma * 3.0 ** (-(r ** k) * alpha / (self.q - 1.0)))


def choose_sequences(p: float, q: float, f, g) -> SequencePair:
    """Closed-form sequences tuned to the variations of a concrete pair.

    beta = half the integrand's sup-deviation from its start value and
    gamma = (V^q(g)/V^p(f))^(1/q) beta^(p/q); a constant f or constant g
    short-circuits to the zero pair (the majorant vanishes with it).
    """
    _check_exponents(p, q)
    vp = p_variation(f, p)
    vq = p_variation(g, q)
    if vp == 0.0 or vq == 0.0:
        return SequencePair.zero()
    start_dev = f.norm_of(f.values - f.values[0])
    beta = 0.5 * float(np.max(start_dev))
    if beta == 0.0:
        return SequencePair.zero()
    gamma = (vq / vp) ** (1.0 / q) * beta ** (p / q)
    return SequencePair.closed_form(p, q, beta, gamma)


def _double_exp_terms(const: float, coef: float, r: float) -> tuple[list[float], list[float]]:
    """Terms t_k = 3^(k + const - coef r^k) (coef > 0, r > 1) and their remainders.

    tails[k] bounds sum_{j>k} t_j, or is inf while the terms may still grow:
    rho_k = t_{k+1}/t_k = 3^(1 - coef r^k (r - 1)) decreases in k, so once
    rho_{k+1} < 1 that sum is at most t_{k+1}/(1 - rho_{k+1}).  The terms stop
    at the first one past the turnover (rho_k < 1) that underflows; a term
    past the float range raises.
    """
    terms, tails, k = [], [], 0
    while True:
        try:
            term = 3.0 ** (k + const - coef * r ** k)
        except OverflowError:
            raise SeriesError("a series term overflows a float") from None
        rho = 3.0 ** (1.0 - coef * r ** k * (r - 1.0))
        if terms:
            tails.append(term / (1.0 - rho) if rho < 1.0 else math.inf)
        terms.append(term)
        if term == 0.0 and rho < 1.0:
            tails.append(0.0)
            return terms, tails
        k += 1


def _majorant_terms(prof_f, prof_g, g_weights, g_cuts, f_weights, f_cuts) -> np.ndarray:
    """Terms 4 [a_k TTV(g, c_k/4) + b_k TTV(f, e_k/4)] of S and of the
    partition bound, with one batched profile read per operand."""
    return 4.0 * (g_weights * prof_g.ttv(np.divide(g_cuts, 4.0))
                  + f_weights * prof_f.ttv(np.divide(f_cuts, 4.0)))


def _left_sum(terms) -> float:
    """Sum left to right: a report's bytes must not hang on pairwise summation."""
    return float(np.cumsum(terms)[-1])


def young_bound_S(f, g, seqs: SequencePair, tail_tol: float = 1e-9) -> float:
    """Evaluate the majorant S with a certified remainder.

    Truncated variations never exceed the total variation, so the tail past
    index K is at most 4 TV(g) sum_{k>K} 3^k eta_{k-1} + 4 TV(f) sum 3^k
    theta_k.  S sums the terms up to the first K where that bound is at most
    ``tail_tol`` and adds the bound, so it bounds the full series.  Closed-form
    terms come from their combined exponents, beta 3^(k+1-r^k) and
    gamma 3^(k-alpha r^k/(q-1)).  Exhausted explicit lists, persistently
    growing terms and a majorant past the float range raise.
    """
    if not tail_tol > 0.0:
        raise DomainError("tail_tol must be positive")
    if seqs.mode == "zero":
        return 0.0
    prof_f = ttv_profile(f)
    prof_g = ttv_profile(g)
    tv_f, tv_g = prof_f.total_variation, prof_g.total_variation
    if seqs.mode == "explicit":
        eta, theta = seqs.eta_values, seqs.theta_values
        g_weights, f_weights = eta[:-1], theta  # times 3^k below
        # the remainder after index k is 0 once both sides' later terms vanish
        tails = np.where(((tv_g == 0.0) | (eta[1:] == 0.0))
                         & ((tv_f == 0.0) | (np.append(theta[1:], theta[-1]) == 0.0)),
                         0.0, math.inf)
    else:
        alpha, r = _alpha_r(seqs.p, seqs.q)
        # 3^k eta_{k-1} / beta, then 3^k theta_k / gamma: where the first stays in
        # the float range, r is far enough above 1 that the second is short too
        g_unit, g_tails = _double_exp_terms(1.0, 1.0, r)
        f_unit, f_tails = _double_exp_terms(0.0, alpha / (seqs.q - 1.0), r)
        n = max(len(g_unit), len(f_unit))  # past its list, a series is 0 and so is its tail
        g_unit, g_tails, f_unit, f_tails = (np.pad(v, (0, n - len(v)))
                                            for v in (g_unit, g_tails, f_unit, f_tails))
        g_weights, f_weights = seqs.beta * g_unit, seqs.gamma * f_unit
        tails = np.zeros(n)  # a constant operand adds no term and no tail
        if tv_g:
            tails += 4.0 * seqs.beta * tv_g * g_tails
        if tv_f:
            tails += 4.0 * seqs.gamma * tv_f * f_tails
    certified = np.flatnonzero(tails <= tail_tol)
    stop = int(certified[0]) if certified.size else tails.size - 1
    # 3^k only up to the last index read: past k = 646 it overflows
    scale = 3.0 ** np.arange(stop + 1) if seqs.mode == "explicit" else 1.0
    ks = range(stop + 1)
    terms = _majorant_terms(prof_f, prof_g, scale * g_weights[:stop + 1],
                            [seqs.theta(k) for k in ks], scale * f_weights[:stop + 1],
                            [seqs.eta(k) for k in ks])
    if seqs.mode == "explicit":
        grew = 0
        for up in np.diff(terms) > 0.0:
            grew = grew + 1 if up else 0
            if grew >= _GROWTH_CAP:
                raise SeriesError("sequence terms grew for 20 consecutive indices; "
                                  "the majorant looks non-summable")
        if not certified.size:
            raise SeriesError("explicit sequence lists exhausted before the tail "
                              "tolerance was certified")
    bound = _left_sum(terms) + float(tails[stop])
    if not math.isfinite(bound):
        raise SeriesError("the majorant overflows a float")
    return bound


def partition_deviation_bound(f, g, partition, tags, deltas, epsilons) -> float:
    """Per-partition majorant for the deviation of a tagged sum.

    With delta_{-1} = half the sup-deviation of f from f(c) on [c, d] and
    nonincreasing positive lists delta_0 >= ... >= delta_r,
    eps_0 >= ... >= eps_r, the tagged-sum deviation from f(c)[g(d) - g(c)]
    is bounded by

        4 sum_{k<=r} 3^k [delta_{k-1} TTV(g, eps_k/4) + eps_k TTV(f, delta_k/4)]
        + n delta_r eps_r,

    with the truncated variations taken over [c, d].
    """
    pts, xi = _check_partition(partition, tags)
    ds = np.asarray(deltas, dtype=float)
    es = np.asarray(epsilons, dtype=float)
    if ds.shape != es.shape or ds.ndim != 1 or ds.size == 0:
        raise DomainError("deltas and epsilons must be equal-length non-empty lists")
    for name, arr in (("deltas", ds), ("epsilons", es)):
        if not np.all(arr > 0.0):
            raise DomainError(f"{name} must be positive")
        if np.any(np.diff(arr) > 0.0):
            raise DomainError(f"{name} must be nonincreasing")
    fop = _as_operator(f)
    c, d = float(pts[0]), float(pts[-1])
    fr = fop.restrict(c, d)
    gr = g.restrict(c, d)
    delta_prev = 0.5 * float(np.max(fr.norm_of(fr.values - fr.values[0])))
    scale = 3.0 ** np.arange(ds.size)
    terms = _majorant_terms(ttv_profile(fr), ttv_profile(gr),
                            scale * np.append(delta_prev, ds[:-1]), es, scale * es, ds)
    n = pts.size - 1
    return _left_sum(terms) + n * float(ds[-1]) * float(es[-1])


# ---------------------------------------------------------------------------
# explicit constants
# ---------------------------------------------------------------------------

def _constant(p: float, q: float, tol: float, combine) -> float:
    """combine(S1, S2, 4^q, 4^p) for the series S1, S2 of the constants, each
    summed left to right down to the underflow of its terms."""
    _check_exponents(p, q)
    if not 0.0 < tol < 1.0:
        raise DomainError("tol must lie in (0, 1)")
    alpha, r = _alpha_r(p, q)
    try:
        four_q, four_p = 4.0 ** q, 4.0 ** p  # p or q >= 512 ends here, before any series
        s1 = _left_sum(_double_exp_terms(1.0, 1.0 - alpha, r)[0])
        s2 = _left_sum(_double_exp_terms(1.0 - p, alpha * (1.0 - alpha) / (q - 1.0), r)[0])
        value = combine(s1, s2, four_q, four_p)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise SeriesError(f"constant leaves the float range at p={p!r}, q={q!r}")
    return value


def ly_constant(p: float, q: float, tol: float = 1e-9) -> float:
    """Explicit constant of the variation-product bound:

        C = 4^q S1 + 4^p S2,  S1 = sum_k 3^(k+1-(1-alpha) r^k),
                              S2 = sum_k 3^(k+1-p-alpha(1-alpha) r^k/(q-1)).

    Both series are summed down to the underflow of their terms, so C is the
    series to rounding and meets every ``tol`` in (0, 1), the documented
    accuracy; a C past the float range raises SeriesError.
    """
    return _constant(p, q, tol, lambda s1, s2, four_q, four_p: four_q * s1 + four_p * s2)


def irregularity_constant(p: float, q: float, tol: float = 1e-9) -> float:
    """Constant of the indefinite-integral seminorm bound:

        D = (4^q S1 (2 * 4^p S2)^(q-1))^(1/q)

    with the series of :func:`ly_constant`, summed the same way to underflow:
    D meets every ``tol`` in (0, 1).  A D past the float range raises
    SeriesError, and so does an S2 below the normal floats, whose (q-1)-th
    power would have lost its digits.
    """
    return _constant(p, q, tol, lambda s1, s2, four_q, four_p: 0.0 if s2 < np.finfo(float).tiny
                     else (four_q * s1 * (2.0 * four_p * s2) ** (q - 1.0)) ** (1.0 / q))


# ---------------------------------------------------------------------------
# the two inequalities
# ---------------------------------------------------------------------------

def _operands(f, g, p: float, q: float) -> OperatorPath:
    """Prologue of both checks: valid exponents, f promoted, one norm kind."""
    _check_exponents(p, q)
    fop = _as_operator(f)
    if fop.norm != g.norm:
        raise DomainError("integrand and integrator must use the same norm kind")
    return fop


def improved_ly_check(f, g, p: float, q: float, tol: float = 1e-9,
                      completion: str = "step") -> IntegralReport:
    """Compare the integral deviation with its variation-product bound.

    lhs = ||int f dg - f(a)[g(b) - g(a)]||, with the integral taken exactly
    (jump sum for step completions, trapezoid sum for linear ones); rhs =
    C(p,q,tol) * V^p(f)^(1-1/q) * osc(f)^(1+p/q-p) * V^q(g)^(1/q).  The
    reported ratio lhs/rhs is at most 1 whenever the hypotheses hold (0/0
    counts as 0).
    """
    fop = _operands(f, g, p, q)
    value = rs_integral(fop, g, tol=tol, completion=completion).value
    fa = fop.eval_at(np.array([g.a]))[0]
    drift = fa @ (g.values[-1] - g.values[0])
    lhs = float(vector_norm(value - drift, g.norm))
    vp = p_variation(fop, p)
    vq = p_variation(g, q)
    osc_f = oscillation(fop)
    c_pq = ly_constant(p, q, tol)
    rhs = c_pq * vp ** (1.0 - 1.0 / q) * osc_f ** (1.0 + p / q - p) * vq ** (1.0 / q)
    ratio = 0.0 if lhs == 0.0 else lhs / rhs
    return IntegralReport(value=value, refinement_levels=0, cauchy_gap=0.0,
                          ly_lhs=lhs, ly_rhs=rhs, ratio=ratio, c_pq=c_pq)


@dataclass(frozen=True)
class IrregularityReport:
    lhs: float
    rhs: float
    ratio: float
    d_pq: float


def irregularity_check(f, g: SampledPath, p: float, q: float,
                       tol: float = 1e-9) -> IrregularityReport:
    """Seminorm transfer from the integrator to the indefinite integral.

    lhs is the q-threshold-variation seminorm of t -> int_a^t [f - f(a)] dg
    (step semantics, exact); rhs = D(p,q,tol) * ||f||_{p-TV}^(p-p/q) *
    osc(f)^(1+p/q-p) * ||g||_{q-TV}.  ratio <= 1 under the hypotheses.
    """
    fop = _operands(f, g, p, q)
    integral = indefinite_integral(fop, g)
    lhs = p_tv_seminorm(integral, q).value
    f_semi = p_tv_seminorm(fop, p).value
    g_semi = p_tv_seminorm(g, q).value
    osc_f = oscillation(fop)
    d_pq = irregularity_constant(p, q, tol)
    rhs = d_pq * f_semi ** (p - p / q) * osc_f ** (1.0 + p / q - p) * g_semi
    ratio = 0.0 if lhs == 0.0 else lhs / rhs
    return IrregularityReport(lhs=lhs, rhs=rhs, ratio=ratio, d_pq=d_pq)

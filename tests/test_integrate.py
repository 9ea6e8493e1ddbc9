import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvkit import (CommonJumpError, ConvergenceError, DomainError, NormKind,
                   OperatorPath, SampledPath, SequencePair, SeriesError,
                   choose_sequences, improved_ly_check, indefinite_integral,
                   irregularity_check, irregularity_constant, ly_constant,
                   p_tv_seminorm, partition_deviation_bound, rs_integral, rs_sum,
                   step_integral, sum_by_parts_sides, young_bound_S)
from tvkit.integrate import _PathLinear, _alpha_r
from tvkit.seminorm import c_p_const

from conftest import ALL_NORMS, random_step_pair


def drift_term(f: OperatorPath, g: SampledPath) -> np.ndarray:
    return f.values[0] @ (g.values[-1] - g.values[0])


def deviation(f: OperatorPath, g: SampledPath) -> float:
    return float(np.abs(step_integral(f, g) - drift_term(f, g)).max())


# -- tagged sums -------------------------------------------------------------

def test_rs_sum_identity_integrand():
    g = SampledPath([0.0, 0.3, 0.8, 1.0], [[0.0, 1.0], [2.0, -1.0], [0.5, 0.5], [1.0, 1.0]])
    eye = lambda t: np.broadcast_to(np.eye(2), (np.asarray(t).size, 2, 2))
    for part in ([0.0, 1.0], [0.0, 0.4, 0.9, 1.0]):
        part = np.asarray(part)
        val = rs_sum(eye, g, part, part[:-1])
        assert np.allclose(val, g.values[-1] - g.values[0], atol=1e-15)


def test_rs_sum_hand_value():
    part = np.linspace(0.0, 1.0, 5)
    val = rs_sum(lambda t: t, lambda t: t, part, part[:-1])
    assert val[0] == pytest.approx(0.375, abs=1e-15)


def test_rs_sum_validation():
    g = SampledPath([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        rs_sum(lambda t: t, g, [0.0, 0.5, 0.4], [0.0, 0.4])
    with pytest.raises(DomainError):
        rs_sum(lambda t: t, g, [0.0, 0.5, 1.0], [0.0, 0.4, 0.9])
    with pytest.raises(DomainError):
        rs_sum(lambda t: t, g, [0.0, 0.5, 1.0], [0.6, 0.7])


_STEP_F = OperatorPath([0.0, 0.25, 1.0], np.array([0.0, 1.0, 1.0]))
_STEP_G = SampledPath([0.0, 0.5, 1.0], [0.0, 2.0, 2.0])


@pytest.mark.parametrize("completion", ["lineer", "Linear", "", None])
@pytest.mark.parametrize("call", [
    lambda c: rs_sum(_STEP_F, _STEP_G, [0.0, 0.5, 1.0], [0.0, 0.5], completion=c),
    lambda c: rs_integral(_STEP_F, _STEP_G, completion=c),
    lambda c: improved_ly_check(_STEP_F, _STEP_G, 1.5, 1.5, completion=c),
], ids=["rs_sum", "rs_integral", "improved_ly_check"])
def test_unknown_completion_rejected(call, completion):
    with pytest.raises(DomainError, match="completion"):
        call(completion)


def test_sum_by_parts_identity(rng):
    for _ in range(60):
        n = int(rng.integers(1, 21))
        d = int(rng.integers(1, 4))
        fo = rng.normal(size=(n + 1, d, d))
        gv = rng.normal(size=(n + 1, d))
        lhs, rhs = sum_by_parts_sides(fo, gv)
        assert np.abs(lhs - rhs).max() <= 1e-12


# -- refinement integral -----------------------------------------------------

def test_integral_of_t_dt():
    rep = rs_integral(lambda t: t, lambda t: t, tol=2.5e-7, interval=(0.0, 1.0))
    assert abs(rep.value[0] - 0.5) <= 1e-6
    assert rep.cauchy_gap <= 2.5e-7


def test_integral_step_integrand_against_lebesgue():
    f = OperatorPath([0.0, 1.0 / 3.0, 1.0], np.array([0.0, 1.0, 1.0]))
    rep = rs_integral(f, lambda t: t, tol=5e-7, interval=(0.0, 1.0))
    assert abs(rep.value[0] - 2.0 / 3.0) <= 2e-6


def test_integral_tag_rules():
    # midpoint tags are exact for t dt at every level; right tags converge too
    rep_mid = rs_integral(lambda t: t, lambda t: t, tol=1e-9, interval=(0.0, 1.0),
                          tag_rule="mid")
    assert abs(rep_mid.value[0] - 0.5) <= 1e-9
    rep_right = rs_integral(lambda t: t, lambda t: t, tol=2.5e-7, interval=(0.0, 1.0),
                            tag_rule="right")
    assert abs(rep_right.value[0] - 0.5) <= 1e-6
    with pytest.raises(DomainError):
        rs_integral(lambda t: t, lambda t: t, interval=(0.0, 1.0), tag_rule="upper")


def test_integral_matches_exact_on_step_pairs(rng):
    for _ in range(10):
        f, g = random_step_pair(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        rep = rs_integral(f, g, tol=1e-12)
        assert np.abs(rep.value - step_integral(f, g)).max() <= 1e-12
        assert rep.cauchy_gap <= 1e-12


def test_integral_common_jump_detected():
    times = np.array([0.0, 0.5, 1.0])
    f = OperatorPath(times, np.array([0.0, 1.0, 1.0]))
    g = SampledPath(times, np.array([0.0, 2.0, 2.0]))
    with pytest.raises(CommonJumpError):
        rs_integral(f, g)
    with pytest.raises(CommonJumpError):
        step_integral(f, g)


def test_integral_reports_nonconvergence():
    wiggle = lambda t: np.sin(1000.0 * np.asarray(t))
    with pytest.raises(ConvergenceError):
        rs_integral(wiggle, wiggle, tol=1e-14, max_levels=4, interval=(0.0, 1.0))


# -- exact integrals of sampled pairs --------------------------------------------

def trapezoid_oracle(f: OperatorPath, g: SampledPath, a: float, b: float) -> np.ndarray:
    """sum (f_i + f_{i+1})/2 [g_{i+1} - g_i] on the merged grid clipped to [a, b]."""
    grid = np.union1d(np.union1d(f.times, g.times), [a, b])
    grid = grid[(grid >= a) & (grid <= b)]
    fv = np.stack([np.interp(grid, f.times, col) for col in f.values.reshape(f.n, -1).T],
                  axis=-1).reshape((grid.size,) + f.values.shape[1:])
    gv = np.stack([np.interp(grid, g.times, col) for col in g.values.T], axis=-1)
    total = np.zeros(g.dim)
    for k in range(grid.size - 1):
        total += 0.5 * (fv[k] + fv[k + 1]) @ (gv[k + 1] - gv[k])
    return total


def jump_sum_oracle(f: OperatorPath, g: SampledPath, a: float, b: float) -> np.ndarray:
    """sum over the samples of g in (a, b] of f(s) [g(s) - g(s-)] (step completions)."""
    total = np.zeros(g.dim)
    for k in range(1, g.n):
        s = g.times[k]
        if a < s <= b:
            fs = f.values[np.searchsorted(f.times, s, side="right") - 1]
            total += fs @ (g.values[k] - g.values[k - 1])
    return total


@st.composite
def sampled_pairs(draw):
    """Operator/vector pair on [0, 1] on different grids with disjoint interior times.

    f's interior times are even and g's odd multiples of 1/128, so no time is
    shared except the endpoints, where both paths hold their last value.
    """
    d = draw(st.integers(1, 3))
    norm = draw(st.sampled_from(ALL_NORMS))
    nf = draw(st.integers(0, 12))
    ng = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tf = np.concatenate(([0.0], np.sort(rng.choice(np.arange(2, 128, 2), nf, replace=False))
                         / 128.0, [1.0]))
    tg = np.concatenate(([0.0], np.sort(rng.choice(np.arange(1, 128, 2), ng, replace=False))
                         / 128.0, [1.0]))
    fv = rng.normal(size=(nf + 1, d, d))
    gv = rng.normal(size=(ng + 1, d))
    f = OperatorPath(tf, np.concatenate((fv, fv[-1:])), norm)
    g = SampledPath(tg, np.concatenate((gv, gv[-1:])), norm)
    return f, g


@settings(max_examples=60, deadline=None)
@given(sampled_pairs())
def test_linear_pairs_integrate_to_the_merged_trapezoid(pair):
    f, g = pair
    rep = rs_integral(f, g, completion="linear")
    exact = trapezoid_oracle(f, g, 0.0, 1.0)
    assert rep.refinement_levels == 0 and rep.cauchy_gap == 0.0
    assert np.abs(rep.value - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())
    # the dyadic refinement, kept for pairs with a callable, reaches the same
    # limit.  Every knot lies on level 7; from there both completions are
    # linear on every cell and the left-tag error is exactly A h, so each later
    # gap equals the error left.  f resampled on the 1/256 grid sets the
    # resolution floor at 8, so only such gaps can stop the refinement
    tol = 1e-3
    grid = np.arange(257) / 256.0
    f_fine = OperatorPath(grid, _PathLinear(f).eval_at(grid), f.norm)
    dyadic = rs_integral(f_fine, _PathLinear(g).eval_at, tol=tol, completion="linear")
    assert dyadic.refinement_levels >= 8
    assert np.abs(dyadic.value - exact).max() <= tol


@settings(max_examples=60, deadline=None)
@given(sampled_pairs())
def test_step_pairs_integrate_to_the_jump_sum(pair):
    f, g = pair
    rep = rs_integral(f, g, tag_rule="right")
    exact = jump_sum_oracle(f, g, 0.0, 1.0)
    assert rep.refinement_levels == 0 and rep.cauchy_gap == 0.0
    assert np.abs(rep.value - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())


@pytest.mark.parametrize("completion", ["step", "linear"])
def test_integral_over_an_inner_interval(rng, completion):
    oracle = jump_sum_oracle if completion == "step" else trapezoid_oracle
    for _ in range(20):
        f, g = random_step_pair(rng, d=int(rng.integers(1, 4)))
        a, b = np.sort(rng.uniform(0.05, 0.95, 2))
        rep = rs_integral(f, g, interval=(a, b), completion=completion)
        assert rep.refinement_levels == 0 and rep.cauchy_gap == 0.0
        if completion == "step":
            assert np.array_equal(rep.value, step_integral(f.restrict(a, b), g.restrict(a, b)))
        exact = oracle(f, g, a, b)
        assert np.abs(rep.value - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())


@pytest.mark.parametrize("completion", ["step", "linear"])
@pytest.mark.parametrize("interval", [(-0.5, 0.5), (0.5, 1.5), (2.0, 3.0)])
def test_integral_interval_outside_domain_rejected(rng, completion, interval):
    f, g = random_step_pair(rng)
    with pytest.raises(DomainError):
        rs_integral(f, g, interval=interval, completion=completion)


def test_step_integral_examples():
    g = SampledPath([0.0, 0.5, 1.0], [0.0, 2.0, 2.0])
    k = OperatorPath([0.0, 1.0], np.array([[[3.0]], [[3.0]]]))
    assert step_integral(k, g)[0] == pytest.approx(3.0 * 2.0, abs=0)
    const_g = SampledPath([0.0, 1.0], [1.0, 1.0])
    f = OperatorPath([0.0, 0.25, 1.0], np.array([0.0, 1.0, 1.0]))
    assert step_integral(f, const_g)[0] == 0.0
    assert step_integral(f, g)[0] == pytest.approx(2.0, abs=0)


def test_indefinite_integral_examples():
    g = SampledPath([0.0, 0.5, 1.0], [0.0, 2.0, 2.0])
    flat = OperatorPath([0.0, 1.0], np.array([5.0, 5.0]))  # f == f(a)
    assert np.all(indefinite_integral(flat, g).values == 0.0)
    const_g = SampledPath([0.0, 1.0], [3.0, 3.0])
    f = OperatorPath([0.0, 0.25, 1.0], np.array([0.0, 1.0, 1.0]))
    assert np.all(indefinite_integral(f, const_g).values == 0.0)
    run = indefinite_integral(f, g)
    assert run.times.tolist() == [0.0, 0.5]
    assert run.values.ravel().tolist() == [0.0, 2.0]


# -- sequence pairs and the majorant ----------------------------------------

def test_sequence_pair_validation():
    with pytest.raises(DomainError):
        SequencePair.from_lists([1.0, 0.5], [1.0, 2.0])  # length mismatch
    with pytest.raises(DomainError):
        SequencePair.from_lists([1.0, 0.5, 0.6], [1.0, 0.5])  # eta increases
    with pytest.raises(DomainError):
        SequencePair.from_lists([1.0, 0.5, -0.1], [1.0, 0.5])
    sp = SequencePair.from_lists([1.0, 0.5, 0.25], [0.4, 0.2])
    assert sp.eta(-1) == 1.0 and sp.eta(1) == 0.25 and sp.theta(0) == 0.4
    with pytest.raises(DomainError):
        sp.theta(2)


def test_closed_form_sequences_shape():
    sp = SequencePair.closed_form(1.5, 1.5, beta=2.0, gamma=0.7)
    alpha, r = _alpha_r(1.5, 1.5)
    assert (alpha, r) == (0.75, 2.25)
    assert sp.eta(-1) == pytest.approx(2.0, abs=0)  # beta * 3^(1 - r^0)
    assert sp.eta(0) == pytest.approx(2.0 * 3.0 ** (1.0 - 2.25), rel=1e-15)
    assert sp.theta(0) == pytest.approx(0.7 * 3.0 ** (-0.75 / 0.5), rel=1e-15)
    # decreasing, positive, eventually underflowing to zero without error
    vals = [sp.eta(k) for k in range(-1, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 0.0


def test_choose_sequences_values_and_errors(rng):
    f, g = random_step_pair(rng, 4, 4)
    sp = choose_sequences(1.5, 1.5, f, g)
    start_dev = f.norm_of(f.values - f.values[0])
    assert sp.beta == pytest.approx(0.5 * float(np.max(start_dev)), rel=1e-15)
    with pytest.raises(DomainError, match="1/p\\+1/q"):
        choose_sequences(2.0, 2.0, f, g)
    const_f = OperatorPath([0.0, 1.0], np.array([1.0, 1.0]))
    assert choose_sequences(1.5, 1.5, const_f, g).mode == "zero"


def test_young_bound_trivial_cases(rng):
    f, g = random_step_pair(rng, 4, 4)
    const_f = OperatorPath([0.0, 1.0], np.array([2.0, 2.0]))
    assert young_bound_S(const_f, g, choose_sequences(1.5, 1.5, const_f, g)) == 0.0
    const_g = SampledPath([0.0, 1.0], [2.0, 2.0])
    assert young_bound_S(f, const_g, choose_sequences(1.5, 1.5, f, const_g)) == 0.0
    # explicit finitely supported sequences certify on a constant pair
    sp = SequencePair.from_lists([1.0, 0.5, 0.0], [0.5, 0.0])
    assert young_bound_S(const_f, const_g, sp) == 0.0


def test_young_bound_constant_integrator_leaves_integrand_sum(rng):
    # with a constant integrator only the integrand-side series remains
    f, _ = random_step_pair(rng, 5, 2)
    const_g = SampledPath([0.0, 1.0], [2.0, 2.0])
    sp = SequencePair.closed_form(1.5, 1.5, beta=0.5, gamma=0.3)
    got = young_bound_S(f, const_g, sp, tail_tol=1e-10)
    from tvkit import ttv
    want = sum(4.0 * 3.0 ** k * sp.theta(k) * ttv(f, sp.eta(k) / 4.0)
               for k in range(40))
    assert got == pytest.approx(want, abs=1e-9)


def test_young_bound_explicit_list_exhaustion(rng):
    f, g = random_step_pair(rng, 4, 4)
    sp = SequencePair.from_lists([1.0, 0.5, 0.25], [0.5, 0.25])
    with pytest.raises(SeriesError):
        young_bound_S(f, g, sp, tail_tol=1e-12)


def test_young_bound_dominates_deviation(rng):
    for _ in range(60):
        f, g = random_step_pair(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        sp = choose_sequences(1.5, 1.5, f, g)
        s = young_bound_S(f, g, sp, tail_tol=1e-9)
        assert math.isfinite(s)
        assert deviation(f, g) <= s


def test_majorant_below_variation_product_bound(rng):
    # the closed-form sequences were chosen so that the evaluated majorant
    # is controlled by the explicit variation-product right-hand side; this
    # ties the constant, the sequence rule, and the summation together
    for _ in range(40):
        f, g = random_step_pair(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        for p, q in ((1.5, 1.5), (1.3, 1.7)):
            sp = choose_sequences(p, q, f, g)
            s = young_bound_S(f, g, sp, tail_tol=1e-9)
            rhs = improved_ly_check(f, g, p, q).ly_rhs
            assert s <= rhs * (1.0 + 1e-9) + 1e-9


def test_partition_bound_structure(rng):
    f, g = random_step_pair(rng, 3, 3)
    pts = np.array([0.0, 0.4, 1.0])
    tags = np.array([0.2, 0.7])
    d0, e0 = 0.8, 0.6
    got = partition_deviation_bound(f, g, pts, tags, [d0], [e0])
    from tvkit import ttv
    fr, gr = f.restrict(0.0, 1.0), g.restrict(0.0, 1.0)
    dm1 = 0.5 * float(np.max(fr.norm_of(fr.values - fr.values[0])))
    want = 4.0 * (dm1 * ttv(gr, e0 / 4.0) + e0 * ttv(fr, d0 / 4.0)) + 2 * d0 * e0
    assert got == pytest.approx(want, rel=1e-12)


def test_partition_bound_constant_integrand(rng):
    g = random_step_pair(rng, 2, 5)[1]
    const_f = OperatorPath([0.0, 1.0], np.array([2.0, 2.0]))
    pts = np.array([0.0, 0.3, 0.7, 1.0])
    tags = pts[:-1]
    bound = partition_deviation_bound(const_f, g, pts, tags, [0.5], [0.5])
    dev = np.abs(rs_sum(const_f, g, pts, tags) - drift_term(const_f, g)).max()
    assert dev == 0.0 <= bound


def test_partition_bound_holds_on_ensemble(rng):
    for _ in range(120):
        f, g = random_step_pair(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        m = int(rng.integers(1, 9))
        pts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, m - 1)), [1.0])) \
            if m > 1 else np.array([0.0, 1.0])
        tags = rng.uniform(pts[:-1], pts[1:])
        sp = choose_sequences(1.5, 1.5, f, g)
        if sp.mode == "zero":
            continue
        # doubly exponential decay underflows to 0.0 near k = 9; stay above
        ds = [sp.eta(k) for k in range(7)]
        es = [sp.theta(k) for k in range(7)]
        bound = partition_deviation_bound(f, g, pts, tags, ds, es)
        dev = float(np.abs(rs_sum(f, g, pts, tags) - drift_term(f, g)).max())
        assert dev <= bound


def test_partition_bound_validation(rng):
    f, g = random_step_pair(rng, 2, 2)
    pts = np.array([0.0, 0.5, 1.0])
    tags = np.array([0.2, 0.7])
    with pytest.raises(DomainError):
        partition_deviation_bound(f, g, pts, tags, [0.5, 0.6], [0.5, 0.4])
    with pytest.raises(DomainError):
        partition_deviation_bound(f, g, pts, tags, [0.5], [0.4, 0.3])
    with pytest.raises(DomainError):
        partition_deviation_bound(f, g, pts, tags, [0.0], [0.4])


# -- constants ---------------------------------------------------------------

def direct_constant_sum(p, q, terms=10_000):
    alpha, r = _alpha_r(p, q)
    ks = np.arange(terms, dtype=float)
    with np.errstate(over="ignore"):
        pows = np.where(ks * math.log(r) > 700.0, np.inf, r ** ks)
    s1 = np.sum(np.where(np.isinf(pows), 0.0, 3.0 ** (ks + 1.0 - (1.0 - alpha) * pows)))
    s2 = np.sum(np.where(np.isinf(pows), 0.0,
                         3.0 ** (ks + 1.0 - p - alpha * (1.0 - alpha) * pows / (q - 1.0))))
    return 4.0 ** q * s1 + 4.0 ** p * s2


def test_ly_constant_against_direct_sum():
    got = ly_constant(1.5, 1.5, tol=1e-9)
    want = direct_constant_sum(1.5, 1.5)
    assert got == pytest.approx(want, rel=1e-9)


def test_ly_constant_grows_toward_boundary():
    vals = [ly_constant(p, p, 1e-9) for p in (1.2, 1.3, 1.4, 1.49)]
    assert vals == sorted(vals)


def test_constant_cauchy_contract():
    for p in (1.2, 1.5, 1.8):
        for tol in (1e-6, 1e-9):
            c1 = ly_constant(p, p, tol)
            c2 = ly_constant(p, p, tol / 2.0)
            assert abs(c1 - c2) < tol * c1
            d1 = irregularity_constant(p, p, tol)
            d2 = irregularity_constant(p, p, tol / 2.0)
            assert abs(d1 - d2) < tol * d1


def test_constant_domain_errors():
    with pytest.raises(DomainError):
        ly_constant(2.0, 2.0)
    with pytest.raises(DomainError):
        irregularity_constant(1.0, 1.5)


@pytest.mark.parametrize("tol", [1.0, 1.5, math.inf])
def test_constant_tol_outside_unit_interval_rejected(tol):
    # the series stop on a relative term test, so tol >= 1 stops them early
    for constant in (ly_constant, irregularity_constant):
        with pytest.raises(DomainError):
            constant(1.5, 1.5, tol=tol)


# -- the two inequalities -----------------------------------------------------

def test_improved_ly_constant_integrand(rng):
    g = random_step_pair(rng, 2, 5)[1]
    const_f = OperatorPath([0.0, 1.0], np.array([2.0, 2.0]))
    rep = improved_ly_check(const_f, g, 1.5, 1.5)
    assert rep.ly_lhs == 0.0 and rep.ratio == 0.0


def test_improved_ly_step_ensemble(rng):
    for _ in range(60):
        f, g = random_step_pair(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        rep = improved_ly_check(f, g, 1.5, 1.5)
        assert rep.ratio <= 1.0


def test_improved_ly_linear_completion():
    from tvkit import gen_alpha_stable
    f = OperatorPath.from_scalar_path(gen_alpha_stable(128, 1.8, seed=21))
    g = gen_alpha_stable(128, 1.8, seed=22)
    rep = improved_ly_check(f, g, 1.9, 1.9, tol=1e-3, completion="linear")
    assert rep.ratio <= 1.0
    assert rep.refinement_levels == 0
    trapezoid = np.einsum("kij,kj->i", 0.5 * (f.values[:-1] + f.values[1:]),
                          np.diff(g.values, axis=0))
    assert np.allclose(rep.value, trapezoid, rtol=1e-12, atol=0.0)


def test_norm_kind_mismatch_rejected(rng):
    f, _ = random_step_pair(rng, 3, 3)
    g = SampledPath([0.0, 0.41, 1.0], [0.0, 1.0, 1.0], NormKind.l1)
    with pytest.raises(DomainError):
        improved_ly_check(f, g, 1.5, 1.5)
    with pytest.raises(DomainError):
        irregularity_check(f, g, 1.5, 1.5)


def test_irregularity_trivial_and_single_jump(rng):
    g = random_step_pair(rng, 2, 5)[1]
    const_f = OperatorPath([0.0, 1.0], np.array([2.0, 2.0]))
    rep = irregularity_check(const_f, g, 1.5, 1.5)
    assert rep.lhs == 0.0 and rep.ratio == 0.0
    # a single jump of the integrator: lhs has the closed single-jump form
    gj = SampledPath([0.0, 0.31, 1.0], [0.0, 2.0, 2.0])
    f = OperatorPath([0.0, 0.62, 1.0], np.array([0.5, 1.5, 1.5]))
    rep2 = irregularity_check(f, gj, 1.5, 1.5)
    jump_term = abs((0.5 - 0.5) * 2.0)  # f(0.31) - f(0) is 0 here
    assert rep2.lhs == pytest.approx(c_p_const(1.5) ** (1 / 1.5) * jump_term, abs=1e-15)
    f2 = OperatorPath([0.0, 0.15, 1.0], np.array([0.5, 1.5, 1.5]))
    rep3 = irregularity_check(f2, gj, 1.5, 1.5)
    assert rep3.lhs == pytest.approx(c_p_const(1.5) ** (1 / 1.5) * abs(1.0 * 2.0), rel=1e-12)
    assert rep3.ratio <= 1.0


def test_irregularity_step_ensemble(rng):
    for _ in range(60):
        f, g = random_step_pair(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        rep = irregularity_check(f, g, 1.5, 1.5)
        assert rep.ratio <= 1.0


def test_indefinite_integral_seminorm_matches_direct(rng):
    # the lhs of the transfer bound equals the seminorm of the running integral
    f, g = random_step_pair(rng, 5, 5)
    rep = irregularity_check(f, g, 1.5, 1.5)
    direct = p_tv_seminorm(indefinite_integral(f, g), 1.5).value
    assert rep.lhs == direct


def test_nan_parameters_rejected():
    rng = np.random.default_rng(5)
    f, g = random_step_pair(rng, d=2)
    nan = float("nan")
    pts, tags = np.array([0.0, 0.4, 1.0]), np.array([0.2, 0.7])
    for call in (lambda: young_bound_S(f, g, choose_sequences(1.5, 1.5, f, g), tail_tol=nan),
                 lambda: rs_integral(f, g, tol=nan),
                 lambda: ly_constant(1.5, 1.5, tol=nan),
                 lambda: SequencePair.from_lists([1.0, nan], [0.5]),
                 lambda: SequencePair.closed_form(1.5, 1.5, nan, 1.0),
                 lambda: partition_deviation_bound(f, g, pts, tags, [nan], [0.5]),
                 lambda: partition_deviation_bound(f, g, pts, [0.2, nan], [0.5], [0.5]),
                 lambda: rs_sum(lambda t: t, lambda t: t, [0.0, 1.0], [nan]),
                 lambda: rs_sum(f, g, pts, [nan, 0.7], completion="linear")):
        with pytest.raises(DomainError):
            call()


def test_linear_completion_rejects_nan_times():
    lin = _PathLinear(SampledPath([0.0, 1.0], [0.0, 1.0]))
    with pytest.raises(DomainError):
        lin.eval_at(np.array([0.5, math.nan]))


def test_infinite_partitions_and_intervals_rejected():
    f, g = random_step_pair(np.random.default_rng(6))
    for call in (lambda: rs_sum(lambda t: t, lambda t: t, [0.0, math.inf], [1.0]),
                 lambda: rs_integral(f, g, interval=(0.0, math.inf)),
                 lambda: rs_integral(lambda t: t, lambda t: t, interval=(-math.inf, 1.0))):
        with pytest.raises(DomainError):
            call()

import itertools
import math

import numpy as np
import pytest

from tvkit import (DomainError, SampledPath, c_p_const, fixed_partition_seminorm,
                   gen_fixture, oscillation, p_tv_seminorm, p_variation,
                   sup_delta_single, ttv, tv_p_norm)

from conftest import random_pair_shared_times, random_path


def grid_sup_delta(increments, p, points=200_000):
    """Grid-scan oracle for sup_delta delta^(p-1) sum_i (x_i - delta)_+."""
    xs = np.asarray(increments, dtype=float)
    if xs.size == 0 or xs.max() == 0.0:
        return 0.0
    deltas = np.linspace(0.0, xs.max(), points)
    vals = deltas[:, None] ** (p - 1.0) * np.clip(xs[None, :] - deltas[:, None], 0.0, None)
    return float(vals.sum(axis=1).max())


def subset_brute_seminorm(increments, p):
    """2^n oracle: each subset A yields c_p |A| (mean_A x)^p for the sup."""
    xs = list(increments)
    cp = c_p_const(p)
    best = 0.0
    for r in range(1, len(xs) + 1):
        for sub in itertools.combinations(xs, r):
            best = max(best, cp * r ** (1.0 - p) * sum(sub) ** p)
    return best ** (1.0 / p)


def test_c_p_values():
    assert c_p_const(2.0) == 0.25
    assert c_p_const(1.0) == 1.0
    assert c_p_const(3.0) == pytest.approx(4.0 / 27.0, rel=1e-15)
    with pytest.raises(DomainError):
        c_p_const(0.5)


def test_c_p_past_the_float_range_of_p_to_the_p():
    # p^p overflows from p = 143.02; the constant itself stays near 1/(e p)
    for p in (144, 200, 1e6, 1e308):
        got = c_p_const(p)
        log_form = math.exp((p - 1.0) * math.log1p(-1.0 / p) - math.log(p))
        assert 0.0 < got < math.inf
        assert got == pytest.approx(log_form, rel=1e-12)
    assert c_p_const(100.0) == 99.0 ** 99.0 / 100.0 ** 100.0


def test_c_p_bracket(rng):
    for p in rng.uniform(1.0, 6.0, 50):
        assert 2.0 ** (-p) <= c_p_const(p) <= 1.0


def test_sup_delta_single():
    assert sup_delta_single(1.0, 2.0) == 0.25
    assert sup_delta_single(0.0, 1.7) == 0.0
    got = sup_delta_single(2.0, 1.5)
    grid = grid_sup_delta([2.0], 1.5, points=1_000_000)
    assert got == pytest.approx(c_p_const(1.5) * 2.0 ** 1.5, rel=1e-15)
    assert grid == pytest.approx(got, rel=1e-9)
    with pytest.raises(DomainError):
        sup_delta_single(-1.0, 2.0)
    # 2^1030 alone overflows, the product does not; 2^2000 c_p does
    assert sup_delta_single(2.0, 1030.0) == pytest.approx(
        math.exp(math.log(c_p_const(1030.0)) + 1030.0 * math.log(2.0)), rel=1e-12)
    for x in (2.0, np.float64(2.0)):
        with pytest.raises(DomainError):
            sup_delta_single(x, 2000.0)
    with pytest.raises(DomainError):
        sup_delta_single(math.inf, 2.0)


def test_fixed_partition_examples():
    got = fixed_partition_seminorm([1.0, 2.0], 2.0)
    assert got == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), rel=1e-14)
    assert got ** 2 == pytest.approx(9.0 / 8.0, rel=1e-14)
    assert fixed_partition_seminorm([], 2.0) == 0.0
    x = 0.73
    assert fixed_partition_seminorm([x], 1.8) == pytest.approx(
        c_p_const(1.8) ** (1 / 1.8) * x, rel=1e-14)
    with pytest.raises(DomainError):
        fixed_partition_seminorm([1.0, -0.5], 2.0)


def test_fixed_partition_matches_oracles(rng):
    for _ in range(40):
        xs = rng.uniform(0.0, 2.0, int(rng.integers(1, 9)))
        p = float(rng.uniform(1.05, 3.5))
        got = fixed_partition_seminorm(xs, p)
        assert got == pytest.approx(subset_brute_seminorm(xs, p), rel=1e-12)
        grid = grid_sup_delta(xs, p) ** (1.0 / p)
        assert grid <= got + 1e-12
        assert grid == pytest.approx(got, rel=1e-4)


def test_seminorm_stepsplit():
    ss = gen_fixture("stepSplit")
    rep = p_tv_seminorm(ss, 2.0)
    assert rep.value ** 2 == pytest.approx(9.0 / 8.0, abs=1e-12)
    assert rep.argmax_k == 2
    assert rep.argmax_delta == pytest.approx(0.75, abs=1e-15)
    left = p_tv_seminorm(ss.restrict(-1.0, 0.0), 2.0)
    right = p_tv_seminorm(ss.restrict(0.0, 1.0), 2.0)
    assert left.value ** 2 == pytest.approx(0.25, abs=1e-12)
    assert right.value ** 2 == pytest.approx(1.0, abs=1e-12)
    # additivity of the squared seminorm fails across the split, strictly
    assert rep.value ** 2 < left.value ** 2 + right.value ** 2


def test_seminorm_circle3_and_single_jump():
    rep = p_tv_seminorm(gen_fixture("circle3"), 2.0)
    assert rep.value ** 2 == pytest.approx(1.5, rel=1e-12)
    jump = SampledPath([0.0, 1.0], [0.0, 0.6])
    assert p_tv_seminorm(jump, 2.0).value == pytest.approx(0.3, rel=1e-15)


def test_seminorm_degenerate_and_p1(rng):
    const = SampledPath([0, 1, 2], [5.0, 5.0, 5.0])
    rep = p_tv_seminorm(const, 2.0)
    assert rep.value == 0.0 and rep.argmax_k is None and rep.argmax_delta is None
    for _ in range(20):
        path = random_path(rng, d=2)
        assert p_tv_seminorm(path, 1.0).value == pytest.approx(ttv(path, 0.0), rel=1e-12)
    with pytest.raises(DomainError):
        p_tv_seminorm(const, 0.9)


def test_seminorm_delta_grid_oracle(rng):
    from tvkit import ttv_profile
    for _ in range(25):
        path = random_path(rng, d=int(rng.integers(1, 4)))
        for p in (1.0, 1.5, 2.0, 3.0):
            rep = p_tv_seminorm(path, p)
            prof = ttv_profile(path)
            ks = np.arange(1, prof.K + 1)
            breakpoints = prof.M * (p - 1.0) / (ks * p)
            osc = oscillation(path)
            grid = np.concatenate(([0.0], breakpoints,
                                   np.geomspace(1e-8 * max(osc, 1e-8), max(osc, 1e-8), 1000)))
            best = max(d ** (p - 1.0) * ttv(path, d) if d > 0 else (ttv(path, 0.0) if p == 1.0 else 0.0)
                       for d in grid)
            assert rep.value ** p == pytest.approx(best, rel=1e-10, abs=1e-10)


def test_triangle_inequality(rng):
    for _ in range(120):
        f, h = random_pair_shared_times(rng, d=int(rng.integers(1, 3)))
        total = SampledPath(f.times, f.values + h.values, f.norm)
        for p in (1.1, 1.5, 2.0, 3.0):
            lhs = p_tv_seminorm(total, p).value
            rhs = p_tv_seminorm(f, p).value + p_tv_seminorm(h, p).value
            assert lhs <= rhs + 1e-10


def test_homogeneity(rng):
    for _ in range(30):
        path = random_path(rng, d=2)
        a = float(rng.uniform(0.1, 5.0))
        scaled = path.scaled(a)
        for p in (1.0, 1.7, 2.5):
            assert p_tv_seminorm(scaled, p).value == pytest.approx(
                a * p_tv_seminorm(path, p).value, rel=1e-11)


def test_seminorm_below_p_variation_norm(rng):
    for _ in range(40):
        path = random_path(rng, d=2)
        p = float(rng.uniform(1.0, 3.0))
        assert p_tv_seminorm(path, p).value <= p_variation(path, p) ** (1.0 / p) + 1e-10


def test_subadditive_over_interval_splits(rng):
    for _ in range(40):
        path = random_path(rng, n=int(rng.integers(3, 12)), d=2)
        i = int(rng.integers(1, path.n - 1))
        mid = float(path.times[i])
        p = float(rng.uniform(1.0, 3.0))
        whole = p_tv_seminorm(path, p).value
        parts = (p_tv_seminorm(path.restrict(path.a, mid), p).value
                 + p_tv_seminorm(path.restrict(mid, path.b), p).value)
        assert whole <= parts + 1e-10


def test_norm_lower_bound(rng):
    for _ in range(40):
        path = random_path(rng, d=2)
        p = float(rng.uniform(1.0, 3.0))
        lower = float(path.norm_of(path.values[0])) \
            + c_p_const(p) ** (1.0 / p) * oscillation(path)
        assert tv_p_norm(path, p) >= lower - 1e-10


def test_tv_p_norm_examples():
    const = SampledPath([0, 1], [[3.0, -4.0], [3.0, -4.0]])
    assert tv_p_norm(const, 2.0) == 5.0
    ss = gen_fixture("stepSplit")
    assert tv_p_norm(ss, 2.0) == pytest.approx(math.sqrt(9.0 / 8.0), rel=1e-12)


def test_non_finite_parameters_rejected():
    path = gen_fixture("stepSplit")
    for p in (float("nan"), math.inf):
        with pytest.raises(DomainError):
            c_p_const(p)
        with pytest.raises(DomainError):
            p_tv_seminorm(path, p)
    with pytest.raises(DomainError):
        sup_delta_single(float("nan"), 2.0)
    with pytest.raises(DomainError):
        fixed_partition_seminorm([1.0, float("nan")], 2.0)

import math

import numpy as np
import pytest

from tvkit import (DomainError, SampledPath, gen_fixture, greedy_skeleton,
                   linear_approx, oscillation, sandwich, step_approx, ttv,
                   ttv_brute)

from conftest import ALL_NORMS, random_path

SQRT3 = math.sqrt(3.0)


def ramp():
    return SampledPath(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))


def test_skeleton_ramp():
    sk = greedy_skeleton(ramp(), 0.5)
    assert np.allclose(sk.taus, [0.0, 0.3, 0.6, 0.9], atol=1e-12)
    assert set(sk.branch) == {"small-jump"}


def test_skeleton_circle3():
    sk = greedy_skeleton(gen_fixture("circle3"), SQRT3)
    assert sk.taus.tolist() == [0.0, 1.0, 2.0]
    assert sk.branch == ("big-jump", "big-jump")


def test_skeleton_constant_and_errors():
    const = SampledPath([0, 1, 2], [1.0, 1.0, 1.0])
    sk = greedy_skeleton(const, 0.5)
    assert sk.taus.tolist() == [0.0] and sk.branch == ()
    with pytest.raises(DomainError):
        greedy_skeleton(const, 0.0)


def test_step_approx_ramp():
    ap = step_approx(ramp(), 0.5)
    distinct = [v for i, v in enumerate(ap.path.values.ravel())
                if i == 0 or v != ap.path.values.ravel()[i - 1]]
    assert np.allclose(distinct, [0.0, 0.3, 0.6, 0.9], atol=1e-12)
    assert ap.tv == pytest.approx(0.9, rel=1e-12)
    assert ap.sup_distance <= 0.25 + 1e-15
    assert ap.tv <= 2.0 * ttv(ramp(), 0.125) + 1e-12  # = 1.75


def test_step_approx_circle3():
    c3 = gen_fixture("circle3")
    ap = step_approx(c3, SQRT3)
    assert np.array_equal(ap.path.values, c3.values)
    assert ap.tv == pytest.approx(2 * SQRT3, rel=1e-15)
    assert 2.0 * ttv(c3, SQRT3 / 4.0) == pytest.approx(3 * SQRT3, rel=1e-12)
    assert ap.tv <= 2.0 * ttv(c3, SQRT3 / 4.0)


def test_step_approx_constant():
    const = SampledPath([0, 1, 2], [2.0, 2.0, 2.0])
    ap = step_approx(const, 1.0)
    assert ap.tv == 0.0 and ap.sup_distance == 0.0


def test_linear_approx_ramp_interpolates():
    ap = linear_approx(ramp(), 0.5, eps_cont=0.2)
    assert np.allclose(ap.knot_times, [0.0, 0.3, 0.6, 0.9], atol=1e-12)
    assert ap.seg_held == (False, False, False)
    mid = ap.eval_at([0.15])[0, 0]
    assert mid == pytest.approx(0.15, abs=1e-12)
    assert ap.tv == pytest.approx(0.9, rel=1e-12)
    assert ap.sup_distance <= 0.5


def test_linear_approx_stepsplit():
    ss = gen_fixture("stepSplit")
    lin = linear_approx(ss, 1.0)
    step = step_approx(ss, 1.0)
    assert lin.tv == step.tv
    assert lin.sup_distance <= 1.0
    # default continuity threshold: every knot arrival is a jump
    assert all(lin.seg_held)


def test_linear_approx_constant():
    const = SampledPath([0, 1, 2], [1.5, 1.5, 1.5])
    lin = linear_approx(const, 0.7)
    assert lin.tv == 0.0 and lin.sup_distance == 0.0


def test_approx_guarantees_ensemble(rng):
    lams = (1.5, 2.0, 3.0, 10.0)
    for _ in range(150):
        d = int(rng.integers(1, 4))
        path = random_path(rng, n=int(rng.integers(2, 30)), d=d,
                           norm=ALL_NORMS[rng.integers(0, 3)])
        c = float(rng.uniform(0.05, 2.0 * max(oscillation(path), 0.2)))
        step = step_approx(path, c)
        lin = linear_approx(path, c)
        assert step.sup_distance <= 0.5 * c + 1e-12
        assert lin.sup_distance <= c + 1e-12
        assert lin.tv == step.tv
        grid_tv = float(np.sum(path.norm_of(np.diff(step.path.values, axis=0))))
        assert grid_tv == pytest.approx(step.tv, rel=1e-12)
        for lam in lams:
            bound = lam * ttv(path, (lam - 1.0) * c / (2.0 * lam))
            assert step.tv <= bound + 1e-9 * (1.0 + bound)


def test_displacement_between_distinct_values(rng):
    for _ in range(80):
        path = random_path(rng, n=int(rng.integers(2, 25)), d=2)
        c = float(rng.uniform(0.05, 2.0 * max(oscillation(path), 0.2)))
        ap = step_approx(path, c)
        vals = ap.path.values
        changes = np.nonzero(path.norm_of(np.diff(vals, axis=0)) > 0.0)[0]
        jumps = path.norm_of(vals[changes + 1] - vals[changes])
        assert np.all(jumps >= 0.5 * c - 1e-12)


def test_held_segments_only_at_source_jumps(rng):
    # with a positive continuity threshold, interpolating segments appear
    # exactly where the arrival increment is small
    for _ in range(40):
        path = random_path(rng, n=int(rng.integers(3, 15)), d=1, scale=0.3)
        c = float(rng.uniform(0.2, 1.0))
        eps = float(rng.uniform(0.0, 0.5))
        lin = linear_approx(path, c, eps_cont=eps)
        for m, held in enumerate(lin.seg_held):
            end = lin.skeleton.indices[m + 1]
            arrival = float(path.norm_of(path.values[end] - path.values[end - 1]))
            assert held == (arrival > eps)


def test_sandwich_circle3_strict_gap():
    sw = sandwich(gen_fixture("circle3"), SQRT3, (2.0,))
    assert sw.lower == 0.0
    assert sw.witness_tv == pytest.approx(2 * SQRT3, rel=1e-15)
    assert sw.upper == pytest.approx(3 * SQRT3, rel=1e-12)
    assert sw.lower < sw.witness_tv  # the infimum is not the truncated variation


def test_sandwich_constant():
    const = SampledPath([0, 1], [1.0, 1.0])
    sw = sandwich(const, 0.5)
    assert (sw.lower, sw.witness_tv, sw.upper) == (0.0, 0.0, 0.0)


def test_sandwich_ordering_random(rng):
    for _ in range(60):
        path = random_path(rng, n=int(rng.integers(2, 11)), d=1)
        c = float(rng.uniform(0.05, 2.0))
        sw = sandwich(path, c, (1.5, 2.0, 4.0))
        assert sw.lower <= sw.witness_tv + 1e-12
        assert sw.witness_tv <= sw.upper + 1e-9 * (1.0 + sw.upper)
        assert sw.witness_tv <= 2.0 * ttv_brute(path, c / 4.0) + 1e-9
        assert sw.lower == pytest.approx(ttv_brute(path, c), abs=1e-12)


def test_sandwich_validation():
    path = gen_fixture("stepSplit")
    with pytest.raises(DomainError):
        sandwich(path, -1.0)
    with pytest.raises(DomainError):
        sandwich(path, 1.0, (1.0,))
    with pytest.raises(DomainError):
        sandwich(path, 1.0, ())


def test_nan_budget_rejected():
    path = gen_fixture("stepSplit")
    with pytest.raises(DomainError):
        greedy_skeleton(path, float("nan"))
    with pytest.raises(DomainError):
        sandwich(path, float("nan"))
    with pytest.raises(DomainError):
        sandwich(path, 0.5, lambdas=(float("nan"),))
    with pytest.raises(DomainError):
        linear_approx(path, 0.5, eps_cont=float("nan"))

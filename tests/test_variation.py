import math

import numpy as np
import pytest

from tvkit import (DomainError, PhiSpec, SampledPath, gen_fixture, oscillation,
                   p_variation, phi_value, phi_variation, subsequence_sup_brute,
                   total_variation, ttv, ttv_brute, ttv_profile)

from conftest import ALL_NORMS, random_pair_shared_times, random_path

SQRT3 = math.sqrt(3.0)


def test_profile_examples():
    assert ttv_profile(gen_fixture("stepSplit")).M.tolist() == [2.0, 3.0]
    m = ttv_profile(gen_fixture("circle3")).M
    assert m[0] == pytest.approx(SQRT3, abs=0)
    assert m[1] == pytest.approx(2 * SQRT3, rel=1e-15)
    single = SampledPath([0.0, 1.0], [0.0, 0.7])
    assert ttv_profile(single).M.tolist() == [0.7]
    assert ttv_profile(SampledPath([0.0], [1.0])).K == 0


def test_profile_structure(rng):
    for _ in range(60):
        path = random_path(rng, d=int(rng.integers(1, 4)),
                           norm=ALL_NORMS[rng.integers(0, 3)])
        m = ttv_profile(path).M
        assert np.all(np.diff(m) >= -1e-12)
        ks = np.arange(1, m.size + 1)
        assert np.all(m <= ks * m[0] + 1e-9)
        assert total_variation(path) == pytest.approx(path.increments().sum(), rel=1e-9)


def test_ttv_examples():
    ss = gen_fixture("stepSplit")
    for c in (0.0, 0.25, 0.5, 1.0, 1.5, 2.5):
        assert ttv(ss, c) == max(1.0 - c, 0.0) + max(2.0 - c, 0.0)
    assert ttv(gen_fixture("circle3"), SQRT3) == 0.0
    const = SampledPath([0, 1, 2], [4.0, 4.0, 4.0])
    assert ttv(const, 0.0) == 0.0 and ttv(const, 3.0) == 0.0
    with pytest.raises(DomainError):
        ttv(ss, -0.1)


def test_ttv_matches_brute(rng):
    for _ in range(60):
        d = int(rng.choice([1, 3]))
        path = random_path(rng, n=int(rng.integers(2, 9)), d=d,
                           norm=ALL_NORMS[rng.integers(0, 3)])
        c = float(rng.uniform(0.0, 1.5 * max(oscillation(path), 0.1)))
        assert ttv(path, c) == pytest.approx(ttv_brute(path, c), abs=1e-12)


def test_brute_guard_and_trivial_cases():
    big = SampledPath(np.arange(15.0), np.zeros(15))
    with pytest.raises(DomainError):
        ttv_brute(big, 0.0)
    const = SampledPath([0, 1, 2], [1.0, 1.0, 1.0])
    assert ttv_brute(const, 0.0) == 0.0
    assert ttv_brute(gen_fixture("stepSplit"), 0.0) == 3.0


def test_operator_path_profile_matches_brute(rng):
    # spectral-norm distances feed the same programs; validate the whole
    # pipeline against enumeration on matrix-valued paths
    from tvkit import OperatorPath
    for _ in range(15):
        n = int(rng.integers(2, 7))
        path = OperatorPath(np.cumsum(rng.uniform(0.1, 1.0, n)),
                            rng.normal(size=(n, 2, 2)))
        c = float(rng.uniform(0.0, 2.0))
        assert ttv(path, c) == pytest.approx(ttv_brute(path, c), abs=1e-10)
        p = float(rng.uniform(1.0, 3.0))
        brute = subsequence_sup_brute(path, lambda x: x ** p)
        assert p_variation(path, p) == pytest.approx(brute, abs=1e-10)


def _brute_per_mask(path, weight):
    """subsequence_sup_brute as one loop per mask, adding pair weights left to right."""
    dist = path.distance_matrix()
    best = 0.0
    for mask in range(1 << path.n):
        prev, total = -1, 0.0
        for k in range(path.n):
            if mask >> k & 1:
                if prev >= 0:
                    total += weight(float(dist[prev, k]))
                prev = k
        if total > best:
            best = total
    return best


def test_brute_matches_per_mask_loop(rng):
    for _ in range(30):
        path = random_path(rng, n=int(rng.integers(1, 10)), d=int(rng.integers(1, 4)),
                           norm=ALL_NORMS[rng.integers(0, 3)])
        p = float(rng.uniform(1.0, 3.0))
        c = float(rng.uniform(0.0, 1.5))
        for weight in (lambda x: x ** p, lambda x: max(x - c, 0.0)):
            assert subsequence_sup_brute(path, weight) == _brute_per_mask(path, weight)


def test_p_variation_examples():
    zig = SampledPath([0, 1, 2], [0.0, 1.0, -1.0])
    assert p_variation(zig, 2.0) == 5.0
    jump = SampledPath([0.0, 1.0], [0.0, 0.8])
    assert p_variation(jump, 1.7) == pytest.approx(0.8 ** 1.7, rel=1e-15)
    with pytest.raises(DomainError):
        p_variation(zig, 0.99)


def test_p1_variation_is_total_variation(rng):
    for _ in range(30):
        path = random_path(rng, d=2)
        assert p_variation(path, 1.0) == pytest.approx(ttv(path, 0.0), rel=1e-12)


def test_p_variation_matches_brute(rng):
    for _ in range(40):
        path = random_path(rng, n=int(rng.integers(2, 9)), d=int(rng.choice([1, 3])),
                           norm=ALL_NORMS[rng.integers(0, 3)])
        p = float(rng.uniform(1.0, 3.5))
        brute = subsequence_sup_brute(path, lambda x: x ** p)
        assert p_variation(path, p) == pytest.approx(brute, abs=1e-12)


def test_phi_value_formulas():
    phi1 = PhiSpec.family(1, 2.0, 2.0)
    assert phi_value(phi1, 1.0) == pytest.approx(1.0 / math.log(2.0) ** 2, rel=1e-15)
    phi2 = PhiSpec.family(2, 2.0, 2.0)
    assert phi_value(phi1, 0.0) == 0.0
    assert phi_value(phi2, 0.0) == 0.0
    x = 0.3
    want = x ** 2 / (math.log1p(1 / x) * math.log(math.log(math.e + 1 / x)) ** 2)
    assert phi_value(phi2, x) == pytest.approx(want, rel=1e-14)


def test_phi_family_monotone_on_grid():
    phi = PhiSpec.family(1, 1.5, 1.5)
    grid = np.geomspace(1e-6, 10.0, 2000)
    vals = phi_value(phi, grid)
    assert np.all(np.diff(vals) > 0.0)


def test_phi_spec_validation():
    with pytest.raises(DomainError):
        PhiSpec.family(3, 2.0, 2.0)
    with pytest.raises(DomainError):
        PhiSpec.family(1, 1.0, 2.0)
    with pytest.raises(DomainError):
        PhiSpec.family(1, 2.0, 1.0)
    with pytest.raises(DomainError):
        PhiSpec.custom(lambda x: np.asarray(x) + 1.0, admissible=False)  # phi(0) != 0
    with pytest.raises(DomainError):
        PhiSpec.custom(lambda x: -np.asarray(x), admissible=False)  # decreasing


def test_phi_variation_power_weight_matches_p_variation(rng):
    p = 2.3
    phi = PhiSpec.custom(lambda x: np.asarray(x) ** p, admissible=True)
    for _ in range(25):
        path = random_path(rng, d=2)
        assert phi_variation(path, phi) == pytest.approx(p_variation(path, p), rel=1e-12)


def test_phi_variation_examples(rng):
    const = SampledPath([0, 1, 2], [1.0, 1.0, 1.0])
    phi = PhiSpec.family(1, 2.0, 2.0)
    assert phi_variation(const, phi) == 0.0
    ss = gen_fixture("stepSplit")
    brute = subsequence_sup_brute(ss, lambda x: float(phi_value(phi, x)))
    assert phi_variation(ss, phi) == pytest.approx(brute, abs=1e-12)


# -- truncated-variation structure ------------------------------------------

def test_ttv_monotone_and_convex_in_threshold(rng):
    for _ in range(40):
        path = random_path(rng, d=int(rng.integers(1, 3)))
        osc = max(oscillation(path), 0.1)
        c = np.sort(rng.uniform(0.0, 1.2 * osc, 3))
        v = [ttv(path, x) for x in c]
        assert v[0] >= v[1] >= v[2]
        mid = ttv(path, 0.5 * (c[0] + c[2]))
        assert mid <= 0.5 * (v[0] + v[2]) + 1e-12


def test_ttv_superadditive_under_splits(rng):
    for _ in range(40):
        path = random_path(rng, n=int(rng.integers(3, 12)), d=2)
        i = int(rng.integers(1, path.n - 1))
        mid = float(path.times[i])
        left = path.restrict(path.a, mid)
        right = path.restrict(mid, path.b)
        c = float(rng.uniform(0.0, oscillation(path)))
        assert ttv(path, c) >= ttv(left, c) + ttv(right, c) - 1e-12


def test_ttv_perturbation_bound(rng):
    for _ in range(40):
        g, h = random_pair_shared_times(rng, d=2)
        total = SampledPath(g.times, g.values + h.values, g.norm)
        c = float(rng.uniform(0.0, 2.0))
        assert ttv(total, c) <= ttv(g, c) + ttv(h, 0.0) + 1e-12


def test_ttv_split_inequality(rng):
    for _ in range(40):
        f, g = random_pair_shared_times(rng, d=2)
        total = SampledPath(f.times, f.values + g.values, f.norm)
        d1, d2 = rng.uniform(0.0, 1.0, 2)
        assert ttv(total, d1 + d2) <= ttv(f, d1) + ttv(g, d2) + 1e-12


def test_ttv_dominated_by_p_variation(rng):
    for _ in range(40):
        path = random_path(rng, d=2)
        p = float(rng.uniform(1.05, 3.0))
        delta = float(rng.uniform(1e-3, 2.0))
        assert ttv(path, delta) <= p_variation(path, p) * delta ** (1.0 - p) + 1e-10


def test_ttv_oscillation_bounds(rng):
    for _ in range(40):
        path = random_path(rng, d=2)
        osc = oscillation(path)
        delta = float(rng.uniform(0.0, 1.5 * osc))
        assert ttv(path, delta) >= max(osc - delta, 0.0) - 1e-12
        assert ttv(path, osc) == 0.0
        assert ttv(path, 1.5 * osc + 0.1) == 0.0


def test_nan_parameters_rejected():
    path = gen_fixture("stepSplit")
    nan = float("nan")
    with pytest.raises(DomainError):
        ttv_profile(path).ttv(nan)
    with pytest.raises(DomainError):
        ttv(path, nan)
    with pytest.raises(DomainError):
        ttv_brute(path, nan)
    for p in (nan, math.inf):
        with pytest.raises(DomainError):
            p_variation(path, p)
    with pytest.raises(DomainError):
        phi_value(PhiSpec.family(1, 2.0, 2.0), nan)

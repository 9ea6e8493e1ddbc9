import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvkit import (DomainError, OperatorPath, PhiSpec, SampledPath, gen_fixture,
                   oscillation, p_tv_seminorm, p_variation, phi_value, phi_variation,
                   subsequence_sup_brute, total_variation, ttv, ttv_brute, ttv_profile)

from tvkit.variation import TtvProfile, _pair_profile, _turning_samples

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


def test_p_variation_past_the_float_range_raises():
    # 2^2000 overflows a float: the sum must raise, not read inf
    zig = SampledPath([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    with pytest.raises(DomainError, match="overflows a float"):
        p_variation(zig, 2000.0)
    assert p_variation(zig, 1000.0) == 2.0 * 2.0 ** 1000


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


# -- differential checks of the column kernel and the batched profile read ---

# components are 0 or at least 1e-100 in size, so squared differences stay
# normal numbers and the scalar oscillation branch (max - min) equals the
# largest euclidean distance exactly
_component = st.floats(-1e3, 1e3).map(lambda x: 0.0 if abs(x) < 1e-100 else x)


@st.composite
def sampled_paths(draw, max_n=12):
    """Vector paths with d = 1..3 or 1x1 / 2x2 operator paths, any norm."""
    n = draw(st.integers(1, max_n))
    norm = draw(st.sampled_from(ALL_NORMS))
    times = np.arange(n, dtype=float)
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        return SampledPath(times, draw(arrays(np.float64, (n, d), elements=_component)), norm)
    d = draw(st.integers(1, 2))
    return OperatorPath(times, draw(arrays(np.float64, (n, d, d), elements=_component)), norm)


def _matrix_sup(path, weight):
    """The subsequence DP on the whole n x n weight matrix: the oracle the
    column kernel must reproduce bit for bit."""
    weights = np.asarray(weight(path.distance_matrix()))
    best = np.zeros(path.n)
    for j in range(1, path.n):
        best[j] = np.max(best[:j] + weights[:j, j])
    return float(best.max(initial=0.0))


_PHIS = (PhiSpec.family(1, 2.0, 1.5), PhiSpec.family(2, 1.3, 2.5),
         PhiSpec.custom(lambda x: np.asarray(x) ** 1.5 * np.log1p(np.asarray(x)),
                        admissible=False))


@settings(max_examples=150, deadline=None)
@given(sampled_paths(), st.floats(1.0, 4.0))
def test_p_variation_equals_matrix_oracle(path, p):
    assert p_variation(path, p) == _matrix_sup(path, lambda dist: dist ** p)


@settings(max_examples=150, deadline=None)
@given(sampled_paths(), st.sampled_from(_PHIS))
def test_phi_variation_equals_matrix_oracle(path, phi):
    assert phi_variation(path, phi) == _matrix_sup(path, lambda dist: phi_value(phi, dist))


@settings(max_examples=150, deadline=None)
@given(sampled_paths())
def test_oscillation_equals_matrix_max(path):
    # the largest d(i, j) = ||x_j - x_i|| over i < j, the distances the
    # profile reads: under the spectral norm, LAPACK's value for x_i - x_j can
    # differ in the last bit when an entry is a signed zero
    osc = oscillation(path)
    assert osc == np.triu(path.distance_matrix(), 1).max()
    if path.n > 1:
        assert osc == ttv_profile(path).M[0]


_thresholds = arrays(np.float64, st.integers(0, 6), elements=st.floats(0.0, 4e3))


@settings(max_examples=100, deadline=None)
@given(sampled_paths(max_n=9), _thresholds)
def test_batched_ttv_equals_one_threshold_reads(path, cs):
    prof = ttv_profile(path)
    got = prof.ttv(cs)
    assert isinstance(got, np.ndarray) and got.shape == cs.shape
    one_by_one = np.array([prof.ttv(float(c)) for c in cs], dtype=float)
    assert got.tobytes() == one_by_one.tobytes()
    for c, value in zip(cs, got):
        assert value == pytest.approx(ttv_brute(path, float(c)), rel=1e-12, abs=1e-12)


def test_batched_ttv_rejects_bad_thresholds():
    prof = ttv_profile(gen_fixture("stepSplit"))
    assert prof.ttv(np.zeros(0)).shape == (0,)
    assert prof.ttv([0.5, 1.5]).tolist() == [2.0, 0.5]
    for cs in ([0.5, float("nan")], [float("nan")], [0.1, -0.1]):
        with pytest.raises(DomainError):
            prof.ttv(cs)


@settings(max_examples=150, deadline=None)
@given(sampled_paths(), st.floats(1.0, 4.0))
def test_seminorm_attained_at_its_threshold(path, p):
    rep = p_tv_seminorm(path, p)
    if rep.argmax_k is None:
        assert rep.value == 0.0 and ttv(path, 0.0) == 0.0
        return
    delta = rep.argmax_delta
    attained = delta ** (p - 1.0) * ttv(path, delta)  # 0.0 ** 0.0 == 1.0 at p = 1
    assert rep.value ** p == pytest.approx(attained, rel=1e-12)


# -- the profile of a one-coordinate path on its turning samples -------------

@st.composite
def _lattice_values(draw, max_n):
    """Integer runs: plateaus (step 0) and long monotone stretches."""
    runs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 9)),
                         min_size=1, max_size=8))
    steps = [step for step, length in runs for _ in range(length)]
    start = draw(st.integers(-5, 5))
    return start + np.cumsum([0] + steps)[:max_n].astype(float)


@st.composite
def one_coordinate_paths(draw, max_n=40):
    """d = 1 or 1x1 paths, any norm: lattice runs, constant paths, n = 1
    and 2, Cauchy walks and arbitrary floats."""
    kind = draw(st.sampled_from(("lattice", "constant", "short", "cauchy", "floats")))
    if kind == "lattice":
        values = draw(_lattice_values(max_n))
    elif kind == "constant":
        values = np.full(draw(st.integers(1, max_n)), draw(_component))
    elif kind == "short":
        values = draw(arrays(np.float64, st.integers(1, 2), elements=_component))
    elif kind == "cauchy":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        values = np.cumsum(rng.standard_cauchy(draw(st.integers(1, max_n))))
    else:
        values = draw(arrays(np.float64, st.integers(1, max_n), elements=_component))
    n = values.size
    norm = draw(st.sampled_from(ALL_NORMS))
    if draw(st.booleans()):
        return SampledPath(np.arange(n, dtype=float), values, norm)
    return OperatorPath(np.arange(n, dtype=float), values.reshape(n, 1, 1), norm)


def _turning_count(values):
    """First and last sample plus one per flip in the sign of the nonzero steps."""
    if values.size < 2:
        return values.size
    signs = [s for s in np.sign(np.diff(values)) if s != 0.0]
    return 2 + sum(a != b for a, b in zip(signs, signs[1:]))


@settings(max_examples=300, deadline=None)
@given(one_coordinate_paths(), _thresholds, st.floats(1.0, 4.0))
def test_turning_profile_equals_full_profile(path, cs, p):
    reduced = _turning_samples(path)
    assert type(reduced) is type(path) and reduced.norm == path.norm
    prof = ttv_profile(path)
    assert prof.K == max(_turning_count(path.values.ravel()) - 1, 0)
    full = _pair_profile(path.distance_matrix())
    oracle = TtvProfile(full)
    # integer values sum exactly, so both programs land on the same floats;
    # otherwise the full program may find a system whose rounded sum is an
    # ulp larger, e.g. by splitting a monotone run in two
    exact = np.all(path.values == np.round(path.values))
    if exact:
        assert prof.M.tobytes() == full[:prof.K].tobytes()
    else:
        assert prof.M == pytest.approx(full[:prof.K], rel=1e-12)
    tv = prof.total_variation
    assert full[prof.K:] == pytest.approx(np.full(full.size - prof.K, tv), rel=1e-12)
    assert prof.ttv(cs) == pytest.approx(oracle.ttv(cs), rel=1e-12, abs=1e-12)
    value, k, delta = prof.sup_weighted(p)
    value_full, k_full, delta_full = oracle.sup_weighted(p)
    assert value == pytest.approx(value_full, rel=1e-12)
    if p >= 1.5:
        assert k == k_full
        assert delta == (delta_full if exact else pytest.approx(delta_full, rel=1e-12))
    if path.n <= 12:
        for c in cs:
            assert prof.ttv(float(c)) == pytest.approx(ttv_brute(path, float(c)),
                                                       rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(sampled_paths())
def test_multi_coordinate_profile_keeps_every_sample(path):
    if path.values[0].size == 1:
        return
    assert _turning_samples(path) is path
    assert ttv_profile(path).K == path.n - 1


def test_turning_samples_examples():
    path = SampledPath(np.arange(9.0), [0, 1, 1, 2, 2, 1, 0, 0, 3], "sup")
    reduced = _turning_samples(path)
    assert reduced.values.ravel().tolist() == [0, 2, 0, 3]
    assert ttv_profile(path).M.tolist() == [3.0, 5.0, 7.0]
    assert _turning_samples(SampledPath(np.arange(4.0), np.zeros(4))).n == 2
    assert _turning_samples(SampledPath(np.arange(3.0), [0.0, 1.0, 2.0])).n == 2

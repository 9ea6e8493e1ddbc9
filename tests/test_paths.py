import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tvkit.paths
from tvkit import (DomainError, NormKind, OperatorPath, SampledPath, compose,
                   gen_alpha_stable, gen_fixture, improved_ly_check, operator_norm,
                   oscillation, read_path_csv, read_path_json, ttv, vector_norm,
                   write_path_csv, write_path_json)
from tvkit.variation import ttv_profile

from conftest import ALL_NORMS, random_path

# squaring underflows below ~1e-154; keep components out of that zone so the
# definiteness axiom is meaningful in float arithmetic
finite_vec = arrays(np.float64, 4,
                    elements=st.floats(-1e6, 1e6).map(
                        lambda x: 0.0 if abs(x) < 1e-120 else x))


@settings(max_examples=150, deadline=None)
@given(finite_vec, finite_vec, st.sampled_from(ALL_NORMS),
       st.floats(0.0, 1e3).map(lambda x: 0.0 if x < 1e-120 else x))
def test_vector_norm_axioms(u, v, kind, a):
    nu, nv = vector_norm(u, kind), vector_norm(v, kind)
    assert nu >= 0.0
    assert vector_norm(np.zeros(4), kind) == 0.0
    assert vector_norm(u + v, kind) <= nu + nv + 1e-9 * (1.0 + nu + nv)
    assert np.isclose(vector_norm(a * u, kind), a * nu, rtol=1e-12, atol=1e-300)
    if nu == 0.0:
        assert np.all(u == 0.0)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, (3, 3), elements=st.floats(-100, 100)),
       arrays(np.float64, 3, elements=st.floats(-100, 100)),
       st.sampled_from(ALL_NORMS))
def test_operator_norm_consistency(m, e, kind):
    nm = operator_norm(m, kind)
    assert vector_norm(m @ e, kind) <= nm * vector_norm(e, kind) + 1e-7


def test_spectral_norm_matches_svd(rng):
    generic = rng.normal(size=(40, 3, 3))
    # rank one and zero matrices: repeated zero singular values
    rank_deficient = np.concatenate((rng.normal(size=(20, 3, 1)) * rng.normal(size=(20, 1, 3)),
                                     np.zeros((2, 3, 3))))
    # scalar multiples of the identity plus a tiny perturbation: a nearly
    # degenerate top singular value
    isotropic = rng.normal(size=(40, 1, 1)) * np.eye(3) + 1e-7 * rng.normal(size=(40, 3, 3))
    for mats in (generic, rank_deficient, isotropic):
        got = operator_norm(mats, NormKind.euclidean)
        want = np.linalg.svd(mats, compute_uv=False)[:, 0]
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def _near_isotropic_pair():
    """2 x 2 integrand: a normal walk times the identity plus 1e-6 noise (n = 10),
    against a staggered 2-d normal walk."""
    rng = np.random.default_rng(0)
    n = 10
    t = np.linspace(0.0, 1.0, n)
    f_ops = (np.cumsum(rng.standard_normal(n))[:, None, None] * np.eye(2)
             + 1e-6 * rng.standard_normal((n, 2, 2)))
    g_v = np.cumsum(rng.standard_normal((n, 2)), axis=0)
    mids = 0.5 * (t[:-1] + t[1:])
    g_t = np.concatenate(([t[0]], mids, [t[-1]]))
    g_v = np.concatenate((g_v, g_v[-1:]))
    return OperatorPath(t, f_ops), SampledPath(g_t, g_v)


def test_spectral_norm_near_isotropic_differences():
    f, _ = _near_isotropic_pair()
    diffs = f.values[None, :, :, :] - f.values[:, None, :, :]
    got = operator_norm(diffs, NormKind.euclidean)
    want = np.linalg.svd(diffs, compute_uv=False)[..., 0]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_ly_rhs_not_below_svd_norms(monkeypatch):
    f, g = _near_isotropic_pair()
    rhs = improved_ly_check(f, g, 1.6, 1.6).ly_rhs

    def svd_norm(mats, kind):
        return np.linalg.svd(np.asarray(mats, dtype=float), compute_uv=False)[..., 0]

    monkeypatch.setattr(tvkit.paths, "operator_norm", svd_norm)
    assert rhs >= improved_ly_check(f, g, 1.6, 1.6).ly_rhs


def test_norm_kind_given_by_name():
    # singular values of [[1, 2], [3, 4]]: sqrt(15 +- sqrt(221))
    got = operator_norm(np.array([[[1.0, 2.0], [3.0, 4.0]]]), "euclidean")
    assert math.isclose(float(got[0]), math.sqrt(15.0 + math.sqrt(221.0)), rel_tol=1e-15)
    assert vector_norm(np.array([3.0, 4.0]), "euclidean") == 5.0
    assert vector_norm(np.array([3.0, -4.0]), "sup") == 4.0
    with pytest.raises(DomainError):
        vector_norm(np.array([3.0, 4.0]), "frobenius")
    with pytest.raises(DomainError):
        operator_norm(np.eye(2), "frobenius")


def test_sampled_path_validation():
    with pytest.raises(DomainError):
        SampledPath([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        SampledPath([1.0, 0.5], [1.0, 2.0])
    with pytest.raises(DomainError):
        SampledPath([0.0, 1.0], [np.nan, 2.0])
    with pytest.raises(DomainError):
        SampledPath([0.0, 1.0], [[1.0], [2.0], [3.0]])
    with pytest.raises(DomainError):
        SampledPath([], [])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_step_eval_rejects_non_finite_times(t):
    p = SampledPath([0.0, 1.0, 2.0], [5.0, 7.0, -1.0])
    op = OperatorPath([0.0, 1.0, 2.0], np.ones((3, 2, 2)))
    for path in (p, op):
        with pytest.raises(DomainError):
            path.eval_at([0.5, t])


def test_operator_path_validation():
    with pytest.raises(DomainError):
        OperatorPath([0.0, 1.0], np.zeros((2, 2, 3)))
    p = OperatorPath([0.0, 1.0], np.zeros((2, 2, 2)))
    assert p.dim == 2


def test_step_eval_and_restrict():
    p = SampledPath([0.0, 1.0, 2.0], [5.0, 7.0, -1.0])
    assert p.eval_at([0.0, 0.5, 1.0, 1.7, 2.0]).ravel().tolist() == [5, 5, 7, 7, -1]
    with pytest.raises(DomainError):
        p.eval_at([-0.1])
    with pytest.raises(DomainError):
        p.eval_at([2.1])
    r = p.restrict(0.5, 1.5)
    assert r.times.tolist() == [0.5, 1.0, 1.5]
    assert r.values.ravel().tolist() == [5.0, 7.0, 7.0]
    assert r.eval_at([1.2, 1.5]).ravel().tolist() == [7.0, 7.0]
    # no sample inside: the restriction still spans [c, d]
    assert p.restrict(0.2, 0.7).times.tolist() == [0.2, 0.7]
    # restriction sharing a sample keeps it once
    r2 = p.restrict(1.0, 2.0)
    assert r2.times.tolist() == [1.0, 2.0]


def test_oscillation_examples():
    assert oscillation(SampledPath([0, 1, 2], [3.0, 3.0, 3.0])) == 0.0
    assert oscillation(SampledPath([0, 1, 2], [0.0, 1.0, -1.0])) == 2.0
    assert oscillation(gen_fixture("circle3")) == pytest.approx(math.sqrt(3.0), abs=0)


@pytest.mark.parametrize("n", [1000, 1030])  # one distance column at a time
@pytest.mark.parametrize("norm", ALL_NORMS)
def test_oscillation_equals_distance_matrix_max(n, norm):
    rng = np.random.default_rng(n)
    times = np.arange(n, dtype=float)
    for path in (SampledPath(times, rng.standard_t(2, (n, 3)), norm),
                 OperatorPath(times, rng.standard_t(2, (n, 2, 2)), norm)):
        assert oscillation(path) == path.distance_matrix().max()


def test_oscillation_equals_first_profile_entry(rng):
    for _ in range(40):
        path = random_path(rng, d=int(rng.integers(1, 4)),
                           norm=ALL_NORMS[rng.integers(0, 3)])
        prof = ttv_profile(path)
        assert oscillation(path) == pytest.approx(prof.M[0], rel=1e-12)


def test_circle3_fixture():
    c3 = gen_fixture("circle3")
    d = c3.distance_matrix()
    off = d[np.triu_indices(3, k=1)]
    assert np.all(off == off[0])
    assert off[0] == pytest.approx(math.sqrt(3.0), abs=0)


def test_stepsplit_fixture():
    ss = gen_fixture("stepSplit")
    assert ss.times.tolist() == [-1.0, 0.0, 1.0]
    assert ss.values.ravel().tolist() == [0.0, 1.0, -1.0]
    assert ttv(ss, 0.0) == 3.0


def test_logseq_fixture():
    ls = gen_fixture("logSeq", p=2.0, n=2)
    nz = ls.values.ravel()[ls.values.ravel() != 0.0]
    assert nz.size == 2
    at_half = ls.values.ravel()[ls.times == 0.5]
    assert at_half[0] == pytest.approx((math.log(2.0) / 2.0) ** 0.5, rel=1e-15)
    assert np.all(np.diff(ls.times) > 0)


def test_fixture_errors():
    with pytest.raises(DomainError):
        gen_fixture("nope")
    with pytest.raises(DomainError):
        gen_fixture("logSeq", p=1.0, n=4)
    with pytest.raises(DomainError):
        gen_fixture("logSeq", p=2.0, n=1)


def test_alpha_stable_deterministic():
    a = gen_alpha_stable(100, 1.7, scale=0.5, seed=123)
    b = gen_alpha_stable(100, 1.7, scale=0.5, seed=123)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, gen_alpha_stable(100, 1.7, scale=0.5, seed=124).values)


def test_alpha_stable_boundary_and_errors():
    two = gen_alpha_stable(2, 1.5, seed=0)
    assert two.n == 2 and two.values[0, 0] == 0.0
    for bad in (dict(n=1, alpha=1.5), dict(n=10, alpha=0.0), dict(n=10, alpha=2.1),
                dict(n=10, alpha=1.5, scale=0.0), dict(n=10, alpha=1.5, horizon=0.0)):
        with pytest.raises(DomainError):
            gen_alpha_stable(**{"seed": 0, **bad})


def test_alpha_two_is_gaussian_with_known_variance():
    n = 100_001
    p = gen_alpha_stable(n, 2.0, scale=1.3, seed=5, horizon=2.0)
    incs = np.diff(p.values.ravel())
    expected = 2.0 * 1.3 ** 2 * (2.0 / (n - 1))
    assert abs(incs.var() / expected - 1.0) < 0.10


def test_compose_identity_and_involution():
    x = gen_alpha_stable(129, 1.5, seed=3)  # dyadic grid: reversal is float-exact
    assert np.array_equal(compose(x, lambda t: t).values, x.values)
    rev = lambda t: 1.0 - t
    assert np.array_equal(compose(compose(x, rev), rev).values, x.values)


def test_compose_scaling_doubles_ttv(rng):
    x = random_path(rng, n=25)
    doubled = compose(x, lambda t: t, lambda v: 2.0 * v)
    for c in (0.0, 0.3, 1.1):
        assert ttv(doubled, 2.0 * c) == pytest.approx(2.0 * ttv(x, c), rel=1e-12)


def test_compose_out_of_range():
    x = gen_alpha_stable(16, 1.5, seed=1)
    with pytest.raises(DomainError):
        compose(x, lambda t: t + 0.5)


def test_generated_paths_are_well_formed():
    candidates = [gen_fixture("circle3"), gen_fixture("stepSplit"),
                  gen_fixture("logSeq", p=1.5, n=5),
                  gen_alpha_stable(64, 0.7, seed=2), gen_alpha_stable(64, 2.0, seed=2)]
    for path in candidates:
        assert np.all(np.diff(path.times) > 0.0)
        assert np.all(np.isfinite(path.values))
        assert np.isfinite(oscillation(path))


def test_csv_uses_lf_only(tmp_path):
    f = tmp_path / "p.csv"
    write_path_csv(SampledPath([0.0, 1.0], [1.0, 2.0]), str(f))
    assert b"\r" not in f.read_bytes()


def test_csv_round_trip(tmp_path):
    p = SampledPath([0.0, 0.5, 2.0], [[1.0, -2.0], [0.1, 0.2], [3.0, 4.0]],
                    NormKind.l1)
    f = tmp_path / "p.csv"
    write_path_csv(p, str(f))
    text = f.read_text()
    assert text.splitlines()[0] == "time,v1,v2"
    q = read_path_csv(str(f), NormKind.l1)
    assert np.array_equal(q.times, p.times) and np.array_equal(q.values, p.values)
    buf = io.StringIO()
    write_path_csv(q, buf)
    assert buf.getvalue() == text


def test_json_round_trip(tmp_path):
    p = SampledPath([0.0, 1.0], [[1e-17, 2.0], [3.0, 4.0]], NormKind.supremum)
    f = tmp_path / "p.json"
    write_path_json(p, str(f))
    obj = json.loads(f.read_text())
    assert obj["norm"] == "sup"
    q = read_path_json(str(f))
    assert np.array_equal(q.times, p.times) and np.array_equal(q.values, p.values)
    assert q.norm is NormKind.supremum


def test_csv_malformed():
    with pytest.raises(DomainError):
        read_path_csv(io.StringIO("wrong,header\n1,2\n"))
    with pytest.raises(DomainError):
        read_path_csv(io.StringIO("time,v1\n1,abc\n"))


@pytest.mark.parametrize("text", ["time,v1\n0.0,1.0\n1.0\n",
                                  "time,v1\n0.0,1.0,2.0\n1.0,2.0,3.0\n",
                                  "time,v1,v2\n0.0,1.0\n1.0,2.0,3.0\n",
                                  "time,v1\n"])
def test_csv_ragged_rows(text):
    with pytest.raises(DomainError, match=r"^malformed path CSV: ragged rows$"):
        read_path_csv(io.StringIO(text))

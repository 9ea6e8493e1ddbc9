import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvkit import (DomainError, SampledPath, gen_alpha_stable, gen_fixture,
                   greedy_skeleton, linear_approx, oscillation, sandwich,
                   step_approx, ttv, ttv_brute)

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


def _held_rule_strays(path, c, eps):
    """Check the held/interpolating rule of every segment of linear_approx;
    return the number of segments held only because interpolating strays."""
    lin = linear_approx(path, c, eps_cont=eps)
    strays_only = 0
    for m, held in enumerate(lin.seg_held):
        start, end = lin.skeleton.indices[m], lin.skeleton.indices[m + 1]
        arrival = float(path.norm_of(path.values[end] - path.values[end - 1]))
        t = path.times[start + 1:end]
        lam = ((t - path.times[start]) / (path.times[end] - path.times[start]))[:, None]
        lerp = (1.0 - lam) * lin.seg_anchor[m] + lam * path.values[end]
        strays = bool(np.any(path.norm_of(lerp - path.values[start + 1:end]) > c))
        assert held == (arrival > eps or strays)
        strays_only += arrival <= eps and strays
    assert lin.sup_distance <= c
    return strays_only


def test_held_segments_only_at_source_jumps(rng):
    # a segment interpolates exactly where its arrival increment is at most
    # eps_cont and the interpolant stays within c of every sample it spans
    for _ in range(40):
        path = random_path(rng, n=int(rng.integers(3, 15)), d=1, scale=0.3)
        _held_rule_strays(path, float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 0.5)))


def test_linear_approx_within_c_with_continuity_threshold():
    path = gen_alpha_stable(2000, 1.5, seed=2)
    lin = linear_approx(path, 0.05, eps_cont=0.05)
    assert not all(lin.seg_held)
    on_grid = float(np.max(path.norm_of(lin.eval_at(path.times) - path.values)))
    assert lin.sup_distance == on_grid
    assert lin.sup_distance <= 0.05
    assert _held_rule_strays(path, 0.05, 0.05) > 0


@pytest.mark.parametrize("t", [-0.5, 1.5, math.inf, -math.inf, math.nan])
def test_linear_eval_outside_domain(t):
    path = ramp()                      # on [0, 1], last knot at 0.9
    lin = linear_approx(path, 0.5)
    assert lin.eval_at([1.0])[0, 0] == lin.tail_anchor[0]
    with pytest.raises(DomainError):
        lin.eval_at([0.5, t])


def _rescan_skeleton(path, c):
    """The greedy walk by a full rescan of the later samples at each stop."""
    half = 0.5 * c
    values = path.values
    idx, branch, i = [0], [], 0
    while i < path.n - 1:
        if float(path.norm_of(values[i + 1] - values[i])) >= half:
            j, kind = i + 1, "big-jump"
        else:
            hits = np.nonzero(path.norm_of(values[i + 1:] - values[i]) > half)[0]
            if hits.size == 0:
                break
            j, kind = i + 1 + int(hits[0]), "small-jump"
        idx.append(j)
        branch.append(kind)
        i = j
    return idx, tuple(branch)


def _eval_pointwise(lin, ts):
    """The linear approximant's documented value at each time, one at a time."""
    kt, kv = lin.knot_times, lin.knot_values
    out = []
    for x in ts:
        pos = int(np.searchsorted(kt, x))
        if pos < kt.size and kt[pos] == x:
            out.append(kv[pos])
        elif pos == kt.size:
            out.append(lin.tail_anchor)
        elif lin.seg_held[pos - 1]:
            out.append(lin.seg_anchor[pos - 1])
        else:
            s = pos - 1
            lam = (x - kt[s]) / (kt[s + 1] - kt[s])
            out.append((1.0 - lam) * lin.seg_anchor[s] + lam * kv[s + 1])
    return np.array(out)


@st.composite
def lattice_walks(draw):
    """Paths on the lattice 0.25 Z^d with c/2 a multiple of 0.25, so distances
    of exactly c/2 are common; pieces are a move followed by a hold that can
    outlast several scan windows, and the tail may stay inside the band."""
    d = draw(st.integers(1, 3))
    norm = draw(st.sampled_from(ALL_NORMS))
    k = draw(st.integers(1, 4))                       # c/2 = k / 4
    pieces = draw(st.lists(st.tuples(st.lists(st.integers(-k - 1, k + 1), min_size=d,
                                              max_size=d),
                                     st.integers(0, 120)),
                           min_size=1, max_size=25))
    rows = [np.zeros(d)]
    for move, hold in pieces:
        rows.append(rows[-1] + np.asarray(move, dtype=float))
        rows.extend([rows[-1]] * hold)
    tail = draw(st.integers(0, 80))                   # wobble by one lattice step
    base = rows[-1]
    rows.extend(base + (i % 2) * np.eye(d)[0] for i in range(tail))
    values = 0.25 * np.array(rows)
    seed = draw(st.integers(0, 2**32 - 1))
    times = np.cumsum(np.random.default_rng(seed).uniform(0.1, 1.0, len(rows)))
    return SampledPath(times, values, norm), 0.5 * k


@settings(max_examples=150, deadline=None)
@given(lattice_walks())
def test_skeleton_matches_full_rescan(walk):
    path, c = walk
    sk = greedy_skeleton(path, c)
    idx, branch = _rescan_skeleton(path, c)
    assert sk.indices.tolist() == idx
    assert sk.branch == branch


@pytest.mark.parametrize("norm", ALL_NORMS)
def test_skeleton_matches_full_rescan_on_random_walks(norm):
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        incs = rng.standard_t(1.5, size=(3000, d)) * 3000 ** -0.66
        path = SampledPath(np.arange(3001.0), np.cumsum(np.vstack([np.zeros((1, d)), incs]),
                                                        axis=0), norm)
        for c in (0.01, 0.1, 1.0):
            sk = greedy_skeleton(path, c)
            assert (sk.indices.tolist(), sk.branch) == _rescan_skeleton(path, c)


@settings(max_examples=100, deadline=None)
@given(lattice_walks(), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_linear_eval_matches_pointwise(walk, eps_scale):
    path, c = walk
    lin = linear_approx(path, c, eps_cont=eps_scale * c)
    t = path.times
    ts = np.concatenate((t, 0.5 * (t[:-1] + t[1:]), t[:-1] + 0.9 * np.diff(t)))
    assert np.array_equal(lin.eval_at(ts), _eval_pointwise(lin, ts))
    assert lin.sup_distance <= c


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

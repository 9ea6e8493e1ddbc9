"""Tests of the benchmark's reference functions and tracer.

    python3 -m pytest tvbench -q

The references are compared with a 2^n enumeration of index subsequences
and with closed forms; none of them is compared with tvkit's output, except
the input generator, which must reproduce the paths the CLI generates.
"""

import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference as ref  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

THRESHOLDS = (0.0, 0.05, 0.3, 1.0, 2.5)


def _paths(rng):
    yield np.cumsum(rng.standard_normal((7, 1)), axis=0)
    yield rng.standard_normal((6, 2))
    yield rng.standard_normal((6, 2, 2))


def test_ttv_matches_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(4):
        for x in _paths(rng):
            got = ref.ttv(x, THRESHOLDS)
            for c, value in zip(THRESHOLDS, got):
                want = ref.subsequence_sup_brute(x, lambda d, c=c: max(d - c, 0.0))
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_p_and_phi_variation_match_enumeration():
    rng = np.random.default_rng(4)
    for x in _paths(rng):
        assert ref.p_variation(x, 1.7) == pytest.approx(
            ref.subsequence_sup_brute(x, lambda d: d ** 1.7), rel=1e-12)
        for kind in (1, 2):
            assert ref.phi_variation(x, kind, 2.0, 1.5) == pytest.approx(
                ref.subsequence_sup_brute(
                    x, lambda d: float(ref.phi_weight(kind, 2.0, 1.5, np.array([d]))[0])),
                rel=1e-12)


def test_stepsplit_ttv_closed_form():
    x = np.array([[0.0], [1.0], [-1.0]])
    cs = np.linspace(0.0, 3.0, 31)
    want = np.maximum(1.0 - cs, 0.0) + np.maximum(2.0 - cs, 0.0)
    assert np.allclose(ref.ttv(x, cs), want, rtol=0.0, atol=1e-15)


def test_stepsplit_seminorm_closed_form():
    # sup_delta delta (TTV(delta)) = 1.125 at delta = 0.75 for p = 2
    lo, hi = ref.seminorm_pow_bracket(np.array([[0.0], [1.0], [-1.0]]), 2.0)
    assert lo == pytest.approx(1.125, rel=1e-12)
    assert hi == pytest.approx(1.125, rel=1e-12)


def test_seminorm_matches_enumeration():
    # sup_delta delta^(p-1) TTV(delta) = max_k c_p M_k^p / k^(p-1), with M_k the
    # largest sum of k increments of one subsequence and c_p = (p-1)^(p-1)/p^p
    rng = np.random.default_rng(7)
    for x in _paths(rng):
        n = x.shape[0]
        m = np.zeros(n - 1)
        for mask in range(1, 1 << n):
            idx = [i for i in range(n) if mask >> i & 1]
            d = [float(ref.distances_to(x[[a, b]], 1)[0]) for a, b in zip(idx, idx[1:])]
            top = np.cumsum(sorted(d, reverse=True))
            m[:top.size] = np.maximum(m[:top.size], top)
        ks = np.arange(1, n)
        for p in (1.6, 2.0, 3.0):
            want = np.max(m ** p / ks ** (p - 1.0)) * (p - 1.0) ** (p - 1.0) / p ** p
            lo, hi = ref.seminorm_pow_bracket(x, p)
            assert lo == pytest.approx(want, rel=1e-10)
            assert hi == pytest.approx(want, rel=1e-10)


def test_logseq_series():
    # isolated spikes x_k = (ln k / k)^(1/2) between zeros: V_phi = 2 sum phi(x_k)
    ks = np.arange(17, 1, -1)
    heights = (np.log(ks) / ks) ** 0.5
    x = np.zeros((2 * ks.size + 1, 1))
    x[1::2, 0] = heights
    assert ref.p_variation(x, 2.5) == pytest.approx(2.0 * np.sum(heights ** 2.5), rel=1e-12)
    assert ref.phi_variation(x, 1, 2.0, 2.0) == pytest.approx(
        2.0 * np.sum(ref.phi_weight(1, 2.0, 2.0, heights)), rel=1e-12)


def test_trapezoid_is_the_linear_completion_integral():
    # left sums with m tags per sample interval miss it by sum df dg / (2m)
    rng = np.random.default_rng(5)
    f = rng.standard_normal((5, 2, 2))
    g = rng.standard_normal((5, 2))
    m = 64
    s = np.arange(m) / m
    left = sum(np.einsum("kij,j->i", f[i] + s[:, None, None] * (f[i + 1] - f[i]),
                         (g[i + 1] - g[i]) / m) for i in range(4))
    miss = sum((f[i + 1] - f[i]) @ (g[i + 1] - g[i]) for i in range(4)) / (2 * m)
    assert np.allclose(left + miss, ref.trapezoid(f, g), rtol=0.0, atol=1e-12)


def test_jump_sum_and_running_sum():
    a, b = np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[3.0, 0.0], [1.0, -1.0]])
    f_times, f_ops = np.array([0.0, 0.5, 1.0]), np.stack([a, b, b])
    g_times = np.array([0.0, 0.25, 0.75, 1.0])
    g_vecs = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [1.0, 2.0]])
    d1, d2 = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    assert np.allclose(ref.jump_sum(f_times, f_ops, g_times, g_vecs), a @ d1 + b @ d2)
    running = ref.indefinite_values(f_times, f_ops, g_times, g_vecs)
    assert np.allclose(running, [[0.0, 0.0], [0.0, 0.0], (b - a) @ d2])


def test_series_against_a_plain_sum():
    for const, coef, r in ((1.0, 0.2, 1.78), (-0.6, 0.5, 2.25), (1.0, 0.05, 1.11)):
        plain = math.fsum(3.0 ** (k + const - coef * r ** k) for k in range(400)
                          if coef * r ** k < 2000.0)
        assert ref.double_exp_series(const, coef, r) == pytest.approx(plain, rel=1e-14)
    s1, s2 = ref.series_pair(1.6, 1.6)
    assert ref.c_pq(1.6, 1.6) == pytest.approx(4 ** 1.6 * (s1 + s2))
    assert ref.d_pq(1.6, 1.6) == pytest.approx(
        (4 ** 1.6 * s1 * (2 * 4 ** 1.6 * s2) ** 0.6) ** (1 / 1.6))


def test_majorant_against_enumeration():
    rng = np.random.default_rng(6)
    f = rng.standard_normal((6, 2, 2))
    g = rng.standard_normal((6, 2))
    p = q = 1.6
    vp, vq = ref.p_variation(f, p), ref.p_variation(g, q)
    alpha, r = ref.alpha_r(p, q)
    beta = 0.5 * max(np.linalg.norm(f[i] - f[0], 2) for i in range(6))
    gamma = (vq / vp) ** (1 / q) * beta ** (p / q)

    def brute_ttv(x, c):
        return ref.subsequence_sup_brute(x, lambda d: max(d - c, 0.0))

    total = 0.0
    for k in range(12):
        eta_prev = beta * 3.0 ** (1.0 - r ** k)
        eta = beta * 3.0 ** (1.0 - r ** (k + 1))
        theta = gamma * 3.0 ** (-(r ** k) * alpha / (q - 1.0))
        total += 4 * 3 ** k * (eta_prev * brute_ttv(g, theta / 4) + theta * brute_ttv(f, eta / 4))
    assert ref.majorant_S(f, g, p, q, vp, vq) == pytest.approx(total, rel=1e-10)


def test_generator_reproduces_the_cli_inputs():
    from tvkit.paths import gen_alpha_stable
    for seed in (7, *ref.cli_pair_seeds(7)):
        assert np.array_equal(ref.alpha_stable_values(300, 1.5, seed),
                              gen_alpha_stable(300, 1.5, seed=seed).values[:, 0])


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
                    ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    full, own = tracer.totals()
    assert full == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_tracer_counts_at_the_layer_boundaries():
    import tvkit
    import tvkit.cli
    tracer = Tracer()
    tracer.install(tvkit)
    try:
        tracer.start_job(0)
        path = tvkit.SampledPath([0.0, 1.0, 2.0], [0.0, 1.0, -1.0])
        same = tvkit.SampledPath([5.0, 6.0, 7.0], [0.0, 1.0, -1.0])
        path.distance_matrix()
        same.distance_matrix()          # equal values and norm: a repeat
        tvkit.ttv(path, 0.5)            # builds the profile, one more matrix
        tvkit.ttv(path, 0.25)           # cached profile: a read, no build
        with redirect_stdout(io.StringIO()):
            code = tvkit.cli.run(["ttv", "--fixture", "stepSplit", "--c", "0.5"])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = layer_metrics(tracer, 2)
    assert metrics["paths.distance_matrix.calls"]["value"] * 2 == 4
    assert metrics["paths.distance_matrix.repeats"]["value"] * 2 == 3
    assert metrics["paths.distance_matrix.cells"]["value"] * 2 == 36
    assert metrics["variation.ttv_profile.builds"]["value"] * 2 == 2
    assert metrics["variation.profile_reads"]["value"] * 2 == 3
    assert metrics["cli.run.self_s"]["value"] > 0.0
    assert not hasattr(tvkit.cli.run, "__wrapped__")
    assert not hasattr(tvkit.SampledPath.distance_matrix, "__wrapped__")

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvkit import SampledPath, gen_alpha_stable, read_path_csv, write_path_csv
from tvkit.cli import run

from cli_golden import invoke as invoke_recorded

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tvbench"))
import reference as ref  # noqa: E402


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ttv_fixture_value(capsys):
    code, out, _ = invoke(capsys, "ttv", "--fixture", "stepSplit", "--c", "0.5")
    assert code == 0
    assert json.loads(out)["value"] == 2.0


def test_seminorm_fixture_value(capsys):
    code, out, _ = invoke(capsys, "seminorm", "--fixture", "stepSplit", "--p", "2")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["value_pow_p"] - 1.125) <= 1e-12
    assert rep["argmax_k"] == 2 and rep["argmax_delta"] == 0.75


def test_seminorm_at_large_p(capsys):
    code, out, _ = invoke(capsys, "seminorm", "--fixture", "stepSplit", "--p", "200")
    assert code == 0
    rep = json.loads(out)
    assert rep["argmax_k"] == 1 and rep["value"] > 0.0


def test_seminorm_power_overflow_exits_2(capsys):
    # the seminorm (about 1.99) is finite; only value^p leaves the float range
    code, out, err = invoke(capsys, "seminorm", "--fixture", "stepSplit", "--p", "2000")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("tvkit: error: value^p overflows a float (value 1.99")


@pytest.mark.parametrize("argv", [
    ("ttv", "--fixture", "stepSplit", "--c", "0.5"),
    ("gen", "--fixture", "stepSplit", "--format", "csv"),
])
def test_out_that_cannot_be_opened_exits_2(capsys, tmp_path, argv):
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path / "missing" / "x.out"))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("tvkit: error: ")
    assert "No such file or directory" in err


def test_pvar_and_phivar(capsys):
    code, out, _ = invoke(capsys, "pvar", "--fixture", "stepSplit", "--p", "2")
    assert code == 0 and json.loads(out)["value"] == 5.0
    code, out, _ = invoke(capsys, "phivar", "--fixture", "logSeq",
                          "--fixture-p", "2", "--fixture-n", "8",
                          "--p", "2", "--gamma", "2", "--kind", "1")
    assert code == 0 and json.loads(out)["value"] > 0.0


def test_approx_report_and_csv(capsys, tmp_path):
    code, out, _ = invoke(capsys, "approx", "--fixture", "circle3",
                          "--c", repr(float(np.sqrt(3.0))), "--lambda", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["lower"] == 0.0
    assert rep["witness_tv"] == pytest.approx(2 * np.sqrt(3.0), rel=1e-12)
    assert rep["upper"] == pytest.approx(3 * np.sqrt(3.0), rel=1e-12)
    out_file = tmp_path / "ap.csv"
    code, _, _ = invoke(capsys, "approx", "--fixture", "circle3",
                        "--c", "1.0", "--format", "csv", "--out", str(out_file))
    assert code == 0
    path = read_path_csv(str(out_file))
    assert path.n == 3


def test_gen_roundtrip(capsys, tmp_path):
    f = tmp_path / "path.csv"
    code, _, _ = invoke(capsys, "gen", "--gen", "alpha-stable", "--n", "32",
                        "--alpha", "1.5", "--seed", "9", "--format", "csv",
                        "--out", str(f))
    assert code == 0
    path = read_path_csv(str(f))
    assert path.n == 32
    code, out, _ = invoke(capsys, "gen", "--gen", "alpha-stable", "--n", "32",
                          "--alpha", "1.5", "--seed", "9")
    obj = json.loads(out)
    assert np.allclose(obj["values"], path.values, atol=0)


def test_gen_requires_seed(capsys):
    code, _, err = invoke(capsys, "gen", "--gen", "alpha-stable", "--n", "16")
    assert code == 2 and "seed" in err


def test_validation_errors(capsys):
    code, _, err = invoke(capsys, "ttv", "--fixture", "nope", "--c", "0.1")
    assert code == 2 and "fixture" in err
    code, _, err = invoke(capsys, "ttv", "--fixture", "stepSplit", "--c", "-1")
    assert code == 2
    code, _, err = invoke(capsys, "ttv", "--c", "0.1")
    assert code == 2
    code, _, err = invoke(capsys, "ttv", "--fixture", "stepSplit", "--c", "0.1",
                          "--input", "x.csv")
    assert code == 2
    code, _, err = invoke(capsys, "ttv", "--input", "/nonexistent.csv", "--c", "0.1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("ttv", "--fixture", "stepSplit", "--c", "nan"),
    ("pvar", "--fixture", "stepSplit", "--p", "nan"),
    ("seminorm", "--fixture", "stepSplit", "--p", "nan"),
    ("seminorm", "--fixture", "stepSplit", "--p", "inf"),
    ("approx", "--fixture", "stepSplit", "--c", "nan"),
    ("ly-check", "--gen", "alpha-stable", "--n", "16", "--seed", "1",
     "--p", "1.5", "--q", "1.5", "--tol", "nan"),
    ("ly-check", "--gen", "alpha-stable", "--n", "16", "--seed", "1",
     "--p", "1.5", "--q", "1.5", "--tol", "inf"),
    ("irregularity", "--gen", "alpha-stable", "--n", "16", "--seed", "1",
     "--p", "1.5", "--q", "1.5", "--tol", "inf"),
])
def test_non_finite_parameters_exit_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("argv", [
    ("ly-check", "--gen", "alpha-stable", "--n", "16", "--seed", "1", "--p", "1.5",
     "--q", "1.5"),
    ("irregularity", "--gen", "alpha-stable", "--n", "16", "--seed", "1", "--p", "1.5",
     "--q", "1.5"),
    ("ly-check", "--fixture", "stepSplit", "--p", "1.5", "--q", "1.5"),
])
def test_trials_must_be_positive(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--trials", "0")
    assert code == 2 and out == "" and err == "tvkit: error: --trials must be at least 1\n"


@pytest.mark.parametrize("argv", [
    ("seminorm", "--gen", "alpha-stable", "--n", "32", "--seed", "1", "--p", "2",
     "--trials", "3"),
    ("integrate", "--gen", "alpha-stable", "--n", "32", "--seed", "1", "--trials", "3"),
    ("ttv", "--fixture", "stepSplit", "--c", "0.5", "--trials", "0"),
    ("gen", "--fixture", "stepSplit", "--trials", "1"),
    ("pvar", "--fixture", "stepSplit", "--p", "2", "--tol", "5"),
    ("approx", "--fixture", "stepSplit", "--c", "0.5", "--tol", "1e-3"),
])
def test_flags_only_where_read(capsys, argv):
    # --trials belongs to ly-check and irregularity, --tol also to integrate
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == "" and "unrecognized arguments" in err


def test_unknown_flag_rejected(capsys):
    assert run(["ttv", "--fixture", "stepSplit", "--c", "0.1", "--bogus"]) == 2


def test_help_exits_zero_for_every_subcommand():
    from tvkit.cli import SUBCOMMANDS
    assert run(["--help"]) == 0
    for sub in SUBCOMMANDS:
        assert run([sub, "--help"]) == 0


def test_integrate_two_csv_inputs(capsys, tmp_path):
    ff = tmp_path / "f.csv"
    gf = tmp_path / "g.csv"
    write_path_csv(SampledPath([0.0, 0.25, 1.0], [0.0, 1.0, 1.0]), str(ff))
    write_path_csv(SampledPath([0.0, 0.5, 1.0], [0.0, 2.0, 2.0]), str(gf))
    code, out, _ = invoke(capsys, "integrate", "--input", str(ff), "--input", str(gf),
                          "--p", "1.5", "--q", "1.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == [2.0]
    assert rep["bound_S"] >= 2.0 - rep["value"][0] * 0.0  # present and finite


@pytest.mark.parametrize("n, alpha, seed, tol", [(512, 1.8, 7, 1e-6), (4097, 2.0, 3, 2e-3)])
def test_integrate_gen_is_the_trapezoid_sum(capsys, n, alpha, seed, tol):
    code, out, err = invoke(capsys, "integrate", "--gen", "alpha-stable", "--n", str(n),
                            "--alpha", str(alpha), "--seed", str(seed), "--tol", str(tol))
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["levels"] == 0 and rep["cauchy_gap"] == 0.0
    f_seed, g_seed = np.random.SeedSequence(seed).spawn(2)
    f = gen_alpha_stable(n, alpha, seed=f_seed).values[:, 0]
    g = gen_alpha_stable(n, alpha, seed=g_seed).values[:, 0]
    trapezoid = np.sum(0.5 * (f[:-1] + f[1:]) * np.diff(g))
    assert rep["value"][0] == pytest.approx(trapezoid, rel=1e-12)


def test_ly_check_gen(capsys):
    code, out, _ = invoke(capsys, "ly-check", "--gen", "alpha-stable", "--alpha", "1.8",
                          "--n", "64", "--p", "1.9", "--q", "1.9", "--seed", "7",
                          "--tol", "1e-3")
    assert code == 0
    rep = json.loads(out)
    assert rep["ly"]["ratio"] <= 1.0
    assert set(rep["ly"]) == {"lhs", "rhs", "ratio", "C_pq"}
    assert "bound_S" in rep and "value" in rep


def test_irregularity_fixture_pair(capsys, tmp_path):
    ff = tmp_path / "f.csv"
    gf = tmp_path / "g.csv"
    write_path_csv(SampledPath([0.0, 0.15, 1.0], [0.5, 1.5, 1.5]), str(ff))
    write_path_csv(SampledPath([0.0, 0.31, 1.0], [0.0, 2.0, 2.0]), str(gf))
    code, out, _ = invoke(capsys, "irregularity", "--input", str(ff), "--input", str(gf),
                          "--p", "1.5", "--q", "1.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["ratio"] <= 1.0 and rep["D_pq"] > 0.0


def test_irregularity_gen_staggers_jumps(capsys):
    # generated pairs share the uniform grid; the step-semantics subcommand
    # must move the integrator's jumps off it instead of erroring out
    code, out, _ = invoke(capsys, "irregularity", "--gen", "alpha-stable",
                          "--alpha", "1.8", "--n", "64", "--p", "1.9", "--q", "1.9",
                          "--seed", "5")
    assert code == 0
    assert json.loads(out)["ratio"] <= 1.0


def test_trials_are_ordered_and_deterministic(capsys):
    args = ("ly-check", "--gen", "alpha-stable", "--alpha", "1.8", "--n", "32",
            "--p", "1.9", "--q", "1.9", "--seed", "3", "--trials", "3", "--tol", "1e-2")
    code, out1, _ = invoke(capsys, *args)
    assert code == 0
    code, out2, _ = invoke(capsys, *args)
    assert out1 == out2
    rep = json.loads(out1)
    assert len(rep["trials"]) == 3
    assert all(t["ly"]["ratio"] <= 1.0 for t in rep["trials"])


def test_byte_identical_reports(capsys):
    args = ("seminorm", "--fixture", "stepSplit", "--p", "2")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


def test_csv_format_report(capsys):
    code, out, _ = invoke(capsys, "ttv", "--fixture", "stepSplit", "--c", "0.5",
                          "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("value,") for line in lines)


def test_json_input_file(capsys, tmp_path):
    from tvkit import write_path_json
    f = tmp_path / "p.json"
    write_path_json(SampledPath([-1.0, 0.0, 1.0], [0.0, 1.0, -1.0]), str(f))
    code, out, _ = invoke(capsys, "ttv", "--input", str(f), "--c", "0.5")
    assert code == 0 and json.loads(out)["value"] == 2.0


def test_csv_trials_table(capsys):
    code, out, _ = invoke(capsys, "ly-check", "--gen", "alpha-stable", "--alpha", "1.8",
                          "--n", "32", "--p", "1.9", "--q", "1.9", "--seed", "3",
                          "--trials", "2", "--tol", "1e-2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("trials.0.ly.ratio,") for line in lines)
    assert any(line.startswith("trials.1.ly.ratio,") for line in lines)


# -- the series of the integral subcommands -----------------------------------

PAIR = ("--gen", "alpha-stable", "--n", "16", "--seed", "1")


def test_ly_constant_is_the_summed_series(capsys):
    # at --tol 1e-2 a series stopped on a relative term test falls 1.4 % short
    code, out, _ = invoke(capsys, "ly-check", "--gen", "alpha-stable", "--n", "64",
                          "--seed", "1", "--p", "1.9", "--q", "2.05", "--tol", "1e-2")
    assert code == 0
    want = ref.c_pq(1.9, 2.05)
    assert want <= json.loads(out)["ly"]["C_pq"] <= want * (1.0 + 1e-12)


@pytest.mark.parametrize("tol", ["1e-9", "1e-300"])
def test_majorant_finite_where_its_terms_peak_near_3_to_the_358(capsys, tol):
    # with --tol 1e-300 the certified sum runs past k = 646, where 3^k overflows
    code, out, _ = invoke(capsys, "integrate", *PAIR, "--p", "1.99", "--q", "1.99",
                          "--tol", tol)
    assert code == 0
    bound_s = json.loads(out)["bound_S"]
    assert math.isfinite(bound_s) and bound_s > 1e170


exponents = st.one_of(st.floats(1.0, 4.0), st.floats(1.0, 1.001), st.floats(4.0, 1e7),
                      st.sampled_from([1.0000001, 1.1, 1.9, 1.99, 2.05, 10.0, 1e6, 1e300,
                                       0.5, -1.0, math.inf, math.nan]))
tolerances = st.one_of(st.floats(0.0, 1.0), st.floats(1e-300, 1e-6),
                       st.sampled_from([1e-2, 1e-9, 1.5, 0.0, -1.0, math.inf, math.nan]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ly-check", "irregularity", "integrate"]), exponents, exponents,
       tolerances)
@example("integrate", 1.99, 1.99, 1e-9)
@example("irregularity", 1.1, 10.0, 1e-9)
@example("ly-check", 1.0000001, 1e6, 1e-9)
@example("ly-check", 1.9, 2.05, 1e-2)
@example("integrate", 1e6, 1.0000001, 1e-9)
def test_integral_subcommands_exit_0_or_2_with_one_line(sub, p, q, tol):
    rec = invoke_recorded({"argv": [sub, *PAIR, "--p", repr(p), "--q", repr(q),
                                    "--tol", repr(tol)]}, Path(__file__).parent)
    assert rec["code"] in (0, 2), rec
    if rec["code"] == 0:
        assert rec["stderr"] == "" and json.loads(rec["stdout"])
    else:
        assert rec["stdout"] == "" and rec["stderr"].count("\n") == 1, rec
        assert rec["stderr"].startswith("tvkit: error: "), rec

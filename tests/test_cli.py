"""Tests for the command-line front end.

Most checks call ``main(argv)`` in-process and inspect captured output;
one subprocess test covers the ``python -m conncoef.cli`` entry point.
"""

import csv
import filecmp
import json
import subprocess
import sys
import warnings
from types import SimpleNamespace

import pytest

from conncoef import ellipsoidal as ell
from conncoef import spheroidal as sph
from conncoef.cli import main
from conncoef.errors import NoConvergence, ScanExhausted, SingularJacobian
from conncoef.rootfind import SolverOptions

C_TABLE = "1.7142857142857142"  # 12/7

THETA_ARGS = ["theta-ell", "--lambda", "3.2", "--mu", "-5",
              "--gamma", "4", "--c", "1.6", "--rho", "1", "--sigma", "0"]

#: a spheroidal scan, less its output path
SPH_SCAN = ["scan", "--problem", "sph", "--gamma2", "4", "--t-range", "0",
            "1", "--resolution", "3", "--output"]


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------

def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["theta-ell", "--lambda", "1", "--mu", "1", "--gamma", "0"])
    assert exc.value.code == 1


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(THETA_ARGS + ["--bogus"])
    assert exc.value.code == 1


def test_eigenfunction_takes_no_tol():
    # the pair's polish and the spectrum keep their own tolerances, so a
    # --tol here would be read by nothing
    with pytest.raises(SystemExit) as exc:
        main(["eigenfunction", "--problem", "sph", "--gamma2", "4",
              "--tol", "1e-8", "--output", "-"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, what", [
    (["scan", "--problem", "ell", "--gamma", "4", "--c", "1.6",
      "--lambda-range", "0", "1"], "--lambda-range and --mu-range"),
    (["scan", "--problem", "sph", "--t-range", "0", "1"], "--gamma2"),
    (["scan", "--problem", "sph", "--gamma2", "4"], "--t-range"),
    (["eigenfunction", "--problem", "ell", "--abramov", "--k2", "0.5",
      "--omega2", "1", "--H", "404.5725"], "--H and --L"),
    (["eigenfunction", "--problem", "sph"], "--gamma2"),
], ids=["ell-scan-ranges", "sph-scan-gamma2", "sph-scan-t-range",
        "wave-eigenfunction-H-L", "sph-eigenfunction-gamma2"])
def test_missing_problem_flag_exits_1(argv, what, capsys):
    assert main(argv + ["--output", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and what in captured.err
    assert captured.out == ""


def test_incomplete_problem_flags_exit_1(capsys):
    # eigen-ell without --gamma/--c (and not --abramov) is a usage error
    assert main(["eigen-ell", "--seed", "0.2", "-0.5"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eigen-ell", "--seed", "1", "1"],
    ["scan", "--problem", "ell", "--lambda-range", "0", "1",
     "--mu-range", "0", "1", "--output", "-"],
    ["eigenfunction", "--problem", "ell", "--H", "1", "--L", "1",
     "--output", "-"],
])
def test_abramov_k2_zero_exits_1(capsys, argv):
    # k2 = 0 would put the third singular point at infinity; the range
    # check must come before the division by k2
    rc = main(argv[:1] + ["--abramov", "--k2", "0", "--omega2", "1"]
              + argv[1:])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--gamma", "nan"), ("--c", "inf")])
def test_non_finite_problem_exits_1(capsys, flag, value):
    # a usage error, not a run that fails to converge (exit 2)
    argv = ["theta-ell", "--lambda", "0.3", "--mu", "-0.5", "--gamma", "1",
            "--c", "2"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and flag[2:] in captured.err
    assert captured.out == ""


def test_sph_integral_normalization_rejected_before_solve(monkeypatch,
                                                          capsys):
    calls = []

    def eigenvalues(*args, **kwargs):
        calls.append(args)
        raise ValueError("the eigenvalue solve must not run")

    monkeypatch.setattr(sph, "eigenvalues", eigenvalues)
    rc = main(["eigenfunction", "--problem", "sph", "--gamma2", "4",
               "--normalize", "integral", "--output", "-"])
    assert rc == 1
    assert "--normalize none|sup" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("index", ["-1", "-3"])
def test_negative_eigenfunction_index_exits_1_before_solve(index, monkeypatch,
                                                           capsys):
    # the spectrum solve once took --index + 1 as its count and reported
    # "count must be an integer >= 1", an option this command does not take
    calls = []

    def eigenvalues(*args, **kwargs):
        calls.append(args)
        raise ValueError("the eigenvalue solve must not run")

    monkeypatch.setattr(sph, "eigenvalues", eigenvalues)
    rc = main(["eigenfunction", "--problem", "sph", "--gamma2", "4",
               "--index", index, "--output", "-"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--index" in captured.err
    assert captured.out == ""
    assert calls == []


def test_unconverged_run_exits_2(capsys):
    rc = main(THETA_ARGS + ["--k-max", "40", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert payload["status"] == "k_max_reached"
    assert payload["k"] == 40


@pytest.mark.parametrize("bounds", [
    ["--gamma2", "4", "--t-range", "5", "1"],
])
def test_eigen_sph_bad_scan_bounds_exit_1(capsys, bounds):
    rc = main(["eigen-sph", "--count", "2"] + bounds)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: scan bounds")


@pytest.mark.parametrize("argv", [
    ["eigen-sph", "--count", "2", "--gamma2", "nan"],
    ["scan", "--problem", "sph", "--gamma2", "nan", "--t-range", "0", "1",
     "--resolution", "3", "--output", "-"],
], ids=["eigen-sph", "scan"])
def test_non_finite_sph_problem_exits_1(capsys, argv):
    # rejected with the problem: no scan runs and no CSV header is written
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "gamma2" in captured.err
    assert captured.out == ""


def test_k_max_below_first_usable_index_exits_1(tmp_path, capsys):
    rc = main(["theta-ell", "--lambda", "3.2", "--mu", "-5", "--gamma", "4",
               "--c", "1.6", "--k-max", "3"])
    assert rc == 1
    assert "first usable index" in capsys.readouterr().err
    # a spheroidal scan writes no CSV header, to stdout or to a file
    out = tmp_path / "x.csv"
    for path in ("-", str(out)):
        assert main(SPH_SCAN + [path, "--k-max", "0"]) == 1
        captured = capsys.readouterr()
        assert "first usable index" in captured.err and captured.out == ""
    assert not out.exists()


def test_unwritable_output_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    rc = main(["scan", "--problem", "sph", "--gamma2", "4",
               "--t-range", "-4", "10", "--resolution", "3",
               "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    THETA_ARGS + ["--json"],
    ["eigen-sph", "--gamma2", "4", "--count", "2"],
    ["eigen-ell", "--gamma", "0", "--c", C_TABLE, "--tau", "1",
     "--seed", "0.26", "-0.45"],
    SPH_SCAN + ["-"],
    SPH_SCAN + ["FILE"],
])
def test_nan_tolerance_exits_1(argv, tmp_path, capsys):
    # checked before any work: a NaN tol used to run every step budget,
    # and a spheroidal scan used to write its CSV header first
    out = tmp_path / "x.csv"
    argv = [str(out) if a == "FILE" else a for a in argv]
    assert main(argv + ["--tol", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "tol" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eigen-sph", "--gamma2", "4", "--count", "3"],
    ["eigen-ell", "--gamma", "0", "--c", C_TABLE, "--tau", "1",
     "--seed", "0.2", "-0.4"],
])
def test_infinite_tolerance_exits_1_before_any_solve(argv, monkeypatch,
                                                     capsys):
    # --tol inf once passed the scan points, or the seed itself, off as
    # eigenvalues and exited 0
    def fail(*args, **kwargs):
        raise AssertionError("no solve may run for an infinite --tol")

    monkeypatch.setattr(sph, "theta_t", fail)
    monkeypatch.setattr(ell, "solve_pair", fail)
    monkeypatch.setattr(ell, "scan_grid", fail)
    assert main(argv + ["--tol", "inf", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["eigenfunction", "--problem", "sph", "--gamma2", "4",
     "--samples", "0"],
    ["eigenfunction", "--problem", "sph", "--gamma2", "4",
     "--samples", "-2"],
    ["eigenfunction", "--problem", "ell", "--gamma", "0", "--c", C_TABLE,
     "--tau", "1", "--lambda", "0.26", "--mu", "-0.45", "--samples", "0"],
    ["scan", "--problem", "sph", "--gamma2", "4", "--t-range", "-4", "10",
     "--resolution", "0"],
    ["scan", "--problem", "sph", "--gamma2", "4", "--t-range", "-4", "10",
     "--resolution", "1"],
])
def test_too_few_samples_exit_1_before_any_solve(argv, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("no solve may run for a bad sample count")

    for name in ("eigenvalues", "theta_t"):
        monkeypatch.setattr(sph, name, fail)
    monkeypatch.setattr(ell, "solve_pair", fail)
    assert main(argv + ["--output", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("seed", [[], ["--seed", "0.26", "-0.45"]])
@pytest.mark.parametrize("resolution", ["0", "1", "-3"])
def test_eigen_ell_bad_resolution_exits_1_before_any_theta(
        resolution, seed, monkeypatch, capsys):
    # 0 once fell back to the default 17x17 scan and exited 0
    def fail(*args, **kwargs):
        raise AssertionError("no Theta may run for a bad --resolution")

    monkeypatch.setattr(ell, "theta", fail)
    monkeypatch.setattr(ell, "_theta_table", fail)
    rc = main(["eigen-ell", "--gamma", "0", "--c", C_TABLE, "--tau", "1",
               "--resolution", resolution] + seed)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "resolution" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("bounds", [
    ["--lambda-range", "0", "inf", "--mu-range", "-4", "0"],
    ["--lambda-range", "0", "4", "--mu-range", "nan", "0"],
])
def test_eigen_ell_non_finite_range_exits_1_before_any_theta(
        bounds, monkeypatch, capsys):
    # `--lambda-range 0 inf` once printed numpy's RuntimeWarning, then an
    # error from inside the first grid node
    def fail(*args, **kwargs):
        raise AssertionError("no Theta may run for a non-finite range")

    monkeypatch.setattr(ell, "_theta_table", fail)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eigen-ell", "--gamma", "0", "--c", C_TABLE, "--tau", "1",
                   *bounds])
    assert rc == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "not finite" in captured.err


def test_seedless_scan_exits_3(capsys):
    rc = main(["eigen-ell", "--gamma", "0", "--c", C_TABLE, "--tau", "1",
               "--lambda-range", "30", "31", "--mu-range", "5", "6",
               "--resolution", "3"])
    assert rc == 3
    assert "no seeds found" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [["--seed", "-200", "-300",
                                   "--seed", "-200", "250"], []])
def test_eigen_ell_exits_2_when_every_solve_fails(seed, monkeypatch, capsys):
    # every seed's solve once failed silently into "no seeds found", exit 3
    errors = iter([SingularJacobian("stub: singular at the first seed"),
                   NoConvergence("stub: no convergence at the last seed")])

    def solve_pair(*args, **kwargs):
        raise next(errors)

    def scan_grid(*args, **kwargs):
        return SimpleNamespace(seeds=[(0.1, -0.2), (0.3, -0.4)])

    monkeypatch.setattr(ell, "solve_pair", solve_pair)
    monkeypatch.setattr(ell, "scan_grid", scan_grid)
    rc = main(["eigen-ell", "--gamma", "0", "--c", C_TABLE, "--tau", "1",
               "--json"] + seed)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stub: no convergence at the last seed\n"


@pytest.mark.parametrize("argv", [
    ["--problem", "sph", "--gamma2", "100", "--index", "0"],
    ["--problem", "ell", "--abramov", "--k2", "0.9", "--omega2", "25",
     "--rho", "1", "--tau", "1", "--H", "141.0901", "--L", "482.5134"]])
def test_eigenfunction_exits_2_when_its_own_polish_fails(argv, monkeypatch,
                                                         capsys):
    # the input is valid, but the spectrum or the pair the command polished
    # itself keeps a residual the eigenfunction refuses: a computation that
    # did not converge.  The solvers are stubbed to return such results
    def eigenvalues(problem, count, **kw):
        return [sph.SpheroidalEigenvalue(index=0, t_root=1.5, lam=1.5,
                                         parity=1, residual=5.26e-6)]

    def solve_pair(lam, mu, problem, **kw):
        return ell.EigenPair(lam=lam + 1.0, mu=mu, residual_theta=0.287,
                             residual_theta_hat=0.1, iterations=30)

    monkeypatch.setattr(sph, "eigenvalues", eigenvalues)
    monkeypatch.setattr(ell, "solve_pair", solve_pair)
    assert main(["eigenfunction", *argv, "--samples", "3",
                 "--output", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eigenfunction_ell_without_mu_exits_1_before_solve(monkeypatch,
                                                            capsys):
    # --mu once defaulted to the spheroidal order 0, so the ellipsoidal
    # path seeded mu = 0 without a word
    def fail(*args, **kwargs):
        raise AssertionError("no pair may be solved without --mu")

    monkeypatch.setattr(ell, "solve_pair", fail)
    rc = main(["eigenfunction", "--problem", "ell", "--gamma", "0", "--c",
               C_TABLE, "--tau", "1", "--lambda", "0.26", "--samples", "2",
               "--output", "-"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--mu" in captured.err


def test_eigen_sph_csv_and_json_exit_1_before_solve(monkeypatch, capsys):
    # --csv once won and --json was dropped without a word
    def fail(*args, **kwargs):
        raise AssertionError("no spectrum may run for conflicting formats")

    monkeypatch.setattr(sph, "eigenvalues", fail)
    with pytest.raises(SystemExit) as exc:
        main(["eigen-sph", "--gamma2", "4", "--count", "2", "--csv",
              "--json"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --csv" in captured.err


# --------------------------------------------------------------------------
# payloads
# --------------------------------------------------------------------------

def test_theta_ell_json_payload(capsys):
    assert main(THETA_ARGS + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"theta_re", "theta_im", "k", "n", "error_bound",
                            "status"}
    assert abs(payload["theta_re"] - (-0.262836009163167617)) <= 3e-10
    assert payload["theta_im"] == 0.0
    assert payload["status"] == "converged"
    assert payload["n"] == 5
    assert 124 <= payload["k"] <= 184


def test_theta_ell_tau_equals_the_library(capsys):
    # theta-ell once took no --tau, so no tau = 1 problem could be checked
    assert main(["theta-ell", "--lambda", "0.25", "--mu", "-0.5", "--gamma",
                 "0", "--c", C_TABLE, "--tau", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    res = ell.theta(0.25, -0.5, ell.EllipsoidalProblem(
        gamma=0.0, c=12.0 / 7.0, tau=1))
    assert (payload["theta_re"], payload["theta_im"]) == (res.theta.real,
                                                          res.theta.imag)
    assert (payload["k"], payload["error_bound"], payload["status"]) == (
        res.k_final, res.error_bound, res.status)


def test_theta_ell_human_output(capsys):
    assert main(THETA_ARGS) == 0
    out = capsys.readouterr().out
    assert "theta = " in out
    assert "status = converged" in out
    assert "wall_time_s" in out


def test_json_output_is_deterministic(capsys):
    main(THETA_ARGS + ["--json"])
    first = capsys.readouterr().out
    main(THETA_ARGS + ["--json"])
    assert capsys.readouterr().out == first


def test_eigen_ell_seeds_json(capsys):
    rc = main(["eigen-ell", "--gamma", "0", "--c", C_TABLE, "--tau", "1",
               "--seed", "0.26", "-0.45", "--seed", "1.0", "-3.1", "--json"])
    assert rc == 0
    pairs = json.loads(capsys.readouterr().out)
    assert len(pairs) == 2
    assert set(pairs[0]) == {"lambda", "mu", "residual_theta",
                             "residual_theta_hat", "iterations"}
    assert abs(pairs[0]["lambda"] - 0.25) <= 1e-6
    assert abs(pairs[0]["mu"] + 0.5) <= 1e-6
    assert abs(pairs[1]["lambda"] - 0.964286) <= 1e-5
    assert pairs[0]["residual_theta"] <= 1e-8


def test_eigen_ell_drops_a_pair_an_earlier_seed_found(capsys):
    # both seeds polish to the table pair (0.25, -0.5) at the command's
    # default tol 1e-8; the second pair is within 1e-6 of the first, so
    # only the first is printed
    problem = ell.EllipsoidalProblem(gamma=0.0, c=float(C_TABLE), tau=1)
    opts = SolverOptions(tol_residual=1e-8)
    first, second = (ell.solve_pair(*seed, problem, opts=opts)
                     for seed in ((0.26, -0.45), (0.25, -0.5)))
    assert abs(second.lam - first.lam) <= 1e-6
    assert abs(second.mu - first.mu) <= 1e-6
    rc = main(["eigen-ell", "--gamma", "0", "--c", C_TABLE, "--tau", "1",
               "--seed", "0.26", "-0.45", "--seed", "0.25", "-0.5",
               "--json"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == [{
        "lambda": first.lam, "mu": first.mu,
        "residual_theta": first.residual_theta,
        "residual_theta_hat": first.residual_theta_hat,
        "iterations": first.iterations}]
    assert repr(first.lam) == "0.24999999989215324"


def test_eigen_ell_abramov_without_k2_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(ell, "solve_pair", lambda *a, **kw: pytest.fail(
        "solve_pair ran"))
    rc = main(["eigen-ell", "--abramov", "--omega2", "1", "--rho", "1",
               "--tau", "1", "--seed", "1", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --abramov needs --k2 and --omega2\n"
    assert captured.out == ""


def test_eigen_ell_abramov_fields(capsys):
    rc = main(["eigen-ell", "--abramov", "--k2", "0.5", "--omega2", "1",
               "--rho", "1", "--tau", "1",
               "--seed", "202.28625", "-127.07475", "--json"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)[0]
    assert {"H", "L"} <= set(rec)
    assert abs(rec["H"] - 404.5725) <= 5e-4
    assert abs(rec["L"] - 254.1495) <= 5e-4


def test_eigen_sph_csv(capsys):
    rc = main(["eigen-sph", "--mu", "0", "--gamma2", "4", "--count", "3",
               "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,lambda,parity,residual"
    rows = list(csv.DictReader(lines))
    assert abs(float(rows[0]["lambda"]) - (-2.872265935150069)) <= 1e-9
    assert [r["parity"] for r in rows] == ["1", "-1", "1"]
    assert all(float(r["residual"]) <= 1e-9 for r in rows)


# eigen-sph as the CLI builds it: every flag at its default but these
SPH_ARGS = ["eigen-sph", "--mu", "0", "--gamma2", "4", "--count", "3"]


def _sph_library(count=3, **kw):
    return sph.eigenvalues(sph.SpheroidalProblem(mu=0.0, gamma2=4.0), count,
                           n=5, tol=1e-9, k_max=10 ** 6, **kw)


def test_eigen_sph_json_equals_library(capsys):
    assert main(SPH_ARGS + ["--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records == [{"index": e.index, "lambda": e.lam, "t": e.t_root,
                        "parity": e.parity, "residual": e.residual}
                       for e in _sph_library()]
    assert all(type(r["lambda"]) is float for r in records)


def test_eigen_sph_human_output_equals_library(capsys):
    assert main(SPH_ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"N = {e.index}  lambda = {e.lam!r}  "
                          f"parity = {e.parity:+d}  residual = "
                          f"{e.residual:.2e}" for e in _sph_library()]
    assert lines[-1].startswith("wall_time_s = ")


def test_eigen_ell_abramov_human_output_equals_library(capsys):
    rc = main(["eigen-ell", "--abramov", "--k2", "0.5", "--omega2", "1",
               "--rho", "1", "--tau", "1",
               "--seed", "202.28625", "-127.07475"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    gamma, c, _, _ = ell.from_abramov(0.5, 1.0, 0.0, 0.0)
    problem = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, tau=1)
    pair = ell.solve_pair(202.28625, -127.07475, problem,
                          opts=SolverOptions(tol_residual=1e-8), n=5,
                          k_max=10 ** 6)
    _, _, H, L = ell.to_abramov(gamma, c, pair.lam, pair.mu)
    assert lines[:-1] == [
        f"lambda = {pair.lam!r}  mu = {pair.mu!r}  residuals = "
        f"({pair.residual_theta:.2e}, {pair.residual_theta_hat:.2e})  "
        f"H = {H!r}  L = {L!r}"]
    assert lines[-1].startswith("wall_time_s = ")


def test_typed_library_error_exits_2(capsys):
    # one sign change in the explicit range and its one extension
    rc = main(SPH_ARGS[:-1] + ["2", "--t-range", "0.1", "0.2"])
    captured = capsys.readouterr()
    assert rc == 2
    with pytest.raises(ScanExhausted) as exc:
        _sph_library(2, t_scan_range=(0.1, 0.2))
    assert captured.err == f"error: {exc.value}\n"
    assert captured.out == ""


def test_theta_ell_with_overflowing_entries_exits_1(capsys):
    # lambda + mu overflows: bad input, which exits 1 and names the overflow
    rc = main(["theta-ell", "--lambda", "1e308", "--mu", "1e308",
               "--gamma", "0", "--c", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ("error: system entries overflow at (lam, mu) = "
                            "(1e+308, 1e+308): a12 = 1e+308, b12 = -inf, "
                            "r12 = inf\n")
    assert captured.out == ""


# --------------------------------------------------------------------------
# file outputs
# --------------------------------------------------------------------------

def test_scan_sph_deterministic_file(tmp_path, capsys):
    args = ["scan", "--problem", "sph", "--mu-order", "0", "--gamma2", "4",
            "--t-range", "-4", "10", "--resolution", "29"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    capsys.readouterr()
    assert filecmp.cmp(f1, f2, shallow=False)
    lines = f1.read_text().splitlines()
    assert lines[0] == "t,theta"
    assert len(lines) == 30


def test_scan_sph_honours_k_max(tmp_path, capsys):
    out = tmp_path / "short.csv"
    assert main(["scan", "--problem", "sph", "--mu-order", "0",
                 "--gamma2", "4", "--t-range", "-4", "10",
                 "--resolution", "8", "--k-max", "12",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 8
    for row in rows:
        t = float(row["t"])
        ref = sph.theta_t(t, problem, n=5, tol=1e-8, k_max=12)
        assert ref.k_final == 12
        assert row["theta"] == repr(ref.theta.real)


def test_scan_ell_file(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["scan", "--problem", "ell", "--gamma", "0", "--c", C_TABLE,
               "--tau", "1", "--lambda-range", "0", "4",
               "--mu-range", "-4", "0", "--resolution", "9",
               "--output", str(out)])
    assert rc == 0
    assert "seed cells" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,mu,theta,theta_hat"
    assert len(lines) == 82  # 9x9 nodes + header


def test_eigenfunction_ell_csv(tmp_path, capsys):
    out = tmp_path / "w.csv"
    rc = main(["eigenfunction", "--problem", "ell", "--gamma", "0",
               "--c", C_TABLE, "--tau", "1", "--lambda", "0.26",
               "--mu", "-0.45", "--normalize", "integral",
               "--samples", "51", "--output", str(out)])
    assert rc == 0
    assert "pair: lambda = " in capsys.readouterr().out
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 51
    assert list(rows[0]) == ["z", "w"]


def test_eigenfunction_ell_wave_numbers_equal_the_lambda_mu_form(capsys):
    # --abramov with --k2, --omega2, --H and --L starts the polish from the
    # (lambda, mu) that ell.from_abramov maps them to
    gamma, c, lam, mu = ell.from_abramov(0.5, 1.0, 404.5725, 254.1495)
    argv = ["eigenfunction", "--problem", "ell", "--rho", "1", "--tau", "1",
            "--normalize", "sup", "--samples", "11", "--output", "-"]
    assert main(argv + ["--abramov", "--k2", "0.5", "--omega2", "1",
                        "--H", "404.5725", "--L", "254.1495"]) == 0
    wave = capsys.readouterr().out
    assert len(wave.splitlines()) == 12
    assert main(argv + ["--gamma", repr(gamma), "--c", repr(c),
                        "--lambda", repr(lam), "--mu", repr(mu)]) == 0
    assert capsys.readouterr().out == wave


def test_eigenfunction_sph_csv(tmp_path, capsys):
    out = tmp_path / "w.csv"
    rc = main(["eigenfunction", "--problem", "sph", "--mu", "0",
               "--gamma2", "4", "--index", "1", "--normalize", "sup",
               "--samples", "41", "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 41
    assert list(rows[0]) == ["x", "w"]
    mid = rows[20]  # x = 0 for the odd N = 1 mode
    assert abs(float(mid["x"])) <= 1e-12
    assert abs(float(mid["w"])) <= 1e-9
    peak = max(abs(float(r["w"])) for r in rows)
    assert abs(peak - 1.0) <= 1e-9


@pytest.mark.parametrize("argv", [
    ["scan", "--problem", "sph", "--mu-order", "1", "--gamma2", "4",
     "--t-range", "-4", "10", "--resolution", "15"],
    ["eigenfunction", "--problem", "ell", "--gamma", "0", "--c", C_TABLE,
     "--tau", "1", "--lambda", "0.26", "--mu", "-0.45",
     "--normalize", "integral", "--samples", "21"],
])
def test_stdout_output_matches_file_bytes(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert main(argv + ["--output", "-"]) == 0
    captured = capsys.readouterr().out
    assert "wrote" not in captured
    assert captured.encode("utf-8") == out.read_bytes()


# --------------------------------------------------------------------------
# module entry point
# --------------------------------------------------------------------------

def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "conncoef.cli"] + THETA_ARGS[0:] + ["--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["status"] == "converged"

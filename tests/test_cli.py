"""Tests for the command-line front end.

Most checks call ``main(argv)`` in-process and inspect captured output;
one subprocess test covers the ``python -m conncoef.cli`` entry point.
"""

import csv
import filecmp
import json
import subprocess
import sys

import pytest

from conncoef import spheroidal as sph
from conncoef.cli import main

C_TABLE = "1.7142857142857142"  # 12/7

THETA_ARGS = ["theta-ell", "--lambda", "3.2", "--mu", "-5",
              "--gamma", "4", "--c", "1.6", "--rho", "1", "--sigma", "0"]


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


def test_unconverged_run_exits_2(capsys):
    rc = main(THETA_ARGS + ["--k-max", "40", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert payload["status"] == "k_max_reached"
    assert payload["k"] == 40


def test_seedless_scan_exits_3(capsys):
    rc = main(["eigen-ell", "--gamma", "0", "--c", C_TABLE, "--tau", "1",
               "--lambda-range", "30", "31", "--mu-range", "5", "6",
               "--resolution", "3"])
    assert rc == 3
    assert "no seeds found" in capsys.readouterr().err


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

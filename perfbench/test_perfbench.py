"""Tests of the benchmark itself: every check rejects a perturbed output, and
the tracer's self times add up to its span totals.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from checks import OperationFailed  # noqa: E402
from conncoef import cli, core  # noqa: E402
from conncoef import ellipsoidal as ell  # noqa: E402
from conncoef import spheroidal as sph  # noqa: E402
from conncoef.core import ThetaResult  # noqa: E402
from tracer import Tracer  # noqa: E402


def _theta(value, bound=1e-10, n=5, status="converged"):
    return ThetaResult(theta=complex(value), error_bound=bound, k_final=100,
                       n=n, tau_estimate=0j, status=status)


# -- Theta -------------------------------------------------------------------

def test_theta_check_rejects_a_sign_flip():
    res = ell.theta(3.2, -5.0, wl.ELL_ANCHOR)
    ref = checks.ell_oracle(3.2, -5.0, wl.ELL_ANCHOR)
    assert checks.check_theta(res, ref) == []
    assert checks.check_theta(replace(res, theta=-res.theta), ref)
    assert checks.check_theta(replace(res, theta=res.theta + 1e-7), ref)


def test_theta_check_fails_an_uncertified_status():
    with pytest.raises(OperationFailed):
        checks.check_theta(_theta(1.0, status="k_max_reached"), 1.0)


def test_big_theta_needs_overlapping_intervals():
    assert checks.check_big_theta([_theta(1.0, 0.5), _theta(1.8, 0.5)]) == []
    with pytest.raises(OperationFailed):
        checks.check_big_theta([_theta(1.0, 0.0), _theta(1.0 + 1e-12, 0.0)])


def test_grid_check_rejects_a_flipped_node():
    lambdas, mus = np.linspace(0, 1, 3), np.linspace(-1, 0, 3)
    values = np.arange(9.0).reshape(3, 3) - 4.0
    grid = ell.ThetaGrid(lambdas=lambdas, mus=mus, theta=values.copy(),
                         theta_hat=-values, seeds=[(0.25, -0.75)],
                         status=np.full((3, 3), "converged", dtype=object))
    sample = [(0, 1, complex(values[0, 1]), complex(-values[0, 1]))]
    assert checks.check_grid(grid, sample, [(0.3, -0.7)]) == []
    assert checks.check_grid(grid, sample, [(0.9, -0.1)])
    grid.theta[0, 1] *= -1
    assert checks.check_grid(grid, sample, [(0.3, -0.7)])


# -- spheroidal ----------------------------------------------------------------

@pytest.fixture(scope="module")
def prolate_reference():
    return checks.spectrum_reference(0, 4.0, 8)


def test_legendre_reference_reproduces_the_prolate_spectrum(prolate_reference):
    prolate_8 = [-2.872265935150069, 0.287128543955796, 4.225713001105859,
                 10.100203876205334, 18.054829770465697, 28.035263096925295,
                 40.024747640293190, 54.018370784846266]
    got = [lam for lam, _, _ in prolate_reference]
    assert np.max(np.abs(np.array(got) - prolate_8)) < 1e-12


def test_spectrum_check_rejects_a_moved_eigenvalue(prolate_reference):
    rows = [(i, lam, parity)
            for i, (lam, parity, _) in enumerate(prolate_reference)]
    assert checks.check_spectrum(rows, prolate_reference) == []
    for i in range(len(rows)):
        moved = list(rows)
        moved[i] = (i, rows[i][1] + 1e-7, rows[i][2])
        assert checks.check_spectrum(moved, prolate_reference), i
    flipped = list(rows)
    flipped[2] = (2, rows[2][1], -rows[2][2])
    assert checks.check_spectrum(flipped, prolate_reference)
    assert checks.check_spectrum(rows[:-1], prolate_reference)


def test_cli_check_needs_the_exact_library_result():
    library = [sph.SpheroidalEigenvalue(index=i, t_root=0.5 * i, lam=0.5 * i,
                                        parity=(-1) ** i, residual=1e-12)
               for i in range(3)]
    records = [{"index": e.index, "lambda": e.lam, "t": e.t_root,
                "parity": e.parity, "residual": e.residual} for e in library]
    assert checks.check_cli(records, library) == []
    records[1]["lambda"] = np.nextafter(records[1]["lambda"], 1.0)
    assert checks.check_cli(records, library)


def test_sph_eigenfunction_check_rejects_a_deformed_shape():
    x = np.linspace(-0.9, 0.9, 41)
    parity, series = checks.eigenfunction_reference(0, 4.0, 3)
    values = 2.5 * np.polynomial.legendre.legval(x, series)
    fn = SimpleNamespace(values=values, parity=parity)
    assert checks.check_sph_eigenfunction(fn, x, (parity, series)) == []
    bent = SimpleNamespace(values=values * (1 + 1e-6 * x), parity=parity)
    assert checks.check_sph_eigenfunction(bent, x, (parity, series))
    wrong = SimpleNamespace(values=values, parity=-parity)
    assert checks.check_sph_eigenfunction(wrong, x, (parity, series))


# -- ellipsoidal -----------------------------------------------------------------

def test_pair_and_wave_checks_reject_moved_values():
    pair = SimpleNamespace(lam=0.25, mu=-0.5)
    assert checks.check_pair(pair, (0.25, -0.5)) == []
    assert checks.check_pair(SimpleNamespace(lam=0.25 + 2e-6, mu=-0.5),
                             (0.25, -0.5))
    row = wl.WAVE_ROWS[0]
    _, lam, mu = wl.wave_problem(*row)
    assert checks.check_wave_row(SimpleNamespace(lam=lam, mu=mu), row) == []
    assert checks.check_wave_row(SimpleNamespace(lam=lam * (1 + 1e-6), mu=mu),
                                 row)


@pytest.fixture(scope="module")
def normalized_ground_state():
    problem = ell.EllipsoidalProblem(gamma=0.0, c=wl.TABLE_C, rho=0, sigma=0,
                                     tau=1)
    pair = ell.solve_pair(0.3, -0.5, problem)
    return ell.normalize(ell.eigenfunction(pair, problem), mode="integral")


def test_ell_eigenfunction_check_rejects_a_rescaled_function(
        normalized_ground_state):
    fn = normalized_ground_state
    assert checks.check_ell_eigenfunction(fn, (0, 0)) == []
    scaled = replace(fn, C0=fn.C0 * 1.001, C1=fn.C1 * 1.001,
                     C2=fn.C2 * 1.001)
    assert checks.check_ell_eigenfunction(scaled, (0, 0))
    assert checks.check_ell_eigenfunction(fn, (0, 1))


# -- inputs ----------------------------------------------------------------------

def test_inputs_follow_the_seed_and_skip_uncertified_points():
    def labels(seed):
        return [op.label for op in wl.make_inputs("theta-points", seed)]

    assert labels(3) == labels(3)
    assert labels(3) != labels(4)
    ops = wl.make_inputs("theta-points", 3)
    assert len({(op.label, op.copy) for op in ops}) == len(ops)
    uncertified = json.loads(wl.UNCERTIFIED.read_text(encoding="utf-8"))
    excluded = {tuple(p) for p in uncertified["sph"]}
    for seed in range(20):
        for op in wl.make_inputs("theta-points", seed):
            if op.kind == "theta_t" and op.args[3] == 1e-10:
                t, problem = op.args[0], op.args[1]
                assert (problem.mu, problem.gamma2, t) not in excluded


# -- tracer ----------------------------------------------------------------------

def test_tracer_self_times_add_up_and_uninstall_restores():
    originals = (core.theta_iterate, sph.theta_t, ell.theta, cli.main,
                 sph.frobenius_step)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = "spectrum"
        sph.eigenvalues(sph.SpheroidalProblem(mu=0, gamma2=1.0), 2)
        tracer.op = "pair"
        problem = ell.EllipsoidalProblem(gamma=0.0, c=wl.TABLE_C, tau=1)
        ell.solve_pair(0.3, -0.5, problem)
    finally:
        tracer.uninstall()
    assert (core.theta_iterate, sph.theta_t, ell.theta, cli.main,
            sph.frobenius_step) == originals

    calls, total, own = tracer.span_times()
    roots = sum(end - start for _, _, parent, _, start, end in tracer.spans
                if parent is None)
    assert sum(own.values()) == pytest.approx(roots, rel=1e-9, abs=1e-12)
    assert all(v >= 0 for v in own.values())
    assert calls["rootfind.secant"] > 0 and calls["rootfind.broyden2"] == 1
    assert calls["ellipsoidal.theta"] > calls["rootfind.broyden2"]
    layers = tracer.layer_metrics(1)
    assert layers["core.theta_iterate.calls"] == calls["core.theta_iterate"]
    assert layers["core.theta_iterate.steps"] > layers[
        "core.theta_iterate.calls"]
    # parity probes run the series outside theta_iterate
    assert layers["core.frobenius_step.outside_calls"] >= 2 * 1999
    assert {span[3] for span in tracer.spans} == {"spectrum", "pair"}

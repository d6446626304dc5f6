"""Tests for the ellipsoidal eigenproblem driver.

The frozen (lam, mu) table below was cross-checked against the integration
oracle and against independently published wave numbers for the c = 12/7,
gamma = 0 configuration; the theta anchor value comes from the acceptance
reference for (3.2, -5) at gamma = 4, c = 1.6.
"""

import copy
import itertools
import math
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conncoef import core
from conncoef import ellipsoidal as ell
from conncoef.core import ThetaResult, theta_iterate
from conncoef.errors import (ConncoefError, InvalidExponent, MatchFailure,
                             NoConvergence, QuadratureNotConverged)
from conncoef.rootfind import SolverOptions

import _reference
from _oracle import theta_oracle
from _residuals import eigenfunction_ode_residual

C_TABLE = 12.0 / 7.0

# first three eigenpairs (lam, mu) for each exponent-bit combination at
# gamma = 0, c = 12/7
TABLE2 = {
    (0, 0, 0): [(0.0, 0.0), (0.611407, -1.5), (2.102879, -1.5)],
    (0, 0, 1): [(0.25, -0.5), (0.964286, -3.0), (3.25, -3.0)],
    (0, 1, 0): [(0.428571, -0.5), (0.981471, -3.0), (4.304243, -3.0)],
    (1, 0, 0): [(0.678571, -0.5), (2.423953, -3.0), (4.361761, -3.0)],
    (0, 1, 1): [(0.678571, -1.5), (1.303037, -5.0), (5.482677, -5.0)],
    (1, 0, 1): [(1.428571, -1.5), (3.488893, -5.0), (5.796821, -5.0)],
    (1, 1, 0): [(1.964286, -1.5), (3.597906, -5.0), (7.473523, -5.0)],
    (1, 1, 1): [(2.714286, -3.0), (4.548506, -7.5), (9.022923, -7.5)],
}

THETA_REF = -0.262836009163167617  # lam=3.2, mu=-5, gamma=4, c=1.6, rho=1


@pytest.fixture(scope="module")
def anchor_problem():
    return ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=1, sigma=0, tau=0)


@pytest.fixture(scope="module")
def table_problem():
    return ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE, rho=0, sigma=0, tau=1)


@pytest.fixture(scope="module")
def eigenfunction_325(table_problem):
    pair = ell.solve_pair(3.26, -2.97, table_problem,
                          opts=SolverOptions(tol_residual=1e-10))
    return pair, ell.eigenfunction(pair, table_problem)


# --------------------------------------------------------------------------
# entries and parameter maps
# --------------------------------------------------------------------------

def test_entries_arithmetic():
    prob = ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=1, sigma=0, tau=0)
    e = ell.entries(3.2, -5.0, prob)
    assert e.a12 == 3.2
    assert abs(e.b12 - (-88.0 / 15.0)) <= 1e-12   # 1.6*2.2/(1-1.6)
    assert abs(e.r12 - (136.0 / 15.0)) <= 1e-12   # 5.44/0.6
    assert abs(e.a12 + e.b12 + e.r12 - 1.6 * 4.0) <= 1e-12


def test_entries_sum_invariant():
    prob = ell.EllipsoidalProblem(gamma=-2.5, c=3.7)
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam, mu = rng.uniform(-50, 50, size=2)
        e = ell.entries(lam, mu, prob)
        scale = max(abs(e.a12), abs(e.b12), abs(e.r12), 1.0)
        assert abs(e.a12 + e.b12 + e.r12 - 3.7 * -2.5) <= 1e-12 * scale


def test_entries_rejects_nonfinite():
    prob = ell.EllipsoidalProblem(gamma=1.0, c=2.0)
    with pytest.raises(ValueError, match="non-finite"):
        ell.entries(float("inf"), 0.0, prob)
    with pytest.raises(ValueError, match="non-finite"):
        ell.entries(0.0, float("nan"), prob)


def test_problem_validation():
    with pytest.raises(ValueError, match="c"):
        ell.EllipsoidalProblem(gamma=1.0, c=1.0)
    with pytest.raises(ValueError, match="c"):
        ell.EllipsoidalProblem(gamma=1.0, c=0.5)
    # a non-finite gamma or c is a usage error, not a Theta that fails
    # later, and so is a c that is not a real number
    for c in (math.inf, math.nan, "2", complex(2.0, 0.0), None, 10 ** 400):
        with pytest.raises(ValueError, match="c must be a finite"):
            ell.EllipsoidalProblem(gamma=1.0, c=c)
    # a real c of any type is stored as a float, and its hatted c too
    for c in (Fraction(8, 5), np.float64(1.6), np.float32(1.5), 2):
        prob = ell.EllipsoidalProblem(gamma=1.0, c=c)
        assert type(prob.c) is float and prob.c == float(c)
        assert type(ell.hat_parameters(0.5, -1.0, prob)[2].c) is float
    # so is a gamma that is a string, which complex() would parse
    for gamma in (math.nan, math.inf, complex(1.0, math.nan), "4"):
        with pytest.raises(ValueError, match="gamma"):
            ell.EllipsoidalProblem(gamma=gamma, c=2.0)
    with pytest.raises(ValueError, match="rho"):
        ell.EllipsoidalProblem(gamma=1.0, c=2.0, rho=2)


def test_problem_rejects_a_c_whose_hatted_pole_rounds_to_one():
    # at c = 1e17, c/(c-1) rounds to 1: no hatted problem exists, so the
    # problem is refused where it is made, not node by node later
    with pytest.raises(ValueError, match=r"^c must .* got c = 1e\+17$"):
        ell.EllipsoidalProblem(0.0, 1e17)
    # the least c above 1 has the largest hatted pole, 2**52 + 1, and the
    # hatted problem's own hatted pole is c again
    prob = ell.EllipsoidalProblem(0.0, 1 + 2.0 ** -52)
    _, _, hat = ell.hat_parameters(0.25, -0.5, prob)
    assert hat.c == 2.0 ** 52 + 1
    assert ell.hat_parameters(0.25, -0.5, hat)[2].c == prob.c


@pytest.mark.parametrize("gamma", [
    4, np.int64(4), np.float32(4.0), Fraction(4), complex(4.0, 0.0),
    complex(4.0, -0.0)], ids=["int", "int64", "float32", "Fraction",
                              "complex+0", "complex-0"])
def test_a_real_gamma_is_stored_as_a_float_whatever_its_type(mixed_problem,
                                                             gamma):
    # one value, one arithmetic: the grid equals the float-gamma grid by
    # bytes, whatever type the real gamma came in
    prob = replace(mixed_problem, gamma=gamma)
    assert type(prob.gamma) is float and prob.gamma == 4.0 and prob.is_real
    grid = ell.scan_grid(prob, *MIXED_SCAN, k_max=60)
    want = ell.scan_grid(mixed_problem, *MIXED_SCAN, k_max=60)
    assert grid.theta.tobytes() == want.theta.tobytes()
    assert grid.theta_hat.tobytes() == want.theta_hat.tobytes()
    assert grid.status.tolist() == want.status.tolist()


def test_theta_raises_where_the_entry_sum_overflows():
    # lambda + mu overflows to inf: the entries are checked before their
    # sum, which would be NaN, and the error is bad input, named as such
    prob = ell.EllipsoidalProblem(gamma=0.0, c=2.0)
    with pytest.raises(ValueError, match=re.escape(
            "system entries overflow at (lam, mu) = (1e+308, 1e+308): "
            "a12 = 1e+308, b12 = -inf, r12 = inf")):
        ell.theta(1e308, 1e308, prob)


def test_scan_grid_records_nodes_whose_entries_overflow_as_errors():
    # the top row's nodes overflow, the bottom row's do not
    prob = ell.EllipsoidalProblem(gamma=0.0, c=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = ell.scan_grid(prob, (0.0, 1e308), (0.0, 1e308), (2, 2))
        with pytest.raises(ValueError, match="system entries overflow"):
            ell.theta(1e308, 1e308, prob)
    assert grid.status.tolist() == [["converged", "error"],
                                    ["error", "error"]]
    assert np.isnan(grid.theta[1]).all() and np.isnan(grid.theta_hat[1]).all()
    assert np.isfinite(grid.theta[0, 0])


def test_hat_entries_rejects_c_at_most_one():
    e = ell.entries(3.2, -5.0, ell.EllipsoidalProblem(gamma=4.0, c=1.6))
    # c = 1, and a c that is not a real number, which `>` cannot compare
    for c in (1.0, "2", None, complex(2.0, 0.0)):
        with pytest.raises(ValueError, match="^c must be > 1$"):
            ell.hat_entries(e, c)


def test_hat_entries_rejects_a_c_whose_hatted_pole_rounds_to_one():
    # c/(c-1) rounds to the pole 1 at c = 1e17, as `EllipsoidalProblem`
    # refuses it
    e = ell.entries(3.2, -5.0, ell.EllipsoidalProblem(gamma=4.0, c=1.6))
    with pytest.raises(ValueError, match=r"^c must .* got c = 1e\+17$"):
        ell.hat_entries(e, 1e17)


def test_hat_entries_involution():
    prob = ell.EllipsoidalProblem(gamma=4.0, c=1.6)
    e = ell.entries(3.2, -5.0, prob)
    eh, ch = ell.hat_entries(e, prob.c)
    assert (eh.a12, eh.b12, eh.r12) == (-e.r12, -e.b12, -e.a12)
    e2, c2 = ell.hat_entries(eh, ch)
    assert (e2.a12, e2.b12, e2.r12) == (e.a12, e.b12, e.r12)  # negation is exact
    assert abs(c2 - prob.c) <= 1e-14 * prob.c


def test_hat_parameters_round_trip(anchor_problem):
    lh, mh, ph = ell.hat_parameters(3.2, -5.0, anchor_problem)
    assert (ph.rho, ph.sigma, ph.tau) == (0, 0, 1)  # (rho,sigma,tau)->(tau,sigma,rho)
    l2, m2, p2 = ell.hat_parameters(lh, mh, ph)
    assert (p2.rho, p2.sigma, p2.tau) == (1, 0, 0)
    assert abs(l2 - 3.2) <= 1e-12
    assert abs(m2 + 5.0) <= 1e-12
    assert abs(p2.gamma - 4.0) <= 1e-12
    assert abs(p2.c - 1.6) <= 1e-14
    th = ell.theta(3.2, -5.0, anchor_problem).theta
    th2 = ell.theta(l2, m2, p2).theta
    assert abs(th - th2) <= 1e-10


def test_from_abramov_conversion():
    gamma, c, lam, mu = ell.from_abramov(0.5, 1.0, 404.5725, 254.1495)
    assert (gamma, c) == (0.25, 2.0)
    assert lam == 202.28625 and mu == -127.07475
    assert ell.to_abramov(gamma, c, lam, mu) == (0.5, 1.0, 404.5725, 254.1495)


def test_from_abramov_validation():
    for k2 in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(ValueError):
            ell.from_abramov(k2, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ell.to_abramov(1.0, 0.9, 1.0, 1.0)


# --------------------------------------------------------------------------
# Theta values
# --------------------------------------------------------------------------

def test_theta_anchor_value(anchor_problem):
    res = ell.theta(3.2, -5.0, anchor_problem, n=5, tol=1e-10)
    assert res.status == "converged"
    assert abs(res.theta - THETA_REF) <= 3e-10
    assert abs(res.theta - THETA_REF) <= res.error_bound
    assert 124 <= res.k_final <= 184  # 154 +- 20%
    assert abs(res.theta.imag) <= 1e-12


def test_theta_matches_oracle_at_random_parameters(anchor_problem):
    rng = np.random.default_rng(20240811)
    for _ in range(10):
        lam = float(rng.uniform(-10, 10))
        mu = float(rng.uniform(-10, 10))
        sys_ = ell.build_system(lam, mu, anchor_problem)
        frame = ell.spectral_frame(anchor_problem,
                                   ell.entries(lam, mu, anchor_problem))
        got = ell.theta(lam, mu, anchor_problem).theta
        assert abs(got - theta_oracle(sys_, frame)) <= 1e-8, (lam, mu)


def test_theta_small_at_tabled_pair():
    # the tabled values carry 6 decimals, so both connection coefficients
    # should be small there but not at the solver noise floor
    prob = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE)
    assert abs(ell.theta(0.611407, -1.5, prob).theta) <= 1e-5
    assert abs(ell.theta_hat(0.611407, -1.5, prob).theta) <= 1e-5


# --------------------------------------------------------------------------
# eigenpairs
# --------------------------------------------------------------------------

def test_solve_pair_recovers_all_tabled_pairs():
    for (rho, sigma, tau), pairs in TABLE2.items():
        prob = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE,
                                      rho=rho, sigma=sigma, tau=tau)
        for lam_ref, mu_ref in pairs:
            got = ell.solve_pair(round(lam_ref, 1), round(mu_ref, 1), prob)
            assert abs(got.lam - lam_ref) <= 1e-6, (rho, sigma, tau, lam_ref)
            assert abs(got.mu - mu_ref) <= 1e-6, (rho, sigma, tau, mu_ref)
            assert got.residual_theta <= 1e-9
            assert got.residual_theta_hat <= 1e-9
            assert got.iterations >= 4


def test_solve_pair_takes_the_residuals_the_solver_computed(
        table_problem, monkeypatch):
    # F at the returned pair is not evaluated a second time: it is read
    # back from the solver's evaluations, so the pair is evaluated once.
    # theta_hat runs through theta, so `iterations`, two per evaluation of
    # F, counts every theta call
    calls = []
    theta = ell.theta

    def counting(lam, mu, *args, **kwargs):
        calls.append((float(lam), float(mu)))
        return theta(lam, mu, *args, **kwargs)

    monkeypatch.setattr(ell, "theta", counting)
    got = ell.solve_pair(0.3, -0.4, table_problem)
    assert got.iterations == len(calls)
    assert calls.count((got.lam, got.mu)) == 1
    # and the residuals are those of the pair, bit for bit, at the
    # solver's tolerances
    kw = dict(n=5, tol=1e-10, k_max=50_000, rtol=ell._EVAL_RTOL)
    assert got.residual_theta == abs(
        theta(got.lam, got.mu, table_problem, **kw).theta.real)
    assert got.residual_theta_hat == abs(
        ell.theta_hat(got.lam, got.mu, table_problem, **kw).theta.real)


def test_solve_pair_no_convergence(table_problem):
    with pytest.raises(NoConvergence) as exc:
        ell.solve_pair(7.77, 3.33, table_problem,
                       opts=SolverOptions(max_iter=1))
    assert len(exc.value.best) == 2
    assert np.isfinite(exc.value.residual)


def test_scan_grid_seeds_lead_to_eigenpairs(table_problem):
    grid = ell.scan_grid(table_problem, (0.0, 0.5), (-1.0, 0.2), (4, 4))
    assert grid.theta.shape == (4, 4)
    assert grid.all_converged
    assert grid.seeds
    pair = ell.solve_pair(*grid.seeds[0], table_problem)
    assert abs(pair.lam - 0.25) <= 1e-6
    assert abs(pair.mu + 0.5) <= 1e-6


def test_scan_grid_reports_k_max_reached_nodes(table_problem):
    # no node converges in 8 steps; each keeps its best Theta_k all the same
    grid = ell.scan_grid(table_problem, (0, 4), (-4, 0), 3, k_max=8)
    assert (grid.status == "k_max_reached").all()
    assert not grid.all_converged
    for i, lam in enumerate(grid.lambdas):
        for j, mu in enumerate(grid.mus):
            for fn, values in ((ell.theta, grid.theta),
                               (ell.theta_hat, grid.theta_hat)):
                res = fn(lam, mu, table_problem, tol=1e-8, k_max=8)
                assert res.status == "k_max_reached"
                assert values[i, j] == res.theta.real


#: a 5 x 4 grid at gamma = 4, c = 1.6, bits (1, 0, 1) whose nodes, at
#: k_max = 60, hold every mix of converged and k_max_reached Theta, Theta-hat
MIXED_SCAN = ((-2.0, 6.0), (-8.0, 2.0), (5, 4))


@pytest.fixture(scope="module")
def mixed_problem():
    return ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=1, sigma=0, tau=1)


#: the fingerprint's 5 x 7 grid, at gamma = 4, c = 1.6, bits (1, 0, 0)
FINGERPRINT_SCAN = ((-2.0, 6.0), (-8.0, 2.0), (5, 7))


def test_scan_grid_nodes_equal_theta_and_theta_hat_bit_for_bit(mixed_problem):
    # the mixed grid; the benchmark's 17 x 17 grid (gamma = 0, c = 12/7,
    # tau = 1) at the default k_max; and the fingerprint's 5 x 7 grid, at
    # the float64 nodes and at Python floats alike
    for problem, scan, k_max in (
            (mixed_problem, MIXED_SCAN, 60),
            (ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE, tau=1),
             ((0.0, 4.0), (-4.0, 0.0), 17), 50_000),
            (ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=1),
             FINGERPRINT_SCAN, 50_000)):
        grid = ell.scan_grid(problem, *scan, k_max=k_max)
        mixes = set()
        for i, lam in enumerate(grid.lambdas):
            for j, mu in enumerate(grid.mus):
                res = ell.theta(lam, mu, problem, tol=1e-8, k_max=k_max)
                hat = ell.theta_hat(lam, mu, problem, tol=1e-8, k_max=k_max)
                assert repr(float(grid.theta[i, j])) == repr(res.theta.real)
                assert repr(float(grid.theta_hat[i, j])) == repr(
                    hat.theta.real)
                if scan is FINGERPRINT_SCAN:
                    at_floats = [fn(float(lam), float(mu), problem, tol=1e-8,
                                    k_max=k_max)
                                 for fn in (ell.theta, ell.theta_hat)]
                    assert list(map(repr, at_floats)) == [repr(res),
                                                          repr(hat)]
                both = res.status == hat.status == "converged"
                assert grid.status[i, j] == ("converged" if both
                                             else "k_max_reached")
                mixes.add((res.status, hat.status))
        if problem is mixed_problem:
            assert len(mixes) == 4


def test_theta_hat_is_a_function_of_the_values_of_lam_mu_and_c():
    # on the fingerprint's 5 x 7 grid, Theta-hat at the float64 nodes, at
    # Python floats and with c given as a np.float64 agree by repr, and the
    # grid equals them: the hatted parameters are formed on the values,
    # whatever their types
    problem = ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=1)
    c64 = ell.EllipsoidalProblem(gamma=4.0, c=np.float64(1.6), rho=1)
    grid = ell.scan_grid(problem, *FINGERPRINT_SCAN)
    for i, lam in enumerate(grid.lambdas):
        for j, mu in enumerate(grid.mus):
            got = {repr(ell.theta_hat(*args, tol=1e-8, k_max=50_000))
                   for args in ((lam, mu, problem),
                                (float(lam), float(mu), problem),
                                (float(lam), float(mu), c64),
                                (lam, mu, c64))}
            assert len(got) == 1
            assert repr(float(grid.theta_hat[i, j])) == repr(
                ell.theta_hat(float(lam), float(mu), problem, tol=1e-8,
                              k_max=50_000).theta.real)


#: (problem, lambda_range, mu_range, resolution) of the grids on which the
#: column build is checked against the scalar builder: the benchmark's
#: grid, the fingerprint's two, the mixed grid, a grid whose entries
#: overflow, bits (1, 1, 0) near c = 1, an int gamma and c with signed zero
#: ends, and four that reach every check of the set-up: b1, b2 dependent
#: about |b12| = 5e13 for sigma = 0 and 1, and entries, hatted parameters
#: and kernel scalars that overflow
BUILD_GRIDS = [
    (ell.EllipsoidalProblem(0.0, C_TABLE, tau=1), (0.0, 4.0), (-4.0, 0.0),
     (17, 17)),
    (ell.EllipsoidalProblem(0.0, C_TABLE, tau=1), (0.0, 4.0), (-4.0, 0.0),
     (9, 9)),
    (ell.EllipsoidalProblem(4.0, 1.6, rho=1), (-2.0, 6.0), (-8.0, 2.0),
     (5, 7)),
    (ell.EllipsoidalProblem(4.0, 1.6, rho=1, tau=1), *MIXED_SCAN),
    (ell.EllipsoidalProblem(0.0, 2.0), (0.0, 1e308), (0.0, 1e308), (2, 2)),
    (ell.EllipsoidalProblem(-3.5, 1.05, rho=1, sigma=1), (-20.0, 20.0),
     (-20.0, 20.0), (33, 33)),
    (ell.EllipsoidalProblem(2, 3), (-0.0, 5.0), (0.0, -0.0), (5, 5)),
    (ell.EllipsoidalProblem(0.0, 2.0), (2.5e13 - 0.05, 2.5e13 + 0.05),
     (-0.0, 0.0), (33, 2)),
    (ell.EllipsoidalProblem(0.0, 2.0, sigma=1),
     (2.5e13 - 0.05, 2.5e13 + 0.05), (-0.0, 0.0), (33, 2)),
    (ell.EllipsoidalProblem(0.0, 1.5), (0.0, 8e307), (-8e307, 8e307), (9, 9)),
    (ell.EllipsoidalProblem(1e307, 1.5, sigma=1, tau=1), (-8e307, 8e307),
     (-8e307, 8e307), (9, 9)),
]


@pytest.mark.parametrize("problem, lambda_range, mu_range, resolution",
                         BUILD_GRIDS)
def test_scan_grid_columns_equal_the_scalar_builder(problem, lambda_range,
                                                    mu_range, resolution):
    # every scalar of each node's two kernels, by repr, and the same
    # failing nodes: those where `_kernel` or `_hat_kernel` raises
    res_l, res_m = resolution
    lams, mus = np.linspace(*lambda_range, res_l), np.linspace(*mu_range,
                                                                res_m)
    with np.errstate(all="raise"):      # the columns raise no warning
        table, ran = ell._node_columns(np.repeat(lams, res_m),
                                       np.tile(mus, res_l), problem)
    thetas, hats, ok = [], [], []
    with np.errstate(all="ignore"):
        for lam, mu in itertools.product(lams, mus):
            try:
                pair = [make(lam, mu, problem)
                        for make in (ell._kernel, ell._hat_kernel)]
            except (ConncoefError, ArithmeticError, ValueError):
                ok.append(False)
                continue
            ok.append(True)
            thetas.append(pair[0])
            hats.append(pair[1])
    assert ran.tolist() == ok
    assert [list(map(repr, column)) for column in table.T.tolist()] == [
        list(map(repr, core._float_row(kernel))) for kernel in thetas + hats]


def test_scan_grid_runs_one_batch_of_alternating_kernels(monkeypatch,
                                                         mixed_problem):
    # the node whose Theta-hat set-up fails drops out of the batch whole
    # and reads "error" with NaN in both grids; every other node keeps its
    # values bit for bit.  The grid runs one table (`core._theta_table`)
    # of the scalars of each node's two kernels, the columns of every
    # Theta first, then of every Theta-hat
    failed = (2, 1)
    plain = ell.scan_grid(mixed_problem, *MIXED_SCAN, k_max=60)
    bad = (plain.lambdas[failed[0]], plain.mus[failed[1]])
    ran = [(lam, mu) for lam in plain.lambdas for mu in plain.mus
           if (lam, mu) != bad]
    thetas = [ell._kernel(lam, mu, mixed_problem) for lam, mu in ran]
    hats = [ell._hat_kernel(lam, mu, mixed_problem) for lam, mu in ran]
    calls = []
    with monkeypatch.context() as mp:
        float_table, theta_table = ell._float_table, ell._theta_table
        built = []

        def hat_table_fails(rows, size):
            # the set-up's second table is Theta-hat's
            table, ok = float_table(rows, size)
            built.append(table)
            if len(built) == 2:
                ok[failed[0] * len(plain.mus) + failed[1]] = False
            return table, ok

        def spy(table, *args):
            calls.append(table)
            return theta_table(table, *args)

        mp.setattr(ell, "_float_table", hat_table_fails)
        mp.setattr(ell, "_theta_table", spy)
        grid = ell.scan_grid(mixed_problem, *MIXED_SCAN, k_max=60)
    assert len(calls) == 1
    expected = np.array([core._float_row(kernel)
                         for kernel in thetas + hats]).T
    assert calls[0].shape == expected.shape
    assert calls[0].tobytes() == expected.tobytes()
    assert grid.status[failed] == "error"
    assert np.isnan(grid.theta[failed]) and np.isnan(grid.theta_hat[failed])
    kept = np.ones(grid.status.shape, dtype=bool)
    kept[failed] = False
    assert (grid.status[kept] == plain.status[kept]).all()
    assert "error" not in plain.status
    for values, expected in ((grid.theta, plain.theta),
                             (grid.theta_hat, plain.theta_hat)):
        assert values[kept].tobytes() == expected[kept].tobytes()


def test_eigen_solvers_reject_a_complex_gamma_before_any_theta(monkeypatch):
    # Theta and Theta-hat of a complex gamma have no common real zero to
    # seed or polish: the solvers, which see only the real parts, found
    # points where |Theta| = 0.97 and |Theta-hat| = 46.8 on this problem
    def no_theta(*args, **kwargs):
        raise AssertionError("Theta work for a problem that is not real")

    monkeypatch.setattr(ell, "_theta_table", no_theta)
    monkeypatch.setattr(ell, "theta", no_theta)
    prob = ell.EllipsoidalProblem(4.0 + 0.5j, 1.6, rho=1)
    assert type(prob.gamma) is complex and not prob.is_real
    with pytest.raises(ValueError, match="real problems only"):
        ell.scan_grid(prob, (-2.0, 6.0), (-8.0, 2.0), 9)
    with pytest.raises(ValueError, match="real problems only"):
        ell.solve_pair(-1.5, -2.375, prob)


def test_scan_grid_resolution_validation(table_problem):
    with pytest.raises(ValueError, match="resolution"):
        ell.scan_grid(table_problem, (0, 1), (0, 1), 1)
    with pytest.raises(ValueError, match="resolution"):
        ell.scan_grid(table_problem, (0, 1), (0, 1), (5, 1))
    # a fractional resolution is an error, not a grid of its integer part
    for resolution in (2.9, (3, 2.5), (3.0, 3)):
        with pytest.raises(ValueError, match="resolution"):
            ell.scan_grid(table_problem, (0, 4), (-4, 0), resolution)
    # anything but an integer or a pair of integers is named as the
    # argument, not an unpacking error
    for resolution in (None, (5,), (5, 5, 5), "55"):
        with pytest.raises(ValueError, match="^resolution must be"):
            ell.scan_grid(table_problem, (0, 4), (-4, 0), resolution)


@pytest.mark.parametrize("kwargs, what", [
    ({"tol": float("nan")}, "tol"),
    ({"tol": "1e-8"}, "tol"),
    ({"n": 2.5}, "n must be"),
    ({"k_max": 2.5}, "k_max"),
    ({"k_max": 12.5}, "k_max"),
])
def test_theta_rejects_bad_arguments(anchor_problem, kwargs, what):
    with pytest.raises(ValueError, match=what):
        ell.theta(3.2, -5.0, anchor_problem, **kwargs)


def _edge_loop_seeds(lambdas, mus, th, thh):
    """The seed rule written out edge by edge, cell by cell."""
    def crosses(a, b):
        return bool(np.isfinite(a) and np.isfinite(b)
                    and (a == 0 or b == 0 or (a < 0) != (b < 0)))

    def cell_crosses(v, i, j):
        edges = (((i, j), (i + 1, j)), ((i, j), (i, j + 1)),
                 ((i + 1, j), (i + 1, j + 1)), ((i, j + 1), (i + 1, j + 1)))
        return any(crosses(v[a], v[b]) for a, b in edges)

    return [((lambdas[i] + lambdas[i + 1]) / 2, (mus[j] + mus[j + 1]) / 2)
            for i in range(len(lambdas) - 1) for j in range(len(mus) - 1)
            if cell_crosses(th, i, j) and cell_crosses(thh, i, j)]


def _synthetic_scan(monkeypatch, problem, th, thh):
    """scan_grid over the integer nodes of th/thh, Theta stubbed from them.

    The stubbed column set-up hands the nodes' values on as their kernels,
    a table of one row, and the stubbed table run turns each into a
    result.  A node with a NaN entry fails its set-up, so it enters the
    grid as a failed node.
    """
    def columns(lams, mus, problem):
        at = np.rint(lams).astype(int), np.rint(mus).astype(int)
        ran = ~(np.isnan(th[at]) | np.isnan(thh[at]))
        return np.concatenate((th[at][ran], thh[at][ran]))[None], ran

    def run(table, *args):
        return [ThetaResult(theta=complex(v), error_bound=0.0, k_final=1,
                            n=5, tau_estimate=0j, status="converged")
                for v in table[0].tolist()]

    monkeypatch.setattr(ell, "_node_columns", columns)
    monkeypatch.setattr(ell, "_theta_table", run)
    L, M = th.shape
    return ell.scan_grid(problem, (0, L - 1), (0, M - 1), (L, M))


@pytest.mark.parametrize("edge", range(4))
def test_scan_grid_seeds_from_each_cell_edge(monkeypatch, table_problem,
                                             edge):
    # one cell whose grids cross on the given edge only: its ends p, q
    # differ in sign, the node s after q repeats q's sign, and the node r
    # after s failed (NaN), so the edges q-s, s-r and r-p cannot cross
    cycle = [(0, 0), (1, 0), (1, 1), (0, 1)]
    p, q, s, r = (cycle[(edge + i) % 4] for i in range(4))
    th = np.empty((2, 2))
    th[p], th[q], th[s], th[r] = 1.0, -1.0, -1.0, np.nan
    grid = _synthetic_scan(monkeypatch, table_problem, th, -2.0 * th)
    assert grid.seeds == [(0.5, 0.5)]
    th[p] = -1.0
    grid = _synthetic_scan(monkeypatch, table_problem, th, -2.0 * th)
    assert grid.seeds == []


def test_scan_grid_seed_rule_on_nan_and_zero_nodes(monkeypatch,
                                                   table_problem):
    # a sign change across a failed node seeds nothing; an exact zero
    # crosses on both of its edges
    jump = np.array([[1.0, np.nan, -1.0], [1.0, np.nan, -1.0]])
    assert _synthetic_scan(monkeypatch, table_problem, jump, jump).seeds == []
    zero = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    assert _synthetic_scan(monkeypatch, table_problem, zero,
                           zero).seeds == [(0.5, 0.5), (0.5, 1.5)]

    # a fixed random grid of signs, exact zeros and failed nodes against
    # the rule written out edge by edge
    rng = np.random.default_rng(7)
    values = np.array([-2.0, -1.0, 0.0, 1.0, 3.0, np.nan])
    weights = [0.2, 0.2, 0.1, 0.2, 0.2, 0.1]
    th = rng.choice(values, size=(8, 9), p=weights)
    thh = rng.choice(values, size=(8, 9), p=weights)
    grid = _synthetic_scan(monkeypatch, table_problem, th, thh)
    failed = np.isnan(th) | np.isnan(thh)
    assert list(grid.status[failed]) == ["error"] * int(failed.sum())
    assert np.array_equal(grid.theta, np.where(failed, np.nan, th),
                          equal_nan=True)
    expected = _edge_loop_seeds(grid.lambdas, grid.mus, grid.theta,
                                grid.theta_hat)
    assert 0 < len(expected) < 7 * 8
    assert grid.seeds == expected


@pytest.mark.parametrize("lambda_range, mu_range", [
    ((0.0, np.inf), (-4.0, 0.0)),
    ((0.0, np.nan), (-4.0, 0.0)),
    ((0.0, 4.0), (-np.inf, 0.0)),
    ((0.0,), (-4.0, 0.0)),
    ((0.0, 1.0, 2.0), (-4.0, 0.0)),
    (5.0, (-4.0, 0.0)),
    ((0.0, 4.0), None),
])
def test_scan_grid_rejects_non_finite_ranges(table_problem, monkeypatch,
                                             lambda_range, mu_range):
    # the non-finite ones once warned from linspace, then failed inside the
    # first node; of the others, one bound raised IndexError, three were
    # cut to two and a number raised TypeError
    def fail(*args, **kwargs):
        raise AssertionError("no Theta may run for a bad range")

    monkeypatch.setattr(ell, "_node_columns", fail)
    monkeypatch.setattr(ell, "_theta_table", fail)
    pairs = all(np.shape(r) == (2,) for r in (lambda_range, mu_range))
    with pytest.raises(ValueError, match=(
            r"_range \(.*\) is not finite" if pairs
            else r"_range must be a pair \(lo, hi\) of numbers, got ")):
        ell.scan_grid(table_problem, lambda_range, mu_range, 3)


def test_scan_grid_validates_solver_arguments(table_problem):
    # a bad argument is an error of the call, not a failure of every node
    for kwargs in ({"n": "5"}, {"n": -1}, {"tol": "1e-8"}, {"tol": -1.0},
                   {"k_max": 0}, {"k_max": 2.5}):
        with pytest.raises(ValueError):
            ell.scan_grid(table_problem, (0, 4), (-4, 0), 3, **kwargs)


# --------------------------------------------------------------------------
# the generalized constructor
# --------------------------------------------------------------------------

def test_heun_system_reduces_to_ellipsoidal(anchor_problem):
    sys_e = ell.build_system(3.2, -5.0, anchor_problem)
    sys_h = ell.build_heun_system(0.5, 0.5, 0.5, 0.0, 1.6, 4.0, 3.2, -5.0)
    assert np.array_equal(sys_h.A, sys_e.A)
    assert np.array_equal(sys_h.B, sys_e.B)
    assert np.array_equal(sys_h.tail.residues[0], sys_e.tail.residues[0])
    assert np.array_equal(sys_h.tail.const, sys_e.tail.const)
    assert sys_h.tail.poles == sys_e.tail.poles
    frame = ell.spectral_frame(anchor_problem,
                               ell.entries(3.2, -5.0, anchor_problem))
    th_e = theta_iterate(sys_e, frame, n=5, tol=1e-10).theta
    th_h = theta_iterate(sys_h, frame, n=5, tol=1e-10).theta
    assert abs(th_e - th_h) <= 1e-12


def test_heun_kappa_slot():
    sys_h = ell.build_heun_system(0.5, 0.5, 0.5, 0.7, 1.6, 4.0, 3.2, -5.0)
    assert sys_h.tail.const[0, 0] == -0.7


def test_heun_exponent_validation():
    good = dict(nu1=0.5, nu2=0.5, kappa=0.0, c=1.6, gamma=4.0, lam=3.2, mu=-5.0)
    with pytest.raises(InvalidExponent):
        ell.build_heun_system(nu0=1.0, **good)
    with pytest.raises(InvalidExponent):
        ell.build_heun_system(nu0=-0.2, **good)
    for bad_c in (0.0, 1.0):
        with pytest.raises(InvalidExponent):
            ell.build_heun_system(0.5, 0.5, 0.5, 0.0, bad_c, 4.0, 3.2, -5.0)


# --------------------------------------------------------------------------
# eigenfunctions
# --------------------------------------------------------------------------

def test_eigenfunction_pieces_agree_on_overlaps(eigenfunction_325):
    _, fn = eigenfunction_325
    r1 = fn.radius1
    sup = max(abs(fn(float(z)))
              for z in np.linspace(0, fn.c, 501)[1:-1])
    for z in np.linspace(1.0 - 0.9 * r1, 1.0 - 0.05 * r1, 7):
        assert abs(fn.C0 * fn.piece0(z) - fn.C1 * fn.piece1(z)) <= 1e-8 * sup
    for z in np.linspace(1.0 + 0.05 * r1, 1.0 + 0.9 * r1, 7):
        assert abs(fn.C2 * fn.piece2(z) - fn.C1 * fn.piece1(z)) <= 1e-8 * sup


def test_eigenfunction_zero_counts(table_problem):
    # interior zero counts (in (0,1), in (1,c)) characterize the first
    # three modes of this exponent-bit family
    expected = {(0.25, -0.5): (0, 0), (0.964286, -3.0): (0, 1),
                (3.25, -3.0): (1, 0)}
    for (lam0, mu0), counts in expected.items():
        pair = ell.solve_pair(lam0 + 0.01, mu0 + 0.03, table_problem,
                              opts=SolverOptions(tol_residual=1e-10))
        fn = ell.eigenfunction(pair, table_problem)
        za = np.linspace(1e-3, 1 - 1e-3, 2001)
        zb = np.linspace(1 + 1e-3, fn.c - 1e-3, 2001)
        va, vb = fn(za), fn(zb)
        ca = int(np.sum(np.sign(va[:-1]) * np.sign(va[1:]) < 0))
        cb = int(np.sum(np.sign(vb[:-1]) * np.sign(vb[1:]) < 0))
        assert (ca, cb) == counts, (lam0, mu0)


def test_eigenfunction_solves_the_ode(eigenfunction_325, table_problem):
    pair, fn = eigenfunction_325
    e = ell.entries(pair.lam, pair.mu, table_problem)
    for z in np.linspace(0.04, fn.c - 0.04, 41):
        if min(abs(z), abs(z - 1), abs(fn.c - z)) < 0.03:
            continue
        assert eigenfunction_ode_residual(fn, e, float(z)) <= 1e-7, z


def test_eigenfunction_ode_other_bit_pattern():
    prob = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE, rho=1, sigma=1, tau=0)
    pair = ell.solve_pair(1.97, -1.52, prob,
                          opts=SolverOptions(tol_residual=1e-10))
    fn = ell.eigenfunction(pair, prob)
    e = ell.entries(pair.lam, pair.mu, prob)
    for z in np.linspace(0.06, fn.c - 0.06, 23):
        if min(abs(z), abs(z - 1), abs(fn.c - z)) < 0.05:
            continue
        assert eigenfunction_ode_residual(fn, e, float(z)) <= 1e-7, z


def test_eigenfunction_constant_mode():
    # (lam, mu) = (0, 0) with all bits 0 is an exact eigenpair whose
    # eigenfunction is constant; also exercises the plain-tuple input
    prob = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE)
    fn = ell.eigenfunction((0.0, 0.0), prob)
    vals = fn(np.linspace(0.01, fn.c - 0.01, 301))
    assert vals.shape == (301,)
    assert (vals.max() - vals.min()) <= 1e-8 * abs(vals.mean())


def test_eigenfunction_preconditions(table_problem, eigenfunction_325):
    with pytest.raises(ValueError, match="not an eigenpair"):
        ell.eigenfunction((1.0, 1.0), table_problem)
    with pytest.raises(ValueError, match="real"):
        ell.eigenfunction((0.0, 0.0),
                          ell.EllipsoidalProblem(gamma=1j, c=2.0))
    _, fn = eigenfunction_325
    with pytest.raises(ValueError, match="domain"):
        fn(-0.1)
    with pytest.raises(ValueError, match="domain"):
        fn(fn.c + 0.1)
    with pytest.raises(ValueError, match="domain"):
        fn(math.nan)


@pytest.mark.parametrize("pair", [
    ("0.25", "-0.5"), (0.25 + 1j, -0.5), (0.25, complex(-0.5, 0.0)),
    (0.25, None), ell.EigenPair("0.25", -0.5, 0.0, 0.0, 0)],
    ids=["strings", "complex", "complex with imag 0", "None", "EigenPair"])
def test_eigenfunction_rejects_a_pair_that_is_not_real_before_any_series(
        monkeypatch, table_problem, pair):
    # float() once parsed the strings into an eigenfunction, and a complex
    # lam raised TypeError
    def fail(*args, **kwargs):
        raise AssertionError("no series may be built")

    monkeypatch.setattr(ell, "_kernel", fail)
    with pytest.raises(ValueError, match="real numbers"):
        ell.eigenfunction(pair, table_problem)


def test_eigenfunction_of_real_numbers_of_any_type_is_that_of_floats(
        table_problem):
    want = ell.eigenfunction((0.25, -0.5), table_problem)
    for pair in ((Fraction(1, 4), np.float64(-0.5)), (np.float32(0.25), -0.5),
                 (0.25, np.int64(0) - 0.5)):
        got = ell.eigenfunction(pair, table_problem)
        assert (got.lam, got.mu) == (0.25, -0.5)
        assert type(got.lam) is type(got.mu) is float
        assert repr((got.C0, got.C2)) == repr((want.C0, want.C2))


def test_eigenfunction_pickles_and_copies(table_problem):
    # copies made while the series are partly read (after matching) and
    # once they are read in full evaluate as the original, bit for bit
    pair = ell.solve_pair(0.26, -0.45, table_problem,
                          opts=SolverOptions(tol_residual=1e-10))
    fn = ell.eigenfunction(pair, table_problem)
    zs = np.linspace(0.0, fn.c, 37)
    partial = [pickle.loads(pickle.dumps(fn)), copy.deepcopy(fn)]
    want = fn(zs).tobytes()
    for other in partial:
        assert other(zs).tobytes() == want
    fi = ell.normalize(fn, mode="integral")
    for other in (pickle.loads(pickle.dumps(fi)), copy.deepcopy(fi)):
        assert other(zs).tobytes() == fi(zs).tobytes()
        for name in ("coef0", "coef1", "coef2"):
            assert (np.asarray(getattr(other, name)).tobytes()
                    == np.asarray(getattr(fi, name)).tobytes())


def _scalar_w(fn, z):
    """w(z) one point at a time: the piece choice, prefactors and matching
    constants of `EllipsoidalEigenfunction.__call__` on Python floats, and
    the reference scalar loop for the sums."""
    def piece(coef, bit, x, a, ea, b, eb):
        if x == 0.0:
            return float(coef[0]) if bit == 0 else 0.0
        return (abs(a) ** ea * abs(b) ** eb
                * _reference.power_sum(np.asarray(coef).tolist(), x))
    rho, sigma, tau, c = fn.rho, fn.sigma, fn.tau, fn.c
    r1 = min(1.0, c - 1.0)
    q1 = abs(1 - z) / r1
    if q1 < min(z if z <= 1.0 else (c - z) / (c - 1), 0.95):
        x = 1.0 - z
        return fn.C1 * piece(fn.coef1, sigma, x, z, -rho / 2, x, -sigma / 2)
    if z <= 1.0:
        return fn.C0 * piece(fn.coef0, rho, z, z, -rho / 2, 1 - z,
                             (1 + sigma) / 2)
    x = (c - z) / (c - 1)
    return fn.C2 * piece(fn.coef2, tau, x, x, -tau / 2, 1 - x,
                         (1 + sigma) / 2)


@pytest.mark.parametrize("bits, seed", [((0, 0, 1), (0.25, -0.5)),
                                        ((1, 1, 1), (2.71, -3.0))])
def test_eigenfunction_of_an_array_is_its_points_one_at_a_time(bits, seed):
    # rho = 0 reads coef0[0] at z = 0 and sigma = 1 gives 0.0 at z = 1;
    # 7/12 is where q1 = q0 ties, and its neighbours straddle the tie
    rho, sigma, tau = bits
    prob = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE, rho=rho, sigma=sigma,
                                  tau=tau)
    pair = ell.solve_pair(*seed, prob, opts=SolverOptions(tol_residual=1e-8))
    fn = ell.normalize(ell.eigenfunction(pair, prob), mode="integral")
    tie = 7.0 / 12.0
    assert abs(1 - tie) / fn.radius1 == tie
    zs = np.array([0.0, 1.0, C_TABLE, tie, np.nextafter(tie, 0.0),
                   np.nextafter(tie, 1.0), 1 + fn.radius1 / 2,
                   *np.linspace(0.0, C_TABLE, 41)])
    got = [repr(w) for w in fn(zs).tolist()]
    assert got == [repr(fn(float(z))) for z in zs]
    assert got == [repr(_scalar_w(fn, float(z))) for z in zs]
    assert fn(zs.reshape(2, -1)).shape == (2, len(zs) // 2)
    assert type(fn(0.5)) is float


@pytest.mark.parametrize("bits, seed", [((0, 0, 1), (0.25, -0.5)),
                                        ((1, 0, 0), (2.42, -3.0)),
                                        ((1, 1, 1), (2.71, -3.0))])
def test_eigenfunction_series_are_computed_as_read(bits, seed):
    rho, sigma, tau = bits
    prob = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE, rho=rho, sigma=sigma,
                                  tau=tau)
    pair = ell.solve_pair(*seed, prob, opts=SolverOptions(tol_residual=1e-8))
    fn = ell.normalize(ell.eigenfunction(pair, prob), mode="integral")
    series = (fn.coef0, fn.coef1, fn.coef2)
    # matching and the integral read a few dozen terms of each series
    assert all(s._known < core._SERIES_TERMS for s in series)
    kernel = ell._kernel(pair.lam, pair.mu, prob)
    hat = ell._hat_kernel(pair.lam, pair.mu, prob)
    picks = [0, 1, 31, 32, 33, 1000, -1]
    for s, (side, start) in zip(series, ((kernel.main, kernel.a0),
                                         (kernel.mirror, kernel.b2),
                                         (hat.main, hat.a0))):
        steps = itertools.islice(_reference.steps(side, start),
                                 core._SERIES_TERMS - 1)
        full = np.array([start[1], *(d1 for *_, d1 in steps)],
                        dtype=complex).real
        assert len(s) == len(full)
        assert np.array([s[k] for k in picks]).tobytes() == \
            full[picks].tobytes()
        assert np.asarray(s).tobytes() == full.tobytes()
        with pytest.raises(IndexError):
            s[len(full)]


@pytest.mark.parametrize("candidates, ref, new, message", [
    ([], {}, {}, "no matching abscissa inside both convergence disks"),
    ([0.5, 0.6], {0.5: 0.0, 0.6: 0.0}, {0.5: 0.0, 0.6: 0.0},
     "eigenfunction pieces vanish at every matching abscissa"),
    ([0.5, 0.6], {0.5: 1.0, 0.6: 1e-9}, {0.5: 1e-9, 0.6: 1.0},
     "pieces have no common nonvanishing matching abscissa"),
    ([0.5, 0.5, 0.6], {0.5: 1.0, 0.6: 1.0}, {0.5: 2.0, 0.6: 1e-9},
     "pieces have one common nonvanishing matching abscissa, and a match "
     "needs two"),
    ([0.5, 0.6], {0.5: 1.0, 0.6: 2.0}, {0.5: 1.0, 0.6: 1.0},
     r"matching constant misses the pieces by 5\.0e-01 \(relative\) at a "
     "second abscissa"),
], ids=["no-abscissa", "both-vanish", "no-common", "one-common",
        "unconfirmed"])
def test_match_constant_failures(candidates, ref, new, message):
    # the pieces are evaluated on all the candidates at once
    with pytest.raises(MatchFailure, match=f"^{message}$"):
        ell._match_constant(np.vectorize(ref.get, otypes=[float]),
                            np.vectorize(new.get, otypes=[float]), candidates)


def test_match_constant_measures_each_piece_on_its_own_scale():
    # piece 0 is 1e-9 of piece 1 everywhere, yet far from zero: the pieces
    # match, and the constant holds at the second abscissa
    ref = {0.5: 1e9, 0.6: 2e9, 0.7: 0.0}
    new = {0.5: 1.0, 0.6: 2.0, 0.7: 3.0}
    assert ell._match_constant(np.vectorize(ref.get, otypes=[float]),
                               np.vectorize(new.get, otypes=[float]),
                               [0.5, 0.6, 0.7]) == 1e9


def test_eigenfunction_matches_hold_at_a_second_abscissa():
    # at c = 1/0.9 the matching abscissas are 1 -+ r1/2, 1 -+ r1/3 and
    # 1 -+ 2 r1/3, r1 = c - 1, and (1 + c)/2 = 1 + r1/2
    gamma, c, lam, mu = ell.from_abramov(0.9, 1.0, 465.0515, 456.8093)
    prob = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, sigma=0, tau=1)
    pair = ell.solve_pair(lam, mu, prob, opts=SolverOptions(tol_residual=1e-8))
    fn = ell.eigenfunction(pair, prob)
    r1 = fn.radius1
    for z in (1 - r1 / 2, 1 - r1 / 3):
        assert fn.C0 * fn.piece0(z) == pytest.approx(fn.piece1(z), rel=1e-6)
    for z in (1 + r1 / 2, 1 + r1 / 3):
        assert fn.C2 * fn.piece2(z) == pytest.approx(fn.piece1(z), rel=1e-6)


def test_eigenfunction_rejects_a_match_that_misses_at_a_second_abscissa():
    # at this wave row piece 1 reads 1.5e4 to 5.8e5 at the C0 candidates,
    # and piece 0 sums some 600 terms of up to 1e3 to 1e-8: rounding noise,
    # which a constant of 1.55e14 matches at the first abscissa only
    gamma, c, lam, mu = ell.from_abramov(0.9, 1.0, 137.6824, 456.4856)
    prob = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, sigma=0, tau=1)
    pair = ell.solve_pair(lam, mu, prob, opts=SolverOptions(tol_residual=1e-8))
    with pytest.raises(MatchFailure, match="^matching constant misses the "
                       r"pieces by \S+ \(relative\) at a second abscissa$"):
        ell.eigenfunction(pair, prob)


def test_sup_normalize_rejects_the_zero_function(eigenfunction_325):
    _, fn = eigenfunction_325
    with pytest.raises(ValueError,
                       match="^cannot sup-normalize the zero function$"):
        ell.normalize(replace(fn, C0=0.0, C1=0.0, C2=0.0), "sup")


@pytest.mark.parametrize("integrals, message", [
    ({64: -1.0, 128: 2.0},
     "weighted integral not positive (64: -1.000e+00, 128: 2.000e+00)"),
    ({64: 1.0, 128: 2.0},
     "quadrature refinement moved the integral by 5.00e-01"),
], ids=["not-positive", "moved"])
def test_integral_normalize_raises_quadrature_not_converged(
        eigenfunction_325, monkeypatch, integrals, message):
    _, fn = eigenfunction_325
    monkeypatch.setattr(ell, "_norm_integral", lambda fn, n: integrals[n])
    with pytest.raises(QuadratureNotConverged,
                       match=f"^{re.escape(message)}$"):
        ell.normalize(fn, "integral")


def test_normalize_sup(eigenfunction_325):
    _, fn = eigenfunction_325
    fs = ell.normalize(fn, mode="sup")
    peak = max(abs(fs(float(z))) for z in np.linspace(0, fs.c, 2003)[1:-1])
    assert abs(peak - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="mode"):
        ell.normalize(fn, mode="L2")


def test_normalize_integral_against_quadrature(eigenfunction_325):
    # independent check of the weighted double integral with scipy's
    # algebraic-endpoint-weight quadrature:
    #   I = P0*Q1 - P1*Q0,  m_p = int z^p w^2 / sqrt(|z(1-z)(c-z)|) dz
    _, fn = eigenfunction_325
    fi = ell.normalize(fn, mode="integral")
    c = fi.c

    def moment(a, b, p, far):
        val, _ = quad(lambda z: fi(z) ** 2 * z ** p / far(z), a, b,
                      weight="alg", wvar=(-0.5, -0.5), epsabs=1e-12,
                      limit=300)
        return val

    P0 = moment(0.0, 1.0, 0, lambda z: np.sqrt(c - z))
    P1 = moment(0.0, 1.0, 1, lambda z: np.sqrt(c - z))
    Q0 = moment(1.0, c, 0, lambda z: np.sqrt(z))
    Q1 = moment(1.0, c, 1, lambda z: np.sqrt(z))
    assert abs(P0 * Q1 - P1 * Q0 - 1.0) <= 2e-5


@pytest.mark.parametrize("n", [64, 128])
def test_legendre_rule_is_exact_to_degree_2n_minus_1(n):
    t, wgt = ell._legendre_rule(n)
    assert len(t) == len(wgt) == n
    assert not (t.flags.writeable or wgt.flags.writeable)
    assert abs(np.sum(wgt) - 2.0) <= 2e-14
    # x^(2n-2) puts its mass on the end weights, whose relative error
    # against a 40-digit rule is up to 1.3e-12 (n = 64) and 1.4e-11
    # (n = 128); a correctly rounded rule would reach 5e-15
    exact = 2.0 / (2 * n - 1)
    assert abs(np.sum(wgt * t ** (2 * n - 2)) - exact) <= 2e-11 * exact


def test_integral_normalization_computes_each_rule_once(eigenfunction_325,
                                                        monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    ell._legendre_rule.cache_clear()
    _, fn = eigenfunction_325
    first = ell.normalize(fn, mode="integral")
    again = ell.normalize(fn, mode="integral")
    assert sorted(calls) == [64, 128]
    assert again.C1 == first.C1


def test_import_and_integral_normalization_load_no_scipy():
    code = (
        "import sys\n"
        "import conncoef, conncoef.cli\n"
        "from conncoef import ellipsoidal as ell\n"
        "prob = ell.EllipsoidalProblem(gamma=0.0, c=12 / 7, rho=0, sigma=0,"
        " tau=1)\n"
        "pair = ell.solve_pair(0.26, -0.45, prob)\n"
        "ell.normalize(ell.eigenfunction(pair, prob), mode='integral')\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("row", [(0.9, 25.0, 141.0901, 482.5134),
                                 (0.9, 1.0, 137.6824, 456.4856)])
def test_steep_wave_rows_converge_from_nearby_seeds(row):
    # At these rows |dTheta/dlam| ~ 1e12, so the residual floor
    # |dTheta/dlam| * ulp(lam) lies above the 1e-8 target and the solver
    # must stop on its step tolerance or at the evaluation floor, whatever
    # the last bit of the seed.
    k2, omega2, H, L = row
    gamma, c, lam0, mu0 = ell.from_abramov(k2, omega2, H, L)
    prob = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, sigma=0, tau=1)
    for lam in (np.nextafter(lam0, -np.inf), np.nextafter(lam0, np.inf)):
        pair = ell.solve_pair(float(lam), mu0, prob,
                              opts=SolverOptions(tol_residual=1e-8))
        _, _, H_out, L_out = ell.to_abramov(gamma, c, pair.lam, pair.mu)
        assert abs(H_out - H) <= 5e-5
        assert abs(L_out - L) <= 5e-5


@pytest.mark.parametrize("row", [(0.9, 25.0, 141.0901, 482.5134),
                                 (0.9, 1.0, 137.6824, 456.4856)])
def test_relative_limit_certifies_the_steep_seed(row):
    # |Theta| ~ 1e7 at these seeds, so solve_pair's absolute eval tol 1e-9
    # lies below ulp(|Theta|) ~ 1.9e-9: the absolute rule alone runs ~22 000
    # steps, until Theta_k stops changing, and reports error_bound = 0 for
    # a true error of ~4e-6.  The relative limit 1e-8 |Theta| stops the
    # series where its bound still holds: against a cross-order reference
    # (n = 12, tol 1e-14, whose own gap to n = 9 is ~3e-7)
    gamma, c, lam0, mu0 = ell.from_abramov(*row)
    prob = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, sigma=0, tau=1)
    ref = ell.theta(lam0, mu0, prob, n=12, tol=1e-14)
    absolute = ell.theta(lam0, mu0, prob, tol=1e-9)
    got = ell.theta(lam0, mu0, prob, tol=1e-9, rtol=1e-8)
    assert got.status == "converged"
    assert 0 < got.error_bound <= 2e-8 * abs(got.theta)
    assert abs(got.theta - ref.theta) <= got.error_bound
    assert 2 * got.k_final < absolute.k_final


def test_steep_wave_row_stops_at_the_evaluation_floor():
    # Broyden reaches this row's best residual (|Theta| ~ 0.29) within a
    # few evaluations; the floor stop returns it after 30 Theta and
    # Theta-hat evaluations, where the 1e-13 step rule alone took 86
    gamma, c, lam0, mu0 = ell.from_abramov(0.9, 25.0, 141.0901, 482.5134)
    prob = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, sigma=0, tau=1)
    pair = ell.solve_pair(lam0, mu0, prob,
                          opts=SolverOptions(tol_residual=1e-8))
    assert repr(pair.lam) == "39.19169908537159"
    assert repr(pair.mu) == "-134.03148863662102"
    assert pair.iterations == 30


def test_wave_number_case_end_to_end():
    # (rho,sigma,tau) = (1,1,0) mode at omega^2 = 100, k^2 = 0.5, converted
    # from its published wave numbers (H, L); a high mode with 15 interior
    # sign changes
    gamma, c, lam0, mu0 = ell.from_abramov(0.5, 100.0, 599.43708, 629.53546)
    prob = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, sigma=1, tau=0)
    pair = ell.solve_pair(lam0, mu0, prob,
                          opts=SolverOptions(tol_residual=1e-8))
    assert pair.residual_theta <= 1e-7
    assert pair.residual_theta_hat <= 1e-7
    fn = ell.normalize(ell.eigenfunction(pair, prob), mode="integral")
    zs = np.linspace(0, c, 803)[1:-1]
    vals = fn(zs)
    crossings = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
    assert crossings == 15

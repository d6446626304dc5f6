"""Tests for the spheroidal eigenproblem driver.

Reference eigenvalues for (mu, gamma^2) = (0, 4) were frozen from a run
cross-checked against the integration oracle; Legendre limits are exact.
"""

import dataclasses

import numpy as np
import pytest

from conncoef import spheroidal as sph
from conncoef.core import (
    build_shifted,
    frobenius_step,
    mirrored_shifted,
    series_start,
    theta_iterate,
)
from conncoef.errors import ScanExhausted

from _oracle import theta_oracle

# lowest eight eigenvalues of the prolate problem mu=0, gamma^2=4
PROLATE_8 = [
    -2.872265935150069,
    0.287128543955796,
    4.225713001105859,
    10.100203876205334,
    18.054829770465697,
    28.035263096925295,
    40.024747640293190,
    54.018370784846266,
]

THETA_REF = 0.349852604826025926  # t = 1.5, mu = 0, gamma^2 = 4


@pytest.fixture(scope="module")
def prolate():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    return problem, sph.eigenvalues(problem, 8)


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValueError, match="mu"):
        sph.SpheroidalProblem(mu=-1, gamma2=1.0)
    assert sph.SpheroidalProblem(mu=0, gamma2=-4.0).is_real
    assert not sph.SpheroidalProblem(mu=1, gamma2=1j).is_real


def test_build_system_entries():
    problem = sph.SpheroidalProblem(mu=1, gamma2=4.0)
    sys_ = sph.build_system(1.5, problem)
    assert np.array_equal(sys_.A, [[-1.5, -1.5], [0.0, 0.5]])
    assert np.array_equal(sys_.B, [[-1.5, 1.5], [0.0, 0.5]])
    assert np.array_equal(sys_.tail.const, [[0.0, -16.0], [1.0, 0.0]])
    assert sys_.tail.poles == ()


def test_frame_delta_is_mu_plus_one():
    problem = sph.SpheroidalProblem(mu=1.5, gamma2=2.0)
    frame = sph.spectral_frame(0.7, problem)
    assert frame.delta == 2.5


# --------------------------------------------------------------------------
# the mu = 0 reflection shortcut
# --------------------------------------------------------------------------

def test_reflection_identity_is_exact():
    # For mu = 0 the mirrored recurrence is the diag(-1, 1) conjugate of the
    # main one, so the mirrored prefix sums must match bit for bit.
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    sys_ = sph.build_system(1.5, problem)
    frame = sph.spectral_frame(1.5, problem)
    main = series_start(frame.a0, build_shifted(sys_, frame))
    mirr = series_start(frame.b2, mirrored_shifted(sys_, frame))
    sh_m = build_shifted(sys_, frame)
    sh_t = mirrored_shifted(sys_, frame)
    for _ in range(40):
        assert np.array_equal(mirr.d, [-main.d[0], main.d[1]])
        main = frobenius_step(main, sh_m)
        mirr = frobenius_step(mirr, sh_t)


def test_theta_t_matches_general_path():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    a = sph.theta_t(1.5, problem, n=5, tol=1e-12)
    b = theta_iterate(sph.build_system(1.5, problem),
                      sph.spectral_frame(1.5, problem), n=5, tol=1e-12)
    assert a.theta == b.theta
    assert a.k_final == b.k_final


# --------------------------------------------------------------------------
# Theta values
# --------------------------------------------------------------------------

def test_theta_anchor_value():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    res = sph.theta_t(1.5, problem, n=5, tol=1e-12)
    assert res.status == "converged"
    assert abs(res.theta - THETA_REF) <= 3e-12
    assert abs(res.theta - THETA_REF) <= res.error_bound
    assert 78 <= res.k_final <= 118  # 98 +- 20%
    assert abs(res.theta.imag) <= 1e-12


def test_theta_matches_oracle_at_random_t(prolate):
    rng = np.random.default_rng(20240811)
    problems = [sph.SpheroidalProblem(mu=0, gamma2=4.0),
                sph.SpheroidalProblem(mu=1, gamma2=4.0),
                sph.SpheroidalProblem(mu=0, gamma2=-4.0)]
    for i in range(10):
        t = rng.uniform(-5.0, 60.0)
        problem = problems[i % 3]
        got = sph.theta_t(t, problem, n=5, tol=1e-12).theta
        ref = theta_oracle(sph.build_system(t, problem),
                           sph.spectral_frame(t, problem))
        assert abs(got - ref) <= 1e-8, f"t={t}, problem={problem}"


# --------------------------------------------------------------------------
# eigenvalues
# --------------------------------------------------------------------------

def test_prolate_spectrum(prolate):
    problem, eigs = prolate
    assert [e.index for e in eigs] == list(range(8))
    worst = max(abs(complex(e.lam).real - v)
                for e, v in zip(eigs, PROLATE_8))
    assert worst <= 1e-9
    assert [e.parity for e in eigs] == [1, -1, 1, -1, 1, -1, 1, -1]
    assert all(e.residual <= 1e-9 for e in eigs)
    assert all(a.t_root < b.t_root for a, b in zip(eigs, eigs[1:]))


def test_legendre_limit():
    eigs = sph.eigenvalues(sph.SpheroidalProblem(mu=0, gamma2=0.0), 8)
    worst = max(abs(complex(e.lam).real - N * (N + 1))
                for N, e in enumerate(eigs))
    assert worst <= 1e-10


def test_associated_legendre_limit():
    # mu = 1, gamma^2 = 0: lam = N(N+1) for N >= 1
    eigs = sph.eigenvalues(sph.SpheroidalProblem(mu=1, gamma2=0.0), 4)
    worst = max(abs(complex(e.lam).real - N * (N + 1))
                for N, e in enumerate(eigs, start=1))
    assert worst <= 1e-10


def test_explicit_scan_range():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    eigs = sph.eigenvalues(problem, 2, t_scan_range=(-4.0, 1.0))
    assert abs(complex(eigs[0].lam).real - PROLATE_8[0]) <= 1e-9
    assert abs(complex(eigs[1].lam).real - PROLATE_8[1]) <= 1e-9


def test_explicit_scan_range_extends_once():
    # [-4, -1] holds one root; the one extension to [-1, 2] finds the second
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    eigs = sph.eigenvalues(problem, 2, t_scan_range=(-4.0, -1.0))
    assert abs(complex(eigs[0].lam).real - PROLATE_8[0]) <= 1e-9
    assert abs(complex(eigs[1].lam).real - PROLATE_8[1]) <= 1e-9


def test_k_max_below_first_usable_index_raises_at_once():
    # with no usable index the scan would only see NaN samples and keep
    # doubling its span; the error must come from the first sample
    with pytest.raises(ValueError, match="first usable index"):
        sph.eigenvalues(sph.SpheroidalProblem(mu=0, gamma2=4.0), 2, k_max=0)


@pytest.mark.parametrize("tol", [0.0, float("nan")])
def test_bad_tolerance_raises_before_any_theta_evaluation(monkeypatch, tol):
    calls = []

    def counting_theta_t(*args, **kwargs):
        calls.append(args)
        return theta_t(*args, **kwargs)

    theta_t = sph.theta_t
    monkeypatch.setattr(sph, "theta_t", counting_theta_t)
    with pytest.raises(ValueError, match="tol"):
        sph.eigenvalues(sph.SpheroidalProblem(mu=0, gamma2=100.0), 4, tol=tol)
    assert calls == []


def test_scan_exhausted_on_rootless_range():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    with pytest.raises(ScanExhausted):
        sph.eigenvalues(problem, 1, t_scan_range=(30.5, 31.5))


def test_count_validation():
    with pytest.raises(ValueError, match="count"):
        sph.eigenvalues(sph.SpheroidalProblem(mu=0, gamma2=4.0), 0)


# --------------------------------------------------------------------------
# eigenfunctions
# --------------------------------------------------------------------------

def test_eigenfunction_parity(prolate):
    problem, eigs = prolate
    xs = np.linspace(-0.8, 0.8, 9)
    f0 = sph.eigenfunction(eigs[0], problem, xs)
    f1 = sph.eigenfunction(eigs[1], problem, xs)
    assert f0.parity == 1 and f1.parity == -1
    assert f0.parity_deviation <= 1e-6
    assert f1.parity_deviation <= 1e-6
    # the odd mode vanishes at the origin
    w0 = sph.eigenfunction(eigs[1], problem, [0.0]).values[0]
    sup = np.max(np.abs(f1.values))
    assert abs(w0) <= 1e-8 * sup


def test_eigenfunction_solves_the_ode(prolate):
    problem, eigs = prolate
    eig = eigs[2]
    lam = complex(eig.lam).real
    h = 3e-4
    # keep every stencil on one side of the origin: the reflected-branch
    # switch at x = 0 sits exactly at the parity-probe noise level, which a
    # second difference amplifies by 1/h^2
    xs = np.concatenate([-np.linspace(0.05, 0.9, 10),
                         np.linspace(0.05, 0.9, 10)])
    worst = 0.0
    for x in xs:
        grid = [x - 2 * h, x - h, x, x + h, x + 2 * h]
        f = np.asarray(sph.eigenfunction(eig, problem, grid).values,
                       dtype=float)
        w = f[2]
        wp = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        wpp = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        res = (1 - x * x) * wpp - 2 * x * wp + (lam + 4.0 * (1 - x * x)) * w
        worst = max(worst, abs(res) / max(abs(w), abs(wp), 1.0))
    assert worst <= 1e-7


def test_eigenfunction_ode_with_order_term():
    # mu = 1 brings in the mu^2/(1-x^2) potential term
    problem = sph.SpheroidalProblem(mu=1, gamma2=2.0)
    eig = sph.eigenvalues(problem, 2)[1]
    lam = complex(eig.lam).real
    h = 3e-4
    worst = 0.0
    for x in (-0.85, -0.5, -0.1, 0.1, 0.5, 0.85):
        grid = [x - 2 * h, x - h, x, x + h, x + 2 * h]
        f = np.asarray(sph.eigenfunction(eig, problem, grid).values,
                       dtype=float)
        w = f[2]
        wp = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        wpp = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        res = ((1 - x * x) * wpp - 2 * x * wp
               + (lam + 2.0 * (1 - x * x) - 1.0 / (1 - x * x)) * w)
        worst = max(worst, abs(res) / max(abs(w), abs(wp), 1.0))
    assert worst <= 1e-7


def test_eigenfunction_domain_and_preconditions(prolate):
    problem, eigs = prolate
    with pytest.raises(ValueError, match="inside"):
        sph.eigenfunction(eigs[0], problem, [0.5, 1.0])
    stale = dataclasses.replace(eigs[0], residual=1.0)
    with pytest.raises(ValueError, match="residual"):
        sph.eigenfunction(stale, problem, [0.5])

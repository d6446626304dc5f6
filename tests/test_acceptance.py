"""End-to-end acceptance checks.

Ten numbered criteria cover reference values, iteration counts, wall-time
budgets, tail decay rates, error-bound soundness, agreement with the
independent integration oracle, and eigenfunction diagnostics.  Each test
prints one ``criterion N (<name>): PASS/FAIL`` line before asserting, so a
verbose run doubles as a scorecard.
"""

import itertools
import time

import numpy as np
import pytest

from conncoef import core
from conncoef import ellipsoidal as ell
from conncoef import spheroidal as sph
from conncoef.rootfind import SolverOptions

import _reference
from _oracle import theta_oracle
from _residuals import eigenfunction_ode_residual

# --------------------------------------------------------------------------
# frozen references
# --------------------------------------------------------------------------

ELL_THETA_REF = -0.262836009163167617   # lam=3.2, mu=-5, gamma=4, c=1.6, rho=1
ELL_K_REF = {1: 28599, 2: 1839, 3: 358, 4: 222, 5: 154}

SPH_THETA_REF = 0.349852604826025926    # t=1.5, mu=0, gamma^2=4
SPH_K_REF = {2: 2562, 3: 396, 4: 284, 5: 98}

PROLATE_8 = [
    -2.872265935150069, 0.287128543955796, 4.225713001105859,
    10.100203876205334, 18.054829770465697, 28.035263096925295,
    40.024747640293190, 54.018370784846266,
]

# first three eigenpairs per exponent-bit combination at gamma=0, c=12/7
C_TABLE = 12.0 / 7.0
EIGENPAIRS = {
    (0, 0, 0): [(0.0, 0.0), (0.611407, -1.5), (2.102879, -1.5)],
    (0, 0, 1): [(0.25, -0.5), (0.964286, -3.0), (3.25, -3.0)],
    (0, 1, 0): [(0.428571, -0.5), (0.981471, -3.0), (4.304243, -3.0)],
    (1, 0, 0): [(0.678571, -0.5), (2.423953, -3.0), (4.361761, -3.0)],
    (0, 1, 1): [(0.678571, -1.5), (1.303037, -5.0), (5.482677, -5.0)],
    (1, 0, 1): [(1.428571, -1.5), (3.488893, -5.0), (5.796821, -5.0)],
    (1, 1, 0): [(1.964286, -1.5), (3.597906, -5.0), (7.473523, -5.0)],
    (1, 1, 1): [(2.714286, -3.0), (4.548506, -7.5), (9.022923, -7.5)],
}

# wave-number rows (k^2, omega^2, H, L) at exponent bits (1, 0, 1)
WAVE_ROWS = [
    (0.5, 1.0, 404.5725, 254.1495),
    (0.5, 25.0, 415.4354, 281.7278),
    (0.5, 25.0, 105.6530, 274.2514),
    (0.5, 1.0, 102.0318, 253.8504),
    (0.9, 25.0, 141.0901, 482.5134),
    (0.9, 1.0, 137.6824, 456.4856),
    (0.9, 1.0, 465.0515, 456.8093),
    (0.9, 25.0, 476.7548, 490.6641),
]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {tag}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)


# --------------------------------------------------------------------------
# shared computations
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ell_anchor_problem():
    return ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=1, sigma=0, tau=0)


@pytest.fixture(scope="module")
def table1_runs(ell_anchor_problem):
    t0 = time.perf_counter()
    runs = {n: ell.theta(3.2, -5.0, ell_anchor_problem, n=n, tol=1e-10)
            for n in (2, 3, 4, 5)}
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table4_runs():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    t0 = time.perf_counter()
    runs = {n: sph.theta_t(1.5, problem, n=n, tol=1e-12)
            for n in (2, 3, 4, 5)}
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def prolate8():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    t0 = time.perf_counter()
    eigs = sph.eigenvalues(problem, 8)
    return problem, eigs, time.perf_counter() - t0


# --------------------------------------------------------------------------
# criteria 1-2: anchor values, iteration counts, budgets
# --------------------------------------------------------------------------

def test_criterion_01_ellipsoidal_anchor(table1_runs):
    runs, elapsed = table1_runs
    problems = []
    for n, res in runs.items():
        if res.status != "converged":
            problems.append(f"n={n} status={res.status}")
        if abs(res.theta - ELL_THETA_REF) > 3e-10:
            problems.append(f"n={n} |dTheta|={abs(res.theta - ELL_THETA_REF):.2e}")
        if not 0.8 * ELL_K_REF[n] <= res.k_final <= 1.2 * ELL_K_REF[n]:
            problems.append(f"n={n} k={res.k_final} ref={ELL_K_REF[n]}")
    if elapsed > 1.0:
        problems.append(f"elapsed {elapsed:.2f}s > 1s")
    ok = not problems
    _report(1, "ellipsoidal anchor, n=2..5", ok, "; ".join(problems))
    assert ok, problems


@pytest.mark.slow
def test_criterion_01_slow_tier(ell_anchor_problem):
    t0 = time.perf_counter()
    res = ell.theta(3.2, -5.0, ell_anchor_problem, n=1, tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = (res.status == "converged"
          and abs(res.theta - ELL_THETA_REF) <= 3e-10
          and 0.8 * ELL_K_REF[1] <= res.k_final <= 1.2 * ELL_K_REF[1]
          and elapsed <= 30.0)
    _report(1, "ellipsoidal anchor, slow n=1 tier", ok,
            f"k={res.k_final} elapsed={elapsed:.2f}s")
    assert ok, (res.k_final, elapsed)


def test_criterion_02_spheroidal_anchor(table4_runs):
    runs, elapsed = table4_runs
    problems = []
    for n, res in runs.items():
        if res.status != "converged":
            problems.append(f"n={n} status={res.status}")
        if abs(res.theta - SPH_THETA_REF) > 3e-12:
            problems.append(f"n={n} |dTheta|={abs(res.theta - SPH_THETA_REF):.2e}")
        if not 0.8 * SPH_K_REF[n] <= res.k_final <= 1.2 * SPH_K_REF[n]:
            problems.append(f"n={n} k={res.k_final} ref={SPH_K_REF[n]}")
    if elapsed > 0.5:
        problems.append(f"elapsed {elapsed:.2f}s > 0.5s")
    ok = not problems
    _report(2, "spheroidal anchor, n=2..5", ok, "; ".join(problems))
    assert ok, problems


# --------------------------------------------------------------------------
# criteria 3-6: spectra
# --------------------------------------------------------------------------

def test_criterion_03_prolate_spectrum(prolate8):
    _, eigs, elapsed = prolate8
    worst = max(abs(complex(e.lam).real - ref)
                for e, ref in zip(eigs, PROLATE_8))
    ok = worst <= 1e-9 and elapsed <= 2.0
    _report(3, "prolate eigenvalues 0..7", ok,
            f"worst={worst:.2e} elapsed={elapsed:.2f}s")
    assert ok, (worst, elapsed)


def test_criterion_04_ellipsoidal_eigenpair_table():
    t0 = time.perf_counter()
    worst = 0.0
    for (rho, sigma, tau), pairs in EIGENPAIRS.items():
        problem = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE,
                                         rho=rho, sigma=sigma, tau=tau)
        for lam_ref, mu_ref in pairs:
            got = ell.solve_pair(round(lam_ref, 1), round(mu_ref, 1), problem)
            worst = max(worst, abs(got.lam - lam_ref), abs(got.mu - mu_ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 30.0
    _report(4, "eigenpair table, 8 rows x 3", ok,
            f"worst={worst:.2e} elapsed={elapsed:.2f}s")
    assert ok, (worst, elapsed)


def test_criterion_05_wave_number_rows():
    t0 = time.perf_counter()
    worst = 0.0
    for k2, om2, H, L in WAVE_ROWS:
        gamma, c, lam0, mu0 = ell.from_abramov(k2, om2, H, L)
        problem = ell.EllipsoidalProblem(gamma=gamma, c=c,
                                         rho=1, sigma=0, tau=1)
        pair = ell.solve_pair(lam0, mu0, problem,
                              opts=SolverOptions(tol_residual=1e-8))
        _, _, H_out, L_out = ell.to_abramov(gamma, c, pair.lam, pair.mu)
        worst = max(worst, abs(H_out - H), abs(L_out - L))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-5 and elapsed <= 60.0  # 4 decimal places
    _report(5, "wave-number rows (H, L)", ok,
            f"worst={worst:.2e} elapsed={elapsed:.2f}s")
    assert ok, (worst, elapsed)


def test_criterion_06_legendre_limit():
    eigs = sph.eigenvalues(sph.SpheroidalProblem(mu=0, gamma2=0.0), 8)
    worst = max(abs(complex(e.lam).real - N * (N + 1))
                for N, e in enumerate(eigs))
    ok = worst <= 1e-10
    _report(6, "Legendre limit lam_N = N(N+1)", ok, f"worst={worst:.2e}")
    assert ok, worst


# --------------------------------------------------------------------------
# criterion 7: tail decay rates
# --------------------------------------------------------------------------

def _theta_sequence(system, frame, n, k_hi):
    # the series from the kernel's sides (the O(k^2) reference convolution
    # is too slow for k_hi = 8000), p_k and nu_k from the reference formulas
    kernel = core.theta_kernel(system, frame)
    mirrored = itertools.islice(_reference.steps(kernel.mirror, kernel.b2),
                                n)
    prefix = [kernel.b2] + [(d0, d1) for *_, d0, d1 in mirrored]
    delta = frame.delta
    k_start = max(int(np.floor(delta.real + n - 1)) + 1, 1)
    ks, thetas = [], []
    for k, _, _, d0, d1 in itertools.islice(
            _reference.steps(kernel.main, kernel.a0), k_hi):
        if k < k_start:
            continue
        p = _reference.p_vector(frame.b2, prefix, delta, k, n)
        nu = _reference.weight_vector(frame.b1, p)
        ks.append(k)
        thetas.append(complex(d0 * nu[0] + d1 * nu[1]))
    return np.array(ks), np.array(thetas)


def _fitted_slope(system, frame, n, k_lo, k_hi):
    ks, th = _theta_sequence(system, frame, n, k_hi)
    dth = np.abs(np.diff(th))
    kk = ks[1:]
    m = (kk >= k_lo) & (dth > 0)
    return np.polyfit(np.log(kk[m]), np.log(dth[m]), 1)[0]


def test_criterion_07_tail_decay_rates(ell_anchor_problem):
    problems = []
    sys_e = ell.build_system(3.2, -5.0, ell_anchor_problem)
    frame_e = ell.spectral_frame(ell_anchor_problem,
                                 ell.entries(3.2, -5.0, ell_anchor_problem))
    sprob = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    sys_s = sph.build_system(1.5, sprob)
    frame_s = sph.spectral_frame(1.5, sprob)
    cases = [("ell", sys_e, frame_e), ("sph", sys_s, frame_s)]
    for label, system, frame in cases:
        for n, k_lo, k_hi in ((0, 2000, 8000), (2, 500, 2000)):
            want = -(frame.delta.real + n + 2)
            slope = _fitted_slope(system, frame, n, k_lo, k_hi)
            if abs(slope - want) > 0.15:
                problems.append(f"{label} n={n}: slope {slope:.3f} "
                                f"want {want:.2f}")
    ok = not problems
    _report(7, "tail decay exponent -(delta+n+2)", ok, "; ".join(problems))
    assert ok, problems


# --------------------------------------------------------------------------
# criteria 8-9: error bounds and the integration oracle
# --------------------------------------------------------------------------

def test_criterion_08_error_bound_soundness(table1_runs, table4_runs):
    problems = []
    for n, res in table1_runs[0].items():
        if abs(res.theta - ELL_THETA_REF) > res.error_bound:
            problems.append(f"ell n={n}")
    for n, res in table4_runs[0].items():
        if abs(res.theta - SPH_THETA_REF) > res.error_bound:
            problems.append(f"sph n={n}")
    ok = not problems
    _report(8, "error bound covers true error", ok, "; ".join(problems))
    assert ok, problems


def test_criterion_09_oracle_agreement(ell_anchor_problem):
    rng = np.random.default_rng(20240811)
    worst_e = 0.0
    for _ in range(10):
        lam = float(rng.uniform(-10, 10))
        mu = float(rng.uniform(-10, 10))
        sys_ = ell.build_system(lam, mu, ell_anchor_problem)
        frame = ell.spectral_frame(ell_anchor_problem,
                                   ell.entries(lam, mu, ell_anchor_problem))
        got = ell.theta(lam, mu, ell_anchor_problem).theta
        worst_e = max(worst_e, abs(got - theta_oracle(sys_, frame)))
    worst_s = 0.0
    sprobs = [sph.SpheroidalProblem(mu=0, gamma2=4.0),
              sph.SpheroidalProblem(mu=1, gamma2=4.0),
              sph.SpheroidalProblem(mu=0, gamma2=-4.0)]
    for i in range(10):
        t = float(rng.uniform(-5, 60))
        problem = sprobs[i % 3]
        got = sph.theta_t(t, problem).theta
        ref = theta_oracle(sph.build_system(t, problem),
                           sph.spectral_frame(t, problem))
        worst_s = max(worst_s, abs(got - ref))
    ok = worst_e <= 1e-8 and worst_s <= 1e-8
    _report(9, "integration oracle, 10 random points each", ok,
            f"ell={worst_e:.2e} sph={worst_s:.2e}")
    assert ok, (worst_e, worst_s)


# --------------------------------------------------------------------------
# criterion 10: eigenfunction diagnostics
# --------------------------------------------------------------------------

def test_criterion_10_eigenfunction_diagnostics(prolate8):
    problems = []

    # spheroidal: parity labels and probe deviation, ODE residual
    sprob, eigs, _ = prolate8
    if [e.parity for e in eigs] != [1, -1, 1, -1, 1, -1, 1, -1]:
        problems.append("sph parity alternation")
    fn_s = sph.eigenfunction(eigs[2], sprob, np.linspace(-0.8, 0.8, 9))
    if fn_s.parity_deviation > 1e-6:
        problems.append(f"sph parity deviation {fn_s.parity_deviation:.2e}")
    lam2 = complex(eigs[2].lam).real
    h = 3e-4
    worst_s = 0.0
    for x in np.concatenate([-np.linspace(0.05, 0.9, 10),
                             np.linspace(0.05, 0.9, 10)]):
        grid = [x - 2 * h, x - h, x, x + h, x + 2 * h]
        f = np.asarray(sph.eigenfunction(eigs[2], sprob, grid).values,
                       dtype=float)
        w, wp = f[2], (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        wpp = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        res = (1 - x * x) * wpp - 2 * x * wp + (lam2 + 4.0 * (1 - x * x)) * w
        worst_s = max(worst_s, abs(res) / max(abs(w), abs(wp), 1.0))
    if worst_s > 1e-7:
        problems.append(f"sph ODE residual {worst_s:.2e}")

    # ellipsoidal: piece overlap, zero counts, ODE residual
    eprob = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE, rho=0, sigma=0, tau=1)
    zero_counts = {(0.25, -0.5): (0, 0), (0.964286, -3.0): (0, 1),
                   (3.25, -3.0): (1, 0)}
    for (lam0, mu0), counts in zero_counts.items():
        pair = ell.solve_pair(lam0 + 0.01, mu0 + 0.03, eprob,
                              opts=SolverOptions(tol_residual=1e-10))
        fn = ell.eigenfunction(pair, eprob)
        r1 = fn.radius1
        sup = max(abs(fn(float(z))) for z in np.linspace(0, fn.c, 501)[1:-1])
        overlap = max(
            [abs(fn.C0 * fn.piece0(z) - fn.C1 * fn.piece1(z))
             for z in np.linspace(1 - 0.9 * r1, 1 - 0.05 * r1, 7)]
            + [abs(fn.C2 * fn.piece2(z) - fn.C1 * fn.piece1(z))
               for z in np.linspace(1 + 0.05 * r1, 1 + 0.9 * r1, 7)])
        if overlap > 1e-8 * sup:
            problems.append(f"ell overlap {overlap:.2e} at lam={lam0}")
        za = np.linspace(1e-3, 1 - 1e-3, 2001)
        zb = np.linspace(1 + 1e-3, fn.c - 1e-3, 2001)
        va, vb = fn(za), fn(zb)
        ca = int(np.sum(np.sign(va[:-1]) * np.sign(va[1:]) < 0))
        cb = int(np.sum(np.sign(vb[:-1]) * np.sign(vb[1:]) < 0))
        if (ca, cb) != counts:
            problems.append(f"ell zeros ({ca},{cb}) want {counts} "
                            f"at lam={lam0}")
        e = ell.entries(pair.lam, pair.mu, eprob)
        worst_e = max(
            eigenfunction_ode_residual(fn, e, float(z))
            for z in np.linspace(0.04, fn.c - 0.04, 41)
            if min(abs(z), abs(z - 1), abs(fn.c - z)) > 0.03)
        if worst_e > 1e-7:
            problems.append(f"ell ODE residual {worst_e:.2e} at lam={lam0}")

    ok = not problems
    _report(10, "eigenfunction diagnostics", ok, "; ".join(problems))
    assert ok, problems

"""References computed apart from the program, and the check of each output.

References:

* Theta and Theta-hat: the DOP853 integration oracle of the test suite
  (``tests/_oracle.py``), imported as it is.  A certified value passes when
  |Theta - oracle| <= error_bound + ORACLE_RTOL * max(1, |oracle|).
* Spheroidal eigenvalues: the symmetric tridiagonal matrix of
  n(n+1) + gamma2 x^2 in normalized associated Legendre functions P_n^mu,
  one per parity, minus gamma2.  An eigenvalue passes when it lies within
  what the solver's |Theta| <= 1e-9 stop can promise, 2e-9 / |Theta'(t)|,
  with Theta' taken from the oracle.
* Spheroidal eigenfunctions: the Legendre expansion given by the same
  matrix's eigenvectors; shapes must agree up to one scale factor.
* Ellipsoidal eigenpairs and wave-number rows: the paper's tables.
* Ellipsoidal eigenfunctions: zero counts on (0, 1) and (1, c) and the
  weighted double integral under scipy's adaptive quadrature with the
  algebraic end-point weights, independent of `normalize`'s Gauss rule.

Each check returns a list of problems (empty when the output is right) or
raises `OperationFailed` when the operation itself did not succeed, such as
a Theta that stopped without a certificate.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from _oracle import theta_oracle
from conncoef import ellipsoidal as ell
from conncoef import spheroidal as sph

import workloads as wl

#: relative accuracy granted to the integration oracle (DOP853, rtol 1e-12,
#: amplified by solution growth along (0.05, 0.9))
ORACLE_RTOL = 1e-8
#: scan_grid's nodes serve seeding and carry no bound of their own; at its
#: tol 1e-8 some stop after ~25 steps, before the a posteriori bound holds,
#: so they are held to the oracle's sign and to this relative accuracy
GRID_RTOL = 1e-5
#: grid nodes compared with the oracle in each run
GRID_SAMPLE = 6
#: |Theta| target of `sph.eigenvalues`; the eigenvalue error it allows is
#: this over |Theta'|, doubled for curvature and the difference quotient
SPH_RESIDUAL = 1e-9
LEGENDRE_BASIS = 80
#: relative shape mismatch allowed between a spheroidal eigenfunction and
#: its Legendre expansion
SHAPE_RTOL = 1e-8
#: paper table: 6 decimals; wave rows: 4 decimals
TABLE_TOL = 1e-6
WAVE_TOL = 5e-5
INTEGRAL_TOL = 1e-8
#: zeros of the eigenfunction on (0, 1) and (1, c), by table pair
ZERO_COUNTS = {(0.25, -0.5): (0, 0), (0.964286, -3.0): (0, 1),
               (3.25, -3.0): (1, 0)}
ZERO_SAMPLES = 401


class OperationFailed(Exception):
    """The operation ran but did not deliver what it promises."""


# -- Theta -------------------------------------------------------------------

def ell_oracle(lam, mu, problem) -> complex:
    e = ell.entries(lam, mu, problem)
    return theta_oracle(ell.build_system(lam, mu, problem),
                        ell.spectral_frame(problem, e))


def ell_hat_oracle(lam, mu, problem) -> complex:
    return ell_oracle(*ell.hat_parameters(lam, mu, problem))


def sph_oracle(t, problem) -> complex:
    return theta_oracle(sph.build_system(t, problem),
                        sph.spectral_frame(t, problem))


def theta_error_ratio(result, oracle: complex) -> float:
    """|Theta - oracle| over what the certificate and the oracle allow."""
    allowed = result.error_bound + ORACLE_RTOL * max(1.0, abs(oracle))
    return abs(result.theta - oracle) / allowed


def check_theta(result, oracle: complex) -> list[str]:
    if result.status != "converged":
        raise OperationFailed(f"status {result.status}")
    if theta_error_ratio(result, oracle) <= 1.0:
        return []
    return [f"|Theta - oracle| = {abs(result.theta - oracle):.3e} exceeds "
            f"error_bound {result.error_bound:.3e} + oracle tolerance "
            f"(Theta = {result.theta}, oracle = {oracle})"]


def grid_reference(problem, lambda_range, mu_range, resolution, seed):
    """Oracle values at a seeded sample of grid nodes: (i, j, Theta, Theta^)."""
    rng = np.random.default_rng([seed, 1])
    lambdas = np.linspace(*lambda_range, resolution)
    mus = np.linspace(*mu_range, resolution)
    nodes = rng.choice(resolution * resolution, GRID_SAMPLE, replace=False)
    out = []
    for node in nodes:
        i, j = divmod(int(node), resolution)
        lam, mu = float(lambdas[i]), float(mus[j])
        out.append((i, j, ell_oracle(lam, mu, problem),
                    ell_hat_oracle(lam, mu, problem)))
    return out


def check_grid(grid, sample, table_pairs) -> list[str]:
    if not grid.all_converged:
        raise OperationFailed(f"grid status {set(grid.status.ravel())}")
    problems = []
    for i, j, ref, ref_hat in sample:
        for name, got, want in (("Theta", grid.theta[i, j], ref),
                                ("Theta^", grid.theta_hat[i, j], ref_hat)):
            want = want.real
            if not (abs(got - want) <= GRID_RTOL * max(1.0, abs(want))
                    and (got < 0) == (want < 0)):
                problems.append(f"grid node ({i}, {j}) {name} = {got}, "
                                f"oracle {want}")
    step_l = grid.lambdas[1] - grid.lambdas[0]
    step_m = grid.mus[1] - grid.mus[0]
    for lam, mu in table_pairs:
        if not any(abs(s[0] - lam) <= step_l and abs(s[1] - mu) <= step_m
                   for s in grid.seeds):
            problems.append(f"no grid seed next to the eigenpair ({lam}, {mu})")
    return problems


def check_big_theta(results) -> list[str]:
    """Certified intervals Theta_n +- error_bound_n must overlap pairwise."""
    for r in results:
        if r.status != "converged":
            raise OperationFailed(f"n={r.n} status {r.status}")
    for a in results:
        for b in results:
            gap = abs(a.theta - b.theta)
            if gap > a.error_bound + b.error_bound:
                raise OperationFailed(
                    f"n={a.n} and n={b.n} differ by {gap:.4g} but their "
                    f"bounds are {a.error_bound:.3g} and {b.error_bound:.3g}")
    return []


# -- spheroidal spectra ------------------------------------------------------

def legendre_spectrum(mu: int, gamma2: float, count: int,
                      basis: int = LEGENDRE_BASIS):
    """The lowest ``count`` (lam, parity, degrees, coefficients)."""
    def coupling(n):
        # x P^mu_n = coupling(n) P^mu_{n+1} + coupling(n-1) P^mu_{n-1},
        # in normalized associated Legendre functions
        return math.sqrt(((n + 1) ** 2 - mu * mu) / ((2 * n + 1) * (2 * n + 3)))

    out = []
    for parity_bit in (0, 1):
        ns = [mu + parity_bit + 2 * k for k in range(basis)]
        diag = [n * (n + 1) + gamma2 * ((coupling(n - 1) ** 2 if n > mu else 0)
                                        + coupling(n) ** 2) for n in ns]
        off = [gamma2 * coupling(n) * coupling(n + 1) for n in ns[:-1]]
        vals, vecs = eigh_tridiagonal(np.array(diag), np.array(off))
        out += [(float(v) - gamma2, 1 - 2 * parity_bit, ns, vecs[:, i])
                for i, v in enumerate(vals)]
    out.sort(key=lambda r: r[0])
    return out[:count]


def spectrum_reference(mu: int, gamma2: float, count: int):
    """Legendre eigenvalues with their tolerances: [(lam, parity, tol)]."""
    problem = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
    out = []
    h = 1e-4
    for lam, parity, _, _ in legendre_spectrum(mu, gamma2, count):
        t = lam - mu * (mu + 1)
        slope = (sph_oracle(t + h, problem) - sph_oracle(t - h, problem)).real
        slope /= 2 * h
        tol = 2 * SPH_RESIDUAL / abs(slope) + 1e-12 * (1 + abs(lam))
        out.append((lam, parity, tol))
    return out


def check_spectrum(got, reference) -> list[str]:
    """``got`` is [(index, lam, parity)]; parity must alternate from +1."""
    if len(got) != len(reference):
        return [f"{len(got)} eigenvalues, want {len(reference)}"]
    problems = []
    for i, ((index, lam, parity), (lam_ref, parity_ref, tol)) in enumerate(
            zip(got, reference)):
        if index != i:
            problems.append(f"index {index} at position {i}")
        if parity != parity_ref or parity != (-1) ** i:
            problems.append(f"N={i}: parity {parity}, want {parity_ref}")
        if not abs(lam - lam_ref) <= tol:
            problems.append(f"N={i}: lambda {lam!r}, Legendre {lam_ref!r} "
                            f"(tolerance {tol:.2e})")
    return problems


def eigenvalue_rows(eigs):
    return [(e.index, complex(e.lam).real, e.parity) for e in eigs]


def cli_rows(records):
    return [(r["index"], r["lambda"], r["parity"]) for r in records]


def check_cli(records, library) -> list[str]:
    """The command line's JSON must carry the library's exact result."""
    want = [{"index": e.index, "lambda": complex(e.lam).real, "t": e.t_root,
             "parity": e.parity, "residual": e.residual} for e in library]
    if records != want:
        return [f"CLI JSON {records} differs from the library's {want}"]
    return []


def eigenfunction_reference(mu: int, gamma2: float, index: int):
    lam, parity, ns, coefs = legendre_spectrum(mu, gamma2, index + 1)[index]
    if mu != 0:
        raise ValueError("Legendre eigenfunctions are built for mu = 0 only")
    series = np.zeros(max(ns) + 1)
    series[ns] = coefs * np.sqrt((2 * np.array(ns) + 1) / 2)
    return parity, series


def check_sph_eigenfunction(fn, x, reference) -> list[str]:
    parity, series = reference
    problems = []
    if fn.parity != parity:
        problems.append(f"eigenfunction parity {fn.parity}, want {parity}")
    w = np.asarray(fn.values, dtype=float)
    ref = legendre.legval(x, series)
    scale = float(w @ ref) / float(ref @ ref)
    mismatch = np.max(np.abs(w - scale * ref)) / np.max(np.abs(w))
    if not mismatch <= SHAPE_RTOL:
        problems.append(f"eigenfunction differs from its Legendre expansion "
                        f"by {mismatch:.2e} of its maximum")
    return problems


# -- ellipsoidal eigenpairs --------------------------------------------------

def check_pair(pair, reference) -> list[str]:
    lam, mu = reference
    if abs(pair.lam - lam) <= TABLE_TOL and abs(pair.mu - mu) <= TABLE_TOL:
        return []
    return [f"pair ({pair.lam!r}, {pair.mu!r}), table ({lam}, {mu})"]


def check_wave_row(pair, row) -> list[str]:
    k2, _, H, L = row
    H_got, L_got = 4 * pair.lam * k2, -4 * pair.mu * k2
    if abs(H_got - H) <= WAVE_TOL and abs(L_got - L) <= WAVE_TOL:
        return []
    return [f"(H, L) = ({H_got!r}, {L_got!r}), table ({H}, {L})"]


def zero_counts(fn) -> tuple[int, int]:
    counts = []
    for lo, hi in ((0.0, 1.0), (1.0, fn.c)):
        z = np.linspace(lo, hi, ZERO_SAMPLES + 2)[1:-1]
        s = np.sign(fn(z))
        counts.append(int(np.sum(s[:-1] * s[1:] < 0)))
    return counts[0], counts[1]


def weighted_integral(fn) -> float:
    """int_0^1 int_1^c (y-x) w(x)^2 w(y)^2 / sqrt(|phi(x) phi(y)|) dy dx.

    The double integral factors into one-dimensional moments; each is taken
    by QUADPACK's QAWS rule with the weight (z-a)^-1/2 (b-z)^-1/2.
    """
    c = fn.c

    def moment(power, lo, hi, far):
        value, _ = quad(lambda z: z ** power * fn(z) ** 2 / math.sqrt(far(z)),
                        lo, hi, weight="alg", wvar=(-0.5, -0.5),
                        epsabs=0.0, epsrel=1e-11, limit=200)
        return value

    left = [moment(p, 0.0, 1.0, lambda z: c - z) for p in (0, 1)]
    right = [moment(p, 1.0, c, lambda z: z) for p in (0, 1)]
    return left[0] * right[1] - left[1] * right[0]


def check_ell_eigenfunction(fn, expected_zeros) -> list[str]:
    problems = []
    zeros = zero_counts(fn)
    if zeros != expected_zeros:
        problems.append(f"zero counts {zeros}, want {expected_zeros}")
    integral = weighted_integral(fn)
    if not abs(integral - 1.0) <= INTEGRAL_TOL:
        problems.append(f"normalized integral {integral!r}, want 1")
    return problems


# -- dispatch ----------------------------------------------------------------

def reference(op: wl.Op, seed: int):
    """What the output of ``op`` is checked against."""
    kind, a = op.kind, op.args
    if kind == "theta":
        return ell_oracle(a[0], a[1], a[2])
    if kind == "theta_hat":
        return ell_hat_oracle(a[0], a[1], a[2])
    if kind == "theta_t":
        return sph_oracle(a[0], a[1])
    if kind == "scan_grid":
        return grid_reference(*a, seed)
    if kind == "eigenvalues":
        problem, count = a
        return spectrum_reference(int(problem.mu.real),
                                  float(problem.gamma2.real), count)
    if kind == "cli_eigen_sph":
        mu, gamma2, count = a
        library = sph.eigenvalues(
            sph.SpheroidalProblem(mu=float(mu), gamma2=float(gamma2)), count)
        return spectrum_reference(mu, gamma2, count), library
    if kind == "sph_eigenfunction":
        problem, index, _ = a
        return eigenfunction_reference(int(problem.mu.real),
                                       float(problem.gamma2.real), index)
    if kind in ("solve_pair", "wave_row"):
        return a[3]
    if kind == "ell_eigenfunction":
        return ZERO_COUNTS[a[3]]
    return None


def check(op: wl.Op, output, ref) -> list[str]:
    kind = op.kind
    if kind in ("theta", "theta_hat", "theta_t"):
        return check_theta(output, ref)
    if kind == "scan_grid":
        table = wl.TABLE[(op.args[0].rho, op.args[0].sigma, op.args[0].tau)]
        return check_grid(output, ref, table)
    if kind == "big_theta":
        return check_big_theta(output)
    if kind == "eigenvalues":
        return check_spectrum(eigenvalue_rows(output), ref)
    if kind == "cli_eigen_sph":
        spectrum, library = ref
        return (check_spectrum(cli_rows(output), spectrum)
                + check_cli(output, library))
    if kind == "sph_eigenfunction":
        return check_sph_eigenfunction(output, op.args[2], ref)
    if kind == "solve_pair":
        return check_pair(output, ref)
    if kind == "wave_row":
        return check_wave_row(output, ref)
    if kind == "ell_eigenfunction":
        return check_ell_eigenfunction(output, ref)
    raise ValueError(f"no check for operation kind {kind!r}")

"""Ellipsoidal (Lame) wave equation: connection coefficients and eigenpairs.

The scalar equation treated here is

    z(z-1)(z-c) w'' + (1/2)(3z^2 - 2(1+c)z + c) w' + (lam + mu*z + gamma*z^2) w = 0

with regular singular points 0, 1, c (c > 1) and two spectral parameters
(lam, mu).  Substituting y = (w', w)^T and scaling turns it into the 2x2
system handled by `conncoef.core` with

    A = [[-1/2, a12], [0, 0]],   a12 = lam,
    B = [[-1/2, b12], [0, 0]],   b12 = c (lam + mu + gamma) / (1 - c),
    G(z) = R/(z - c) - S/c,      R = [[-1/2, r12], [0, 0]],
                                 r12 = (lam + c mu + c^2 gamma) / (c - 1),
                                 S = [[0, 0], [1, 0]].

Eigenvalues of A and B are -rho/2 and (sigma-1)/2, -sigma/2 with the bit
choices rho, sigma in {0, 1} selecting the local behaviour of w at z=0 and
z=1 (and tau at z=c).  A pair (lam, mu) is an eigenvalue pair when the
connection coefficient Theta of the (0,1) problem and the coefficient
Theta-hat of the transformed (c,1) problem vanish simultaneously; the
transform is the Moebius map z -> (c-z)/(c-1), which swaps the roles of the
singular points and acts on the entries as

    a12^ = -r12,  b12^ = -b12,  r12^ = -a12,  c^ = c/(c-1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import roots_legendre

from .core import (SpectralFrame, ThetaResult, TwoPointSystem, _power_sum,
                   _real_guard, _real_part, build_shifted, mirrored_shifted,
                   prefix_sums, theta_iterate)
from .core import frobenius_step  # noqa: F401  (re-exported)
from .errors import (ConncoefError, ConsistencyError, InvalidExponent,
                     MatchFailure, NoConvergence, QuadratureNotConverged)
from .rootfind import SolverOptions, broyden2

__all__ = [
    "EllipsoidalProblem",
    "SystemEntries",
    "EigenPair",
    "ThetaGrid",
    "EllipsoidalEigenfunction",
    "entries",
    "hat_entries",
    "hat_parameters",
    "build_system",
    "spectral_frame",
    "theta",
    "theta_hat",
    "solve_pair",
    "scan_grid",
    "eigenfunction",
    "normalize",
    "from_abramov",
    "to_abramov",
    "build_heun_system",
]


@dataclass(frozen=True)
class EllipsoidalProblem:
    """Problem data: coefficient gamma, third singular point c, exponent bits.

    rho, sigma, tau in {0, 1} pick one of the eight spectral problems: bit 1
    selects the square-root branch of w at z = 0, 1, c respectively.
    """

    gamma: complex
    c: float
    rho: int = 0
    sigma: int = 0
    tau: int = 0

    def __post_init__(self):
        if not self.c > 1:
            raise ValueError("c must be a real number > 1")
        for name in ("rho", "sigma", "tau"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")

    @property
    def is_real(self) -> bool:
        return complex(self.gamma).imag == 0


@dataclass(frozen=True)
class SystemEntries:
    """Top-right entries of A, B and the residue matrix at c."""

    a12: complex
    b12: complex
    r12: complex


def entries(lam, mu, problem: EllipsoidalProblem) -> SystemEntries:
    """System entries for spectral parameters (lam, mu).

    a12 = lam, b12 = c(lam+mu+gamma)/(1-c), r12 = (lam + c*mu + c^2*gamma)/(c-1);
    they satisfy a12 + b12 + r12 = c*gamma identically, which is checked.

    Raises
    ------
    ValueError
        If lam or mu is not finite.
    ConsistencyError
        If the identity fails by more than 1e-12 of the largest entry.
    """
    c = problem.c
    g = problem.gamma
    if not (np.isfinite(complex(lam)) and np.isfinite(complex(mu))):
        raise ValueError(f"non-finite spectral parameters ({lam}, {mu})")
    e = _entries(lam, mu, g, c)
    total = e.a12 + e.b12 + e.r12
    scale = max(abs(e.a12), abs(e.b12), abs(e.r12), 1.0)
    if not abs(total - c * g) <= 1e-12 * scale:
        raise ConsistencyError(
            f"entry sum {total} differs from c*gamma = {c * g}")
    return e


def _entries(lam, mu, gamma, c) -> SystemEntries:
    """The entry formulas of `entries`, unchecked and for any pole c."""
    return SystemEntries(a12=complex(lam),
                         b12=c * (lam + mu + gamma) / (1 - c),
                         r12=(lam + c * mu + c * c * gamma) / (c - 1))


def hat_entries(e: SystemEntries, c: float) -> tuple[SystemEntries, float]:
    """Entries and pole of the transformed system: an involution.

    (a12, b12, r12; c) -> (-r12, -b12, -a12; c/(c-1)).
    """
    if not c > 1:
        raise ValueError("c must be > 1")
    return SystemEntries(a12=-e.r12, b12=-e.b12, r12=-e.a12), c / (c - 1)


def hat_parameters(lam, mu, problem: EllipsoidalProblem):
    """Spectral parameters and problem of the transformed equation.

    Returns (lam^, mu^, problem^) such that the transformed system's entries
    equal hat_entries of the original.  The exponent bits transform as
    (rho, sigma, tau) -> (tau, sigma, rho): the Moebius map z -> (c-z)/(c-1)
    swaps the singular points 0 and c and fixes 1.
    """
    e = entries(lam, mu, problem)
    eh, ch = hat_entries(e, problem.c)
    lam_h = eh.a12
    # invert the entry map at (ch, gamma^): the identity a12+b12+r12 = c*gamma
    # gives gamma directly, then b12 gives mu.
    gam_h = (eh.a12 + eh.b12 + eh.r12) / ch
    mu_h = eh.b12 * (1 - ch) / ch - lam_h - gam_h
    if problem.is_real and complex(lam).imag == 0 and complex(mu).imag == 0:
        lam_h, mu_h, gam_h = lam_h.real, mu_h.real, gam_h.real
    hat_prob = EllipsoidalProblem(gamma=gam_h, c=ch, rho=problem.tau,
                                  sigma=problem.sigma, tau=problem.rho)
    return lam_h, mu_h, hat_prob


def build_system(lam, mu, problem: EllipsoidalProblem) -> TwoPointSystem:
    """Rational-structure TwoPointSystem for the given parameters.

    This is `build_heun_system` at nu0 = nu1 = nu2 = 1/2, kappa = 0.
    """
    return build_heun_system(0.5, 0.5, 0.5, 0, problem.c, problem.gamma,
                             lam, mu)


def spectral_frame(problem: EllipsoidalProblem, e: SystemEntries) -> SpectralFrame:
    """Exponents and eigenvectors for the chosen (rho, sigma) bits.

    alpha0 = -rho/2 with a0 = (2 a12 (1-rho) + rho/2, 1-rho);
    beta1 = (sigma-1)/2 with b1 = (2 b12 sigma + (1-sigma)/2, sigma);
    beta2 = -sigma/2 with b2 = (2 b12 (1-sigma) + sigma/2, 1-sigma);
    delta = 1/2 - sigma.
    """
    rho, sigma = problem.rho, problem.sigma
    return SpectralFrame(
        alpha0=-rho / 2,
        a0=np.array([2 * e.a12 * (1 - rho) + rho / 2, 1 - rho], dtype=complex),
        beta1=(sigma - 1) / 2,
        beta2=-sigma / 2,
        b1=np.array([2 * e.b12 * sigma + (1 - sigma) / 2, sigma], dtype=complex),
        b2=np.array([2 * e.b12 * (1 - sigma) + sigma / 2, 1 - sigma], dtype=complex),
    )


def theta(lam, mu, problem: EllipsoidalProblem, n: int = 5, tol: float = 1e-10,
          k_max: int = 10 ** 6) -> ThetaResult:
    """Connection coefficient Theta(lam, mu) of the (0, 1) singular pair.

    Theta vanishes exactly when the chosen local solution at z=0 connects
    to the subdominant local solution at z=1.  Uses the rational-structure
    driver (one pole at c plus a constant term), so each recurrence step is
    O(1) work.  Raises ConsistencyError if a finite Theta from real
    parameters comes out with an imaginary part above 1e-10 * max(1, |Theta|).
    """
    sys_ = build_system(lam, mu, problem)
    frame = spectral_frame(problem, entries(lam, mu, problem))
    res = theta_iterate(sys_, frame, n=n, tol=tol, k_max=k_max)
    real_in = (problem.is_real and complex(lam).imag == 0
               and complex(mu).imag == 0)
    return _real_guard(res, real_in)


def theta_hat(lam, mu, problem: EllipsoidalProblem, n: int = 5,
              tol: float = 1e-10, k_max: int = 10 ** 6) -> ThetaResult:
    """Connection coefficient of the transformed (c, 1) singular pair.

    Equals `theta` of the hatted parameters with exponent bits
    (tau, sigma, rho); see `hat_parameters`.
    """
    lam_h, mu_h, hat_prob = hat_parameters(lam, mu, problem)
    return theta(lam_h, mu_h, hat_prob, n=n, tol=tol, k_max=k_max)


# --------------------------------------------------------------------------
# eigenpairs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenPair:
    """A solved (lam, mu) pair with residuals.

    ``iterations`` counts Theta/Theta-hat evaluations spent by the solver.
    """

    lam: float
    mu: float
    residual_theta: float
    residual_theta_hat: float
    iterations: int


def solve_pair(seed_lambda: float, seed_mu: float, problem: EllipsoidalProblem,
               opts: SolverOptions | None = None, n: int = 5,
               k_max: int = 50_000) -> EigenPair:
    """Solve Theta = Theta-hat = 0 by Broyden iteration from the seed.

    Theta evaluations run at tolerance opts.tol_residual / 10 so that
    evaluation noise stays below the residual target (default 1e-9).
    For steep problems (large |lam|, |mu|) the achievable residual bottoms
    out near |dTheta/dlam| * ulp(lam), which can lie far above any useful
    target: at the wave row k^2 = 0.9, omega^2 = 25, H = 141.0901 it is
    near 1e-2 (|dTheta/dlam| ~ 2e12).  There the solver stops once its
    quasi-Newton step is below opts.tol_step * (1 + |x|), and the returned
    residuals show the floor.  ``k_max`` caps the series length per
    evaluation; at wild trial points the absolute tolerance may be
    unreachable (the noise floor of the sum scales with |Theta|), and a
    capped partial sum is plenty for the solver's descent decisions.  Near
    a root a few hundred terms suffice.

    Raises
    ------
    NoConvergence
        After opts.max_iter Broyden iterations; the best iterate and its
        residuals ride on the exception (`best`, `residual`, `trace`).
    """
    opts = opts or SolverOptions()
    eval_tol = max(opts.tol_residual / 10.0, 1e-13)
    n_evals = 0

    def F(x):
        nonlocal n_evals
        n_evals += 2
        th = theta(x[0], x[1], problem, n=n, tol=eval_tol, k_max=k_max)
        thh = theta_hat(x[0], x[1], problem, n=n, tol=eval_tol, k_max=k_max)
        return [th.theta.real, thh.theta.real]

    root = broyden2(F, [seed_lambda, seed_mu], opts)
    f_final = F(root)
    return EigenPair(lam=float(root[0]), mu=float(root[1]),
                     residual_theta=abs(f_final[0]),
                     residual_theta_hat=abs(f_final[1]),
                     iterations=n_evals)


@dataclass(frozen=True)
class ThetaGrid:
    """Row-major (lam x mu) grid of Theta and Theta-hat samples.

    ``status`` holds per-node strings ("converged", "k_max_reached",
    "error"); failures are recorded in place, never raised.  ``seeds`` lists
    cell centers where both Theta and Theta-hat change sign along some edge
    of the cell — starting points for `solve_pair`.
    """

    lambdas: np.ndarray
    mus: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray
    status: np.ndarray
    seeds: list

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.status == "converged"))


def scan_grid(problem: EllipsoidalProblem, lambda_range, mu_range,
              resolution, n: int = 5, tol: float = 1e-8,
              k_max: int = 50_000) -> ThetaGrid:
    """Evaluate Theta and Theta-hat on a rectangular (lam, mu) grid.

    resolution may be an int (both axes) or a pair (n_lambda, n_mu), each
    >= 2.  Node failures (`ConncoefError` or `ArithmeticError`) are recorded
    in the grid status and the values set to NaN; any other error
    propagates.  The modest k_max default keeps nodes far from any
    eigencurve cheap; only sign changes matter for seeding.

    Raises
    ------
    ValueError
        If resolution < 2 on an axis, n is not an integer >= 0, tol is not a
        real number >= 0, or k_max is not an integer >= 1.
    """
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if not (isinstance(tol, numbers.Real) and tol >= 0):
        raise ValueError(f"tol must be a real number >= 0, got {tol!r}")
    if not (isinstance(k_max, numbers.Integral) and k_max >= 1):
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    if np.isscalar(resolution):
        res_l = res_m = int(resolution)
    else:
        res_l, res_m = (int(r) for r in resolution)
    if res_l < 2 or res_m < 2:
        raise ValueError("resolution must be >= 2 per axis")
    lambdas = np.linspace(float(lambda_range[0]), float(lambda_range[1]), res_l)
    mus = np.linspace(float(mu_range[0]), float(mu_range[1]), res_m)
    th = np.full((res_l, res_m), np.nan)
    thh = np.full((res_l, res_m), np.nan)
    status = np.full((res_l, res_m), "error", dtype=object)
    for i, lam in enumerate(lambdas):
        for j, mu in enumerate(mus):
            try:
                r1 = theta(lam, mu, problem, n=n, tol=tol, k_max=k_max)
                r2 = theta_hat(lam, mu, problem, n=n, tol=tol, k_max=k_max)
                th[i, j] = r1.theta.real
                thh[i, j] = r2.theta.real
                if r1.status == "converged" and r2.status == "converged":
                    status[i, j] = "converged"
                else:
                    status[i, j] = "k_max_reached"
            except (ConncoefError, ArithmeticError):
                pass  # node failure stays local
    seeds = _seed_cells(lambdas, mus, th, thh)
    return ThetaGrid(lambdas=lambdas, mus=mus, theta=th, theta_hat=thh,
                     status=status, seeds=seeds)


def _sign_change(a: float, b: float) -> bool:
    if not (np.isfinite(a) and np.isfinite(b)):
        return False
    return a == 0 or b == 0 or (a < 0) != (b < 0)


def _cell_crossing(v: np.ndarray, i: int, j: int) -> bool:
    # any of the 4 edges of cell (i, j)-(i+1, j+1)
    return (_sign_change(v[i, j], v[i + 1, j])
            or _sign_change(v[i, j], v[i, j + 1])
            or _sign_change(v[i + 1, j], v[i + 1, j + 1])
            or _sign_change(v[i, j + 1], v[i + 1, j + 1]))


def _seed_cells(lambdas, mus, th, thh) -> list:
    seeds = []
    for i in range(len(lambdas) - 1):
        for j in range(len(mus) - 1):
            if _cell_crossing(th, i, j) and _cell_crossing(thh, i, j):
                seeds.append(((lambdas[i] + lambdas[i + 1]) / 2,
                              (mus[j] + mus[j + 1]) / 2))
    return seeds


# --------------------------------------------------------------------------
# eigenfunctions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipsoidalEigenfunction:
    """Piecewise-series eigenfunction on (0, c).

    Three local series cover the domain:

        piece 0 (disk |z| < 1):       |z|**(-rho/2) |1-z|**((1+sigma)/2) * S0(z)
        piece 1 (disk |1-z| < r1):    |z|**(-rho/2) |1-z|**(-sigma/2)   * S1(1-z)
        piece 2 (disk |c-z| < c-1):   |zh|**(-tau/2) |1-zh|**((1+sigma)/2) * S2(zh),
                                      zh = (c-z)/(c-1),

    with r1 = min(1, c-1).  Prefactors use magnitudes, so every piece is
    real-valued on its interval; the matching constants C0, C1, C2 glue the
    pieces so values agree on overlaps.  (Squares of w, which drive the
    normalization integral, are insensitive to the sign convention that links
    the two sides of the singular point z=1.)

    Attributes
    ----------
    coef0, coef1, coef2 : float ndarray
        Series coefficients of S0, S1, S2 (prefix sums of the second
        recurrence component).
    C0, C1, C2 : float
        Matching constants; C1 = 1 until normalized.
    rho, sigma, tau : int
        Exponent bits.
    c : float
        Third singular point.
    lam, mu, gamma : float
        The spectral parameters and coefficient the series were built from.
    """

    coef0: np.ndarray
    coef1: np.ndarray
    coef2: np.ndarray
    C0: float
    C1: float
    C2: float
    rho: int
    sigma: int
    tau: int
    c: float
    lam: float
    mu: float
    gamma: float

    @property
    def radius1(self) -> float:
        """Convergence radius of the piece-1 series."""
        return min(1.0, self.c - 1.0)

    # -- raw pieces (no matching constants) --------------------------------

    def piece0(self, z: float) -> float:
        if z == 0.0:
            return self.coef0[0] if self.rho == 0 else 0.0
        pref = abs(z) ** (-self.rho / 2) * abs(1 - z) ** ((1 + self.sigma) / 2)
        return pref * _power_sum(self.coef0, z)

    def piece1(self, z: float) -> float:
        x = 1.0 - z
        if x == 0.0:
            return self.coef1[0] if self.sigma == 0 else 0.0
        pref = abs(z) ** (-self.rho / 2) * abs(x) ** (-self.sigma / 2)
        return pref * _power_sum(self.coef1, x)

    def piece2(self, z: float) -> float:
        zh = (self.c - z) / (self.c - 1)
        if zh == 0.0:
            return self.coef2[0] if self.tau == 0 else 0.0
        pref = abs(zh) ** (-self.tau / 2) * abs(1 - zh) ** ((1 + self.sigma) / 2)
        return pref * _power_sum(self.coef2, zh)

    # -- public evaluation --------------------------------------------------

    def __call__(self, z):
        """Evaluate w at z (scalar or array) inside [0, c]."""
        if np.ndim(z) > 0:
            return np.array([self(float(zz)) for zz in np.asarray(z).ravel()]
                            ).reshape(np.shape(z))
        z = float(z)
        if z < 0 or z > self.c:
            raise ValueError(f"z = {z} outside the domain [0, {self.c}]")
        r1 = self.radius1
        if z <= 1.0:
            q0, q1 = abs(z), abs(1 - z) / r1
            if q1 < min(q0, 0.95):
                return self.C1 * self.piece1(z)
            return self.C0 * self.piece0(z)
        q2 = (self.c - z) / (self.c - 1)
        q1 = (z - 1) / r1
        if q1 < min(q2, 0.95):
            return self.C1 * self.piece1(z)
        return self.C2 * self.piece2(z)


def _second_components(system: TwoPointSystem, frame: SpectralFrame,
                       n_terms: int, mirrored: bool) -> np.ndarray:
    """Prefix-sum second components <d_k, e2> for k = 0..n_terms-1.

    Raises ConsistencyError if the start value of the series is not real.
    """
    if mirrored:
        d = prefix_sums(mirrored_shifted(system, frame), frame.b2, n_terms)
    else:
        d = prefix_sums(build_shifted(system, frame), frame.a0, n_terms)
    _real_part(d[0, 1], "series start value")
    return d[:, 1].real.copy()


def eigenfunction(pair, problem: EllipsoidalProblem,
                  n_terms: int = 2000) -> EllipsoidalEigenfunction:
    """Build the matched piecewise eigenfunction for an eigenpair.

    ``pair`` is an `EigenPair` or a plain (lam, mu) tuple whose residuals
    max(|Theta|, |Theta-hat|) must not exceed 1e-6 (checked).  Matching uses
    C1 = 1 and fixes C0 at z = 1/2 (or 1 - r1/2 when the default lies outside
    a convergence disk) and C2 at z = (1+c)/2 (or 1 + r1/2), with r1 =
    min(1, c-1).

    Raises
    ------
    MatchFailure
        If no usable matching abscissa is found (both pieces ~ 0 at every
        candidate).
    ValueError
        If the residual precondition fails or the problem is not real.
    """
    if not problem.is_real:
        raise ValueError("eigenfunctions are built for real problems only")
    if isinstance(pair, EigenPair):
        lam, mu = pair.lam, pair.mu
    else:
        lam, mu = float(pair[0]), float(pair[1])

    res_t = theta(lam, mu, problem, tol=1e-8)
    res_h = theta_hat(lam, mu, problem, tol=1e-8)
    worst = max(abs(res_t.theta), abs(res_h.theta))
    if not worst <= 1e-6:
        raise ValueError(
            f"(lam, mu) = ({lam}, {mu}) is not an eigenpair: residual "
            f"{worst:.2e} > 1e-6")

    sys_ = build_system(lam, mu, problem)
    frame = spectral_frame(problem, entries(lam, mu, problem))
    coef0 = _second_components(sys_, frame, n_terms, mirrored=False)
    coef1 = _second_components(sys_, frame, n_terms, mirrored=True)

    lam_h, mu_h, hat_prob = hat_parameters(lam, mu, problem)
    sys_h = build_system(lam_h, mu_h, hat_prob)
    frame_h = spectral_frame(hat_prob, entries(lam_h, mu_h, hat_prob))
    coef2 = _second_components(sys_h, frame_h, n_terms, mirrored=False)

    fn = EllipsoidalEigenfunction(
        coef0=coef0, coef1=coef1, coef2=coef2, C0=1.0, C1=1.0, C2=1.0,
        rho=problem.rho, sigma=problem.sigma, tau=problem.tau, c=problem.c,
        lam=lam, mu=mu, gamma=float(problem.gamma.real
                                    if isinstance(problem.gamma, complex)
                                    else problem.gamma))

    r1 = fn.radius1
    c = problem.c
    # C0: match piece0 against piece1 left of z=1
    za_candidates = [0.5, 1 - r1 / 2, 1 - r1 / 3, 1 - 2 * r1 / 3]
    za_candidates = [z for z in za_candidates
                     if 0 < z < 1 and abs(1 - z) < 0.97 * r1 and abs(z) < 0.97]
    C0 = _match_constant(fn.piece1, fn.piece0, za_candidates)
    # C2: match piece2 against piece1 right of z=1
    zb_candidates = [(1 + c) / 2, 1 + r1 / 2, 1 + r1 / 3, 1 + 2 * r1 / 3]
    zb_candidates = [z for z in zb_candidates
                     if 1 < z < c and abs(z - 1) < 0.97 * r1]
    C2 = _match_constant(fn.piece1, fn.piece2, zb_candidates)
    return replace(fn, C0=C0, C2=C2)


def _match_constant(ref_piece, new_piece, candidates) -> float:
    """Constant C with C * new_piece = ref_piece at the first usable abscissa."""
    if not candidates:
        raise MatchFailure("no matching abscissa inside both convergence disks")
    vals = [(z, ref_piece(z), new_piece(z)) for z in candidates]
    scale = max(max(abs(r), abs(w)) for _, r, w in vals)
    if scale == 0:
        raise MatchFailure("eigenfunction pieces vanish at every matching "
                           "abscissa")
    for _, r, w in vals:
        if abs(r) > 1e-8 * scale and abs(w) > 1e-8 * scale:
            return r / w
    raise MatchFailure("pieces have no common nonvanishing matching abscissa")


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------

def _weighted_moments(fn: EllipsoidalEigenfunction, interval: str,
                      n_nodes: int) -> tuple[float, float]:
    """(m0, m1) with m_p = integral of z^p w(z)^2 / sqrt(|phi(z)|) dz.

    phi(z) = z(1-z)(c-z).  The substitution z = a + (b-a) sin^2(theta)
    absorbs the endpoint singularities of the interval (a, b); the remaining
    distance-to-far-singular-point factor stays smooth.
    """
    c = fn.c
    t, wgt = roots_legendre(n_nodes)
    th = (t + 1) * (math.pi / 4)        # map to (0, pi/2)
    wgt = wgt * (math.pi / 4)
    s2 = np.sin(th) ** 2
    if interval == "left":              # (0, 1): |phi| = z(1-z)(c-z)
        z = s2
        rest = np.sqrt(c - z)
    else:                               # (1, c): |phi| = z(z-1)(c-z)
        z = 1 + (c - 1) * s2
        rest = np.sqrt(z)
    w2 = np.array([fn(float(zz)) ** 2 for zz in z])
    base = 2.0 * w2 / rest
    m0 = float(np.sum(wgt * base))
    m1 = float(np.sum(wgt * base * z))
    return m0, m1


def _norm_integral(fn: EllipsoidalEigenfunction, n_nodes: int) -> float:
    """Double integral of (y-x) w(x)^2 w(y)^2 / sqrt(|phi(x) phi(y)|)."""
    p0, p1 = _weighted_moments(fn, "left", n_nodes)
    q0, q1 = _weighted_moments(fn, "right", n_nodes)
    return p0 * q1 - p1 * q0


def normalize(fn: EllipsoidalEigenfunction,
              mode: str = "sup") -> EllipsoidalEigenfunction:
    """Return a rescaled copy of the eigenfunction.

    mode="sup": max |w| over a 2001-point sample of (0, c) becomes 1.
    mode="integral": the weighted double integral

        int_0^1 int_1^c (y-x) w(x)^2 w(y)^2 / sqrt(|phi(x) phi(y)|) dy dx

    becomes 1 (phi(z) = z(1-z)(c-z)).  The integral scales with the 4th
    power of w, so the factor applied is I**(-1/4).  64-point tensor
    Gauss-Legendre after a sin^2 substitution per axis, with a 128-point
    refinement check.

    Raises
    ------
    QuadratureNotConverged
        If the 64- vs 128-point values disagree by more than 1e-5 relative,
        or the integral is not positive.
    """
    if mode == "sup":
        zs = np.linspace(0.0, fn.c, 2003)[1:-1]
        peak = max(abs(fn(float(z))) for z in zs)
        if peak == 0:
            raise ValueError("cannot sup-normalize the zero function")
        s = 1.0 / peak
    elif mode == "integral":
        i64 = _norm_integral(fn, 64)
        i128 = _norm_integral(fn, 128)
        if not (i128 > 0 and i64 > 0):
            raise QuadratureNotConverged(
                f"weighted integral not positive (64: {i64:.3e}, 128: {i128:.3e})")
        rel = abs(i128 - i64) / abs(i128)
        if rel > 1e-5:
            raise QuadratureNotConverged(
                f"quadrature refinement moved the integral by {rel:.2e}")
        s = i128 ** -0.25
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    return replace(fn, C0=fn.C0 * s, C1=fn.C1 * s, C2=fn.C2 * s)


# --------------------------------------------------------------------------
# alternate parameter conventions and the generalized constructor
# --------------------------------------------------------------------------

def from_abramov(k2: float, omega2: float, H: float, L: float):
    """Map wave numbers (k^2, omega^2, H, L) to (gamma, c, lam, mu).

    c = 1/k^2, gamma = omega^2/4, lam = H/(4 k^2), mu = -L/(4 k^2).
    Requires 0 < k^2 < 1 (so that c > 1).
    """
    if not 0 < k2 < 1:
        raise ValueError("k2 must lie in (0, 1)")
    c = 1.0 / k2
    return omega2 / 4.0, c, H * c / 4.0, -L * c / 4.0


def to_abramov(gamma: float, c: float, lam: float, mu: float):
    """Inverse of `from_abramov`: returns (k2, omega2, H, L)."""
    if not c > 1:
        raise ValueError("c must be > 1")
    return 1.0 / c, 4.0 * gamma, 4.0 * lam / c, -4.0 * mu / c


def build_heun_system(nu0, nu1, nu2, kappa, c, gamma, lam, mu) -> TwoPointSystem:
    """System for the generalized Heun equation with exponent parameters nu_j.

    The residue matrices carry (nu_j - 1) in the top-left slot at z = 0, 1, c
    and the constant term is -(1/c) [[kappa*c, 0], [1, 0]]; the off-diagonal
    entries are the same (lam, mu, gamma, c) combinations as in the
    ellipsoidal case.  `build_system` is the case nu0 = nu1 = nu2 = 1/2,
    kappa = 0.

    Raises
    ------
    InvalidExponent
        If some nu_j = 1 or Re(nu_j) <= 0 (outside the supported region), or
        c in {0, 1}.
    """
    if c in (0, 1):
        raise InvalidExponent("c must avoid the other singular points 0 and 1")
    for name, nu in (("nu0", nu0), ("nu1", nu1), ("nu2", nu2)):
        nu = complex(nu)
        if nu == 1 or nu.real <= 0:
            raise InvalidExponent(
                f"{name} = {nu} outside the supported region (nu != 1, Re(nu) > 0)")
    e = _entries(lam, mu, gamma, c)
    A = np.array([[nu0 - 1, e.a12], [0.0, 0.0]], dtype=complex)
    B = np.array([[nu1 - 1, e.b12], [0.0, 0.0]], dtype=complex)
    R = np.array([[nu2 - 1, e.r12], [0.0, 0.0]], dtype=complex)
    const = np.array([[-kappa, 0.0], [-1.0 / c, 0.0]], dtype=complex)
    return TwoPointSystem.from_rational(A, B, const=const, poles=(c,),
                                        residues=(R,))

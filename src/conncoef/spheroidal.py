"""Spheroidal wave equation: Theta(t), eigenvalues and eigenfunctions.

The equation

    d/dx[(1-x^2) w'(x)] + (lam + gamma2*(1-x^2) - mu^2/(1-x^2)) w(x) = 0

on (-1, 1) maps, via x = 2z - 1 and y = (2w' + mu(2z-1)/(2z(1-z)) w, w)^T,
to the 2x2 system handled by `conncoef.core` with

    A = [[-mu/2-1, -t], [0, mu/2]],   B = [[-mu/2-1, t], [0, mu/2]],
    G(z) = [[0, -4*gamma2], [1, 0]]   (constant),

where t = lam - mu(mu+1).  Eigenvalues are lam_N = t_N + mu(mu+1) at the
zeros t_N of the connection coefficient Theta(t), an entire function of t.
Bounded eigenfunctions come back out of the same series coefficients:

    w(x) = ((1+x)/(1-x))**(mu/2) * sum_k (e2^T d_k / 2^k) (1+x)^k
         = Omega * ((1-x)/(1+x))**(mu/2) * sum_k (e2^T d_k / 2^k) (1-x)^k

with parity Omega in {+1, -1}; the second (reflected) form is used for
x > 0, where it converges much faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (SpectralFrame, ThetaResult, TwoPointSystem, _power_sum,
                   _real_guard, _real_part, build_shifted, prefix_sums,
                   theta_iterate)
from .core import frobenius_step  # noqa: F401  (re-exported)
from .errors import ParityAmbiguous, ScanExhausted
from .rootfind import SolverOptions, bracket_scan, secant

__all__ = [
    "SpheroidalProblem",
    "SpheroidalEigenvalue",
    "SpheroidalEigenfunction",
    "build_system",
    "spectral_frame",
    "theta_t",
    "eigenvalues",
    "eigenfunction",
]


@dataclass(frozen=True)
class SpheroidalProblem:
    """Order mu and coupling gamma2 = gamma^2 (prolate > 0, oblate < 0).

    Requires mu = 0 or Re(mu) > 0.
    """

    mu: complex
    gamma2: complex

    def __post_init__(self):
        mu = complex(self.mu)
        if mu != 0 and not mu.real > 0:
            raise ValueError("mu must be 0 or have Re(mu) > 0")

    @property
    def is_real(self) -> bool:
        return complex(self.mu).imag == 0 and complex(self.gamma2).imag == 0


def build_system(t, problem: SpheroidalProblem) -> TwoPointSystem:
    """Constant-tail TwoPointSystem for spectral parameter t = lam - mu(mu+1)."""
    mu = complex(problem.mu)
    t = complex(t)
    A = np.array([[-mu / 2 - 1, -t], [0.0, mu / 2]])
    B = np.array([[-mu / 2 - 1, t], [0.0, mu / 2]])
    G0 = np.array([[0.0, -4 * complex(problem.gamma2)], [1.0, 0.0]])
    return TwoPointSystem.from_rational(A, B, const=G0)


def spectral_frame(t, problem: SpheroidalProblem) -> SpectralFrame:
    """Frame with alpha0 = mu/2, beta1 = -mu/2-1, beta2 = mu/2, delta = mu+1."""
    mu = complex(problem.mu)
    t = complex(t)
    return SpectralFrame(
        alpha0=mu / 2,
        a0=np.array([-t / (mu + 1), 1.0]),
        beta1=-mu / 2 - 1,
        beta2=mu / 2,
        b1=np.array([1.0, 0.0]),
        b2=np.array([t / (mu + 1), 1.0]),
    )


def theta_t(t, problem: SpheroidalProblem, n: int = 5, tol: float = 1e-10,
            k_max: int = 10 ** 6) -> ThetaResult:
    """Connection coefficient Theta(t); zeros give the eigenvalues.

    Raises ConsistencyError if a finite Theta from real parameters comes out
    with an imaginary part above 1e-10 * max(1, |Theta|).
    """
    res = theta_iterate(build_system(t, problem), spectral_frame(t, problem),
                        n=n, tol=tol, k_max=k_max)
    return _real_guard(res, problem.is_real and complex(t).imag == 0)


# --------------------------------------------------------------------------
# eigenvalues
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpheroidalEigenvalue:
    """One eigenvalue lam = t_root + mu(mu+1) with parity and residual."""

    index: int
    t_root: float
    lam: complex
    parity: int
    residual: float


_SCAN_STEP = 0.5


def eigenvalues(problem: SpheroidalProblem, count: int, t_scan_range=None,
                n: int = 5, tol: float = 1e-9,
                k_max: int = 10 ** 6) -> list[SpheroidalEigenvalue]:
    """The lowest ``count`` eigenvalues, in increasing order of t.

    A sign scan of Theta(t) with step 0.5 brackets the roots; each bracket is
    polished by the secant method to |Theta| <= tol (at most 60 iterations,
    step cutoff 1e-13*(1+|t|)).  Scan samples only need reliable signs, so
    they run at the loose tolerance 1e-6; Theta evaluations inside the
    secant solver run at min(tol, 1e-9)/100 so evaluation noise stays below
    the target.

    t_scan_range defaults to [-2|gamma2|-2, upper] with the upper end grown
    automatically until enough sign changes appear.  An explicit range is
    extended once by doubling its span; if sign changes are still missing,
    ScanExhausted is raised.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    eval_tol = min(tol, 1e-9) / 100.0
    scan_tol = max(1e-6, eval_tol)

    def f(t: float) -> float:
        return theta_t(t, problem, n=n, tol=eval_tol, k_max=k_max).theta.real

    def f_scan(t: float) -> float:
        return theta_t(t, problem, n=n, tol=scan_tol, k_max=k_max).theta.real

    g2 = abs(complex(problem.gamma2))
    if t_scan_range is None:
        lo = -2.0 * g2 - 2.0
        hi = lo + max(8.0, 2.0 * count)
        brackets = bracket_scan(f_scan, lo, hi, _SCAN_STEP)
        grown = 0
        while len(brackets) < count:
            grown += 1
            if grown > 64:
                raise ScanExhausted(
                    f"only {len(brackets)} sign changes up to t = {hi}")
            new_hi = hi + max(8.0, hi - lo)
            brackets += bracket_scan(f_scan, hi, new_hi, _SCAN_STEP)
            hi = new_hi
    else:
        lo, hi = float(t_scan_range[0]), float(t_scan_range[1])
        brackets = bracket_scan(f_scan, lo, hi, _SCAN_STEP)
        if len(brackets) < count:
            # one automatic 2x extension, then give up
            brackets += bracket_scan(f_scan, hi, lo + 2 * (hi - lo), _SCAN_STEP)
            if len(brackets) < count:
                raise ScanExhausted(
                    f"found {len(brackets)} sign changes in the (extended) "
                    f"scan range, need {count}")

    opts = SolverOptions(tol_residual=tol, tol_step=1e-13, max_iter=60)
    roots: list[float] = []
    for a, b in brackets:
        if len(roots) == count:
            break
        r = secant(f, a, b, opts)
        if any(abs(r - r0) <= 1e-8 * (1 + abs(r)) for r0 in roots):
            continue
        roots.append(float(r))
    if len(roots) < count:
        raise ScanExhausted(
            f"brackets collapsed to {len(roots)} distinct roots, need {count}")
    roots.sort()

    mu = complex(problem.mu)
    out = []
    for i, r in enumerate(roots):
        coefs = _coefficient_sequence(r, problem)
        parity, _ = _parity_probe(coefs, mu)
        res = abs(theta_t(r, problem, n=n, tol=eval_tol, k_max=k_max).theta)
        lam = r + mu * (mu + 1)
        if problem.is_real:
            lam = lam.real
        out.append(SpheroidalEigenvalue(index=i, t_root=r, lam=lam,
                                        parity=parity, residual=res))
    return out


# --------------------------------------------------------------------------
# eigenfunctions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpheroidalEigenfunction:
    """Sampled eigenfunction values with the detected parity.

    parity_deviation is the relative mismatch of w(x0) against
    parity * w(-x0) at the probe abscissa.
    """

    x: np.ndarray
    values: np.ndarray
    parity: int
    parity_deviation: float


def _coefficient_sequence(t, problem: SpheroidalProblem,
                          n_terms: int = 2000) -> np.ndarray:
    """Series coefficients e2^T d_k / 2^k of the bounded solution."""
    sys_ = build_system(t, problem)
    frame = spectral_frame(t, problem)
    d = prefix_sums(build_shifted(sys_, frame), frame.a0, n_terms)
    return d[:, 1] * np.ldexp(1.0, -np.arange(n_terms))


def _w_direct(coefs: np.ndarray, mu: complex, x: float) -> complex:
    if not -1 < x < 1:
        raise ValueError(f"x = {x} outside (-1, 1)")
    pref = ((1 + x) / (1 - x)) ** (mu / 2)
    return pref * _power_sum(coefs, 1.0 + x)


def _parity_probe(coefs: np.ndarray, mu: complex) -> tuple[int, float]:
    """Parity Omega and relative deviation, probing x0 = 0.3 then 0.55."""
    for x0 in (0.3, 0.55):
        wp = _w_direct(coefs, mu, x0)
        wm = _w_direct(coefs, mu, -x0)
        scale = max(abs(wp), abs(wm))
        if scale < 1e-10:
            continue
        even = abs(wp - wm)
        odd = abs(wp + wm)
        parity = 1 if even <= odd else -1
        return parity, min(even, odd) / scale
    raise ParityAmbiguous(
        "w vanishes at both parity probes x0 = 0.3 and x0 = 0.55")


def eigenfunction(eig: SpheroidalEigenvalue, problem: SpheroidalProblem,
                  x_samples, n_terms: int = 2000) -> SpheroidalEigenfunction:
    """Evaluate the eigenfunction at x_samples (all inside (-1, 1)).

    The series is summed with adaptive truncation; for x > 0 the reflected
    form Omega * w(-x) is used (its series argument 1-x stays below 1, so
    it converges geometrically where the direct form would crawl).

    Requires eig.residual <= 1e-8.  Raises ParityAmbiguous if the parity
    probe fails at both x0 = 0.3 and x0 = 0.55, and ConsistencyError if the
    values of a real problem come out complex.
    """
    if not eig.residual <= 1e-8:
        raise ValueError(
            f"residual {eig.residual:.2e} > 1e-8; refine the eigenvalue first")
    x = np.atleast_1d(np.asarray(x_samples, dtype=float))
    if np.any(x <= -1) or np.any(x >= 1):
        raise ValueError("all samples must lie strictly inside (-1, 1)")

    mu = complex(problem.mu)
    coefs = _coefficient_sequence(eig.t_root, problem, n_terms)
    parity, deviation = _parity_probe(coefs, mu)

    vals = np.empty(len(x), dtype=complex)
    for i, xi in enumerate(x):
        if xi <= 0:
            vals[i] = _w_direct(coefs, mu, float(xi))
        else:
            vals[i] = parity * _w_direct(coefs, mu, -float(xi))
    if problem.is_real:
        vals = _real_part(vals, "eigenfunction values")
    return SpheroidalEigenfunction(x=x, values=vals, parity=parity,
                                   parity_deviation=float(deviation))

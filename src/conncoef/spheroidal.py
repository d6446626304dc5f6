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

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (_SERIES_TERMS, SpectralFrame, ThetaKernel, ThetaResult,
                   TwoPointSystem, _power_sum, _steps, theta_iterate,
                   theta_kernel)
from .core import frobenius_step  # noqa: F401  (re-exported)
from .errors import ParityAmbiguous, ScanExhausted
from .rootfind import SolverOptions, _scan_brackets, secant

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


def _kernel(t, problem: SpheroidalProblem) -> ThetaKernel:
    """`build_system` and `spectral_frame` in closed form, as the kernel's
    description.

    Their frame is exact by construction, so it is not checked.  Each
    scalar comes out of the same operations as the array path: A0 = A -
    alpha0*I, A1 + I = B - beta1*I, and the mirrored side B - beta2*I and
    A - (alpha0 - 1)*I with -C; here A[0, 0] = B[0, 0] = beta1 and
    A[1, 1] = B[1, 1] = alpha0 = beta2.
    """
    mu = complex(problem.mu)
    t = complex(t)
    g = -4 * complex(problem.gamma2)
    alpha0 = mu / 2
    beta1 = -mu / 2 - 1
    a11 = beta1 - alpha0
    main = (a11, -t, 0.0, 0.0,
            beta1 - (beta1 + 1) + 1, t, 0.0, alpha0 - (beta1 + 1) + 1,
            0.0, g, 1.0, 0.0)
    mirror = (a11, t, 0.0, 0.0, a11 + 1, -t, 0.0, 1.0, 0.0, -g, -1.0, 0.0)
    return theta_kernel(main, mirror, (-t / (mu + 1), 1.0), (1.0, 0.0),
                        (t / (mu + 1), 1.0), alpha0 - beta1)


def theta_t(t, problem: SpheroidalProblem, n: int = 5, tol: float = 1e-10,
            k_max: int = 10 ** 6) -> ThetaResult:
    """Connection coefficient Theta(t); zeros give the eigenvalues.

    Runs `theta_iterate` on the closed-form kernel of `build_system` and
    `spectral_frame`; the values are those of the system and frame, bit
    for bit.
    """
    return theta_iterate(_kernel(t, problem), None, n=n, tol=tol, k_max=k_max)


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

    A sign scan of Theta(t) with step 0.5, in increasing t, brackets the
    roots; each bracket is polished as soon as it is found, by the secant
    method to |Theta| <= tol (at most 60 iterations, step cutoff
    1e-13*(1+|t|)).  The scan stops at the sign change that brackets the
    count-th distinct root: samples past it are never evaluated, so a NaN
    or an error there is not seen.  Scan samples only need reliable signs,
    so they run at the loose tolerance 1e-6; Theta evaluations inside the
    secant solver run at min(tol, 1e-9)/100 so evaluation noise stays below
    the target.  NaN scan samples are skipped; one RuntimeWarning says how
    many were evaluated.

    t_scan_range defaults to [-2|gamma2|-2, upper], upper = lower +
    max(8, 2*count).  While the scanned range [lo, hi] ends with fewer than
    count sign changes, hi moves to hi + (hi - lo), doubling the span: at
    most 64 times for the default range, once for an explicit one.  If sign
    changes are still missing, or they polish to fewer than count distinct
    roots, ScanExhausted is raised.  ValueError is raised before any Theta
    evaluation for count < 1, tol not > 0 (or NaN) or an explicit range
    that is not finite with lo <= hi, and by the first one for a bad n or
    k_max (see `theta_iterate`).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    opts = SolverOptions(tol_residual=tol, max_iter=60)
    eval_tol = min(tol, 1e-9) / 100.0
    scan_tol = max(1e-6, eval_tol)

    # every root the secant returns is a t it evaluated; its residual is
    # read from that evaluation
    evaluated: dict[float, ThetaResult] = {}

    def f(t: float) -> float:
        result = evaluated[t] = theta_t(t, problem, n=n, tol=eval_tol,
                                        k_max=k_max)
        return result.theta.real

    def f_scan(t: float) -> float:
        return theta_t(t, problem, n=n, tol=scan_tol, k_max=k_max).theta.real

    if t_scan_range is None:
        lo = -2.0 * abs(complex(problem.gamma2)) - 2.0
        hi = lo + max(8.0, 2.0 * count)
        extensions = 64
    else:
        lo, hi = float(t_scan_range[0]), float(t_scan_range[1])
        extensions = 1
    roots: list[float] = []
    found = 0
    skipped: list[float] = []
    start = lo
    for extension in range(extensions + 1):
        if extension:
            start, hi = hi, hi + (hi - lo)
        for a, b in _scan_brackets(f_scan, start, hi, _SCAN_STEP, skipped):
            found += 1
            r = secant(f, a, b, opts)
            if not any(abs(r - r0) <= 1e-8 * (1 + abs(r)) for r0 in roots):
                roots.append(float(r))
            if len(roots) == count:
                break
        if found >= count:
            break
    if skipped:
        warnings.warn(f"eigenvalues: skipped {len(skipped)} NaN scan samples",
                      RuntimeWarning, stacklevel=2)
    if found < count:
        raise ScanExhausted(f"found {found} sign changes up to t = {hi}, "
                            f"need {count}")
    if len(roots) < count:
        raise ScanExhausted(
            f"brackets collapsed to {len(roots)} distinct roots, need {count}")
    roots.sort()

    mu = complex(problem.mu)
    out = []
    for i, r in enumerate(roots):
        parity, _ = _parity_probe(_Coefficients(r, problem), mu)
        res = abs(evaluated[r].theta)
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


#: coefficients computed at a time when a sum reads past the known ones
_CHUNK = 32


class _Coefficients:
    """Series coefficients e2^T d_k / 2^k, k < _SERIES_TERMS, of the
    bounded solution, computed as the sums read them.

    d_k comes from the closed-form kernel (`_kernel`), with no system or
    frame arrays.  Every iteration yields the same terms; the ones computed
    are kept for the next, and more are computed `_CHUNK` at a time.  Each
    is a complex128 d_k[1] times 2**-k in a numpy array product, as in an
    array of all _SERIES_TERMS of them: a scalar product can differ from
    it in the sign of a zero that underflows.
    """

    def __init__(self, t, problem: SpheroidalProblem):
        kernel = _kernel(t, problem)
        self._d1 = itertools.chain(
            kernel.a0[1:], (d1 for *_, d1 in _steps(kernel.main, kernel.a0)))
        self._terms: list[np.complex128] = []

    def __iter__(self):
        terms = self._terms
        for k in range(_SERIES_TERMS):
            if k == len(terms):
                stop = min(k + _CHUNK, _SERIES_TERMS)
                d1 = np.fromiter(itertools.islice(self._d1, stop - k),
                                 dtype=complex, count=stop - k)
                terms.extend(d1 * np.ldexp(1.0, -np.arange(k, stop)))
            yield terms[k]


def _w_direct(coefs: _Coefficients, mu: complex, x: float) -> complex:
    if not -1 < x < 1:
        raise ValueError(f"x = {x} outside (-1, 1)")
    pref = ((1 + x) / (1 - x)) ** (mu / 2)
    return pref * _power_sum(coefs, 1.0 + x)


def _parity_probe(coefs: _Coefficients, mu: complex) -> tuple[int, float]:
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
                  x_samples) -> SpheroidalEigenfunction:
    """Evaluate the eigenfunction at x_samples (all inside (-1, 1)).

    The series (up to 2000 coefficients, computed as the sum reads them) is
    summed with adaptive truncation, and the parity is probed from the same
    coefficients; for x > 0 the reflected form Omega * w(-x) is used (its
    series argument 1-x stays below 1, so it converges geometrically where
    the direct form would crawl).

    Requires eig.residual <= 1e-8.  Raises ParityAmbiguous if the parity
    probe fails at both x0 = 0.3 and x0 = 0.55.  Values are float for a
    real problem, complex otherwise.
    """
    if not eig.residual <= 1e-8:
        raise ValueError(
            f"residual {eig.residual:.2e} > 1e-8; refine the eigenvalue first")
    x = np.atleast_1d(np.asarray(x_samples, dtype=float))
    if np.any(x <= -1) or np.any(x >= 1):
        raise ValueError("all samples must lie strictly inside (-1, 1)")

    mu = complex(problem.mu)
    coefs = _Coefficients(eig.t_root, problem)
    parity, deviation = _parity_probe(coefs, mu)

    vals = np.empty(len(x), dtype=complex)
    for i, xi in enumerate(x):
        if xi <= 0:
            vals[i] = _w_direct(coefs, mu, float(xi))
        else:
            vals[i] = parity * _w_direct(coefs, mu, -float(xi))
    if problem.is_real:
        vals = vals.real
    return SpheroidalEigenfunction(x=x, values=vals, parity=parity,
                                   parity_deviation=float(deviation))

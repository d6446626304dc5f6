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

import cmath
import itertools
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (SpectralFrame, ThetaKernel, ThetaResult, TwoPointSystem,
                   _float_table, _kernel_of, _kernel_rows, _power_sum,
                   _Series, _theta_table, _unpack, theta_iterate)
# re-exported: perfbench/test_perfbench.py reads sph.frobenius_step to check
# that the tracer restores what it patched
from .core import frobenius_step  # noqa: F401
from .errors import ParityAmbiguous, ScanExhausted
from .rootfind import SolverOptions, _grid, _scan_brackets, secant

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

    Numbers of any numeric type are stored by their values: a float where
    the imaginary part is 0, else a complex.  Both must be finite, and mu = 0
    or Re(mu) > 0; bad data raises ValueError.
    """

    mu: float | complex
    gamma2: float | complex

    def __post_init__(self):
        for name in ("mu", "gamma2"):
            v = getattr(self, name)
            # complex() would also parse a string
            if not (isinstance(v, numbers.Number)
                    and cmath.isfinite(z := complex(v))):
                raise ValueError(f"mu and gamma2 must be finite numbers, got "
                                 f"mu = {self.mu!r}, gamma2 = "
                                 f"{self.gamma2!r}")
            object.__setattr__(self, name, z.real if z.imag == 0 else z)
        if self.mu != 0 and not self.mu.real > 0:
            raise ValueError("mu must be 0 or have Re(mu) > 0")

    @property
    def is_real(self) -> bool:
        return isinstance(self.mu, float) and isinstance(self.gamma2, float)


def _data(t, problem: SpheroidalProblem) -> tuple:
    """A, B and G row-major, and the frame (alpha0, a0, beta1, beta2, b1,
    b2), of `build_system` and `spectral_frame`, as numbers.

    mu, t and gamma2 enter as kernel scalars (`_unpack`), so a real
    problem's arithmetic here and in the kernel builder runs on floats.
    """
    return _system_data(*_unpack((problem.mu, t, problem.gamma2)))


def _system_data(mu, t, gamma2) -> tuple:
    """The arithmetic of `_data`, on numbers or on a float64 column of t
    (one entry per kernel) alike."""
    alpha0, beta1 = mu / 2, -mu / 2 - 1
    return ((beta1, -t, 0.0, alpha0), (beta1, t, 0.0, alpha0),
            (0.0, -4 * gamma2, 1.0, 0.0),
            (alpha0, (-t / (mu + 1), 1.0), beta1, alpha0, (1.0, 0.0),
             (t / (mu + 1), 1.0)))


def build_system(t, problem: SpheroidalProblem) -> TwoPointSystem:
    """Constant-tail TwoPointSystem for spectral parameter t = lam - mu(mu+1)."""
    A, B, G, _ = _data(t, problem)
    return TwoPointSystem.from_rational(A, B, const=G)


def spectral_frame(t, problem: SpheroidalProblem) -> SpectralFrame:
    """Frame with alpha0 = mu/2, beta1 = -mu/2-1, beta2 = mu/2, delta = mu+1."""
    return SpectralFrame(*_data(t, problem)[3])


def _kernel(t, problem: SpheroidalProblem) -> ThetaKernel:
    """The kernel of `build_system` and `spectral_frame`, from their numbers
    with no array; their frame is exact by construction, so it is not
    checked."""
    A, B, G, frame = _data(t, problem)
    return _kernel_of(A, B, G, (), (), *frame)


def theta_t(t, problem: SpheroidalProblem, n: int = 5, tol: float = 1e-10,
            k_max: int = 10 ** 6) -> ThetaResult:
    """Connection coefficient Theta(t); zeros give the eigenvalues.

    Runs `theta_iterate` on the kernel of `build_system` and
    `spectral_frame`, built with no array; the values are those of the
    system and frame, bit for bit.
    """
    return theta_iterate(_kernel(t, problem), None, n=n, tol=tol, k_max=k_max)


def _theta_batch(ts, problem: SpheroidalProblem, n: int, tol,
                 k_max: int) -> list:
    """`theta_t` at each float of the list ``ts`` for a real problem, bit
    for bit, as one batch.

    The kernels are built at once as float64 columns, by the arithmetic of
    `_kernel` (`_system_data`, `core._kernel_rows`), and run in lockstep
    (`core._theta_table`), which hands a small batch to the scalar loop.
    Returns one entry per t: the `ThetaResult` of `theta_t`, or None where
    the kernel fails a check of the scalar build (`core._float_table`),
    where its series raises a `ConncoefError` or an `ArithmeticError`, and
    at every t where the batch raises ValueError (a bad n, tol or k_max,
    or mirrored sums that are not finite).  `theta_t` raises each error on
    its own, so a caller re-runs it where it reads None.
    """
    out = [None] * len(ts)
    with np.errstate(all="ignore"):
        A, B, G, frame = _system_data(problem.mu, np.array(ts, dtype=float),
                                      problem.gamma2)
        table, ok = _float_table(_kernel_rows(A, B, G, (), (), *frame),
                                 len(ts))
    try:
        results = _theta_table(table[:, ok], 12, n, tol, k_max)  # no pole
    except ValueError:
        return out
    for j, result in zip(np.flatnonzero(ok).tolist(), results):
        out[j] = result
    return out


#: most samples of one `_theta_batch` of a scan: a lockstep column holds
#: about 3.3 kB at its peak, so a batch holds some 14 MB at most however
#: many samples the scan reads (the benchmark's spectra batch 65 to 117)
_BATCH_MAX = 4096


def _scan_values(ts, problem: SpheroidalProblem, n: int, tol, k_max: int):
    """The sampler of a sign scan: a function that gives Re Theta(t) of
    `theta_t` at the t it is called with, bit for bit.

    The sampler is called with the floats of the list ``ts`` first, in
    order: the samples that the scan is sure to read.  They run as batches
    of `_BATCH_MAX` (`_theta_batch`), each once the scan reads its first
    sample.  Every later t runs `theta_t` on its own, and so does a t of
    ``ts`` whose batch entry is None, so that an error is raised where
    `theta_t` raises it.
    """
    batch = itertools.chain.from_iterable(
        _theta_batch(ts[i:i + _BATCH_MAX], problem, n, tol, k_max)
        for i in range(0, len(ts), _BATCH_MAX))

    def value(t: float) -> float:
        result = next(batch, None)
        if result is None:
            result = theta_t(t, problem, n=n, tol=tol, k_max=k_max)
        return result.theta.real

    return value


# --------------------------------------------------------------------------
# eigenvalues
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpheroidalEigenvalue:
    """One eigenvalue lam = t_root + mu(mu+1) with parity and residual."""

    index: int
    t_root: float
    lam: float
    parity: int
    residual: float


_SCAN_STEP = 0.5


def _walk(lo: float, hi: float, extensions: int, more):
    """The scan's points, increasing: the grid of [lo, hi] by t += 0.5,
    then, each while ``more()`` holds, up to ``extensions`` segments from
    the last end to end + (end - lo), doubling the span; each end is
    sampled once."""
    yield from _grid(lo, hi, _SCAN_STEP)
    for _ in range(extensions):
        if not more():
            return
        start, hi = hi, hi + (hi - lo)
        yield from itertools.islice(_grid(start, hi, _SCAN_STEP), 1, None)


def _root_floor(problem: SpheroidalProblem, count: int) -> float:
    """A lower bound on the count-th root t_{count-1} of a real problem.

    By the min-max principle (Meixner & Schafke 1954), lam_N(gamma2) >=
    lam_N(0) - max(gamma2, 0) with lam_N(0) = (N+mu)(N+mu+1), and t =
    lam - mu(mu+1).
    """
    mu = problem.mu
    return ((count - 1 + mu) * (count + mu) - mu * (mu + 1)
            - max(problem.gamma2, 0.0))


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

    The scan is sure to read every sample at or below

        t_low = (count-1+mu)(count+mu) - mu(mu+1) - max(gamma2, 0),

    a lower bound on the count-th root: by the min-max principle (Meixner
    & Schafke 1954), lam_N(gamma2) >= lam_N(0) - max(gamma2, 0) with
    lam_N(0) = (N+mu)(N+mu+1).  The sample that closes the count-th sign
    change lies at or above that root, as long as each sign change is a
    zero of Theta.  So those samples run as one batch on numpy columns
    (4096 at most at a time), with the bits of `theta_t` (`_scan_values`),
    and each sample past t_low runs `theta_t` on its own.  No sample past the closing one is
    evaluated; where ScanExhausted is raised there is no closing sample,
    and the scan reads every batched sample.  Only an error that ends the
    scan before t_low leaves batched samples unread.  A batched sample that
    fails raises the error of `theta_t` when the scan reads it.

    t_scan_range defaults to [lo, hi] = [-max(gamma2, 0) - 2, lo + max(8,
    2*count)]: by the Rayleigh quotient, lam >= mu(mu+1) - max(gamma2, 0),
    so no root t lies below -max(gamma2, 0).  While the scanned range ends
    with fewer than count sign changes, hi moves to hi + (hi - lo),
    doubling the span: at most 64 times for the default range, once for an
    explicit one.  Each segment is walked from its left end by t += step,
    and each end is sampled once.  If sign changes are still missing, or
    they polish to fewer than count distinct roots, ScanExhausted is
    raised.  ValueError
    is raised before any Theta evaluation for a problem that is not real
    (the scan and the secant see only Re Theta over real t), count not an
    integer >= 1, tol not finite and > 0 or an explicit range that is not
    finite with lo <= hi, and by the first one for a bad n or k_max (see
    `theta_iterate`).
    """
    if not problem.is_real:
        raise ValueError("eigenvalues are computed for real problems only")
    if not (isinstance(count, numbers.Integral) and count >= 1):
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
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

    if t_scan_range is None:
        lo = -max(problem.gamma2, 0.0) - 2.0
        hi = lo + max(8.0, 2.0 * count)
        extensions = 64
    else:
        lo, hi = float(t_scan_range[0]), float(t_scan_range[1])
        extensions = 1
    roots: list[float] = []
    found = 0
    skipped: list[float] = []

    # the scan reads every sample up to the bound on the count-th root:
    # they run as one batch
    t_low = _root_floor(problem, count)
    sure = list(itertools.takewhile(lambda t: t <= t_low,
                                    _walk(lo, hi, extensions, lambda: True)))
    f_scan = _scan_values(sure, problem, n, scan_tol, k_max)
    for a, b in _scan_brackets(f_scan, _walk(lo, hi, extensions,
                                             lambda: found < count), skipped):
        found += 1
        r = secant(f, a, b, opts)
        if not any(abs(r - r0) <= 1e-8 * (1 + abs(r)) for r0 in roots):
            roots.append(float(r))
        if len(roots) == count:
            break
    if skipped:
        warnings.warn(f"eigenvalues: skipped {len(skipped)} NaN scan samples",
                      RuntimeWarning, stacklevel=2)
    if found < count:
        for _ in range(extensions):     # found < count: each one ran
            hi += hi - lo
        raise ScanExhausted(f"found {found} sign changes up to t = {hi}, "
                            f"need {count}")
    if len(roots) < count:
        raise ScanExhausted(
            f"brackets collapsed to {len(roots)} distinct roots, need {count}")
    roots.sort()

    mu = problem.mu
    out = []
    for i, r in enumerate(roots):
        parity, _ = _parity_probe(_coefficients(r, problem), mu)
        res = abs(evaluated[r].theta)
        lam = r + mu * (mu + 1)
        out.append(SpheroidalEigenvalue(index=i, t_root=r, lam=lam,
                                        parity=parity, residual=res))
    return out


# --------------------------------------------------------------------------
# eigenfunctions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpheroidalEigenfunction:
    """Sampled eigenfunction values, float64 like x, with the detected
    parity.

    parity_deviation is the relative mismatch of w(x0) against
    parity * w(-x0) at the probe abscissa.
    """

    x: np.ndarray
    values: np.ndarray
    parity: int
    parity_deviation: float


def _halved(d1: np.ndarray, k: int) -> np.ndarray:
    """The series terms e2^T d_k / 2^k from d1 = e2^T d_k, d_{k+1}, ..."""
    return d1 * np.ldexp(1.0, -np.arange(k, k + len(d1)))


def _coefficients(t, problem: SpheroidalProblem) -> _Series:
    """The coefficients of the bounded solution's series, from the kernel
    (`_kernel`) with no system or frame arrays, computed as sums read them."""
    kernel = _kernel(t, problem)
    return _Series(kernel.main, kernel.a0, _halved)


def _w_direct(coefs: _Series, mu: float, x: np.ndarray) -> list:
    """w at each point of the float array x by the direct series, summed in
    one call of `_power_sum`; the prefactors are taken with float pow on
    scalars, as numpy's power is not known to round as libm's does."""
    sums = _power_sum(coefs, 1.0 + x)
    return [((1 + v) / (1 - v)) ** (mu / 2) * s
            for v, s in zip(x.tolist(), sums)]


def _parity_probe(coefs: _Series, mu: float) -> tuple[int, float]:
    """Parity Omega and relative deviation, probing x0 = 0.3 then 0.55; the
    pair +-x0 is summed in one call."""
    for x0 in (0.3, 0.55):
        wp, wm = _w_direct(coefs, mu, np.array([x0, -x0]))
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
    summed with adaptive truncation at all the samples in one call of
    `core._power_sum`, and the parity is probed from the same coefficients;
    for x > 0 the reflected form Omega * w(-x) is used (its series argument
    1-x stays below 1, so it converges geometrically where the direct form
    would crawl).

    Requires a real problem, a real eig.t_root and eig.residual <= 1e-8,
    and raises ValueError before any series work otherwise.  Raises
    ParityAmbiguous if the parity probe fails at both x0 = 0.3 and
    x0 = 0.55.  Values are floats.
    """
    if not (problem.is_real and isinstance(eig.t_root, numbers.Real)):
        raise ValueError("eigenfunctions are built for real problems only")
    if not eig.residual <= 1e-8:
        raise ValueError(
            f"residual {eig.residual:.2e} > 1e-8; refine the eigenvalue first")
    x = np.atleast_1d(np.asarray(x_samples, dtype=float))
    if not np.all((-1 < x) & (x < 1)):
        raise ValueError("all samples must lie strictly inside (-1, 1)")

    coefs = _coefficients(eig.t_root, problem)
    parity, deviation = _parity_probe(coefs, problem.mu)

    direct = x <= 0
    w = np.array(_w_direct(coefs, problem.mu, np.where(direct, x, -x)))
    return SpheroidalEigenfunction(x=x, values=np.where(direct, w, parity * w),
                                   parity=parity,
                                   parity_deviation=float(deviation))

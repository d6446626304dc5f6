"""Nonlinear-solver plumbing: secant, bracketing scan, 2-D Broyden."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConncoefError, NoConvergence, SingularJacobian

__all__ = ["SolverOptions", "secant", "bracket_scan", "broyden2"]

#: the solvers also stop once a step is below _TOL_STEP * (1 + |x|)
_TOL_STEP = 1e-13
#: broyden2 stops once no halving of a step below _TOL_FLOOR * (1 + |x|)
#: lowers the residual: F is then at its evaluation floor
_TOL_FLOOR = 1e-8


@dataclass(frozen=True)
class SolverOptions:
    """Shared solver knobs; the one check of the solvers' tolerances.

    tol_residual: stop when |f| (max-norm for systems) drops below this.
    max_iter: iteration budget.  ValueError unless 0 < tol_residual < inf
    (not NaN) and max_iter is an integer >= 1.

    `broyden2` always backtracks by step halving on a residual increase.
    """

    tol_residual: float = 1e-9
    max_iter: int = 50

    def __post_init__(self):
        if not 0 < self.tol_residual < math.inf:    # also true for NaN
            raise ValueError("tol_residual must be finite and > 0")
        if not (isinstance(self.max_iter, numbers.Integral)
                and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got "
                             f"{self.max_iter!r}")


def secant(f, t0: float, t1: float, opts: SolverOptions | None = None) -> float:
    """Secant iteration for a scalar root.

    Returns the best iterate once |f| <= tol_residual there, or once a step
    with a finite value falls below 1e-13 * (1 + |t|); raises
    NoConvergence (with the best iterate attached) when max_iter steps run
    out or the secant turns flat, and ValueError if f is not finite at both
    starting points.
    """
    opts = opts or SolverOptions()
    a, b = float(t0), float(t1)
    fa, fb = f(a), f(b)
    if not (np.isfinite(fa) and np.isfinite(fb)):
        raise ValueError("f must be finite at both starting points")
    best, fbest = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    small_step = False      # the last step met the step rule at a finite f
    for it in range(opts.max_iter + 1):
        if abs(fbest) <= opts.tol_residual or small_step:
            return best
        if it == opts.max_iter or fb == fa:
            break  # budget spent, or a flat secant that cannot divide
        t = b - fb * (b - a) / (fb - fa)
        ft = f(t)
        if np.isfinite(ft) and abs(ft) < abs(fbest):
            best, fbest = t, ft
        small_step = (abs(t - b) <= _TOL_STEP * (1 + abs(t))
                      and np.isfinite(ft))
        a, fa, b, fb = b, fb, t, ft
    raise NoConvergence(
        f"secant: no root to |f|<={opts.tol_residual:g} within "
        f"{opts.max_iter} iterations", best=best, residual=abs(fbest))


def bracket_scan(f, lo: float, hi: float, step: float) -> list[tuple[float, float]]:
    """Sample f on [lo, hi] with the given step; return sign-change intervals.

    The intervals of `_scan_brackets` over `_grid` (lo, hi, step), which
    raises ValueError, before any call to f, for bounds or a step it cannot
    walk; a single warning reports how many NaN samples were skipped.
    """
    skipped: list[float] = []
    brackets = list(_scan_brackets(f, _grid(lo, hi, step), skipped))
    if skipped:
        warnings.warn(f"bracket_scan: skipped {len(skipped)} NaN samples",
                      RuntimeWarning, stacklevel=2)
    return brackets


def _grid(lo: float, hi: float, step: float):
    """Generator of the scan points lo, lo + step, ... (by ``t += step``)
    and hi.

    Raises ValueError, before the first point, unless lo <= hi are finite
    and step is finite and above half an ulp of max(|lo|, |hi|), below
    which ``t += step`` would stall.
    """
    lo, hi = float(lo), float(hi)
    if not -math.inf < lo <= hi < math.inf:     # also false for NaN
        raise ValueError(f"scan bounds must be finite with lo <= hi, got "
                         f"[{lo}, {hi}]")
    m = max(abs(lo), abs(hi))
    if not math.ulp(m) / 2 < step < math.inf:  # also false for NaN
        raise ValueError(f"step must be finite and above half an ulp of "
                         f"max(|lo|, |hi|) = {m}, got {step}")
    t = lo
    while t <= hi + 1e-12 * max(1.0, abs(hi)):
        yield min(t, hi)
        if t >= hi:     # the slack can exceed the step: take hi once
            return
        t += step
    yield hi


def _scan_brackets(f, points, skipped: list[float]):
    """Generator of the sign-change intervals of f sampled at the
    increasing ``points``, each yielded once the sample that closes it is
    evaluated.

    An exactly zero sample is one crossing, paired with the next finite
    sample (or (t, t) when it is the last), and sign tracking restarts after
    it.  NaN samples are skipped and their t appended to ``skipped``.
    """
    prev_t = prev_f = None
    zero_t = None
    for t in points:
        ft = f(t)
        if not np.isfinite(ft):
            skipped.append(t)
            continue
        if zero_t is not None:
            yield zero_t, t
            zero_t = None
            prev_f = None  # crossing consumed by the exact zero
        if ft == 0:
            zero_t = t
        elif prev_f is not None and (prev_f < 0) != (ft < 0):
            yield prev_t, t
        prev_t, prev_f = t, ft
    if zero_t is not None:
        yield zero_t, zero_t


def broyden2(F, seed, opts: SolverOptions | None = None) -> np.ndarray:
    """Broyden's (good) method for a 2-D system F(x) = 0.

    a. initial Jacobian by forward differences, step 1e-6 * (1 + |x_i|)
    b. solve J dx = -F, backtrack by halving (<= 8 times) while the max-norm
       residual would increase
    c. rank-one Broyden update of J from the accepted step; when a damped
       step still increases the residual, the quasi-Newton model is assumed
       stale and J is recomputed by forward differences once before the
       step is retried

    Returns the first iterate with residual <= opts.tol_residual, or the
    best iterate once the quasi-Newton step dx satisfies
    |dx_i| <= 1e-13 * (1 + |x_i|) in both components, or once a step with
    |dx_i| <= 1e-8 * (1 + |x_i|) lowers the residual neither in full nor
    after any of its halvings: F is then at its evaluation floor, since
    along a fair Newton direction a smooth F would descend.  A difference
    Jacobian counts as singular when |det J| <= 1e-14 * max|J_ij|^2.  Raises
    ValueError if F is not finite (or raises it) at the seed,
    SingularJacobian if J is singular there, and
    NoConvergence (best iterate, residual, trace attached) on a spent budget
    or when the step shrinks below floating-point resolution of x.  Steps
    where F raises ValueError/ArithmeticError (or returns non-finite values)
    count as residual increases and are halved away.
    The returned/attached iterate never has a residual above the seed's.
    """
    opts = opts or SolverOptions()
    x = np.asarray(seed, dtype=float).reshape(2)
    fx = np.asarray(F(x), dtype=float).reshape(2)
    if not np.all(np.isfinite(fx)):
        raise ValueError("F must be finite at the seed")

    def _diff_jacobian(xv, fv):
        h = 1e-6 * (1.0 + np.abs(xv))
        J = np.empty((2, 2))
        for i in range(2):
            xp = xv.copy()
            xp[i] += h[i]
            J[:, i] = (np.asarray(F(xp), dtype=float).reshape(2) - fv) / h[i]
        return J

    def _singular(J) -> bool:
        return abs(np.linalg.det(J)) <= 1e-14 * max(np.max(np.abs(J)) ** 2,
                                                    1e-300)

    def _eval(xv):
        try:
            out = np.asarray(F(xv), dtype=float).reshape(2)
        except (ValueError, ArithmeticError, ConncoefError):
            return None
        return out if np.all(np.isfinite(out)) else None

    Jm = _diff_jacobian(x, fx)
    if _singular(Jm):
        raise SingularJacobian(
            "forward-difference Jacobian at the seed is numerically singular")

    res = float(np.max(np.abs(fx)))
    trace = [res]
    best_x, best_res = x.copy(), res
    fresh_jacobian = True
    for _ in range(opts.max_iter):
        if best_res <= opts.tol_residual:
            return best_x
        try:
            dx = np.linalg.solve(Jm, -fx)
        except np.linalg.LinAlgError:
            break
        if np.all(np.abs(dx) <= _TOL_STEP * (1.0 + np.abs(x))):
            # the root lies within the step tolerance: the residual floor
            # |J| * ulp(x) of a steep F can sit above tol_residual
            return best_x
        xn = x + dx
        fn = _eval(xn)
        lam = 1.0
        for _ in range(8):
            if fn is not None and np.max(np.abs(fn)) < res:
                break
            if not np.any(xn != x):
                break  # step below the resolution of x; halving is moot
            lam *= 0.5
            xn = x + lam * dx
            fn = _eval(xn)
        if fn is None:
            break
        uphill = np.max(np.abs(fn)) >= res
        if uphill and np.all(np.abs(dx) <= _TOL_FLOOR * (1.0 + np.abs(x))):
            return best_x   # a smooth F descends along so short a step
        if uphill and not fresh_jacobian:
            # stale quasi-Newton model: retry the step from a fresh
            # finite-difference Jacobian before accepting an uphill move
            try:
                Jm = _diff_jacobian(x, fx)
            except (ValueError, ArithmeticError, ConncoefError):
                break
            fresh_jacobian = True
            if _singular(Jm):
                break
            continue
        step = xn - x
        ss = float(step @ step)
        if ss == 0.0:
            break  # converged to the floating-point floor of the residual
        Jm = Jm + np.outer(fn - fx - Jm @ step, step) / ss
        fresh_jacobian = False
        x, fx = xn, fn
        res = float(np.max(np.abs(fx)))
        trace.append(res)
        if res < best_res:
            best_x, best_res = x.copy(), res
    if best_res <= opts.tol_residual:
        return best_x
    raise NoConvergence(
        f"broyden2: residual {best_res:.3e} > {opts.tol_residual:g} after "
        f"{len(trace) - 1} iterations", best=best_x, residual=best_res,
        trace=trace)

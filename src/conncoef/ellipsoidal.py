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

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .core import (SpectralFrame, ThetaKernel, ThetaResult, TwoPointSystem,
                   _first_index, _float_table, _kernel_of, _kernel_rows,
                   _power_sum, _Series, _theta_table, theta_iterate)
from .errors import (ConsistencyError, InvalidExponent, MatchFailure,
                     NoConvergence, QuadratureNotConverged)
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

    A gamma of any numeric type is stored by its value: a float where its
    imaginary part is 0, else a complex.  c must be a real number, stored
    as a float, with c/(c-1) > 1 in floats (so 1 < c < about 2**53), so
    that `hat_parameters` can form the hatted problem.  Bad data raises
    ValueError.
    """

    gamma: float | complex
    c: float
    rho: int = 0
    sigma: int = 0
    tau: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c", _pole(self.c))
        # complex() would also parse a string
        if not (isinstance(self.gamma, numbers.Number)
                and cmath.isfinite(gamma := complex(self.gamma))):
            raise ValueError(f"gamma must be a finite number, got "
                             f"{self.gamma!r}")
        object.__setattr__(self, "gamma",
                           gamma.real if gamma.imag == 0 else gamma)
        for name in ("rho", "sigma", "tau"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")

    @property
    def is_real(self) -> bool:
        return isinstance(self.gamma, float)


def _pole(c) -> float:
    """c as a float, if c is a real number with c/(c-1) > 1 in floats: a
    pole whose hatted pole exists.  Raises ValueError otherwise."""
    try:
        x = float(c) if isinstance(c, numbers.Real) else math.nan
    except OverflowError:               # an int beyond the floats
        x = math.inf
    if not (x > 1 and x / (x - 1) > 1):
        raise ValueError(f"c must be a finite real number > 1 whose "
                         f"c/(c-1) rounds above 1, got c = {c!r}")
    return x


@dataclass(frozen=True)
class SystemEntries:
    """Top-right entries of A, B and the residue matrix at c.

    Each is a number as its formula gives it: a12 is lam as given, so the
    entries of real parameters are real.
    """

    a12: float | complex
    b12: float | complex
    r12: float | complex


def entries(lam, mu, problem: EllipsoidalProblem) -> SystemEntries:
    """System entries for spectral parameters (lam, mu).

    a12 = lam, b12 = c(lam+mu+gamma)/(1-c), r12 = (lam + c*mu + c^2*gamma)/(c-1);
    they satisfy a12 + b12 + r12 = c*gamma identically, which is checked.

    Raises
    ------
    ValueError
        If lam or mu is not finite, or an entry overflows.
    ConsistencyError
        If the identity fails by more than 1e-12 of the largest entry.
    """
    c = problem.c
    g = problem.gamma
    if not (cmath.isfinite(complex(lam)) and cmath.isfinite(complex(mu))):
        raise ValueError(f"non-finite spectral parameters ({lam}, {mu})")
    e = _entries(lam, mu, g, c)
    if not all(map(cmath.isfinite, (e.a12, e.b12, e.r12))):
        raise ValueError(f"system entries overflow at (lam, mu) = ({lam}, "
                         f"{mu}): a12 = {e.a12}, b12 = {e.b12}, "
                         f"r12 = {e.r12}")
    total = e.a12 + e.b12 + e.r12
    scale = max(abs(e.a12), abs(e.b12), abs(e.r12), 1.0)
    if not abs(total - c * g) <= 1e-12 * scale:
        raise ConsistencyError(
            f"entry sum {total} differs from c*gamma = {c * g}")
    return e


def _entries(lam, mu, gamma, c) -> SystemEntries:
    """The entry formulas of `entries`, unchecked and for any pole c, on
    numbers or on numpy columns alike."""
    return SystemEntries(a12=lam, b12=c * (lam + mu + gamma) / (1 - c),
                         r12=(lam + c * mu + c * c * gamma) / (c - 1))


def _entry_columns(lam, mu, gamma, c) -> tuple:
    """`entries` on float64 columns: the entries and the mask of the nodes
    where `entries` would not raise, by the checks of `entries` on the same
    values."""
    e = _entries(lam, mu, gamma, c)
    ok = (np.isfinite(lam) & np.isfinite(mu) & np.isfinite(e.b12)
          & np.isfinite(e.r12))
    scale = np.maximum(np.maximum(np.abs(e.a12), np.abs(e.b12)),
                       np.maximum(np.abs(e.r12), 1.0))
    ok &= np.abs(e.a12 + e.b12 + e.r12 - c * gamma) <= 1e-12 * scale
    return e, ok


def hat_entries(e: SystemEntries, c: float) -> tuple[SystemEntries, float]:
    """Entries and pole of the transformed system: an involution.

    (a12, b12, r12; c) -> (-r12, -b12, -a12; c/(c-1)).

    Raises ValueError unless c is a real number > 1 with c/(c-1) > 1, as
    `EllipsoidalProblem` checks: past about 2**53, c/(c-1) rounds to the
    pole 1.
    """
    if not (isinstance(c, numbers.Real) and c > 1):
        raise ValueError("c must be > 1")
    _pole(c)
    return SystemEntries(a12=-e.r12, b12=-e.b12, r12=-e.a12), c / (c - 1)


def hat_parameters(lam, mu, problem: EllipsoidalProblem):
    """Spectral parameters and problem of the transformed equation.

    Returns (lam^, mu^, problem^) such that the transformed system's entries
    equal hat_entries of the original.  The exponent bits transform as
    (rho, sigma, tau) -> (tau, sigma, rho): the Moebius map z -> (c-z)/(c-1)
    swaps the singular points 0 and c and fixes 1.  The hatted parameters
    are formed from the entries of `entries` as they are, so real (lam, mu)
    of a real problem give floats, whatever their type.
    """
    lam_h, mu_h, gam_h, ch = _hat_of(entries(lam, mu, problem), problem.c)
    hat_prob = EllipsoidalProblem(gamma=gam_h, c=ch, rho=problem.tau,
                                  sigma=problem.sigma, tau=problem.rho)
    return lam_h, mu_h, hat_prob


def _hat_of(e: SystemEntries, c) -> tuple:
    """lam^, mu^, gamma^ and c^ of `hat_parameters` from the entries e at
    pole c, on numbers or on numpy columns alike."""
    eh, ch = hat_entries(e, c)
    lam_h = eh.a12
    # invert the entry map at (ch, gamma^): the identity a12+b12+r12 = c*gamma
    # gives gamma directly, then b12 gives mu.
    gam_h = (eh.a12 + eh.b12 + eh.r12) / ch
    mu_h = eh.b12 * (1 - ch) / ch - lam_h - gam_h
    return lam_h, mu_h, gam_h, ch


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
    return SpectralFrame(*_frame_data(problem.rho, problem.sigma, e))


def _frame_data(rho: int, sigma: int, e: SystemEntries) -> tuple:
    """The numbers (alpha0, a0, beta1, beta2, b1, b2) of `spectral_frame`,
    on numbers or on numpy columns alike."""
    return (-rho / 2, (2 * e.a12 * (1 - rho) + rho / 2, 1 - rho),
            (sigma - 1) / 2, -sigma / 2,
            (2 * e.b12 * sigma + (1 - sigma) / 2, sigma),
            (2 * e.b12 * (1 - sigma) + sigma / 2, 1 - sigma))


def _kernel(lam, mu, problem: EllipsoidalProblem) -> ThetaKernel:
    """The kernel of `build_system` and `spectral_frame`, from their numbers
    with no array; their frame is exact by construction, so it is not
    checked."""
    return _kernel_of(*_kernel_data(entries(lam, mu, problem), problem.c,
                                    problem.rho, problem.sigma))


def _kernel_data(e: SystemEntries, c, rho: int, sigma: int) -> tuple:
    """The arguments of `core._kernel_rows` for the kernel of
    `build_system` and `spectral_frame` at entries e, pole c and bits
    (rho, sigma), on numbers or on numpy columns alike."""
    A, B, const, R = _heun_data(0.5, 0.5, 0.5, 0, c, e)
    return (A, B, const, (c,), (R,), *_frame_data(rho, sigma, e))


def theta(lam, mu, problem: EllipsoidalProblem, n: int = 5, tol: float = 1e-10,
          k_max: int = 10 ** 6, rtol: float = 0.0) -> ThetaResult:
    """Connection coefficient Theta(lam, mu) of the (0, 1) singular pair.

    Theta vanishes exactly when the chosen local solution at z=0 connects
    to the subdominant local solution at z=1.  Runs `theta_iterate` on the
    kernel of `build_system` and `spectral_frame` (one pole at c plus a
    constant term), built with no array, so each recurrence step is O(1)
    work; the values are those of the system and frame, bit for bit.  The
    series stops once its bound meets tol or rtol * |Theta_k| (see
    `theta_iterate`); the default rtol = 0 is the absolute rule alone.
    """
    return theta_iterate(_kernel(lam, mu, problem), None, n=n, tol=tol,
                         k_max=k_max, rtol=rtol)


def theta_hat(lam, mu, problem: EllipsoidalProblem, n: int = 5,
              tol: float = 1e-10, k_max: int = 10 ** 6,
              rtol: float = 0.0) -> ThetaResult:
    """Connection coefficient of the transformed (c, 1) singular pair.

    Equals `theta` of the hatted parameters with exponent bits
    (tau, sigma, rho), at the same n, tol, k_max and rtol; see
    `hat_parameters`.
    """
    lam_h, mu_h, hat_prob = hat_parameters(lam, mu, problem)
    return theta(lam_h, mu_h, hat_prob, n=n, tol=tol, k_max=k_max, rtol=rtol)


# --------------------------------------------------------------------------
# eigenpairs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenPair:
    """A solved (lam, mu) pair with residuals.

    ``iterations`` counts Theta/Theta-hat evaluations spent by the solver;
    the residuals are those it computed at the returned pair.
    """

    lam: float
    mu: float
    residual_theta: float
    residual_theta_hat: float
    iterations: int


#: relative tolerance of `solve_pair`'s Theta evaluations.  F's relative
#: error enters the solver only at this level.  An error of 1e-8 * |F|
#: moves an entry of the difference Jacobian (step h = 1e-6 * (1 + |x|))
#: by 1e-8 * |F| / h, which is 1e-2 * |F| / (|J| * (1 + |x|)) of the entry:
#: one percent of the Newton step |F| / |J| measured against 1 + |x|, far
#: less from a seed near its root.  Broyden's residual comparisons decide
#: alike unless two trial points' |F| agree to 1e-8.  At a root the solver
#: reaches, |Theta| <= tol_residual, and 1e-8 * |Theta| lies far below the
#: absolute evaluation tolerance tol_residual / 10, so the absolute rule
#: stops those calls and the returned residuals keep their meaning.  Far
#: from one, at |Theta| ~ 1e7 on the steep wave rows, the absolute
#: tolerance lies below the rounding of Theta, and the absolute rule alone
#: runs ~22 000 steps until Theta_k stops changing.
_EVAL_RTOL = 1e-8


def solve_pair(seed_lambda: float, seed_mu: float, problem: EllipsoidalProblem,
               opts: SolverOptions | None = None, n: int = 5,
               k_max: int = 50_000) -> EigenPair:
    """Solve Theta = Theta-hat = 0 by Broyden iteration from the seed.

    Theta evaluations stop once their bound meets the absolute tolerance
    max(opts.tol_residual / 10, 1e-13), so that evaluation noise stays
    below the residual target (default 1e-9), or the relative one
    1e-8 * |Theta| (`_EVAL_RTOL`), which binds only where |Theta| exceeds
    1e8 times the absolute one: far from a root, or at a residual floor
    such as the one below.
    For steep problems (large |lam|, |mu|) the achievable residual bottoms
    out near |dTheta/dlam| * ulp(lam), which can lie far above any useful
    target: at the wave row k^2 = 0.9, omega^2 = 25, H = 141.0901 it is
    near 1e-2 (|dTheta/dlam| ~ 2e12), and the evaluation noise of Theta
    keeps |Theta| near 0.3 or above.  There the solver stops once no
    halving of a quasi-Newton step below 1e-8 * (1 + |x|) lowers the
    residual (30 evaluations on that row), and the returned residuals show
    the floor.  ``k_max`` caps the series length per evaluation; at wild
    trial points the absolute tolerance may be unreachable (the noise
    floor of the sum scales with |Theta|), and a capped partial sum is
    plenty for the solver's descent decisions.  Near a root a few hundred
    terms suffice.

    Raises
    ------
    ValueError, SingularJacobian
        At the seed, as `broyden2`, and before it for a problem that is not
        real (the solver sees only Re Theta and Re Theta-hat); a bad n or
        k_max raises from the first Theta evaluation (see `theta_iterate`).
    NoConvergence
        After opts.max_iter Broyden iterations; the best iterate and its
        residuals ride on the exception (`best`, `residual`, `trace`).
    """
    if not problem.is_real:
        raise ValueError("eigenpairs are solved for real problems only")
    opts = opts or SolverOptions()
    eval_tol = max(opts.tol_residual / 10.0, 1e-13)
    n_evals = 0
    evaluated = {}      # F at each point the solver tried, by the bytes of x

    def F(x):
        nonlocal n_evals
        n_evals += 2
        th = theta(x[0], x[1], problem, n=n, tol=eval_tol, k_max=k_max,
                   rtol=_EVAL_RTOL)
        thh = theta_hat(x[0], x[1], problem, n=n, tol=eval_tol, k_max=k_max,
                        rtol=_EVAL_RTOL)
        f = evaluated[x.tobytes()] = [th.theta.real, thh.theta.real]
        return f

    root = broyden2(F, [seed_lambda, seed_mu], opts)
    f_final = evaluated[root.tobytes()]     # broyden2 returns a point it tried
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

    The problem must be real: seeds are cells where the real Theta and
    Theta-hat both change sign.  resolution may be an integer (both axes)
    or a pair (n_lambda, n_mu), each an integer >= 2.  Every node's values
    are those of `theta` and `theta_hat`, bit for bit, but the grid runs
    all of them as one batch: the two kernels of every node are built at
    once as float64 columns, by the arithmetic of the scalar builder
    (`_node_columns`), and run in lockstep (`core._theta_table`).  Node
    failures (`ConncoefError` or `ArithmeticError`, in a node's set-up or
    its series, and the ValueError of a node whose system entries
    overflow) are recorded in the grid status and the values set to NaN;
    any other error propagates.  The modest k_max default keeps nodes far
    from any eigencurve cheap; only sign changes matter for seeding.

    Raises
    ------
    ValueError
        Before any Theta work: for a problem that is not real, a resolution
        that is not an integer >= 2 or a pair of them, a range that is not
        a pair of finite numbers, or a bad n, tol or k_max (`theta_iterate`).
    """
    if not problem.is_real:
        raise ValueError("grids are scanned for real problems only")
    sizes = (resolution,) * 2 if np.isscalar(resolution) else resolution
    try:
        res_l, res_m = sizes
    except (TypeError, ValueError):     # not a pair
        res_l = res_m = None
    if not all(isinstance(r, numbers.Integral) and r >= 2
               for r in (res_l, res_m)):
        raise ValueError(f"resolution must be an integer >= 2 or a pair of "
                         f"them, got {resolution!r}")
    axes = []
    for name, bounds, res in (("lambda_range", lambda_range, res_l),
                              ("mu_range", mu_range, res_m)):
        try:
            lo, hi = map(float, bounds)
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be a pair (lo, hi) of numbers, "
                             f"got {bounds!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} ({lo}, {hi}) is not finite")
        axes.append(np.linspace(lo, hi, res))
    lambdas, mus = axes
    _first_index(n, tol, k_max, None)
    th = np.full((res_l, res_m), np.nan)
    thh = np.full((res_l, res_m), np.nan)
    status = np.full((res_l, res_m), "error", dtype=object)

    table, ran = _node_columns(np.repeat(lambdas, res_m), np.tile(mus, res_l),
                               problem)
    results = _theta_table(table, 17, n, tol, k_max)    # one-pole sides
    pairs = zip(results[:len(results) // 2], results[len(results) // 2:])
    for node, (r, rh) in zip(np.flatnonzero(ran).tolist(), pairs):
        if r is not None and rh is not None:
            th.flat[node], thh.flat[node] = r.theta.real, rh.theta.real
            both = r.status == rh.status == "converged"
            status.flat[node] = "converged" if both else "k_max_reached"
    seeds = _seed_cells(lambdas, mus, th, thh)
    return ThetaGrid(lambdas=lambdas, mus=mus, theta=th, theta_hat=thh,
                     status=status, seeds=seeds)


def _hat_kernel(lam, mu, problem: EllipsoidalProblem) -> ThetaKernel:
    """The kernel `theta_hat` runs: `_kernel` of the hatted parameters."""
    return _kernel(*hat_parameters(lam, mu, problem))


def _node_columns(lams, mus, problem: EllipsoidalProblem) -> tuple:
    """The kernels of `theta` and `theta_hat` at the nodes (lams, mus) of a
    real problem, as float64 columns.

    ``lams`` and ``mus`` are float64 arrays, one entry per node.  Returns
    the table that `core._theta_table` reads, the columns of the nodes
    whose set-up runs, Theta's kernels and then Theta-hat's, and the mask
    of those nodes.  The arithmetic is that of `_kernel` and `_hat_kernel`,
    run on the columns, so every scalar keeps its bits; each check of the
    scalar build is a mask: `entries` for both kernels, the hatted
    problem's finite gamma^, and `core._float_table`.  The hatted pole c^
    rounds above 1, as `EllipsoidalProblem` checks.
    """
    c, sigma = problem.c, problem.sigma
    with np.errstate(all="ignore"):
        e, ran = _entry_columns(lams, mus, problem.gamma, c)
        lam_h, mu_h, gam_h, ch = _hat_of(e, c)
        e_h, ok = _entry_columns(lam_h, mu_h, gam_h, ch)
        ran &= ok & np.isfinite(gam_h)
        tables = []
        for ents, pole, rho in ((e, c, problem.rho), (e_h, ch, problem.tau)):
            table, ok = _float_table(
                _kernel_rows(*_kernel_data(ents, pole, rho, sigma)), len(lams))
            ran &= ok
            tables.append(table)
    return np.hstack([table[:, ran] for table in tables]), ran


def _seed_cells(lambdas, mus, th, thh) -> list:
    """Centers of the cells where Theta and Theta-hat both cross, row-major.

    An edge crosses when both ends are finite and either one end is 0 or
    the signs differ.  A grid crosses on cell (i, j)-(i+1, j+1) when one of
    the cell's four edges crosses; a cell is a seed when both grids do.
    """
    def crosses(a, b):
        return (np.isfinite(a) & np.isfinite(b)
                & ((a == 0) | (b == 0) | ((a < 0) != (b < 0))))

    v = np.stack([th, thh])
    along_lam = crosses(v[:, :-1], v[:, 1:])            # (2, L-1, M)
    along_mu = crosses(v[:, :, :-1], v[:, :, 1:])       # (2, L, M-1)
    cells = (along_lam[:, :, :-1] | along_lam[:, :, 1:]
             | along_mu[:, :-1] | along_mu[:, 1:]).all(axis=0)
    return [((lambdas[i] + lambdas[i + 1]) / 2, (mus[j] + mus[j + 1]) / 2)
            for i, j in zip(*np.nonzero(cells))]


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
    the two sides of the singular point z=1.)  The function and its pieces
    take a float or an array of z; an array sums each piece's points in one
    call of `core._power_sum`.

    Attributes
    ----------
    coef0, coef1, coef2 : core._Series
        Series coefficients of S0, S1, S2 (the second components of the
        recurrence's prefix sums), 2000 each.  A sequence of
        floats: the terms are computed as they are read and kept, so an
        evaluation steps the recurrence only as far as its sum reads.
        ``np.asarray(fn.coef0)`` gives all 2000 as a float ndarray.
    C0, C1, C2 : float
        Matching constants; C1 = 1 until normalized.
    rho, sigma, tau : int
        Exponent bits.
    c : float
        Third singular point.
    lam, mu, gamma : float
        The spectral parameters and coefficient the series were built from.
    """

    coef0: _Series
    coef1: _Series
    coef2: _Series
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

    # -- raw pieces (no matching constants), at a float or an array of z --

    def _piece(self, coef: _Series, bit: int, x, a, ea: float, b,
               eb: float) -> np.ndarray:
        """|a|**ea |b|**eb * sum_k coef[k] x**k at each point of the float
        arrays x, a and b, or coef[0] (bit 0) or 0.0 where x == 0.

        The prefactors are formed on Python floats, with libm's pow (numpy's
        power is not known to round as it does), and the sums in one call of
        `_power_sum`.
        """
        out = np.zeros(len(x))
        live = x != 0.0
        if bit == 0 and not live.all():
            out[~live] = coef[0]
        pref = [abs(p) ** ea * abs(q) ** eb
                for p, q in zip(a[live].tolist(), b[live].tolist())]
        out[live] = np.array(pref) * _power_sum(coef, x[live])
        return out

    def piece0(self, z):
        """|z|**(-rho/2) |1-z|**((1+sigma)/2) * S0(z)."""
        return _on_points(lambda z: self._piece(
            self.coef0, self.rho, z, z, -self.rho / 2, 1 - z,
            (1 + self.sigma) / 2), z)

    def piece1(self, z):
        """|z|**(-rho/2) |1-z|**(-sigma/2) * S1(1-z)."""
        def piece(z):
            x = 1.0 - z
            return self._piece(self.coef1, self.sigma, x, z, -self.rho / 2,
                               x, -self.sigma / 2)
        return _on_points(piece, z)

    def piece2(self, z):
        """|zh|**(-tau/2) |1-zh|**((1+sigma)/2) * S2(zh), zh = (c-z)/(c-1)."""
        def piece(z):
            x = (self.c - z) / (self.c - 1)
            return self._piece(self.coef2, self.tau, x, x, -self.tau / 2,
                               1 - x, (1 + self.sigma) / 2)
        return _on_points(piece, z)

    # -- public evaluation --------------------------------------------------

    def __call__(self, z):
        """Evaluate w at z, a float or an array inside [0, c].

        A point z takes C1 * piece1 where q1 = |1-z|/r1 < min(q, 0.95),
        with q = z left of 1 and q = (c-z)/(c-1) right of it, and else
        C0 * piece0 (left) or C2 * piece2 (right).  The pieces are chosen
        with numpy comparisons, which are the scalar ones, and each piece
        sums its points in one call of `_power_sum`, so an array of points
        gives, bit for bit, the values of its points one at a time.  A
        float z gives a float.
        """
        return _on_points(self._values, z)

    def _values(self, z: np.ndarray) -> np.ndarray:
        outside = ~((0 <= z) & (z <= self.c))
        if outside.any():
            raise ValueError(f"z = {float(z[outside][0])} outside the domain "
                             f"[0, {self.c}]")
        left = z <= 1.0
        q1 = np.abs(1 - z) / self.radius1
        near1 = (q1 < np.where(left, z, (self.c - z) / (self.c - 1))) & (
            q1 < 0.95)
        out = np.empty(len(z))
        for at, C, piece in ((near1, self.C1, self.piece1),
                             (~near1 & left, self.C0, self.piece0),
                             (~near1 & ~left, self.C2, self.piece2)):
            if at.any():
                out[at] = C * piece(z[at])
        return out


def _on_points(f, z):
    """f on the points of z, a float or an array: f maps a 1-d float64 array
    to an array of its length; a float z gives a float."""
    zs = np.asarray(z, dtype=float)
    out = f(zs.ravel())
    return out.reshape(zs.shape) if zs.ndim else out.item()


def eigenfunction(pair, problem: EllipsoidalProblem) -> EllipsoidalEigenfunction:
    """Build the matched piecewise eigenfunction for an eigenpair.

    ``pair`` is an `EigenPair` or a plain (lam, mu) tuple whose residuals
    max(|Theta|, |Theta-hat|) must not exceed 1e-6 (checked at tol 1e-8, on
    the kernels the series are stepped from).  Each of the three local
    series has 2000 coefficients, computed as they are read.  Matching uses
    C1 = 1 and fixes C0 at z = 1/2 (or 1 - r1/2 when the default lies outside
    a convergence disk) and C2 at z = (1+c)/2 (or 1 + r1/2), with r1 =
    min(1, c-1).

    Raises
    ------
    MatchFailure
        If no two usable matching abscissas are found (both pieces ~ 0 at
        the candidates), or a matching constant does not hold at the second
        (`_match_constant`).
    ValueError
        If the residual precondition fails or the problem is not real.
    """
    if not problem.is_real:
        raise ValueError("eigenfunctions are built for real problems only")
    if isinstance(pair, EigenPair):
        lam, mu = pair.lam, pair.mu
    else:
        lam, mu = float(pair[0]), float(pair[1])

    kernel = _kernel(lam, mu, problem)
    hat = _hat_kernel(lam, mu, problem)
    worst = max(abs(theta_iterate(kern, None, tol=1e-8).theta)
                for kern in (kernel, hat))
    if not worst <= 1e-6:
        raise ValueError(
            f"(lam, mu) = ({lam}, {mu}) is not an eigenpair: residual "
            f"{worst:.2e} > 1e-6")

    fn = EllipsoidalEigenfunction(
        coef0=_Series(kernel.main, kernel.a0),
        coef1=_Series(kernel.mirror, kernel.b2),
        coef2=_Series(hat.main, hat.a0), C0=1.0, C1=1.0, C2=1.0,
        rho=problem.rho, sigma=problem.sigma, tau=problem.tau, c=problem.c,
        lam=lam, mu=mu, gamma=problem.gamma)

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


#: relative miss of a matching constant allowed at its second abscissa: the
#: eigenfunctions of the tests and the fingerprint miss by 1.6e-8 at most
_MATCH_RTOL = 1e-3


def _match_constant(ref_piece, new_piece, candidates) -> float:
    """Constant C with C * new_piece = ref_piece at the first usable abscissa,
    confirmed to `_MATCH_RTOL` at the next usable one.

    Each piece is evaluated on all the candidates in one call.  An abscissa
    is usable where each piece exceeds 1e-8 times its own largest value at
    the candidates: the two pieces carry unrelated normalizations, so one
    may be far below the other everywhere without vanishing anywhere.  A
    piece whose sum cancels to rounding noise at the candidates gives a
    constant that holds at its own abscissa only; the second one rejects
    it."""
    if not candidates:
        raise MatchFailure("no matching abscissa inside both convergence disks")
    zs = np.array(candidates)
    refs, news = ref_piece(zs).tolist(), new_piece(zs).tolist()
    ref_scale, new_scale = max(map(abs, refs)), max(map(abs, news))
    if max(ref_scale, new_scale) == 0:
        raise MatchFailure("eigenfunction pieces vanish at every matching "
                           "abscissa")
    usable = [(z, r, w) for z, r, w in zip(candidates, refs, news)
              if abs(r) > 1e-8 * ref_scale and abs(w) > 1e-8 * new_scale]
    if not usable:
        raise MatchFailure("pieces have no common nonvanishing matching "
                           "abscissa")
    (z0, r0, w0), *rest = usable
    for z, r, w in rest:
        if not math.isclose(z, z0):     # (1 + c)/2 is 1 + r1/2, up to rounding
            miss = abs(r0 / w0 * w - r) / abs(r)
            if miss <= _MATCH_RTOL:
                return r0 / w0
            raise MatchFailure(f"matching constant misses the pieces by "
                               f"{miss:.1e} (relative) at a second abscissa")
    raise MatchFailure("pieces have one common nonvanishing matching "
                       "abscissa, and a match needs two")


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------

@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on
    [-1, 1], computed once per n: numpy's `leggauss` costs 1-3 ms."""
    t, wgt = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = wgt.flags.writeable = False
    return t, wgt


def _weighted_moments(fn: EllipsoidalEigenfunction, interval: str,
                      n_nodes: int) -> tuple[float, float]:
    """(m0, m1) with m_p = integral of z^p w(z)^2 / sqrt(|phi(z)|) dz.

    phi(z) = z(1-z)(c-z).  The substitution z = a + (b-a) sin^2(theta)
    absorbs the endpoint singularities of the interval (a, b); the remaining
    distance-to-far-singular-point factor stays smooth.
    """
    c = fn.c
    t, wgt = _legendre_rule(n_nodes)
    th = (t + 1) * (math.pi / 4)        # map to (0, pi/2)
    wgt = wgt * (math.pi / 4)
    s2 = np.sin(th) ** 2
    if interval == "left":              # (0, 1): |phi| = z(1-z)(c-z)
        z = s2
        rest = np.sqrt(c - z)
    else:                               # (1, c): |phi| = z(z-1)(c-z)
        z = 1 + (c - 1) * s2
        rest = np.sqrt(z)
    w2 = np.array([w ** 2 for w in fn(z).tolist()])
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
    refinement check; the rules come from numpy's
    `numpy.polynomial.legendre.leggauss`, computed once per process.  Both
    modes evaluate w on all the points of a sample, or of a rule on one
    interval, in one call, whose values are those of the points one at a
    time.

    Raises
    ------
    QuadratureNotConverged
        If the 64- vs 128-point values disagree by more than 1e-5 relative,
        or the integral is not positive.
    """
    if mode == "sup":
        zs = np.linspace(0.0, fn.c, 2003)[1:-1]
        peak = max(map(abs, fn(zs).tolist()))
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
    A, B, const, R = _heun_data(nu0, nu1, nu2, kappa, c,
                                _entries(lam, mu, gamma, c))
    return TwoPointSystem.from_rational(A, B, const=const, poles=(c,),
                                        residues=(R,))


def _heun_data(nu0, nu1, nu2, kappa, c, e: SystemEntries) -> tuple:
    """A, B, C and R of `build_heun_system`, row-major, as numbers."""
    return ((nu0 - 1, e.a12, 0.0, 0.0), (nu1 - 1, e.b12, 0.0, 0.0),
            (-kappa, 0.0, -1.0 / c, 0.0), (nu2 - 1, e.r12, 0.0, 0.0))

"""Connection-coefficient engine for 2x2 systems with two regular singular points.

This module works on first-order systems

    y'(z) = (A/z + B/(z-1) + G(z)) y(z),                                 (*)

where ``A`` and ``B`` are constant complex 2x2 matrices and ``G`` is analytic
on a neighbourhood of the closed unit disk, given either by its Taylor
coefficient streams at z=0 and z=1 or in the closed rational form

    G(z) = C + sum_j R_j / (z - c_j),      |c_j| > 1.

Let ``alpha0`` be an eigenvalue of A with eigenvector ``a0`` such that
``A - alpha0 - k`` is invertible for every integer k >= 1, and let
``beta1 != beta2`` be the eigenvalues of B with eigenvectors ``b1``, ``b2``
and ``delta = beta2 - beta1``, ``Re(delta) > -1``.  The Floquet solution
``y0 = z**alpha0 * (1-z)**beta1 * sum_k u_k z**k`` of (*) can be written near
z=1 in the local Floquet basis

    y0 = Theta * y1 + Omega * y2,
    y1 = (1-z)**beta1 * h1(1-z),  h1(0) = b1,
    y2 = (1-z)**beta2 * h2(1-z),  h2(0) = b2.

The connection coefficient ``Theta`` is the quantity computed here.  The
substitution ``y = z**alpha0 (1-z)**(beta1+1) eta(z)`` turns (*) into

    eta'(z) = (A0/z + A1/(z-1) + G(z)) eta(z),
    A0 = A - alpha0*I,   A1 = B - (beta1+1)*I,

whose Frobenius coefficients u_k and their prefix sums d_k = sum_{l<=k} u_l
obey a two-term recurrence.  With the mirrored-series prefix sums
d~_1..d~_n (the same construction at z=1, started from b2) one forms

    p_k   = b2 + sum_{l=1..n} (prod_{m<l} (m+delta)/(m+delta-k)) d~_l,
    nu_k  = J p_k / <J p_k, b1>,          J = [[0,1],[-1,0]],
    Theta_k = <d_k, nu_k>  ->  Theta + O(k**(-Re(delta)-n-1)),

where ``<x,y> = x^T y`` is the bilinear (not Hermitian) pairing.  The
iteration stops on the a posteriori bound

    |Theta - Theta_k| <= (1+eps) * k * |Theta_k - Theta_{k-1}| / (Re(delta)+n+1),

valid for every eps > 0 once k is large enough; see `theta_iterate`.

For rational structure every series runs on one scalar recurrence kernel:
the entries of A0, A1 + I and C, the poles c_j and the residues R_j are
unpacked into Python complex scalars once, and a single loop advances u_k,
d_k and the geometric sums s_k^(j) with no array allocation per step.  The
Theta iteration forms p_k, nu_k and Theta_k from the same scalars inside
that loop; the mirrored prefix and the eigenfunction coefficient sequences
(`prefix_sums`) use the same kernel.  The public `frobenius_step`,
`p_vector` and `weight_vector` stay as validating single-step entry points.
Generic structure keeps its own O(k) convolution in `frobenius_step`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConsistencyError, DegenerateFrame, FrameMismatch,
                     SingularStep)

__all__ = [
    "RationalTail",
    "TwoPointSystem",
    "SpectralFrame",
    "ShiftedSystem",
    "SeriesState",
    "ThetaResult",
    "build_shifted",
    "mirrored_shifted",
    "series_start",
    "frobenius_step",
    "prefix_sums",
    "p_vector",
    "weight_vector",
    "theta_iterate",
]

#: determinant threshold below which a recurrence step counts as singular
_SINGULAR_STEP_TOL = 1e-30

#: relative threshold for the k1 detection in `weight_vector`
_DEGENERATE_TOL = 1e-12

#: relative eigen-residual allowed when a frame is matched against a system
_FRAME_RESIDUAL_TOL = 1e-10


def _c2vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=complex).reshape(2)
    if not np.all(np.isfinite(v.view(float))):
        raise ValueError("C2 vector has non-finite components")
    return v


def _c2matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=complex).reshape(2, 2)
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("C2 matrix has non-finite entries")
    return m


# --------------------------------------------------------------------------
# system and frame data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalTail:
    """Closed form G(z) = const + sum_j residues[j] / (z - poles[j]).

    Attributes
    ----------
    const : (2, 2) complex ndarray
        The constant term C.
    poles : tuple of complex
        Pole locations c_j, each with |c_j| > 1 so that the Taylor tail of G
        converges on the closed unit disk.
    residues : tuple of (2, 2) complex ndarray
        Residue matrices R_j, one per pole.
    """

    const: np.ndarray
    poles: tuple
    residues: tuple

    def __post_init__(self):
        object.__setattr__(self, "const", _c2matrix(self.const))
        poles = tuple(complex(c) for c in self.poles)
        residues = tuple(_c2matrix(r) for r in self.residues)
        if len(poles) != len(residues):
            raise ValueError("need one residue matrix per pole")
        for c in poles:
            if not abs(c) > 1:
                raise ValueError(
                    f"pole at {c} lies in the closed unit disk; the geometric "
                    "tail would not converge there")
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", residues)

    def coeff_at_zero(self, k: int) -> np.ndarray:
        """Taylor coefficient G_k of G(z) = sum G_k z**k."""
        out = -sum((r / c ** (k + 1) for c, r in zip(self.poles, self.residues)),
                   start=np.zeros((2, 2), dtype=complex))
        if k == 0:
            out = out + self.const
        return out

    def coeff_at_one(self, k: int) -> np.ndarray:
        """Coefficient G~_k of G(z) = sum G~_k (1-z)**k."""
        out = sum((r / (1 - c) ** (k + 1) for c, r in zip(self.poles, self.residues)),
                  start=np.zeros((2, 2), dtype=complex))
        if k == 0:
            out = out + self.const
        return out


@dataclass(frozen=True)
class TwoPointSystem:
    """The data of the system y' = (A/z + B/(z-1) + G(z)) y.

    Either ``tail`` is given (rational structure, preferred: O(1) work per
    recurrence step) or both coefficient streams are given explicitly
    (generic structure, O(k) work per step from the stored history).

    Attributes
    ----------
    A, B : (2, 2) complex ndarray
        Residue matrices at the singular points z=0 and z=1.
    g_at_zero, g_at_one : callable k -> (2,2) ndarray, optional
        Taylor coefficient streams of G at z=0 / z=1 (generic structure).
    tail : RationalTail, optional
        Closed rational form of G (rational structure).
    """

    A: np.ndarray
    B: np.ndarray
    g_at_zero: Callable[[int], np.ndarray] | None = None
    g_at_one: Callable[[int], np.ndarray] | None = None
    tail: RationalTail | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", _c2matrix(self.A))
        object.__setattr__(self, "B", _c2matrix(self.B))
        if self.tail is None and self.g_at_zero is None:
            raise ValueError("need a rational tail or a g_at_zero stream")

    @property
    def structure(self) -> str:
        """Structure tag: ``"rational"`` or ``"generic"``."""
        return "rational" if self.tail is not None else "generic"

    @classmethod
    def from_rational(cls, A, B, const, poles=(), residues=()) -> "TwoPointSystem":
        """Build a rational-structure system from C, c_j, R_j."""
        return cls(A=A, B=B, tail=RationalTail(const, tuple(poles), tuple(residues)))

    @classmethod
    def from_streams(cls, A, B, g_at_zero, g_at_one=None) -> "TwoPointSystem":
        """Build a generic-structure system from coefficient streams."""
        return cls(A=A, B=B, g_at_zero=g_at_zero, g_at_one=g_at_one)


@dataclass(frozen=True)
class SpectralFrame:
    """Exponent/eigenvector data at the two singular points.

    Attributes
    ----------
    alpha0 : complex
        Chosen eigenvalue of A (exponent at z=0).
    a0 : (2,) complex ndarray
        Eigenvector of A for alpha0; series start vector.
    beta1, beta2 : complex
        The two eigenvalues of B (exponents at z=1), beta1 != beta2.
    b1, b2 : (2,) complex ndarray
        Eigenvectors of B for beta1 / beta2.
    """

    alpha0: complex
    a0: np.ndarray
    beta1: complex
    beta2: complex
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha0", complex(self.alpha0))
        object.__setattr__(self, "beta1", complex(self.beta1))
        object.__setattr__(self, "beta2", complex(self.beta2))
        for name in ("a0", "b1", "b2"):
            object.__setattr__(self, name, _c2vector(getattr(self, name)))
        if self.beta1 == self.beta2:
            raise FrameMismatch("beta1 and beta2 must be distinct")
        if not self.delta.real > -1:
            raise FrameMismatch(
                f"Re(delta) = {self.delta.real} <= -1 is outside the frame's "
                "admissible region")
        det12 = self.b1[0] * self.b2[1] - self.b1[1] * self.b2[0]
        scale = _norm2(self.b1) * _norm2(self.b2)
        if abs(det12) <= 1e-14 * scale:
            raise FrameMismatch("b1 and b2 are (numerically) linearly dependent")

    @property
    def delta(self) -> complex:
        """Exponent difference beta2 - beta1."""
        return self.beta2 - self.beta1


@dataclass(frozen=True)
class ShiftedSystem:
    """System data after the exponent shift, ready for the recurrence.

    Represents eta' = (A0/z + A1/(z-1) + G(z)) eta.  ``tail_const``,
    ``tail_poles`` and ``tail_residues`` hold the (possibly re-centered)
    rational data; for generic systems ``stream`` yields the coefficient
    stream and an internal cache grows lazily as steps are taken.
    """

    A0: np.ndarray
    A1: np.ndarray
    stream: Callable[[int], np.ndarray] | None = None
    tail_const: np.ndarray | None = None
    tail_poles: tuple = ()
    tail_residues: tuple = ()
    _stream_cache: list = field(default_factory=list, repr=False, compare=False)

    @property
    def is_rational(self) -> bool:
        return self.tail_const is not None

    def _coeff(self, k: int) -> np.ndarray:
        """Cached generic-stream coefficient G_k."""
        cache = self._stream_cache
        while len(cache) <= k:
            cache.append(_c2matrix(self.stream(len(cache))))
        return cache[k]


def _norm2(v: np.ndarray) -> float:
    return math.hypot(abs(v[0]), abs(v[1]))


def _eigen_residual(M: np.ndarray, val: complex, vec: np.ndarray) -> float:
    r = M @ vec - val * vec
    scale = max(_norm2(M @ vec), abs(val) * _norm2(vec), 1e-300)
    return _norm2(r) / scale


def _check_frame(system: TwoPointSystem, frame: SpectralFrame) -> None:
    checks = (
        ("a0", system.A, frame.alpha0, frame.a0),
        ("b1", system.B, frame.beta1, frame.b1),
        ("b2", system.B, frame.beta2, frame.b2),
    )
    for name, M, val, vec in checks:
        res = _eigen_residual(M, val, vec)
        if res > _FRAME_RESIDUAL_TOL:
            raise FrameMismatch(
                f"{name} is not an eigenvector for its exponent "
                f"(relative residual {res:.2e})")


# --------------------------------------------------------------------------
# shifted systems
# --------------------------------------------------------------------------

def build_shifted(system: TwoPointSystem, frame: SpectralFrame) -> ShiftedSystem:
    """Shift the system by the frame exponents at z=0.

    Returns the system satisfied by eta with
    ``y = z**alpha0 (1-z)**(beta1+1) eta``, i.e. ``A0 = A - alpha0*I`` and
    ``A1 = B - (beta1+1)*I``; the G data is inherited unchanged.

    Raises
    ------
    FrameMismatch
        If the frame's eigen-residuals against the system exceed 1e-10
        (relative).
    """
    _check_frame(system, frame)
    eye = np.eye(2)
    A0 = system.A - frame.alpha0 * eye
    A1 = system.B - (frame.beta1 + 1) * eye
    if system.structure == "rational":
        t = system.tail
        return ShiftedSystem(A0=A0, A1=A1, tail_const=t.const,
                             tail_poles=t.poles, tail_residues=t.residues)
    return ShiftedSystem(A0=A0, A1=A1, stream=system.g_at_zero)


def mirrored_shifted(system: TwoPointSystem, frame: SpectralFrame) -> ShiftedSystem:
    """Shifted system of the mirrored problem (z -> 1-z).

    The mirrored system has A0~ = B - beta2*I, A1~ = A - alpha0*I and the
    negated, re-centered G stream.  Running `frobenius_step` on the result,
    started from u_0 = d~_0 = b2, yields the mirrored prefix sums d~_k used by
    `p_vector`.
    """
    _check_frame(system, frame)
    return _mirrored(system, frame)


def _mirrored(system: TwoPointSystem, frame: SpectralFrame) -> ShiftedSystem:
    """`mirrored_shifted` without the frame check."""
    eye = np.eye(2)
    A0 = system.B - frame.beta2 * eye
    A1 = system.A - frame.alpha0 * eye
    if system.structure == "rational":
        t = system.tail
        # -G(1-x) = -C + sum_j R_j / (x - (1 - c_j))
        return ShiftedSystem(A0=A0, A1=A1, tail_const=-t.const,
                             tail_poles=tuple(1 - c for c in t.poles),
                             tail_residues=t.residues)
    if system.g_at_one is None:
        raise ValueError("mirrored run needs the g_at_one stream")
    g1 = system.g_at_one
    return ShiftedSystem(A0=A0, A1=A1, stream=lambda k: -np.asarray(g1(k)))


# --------------------------------------------------------------------------
# Frobenius recurrence
# --------------------------------------------------------------------------

@dataclass(slots=True)
class SeriesState:
    """Recurrence state after k steps.

    Attributes
    ----------
    k : int
        Step index; state holds u_k and d_k.
    u : (2,) complex ndarray
        Latest series coefficient u_k = d_k - d_{k-1}.
    d : (2,) complex ndarray
        Prefix sum d_k = u_0 + ... + u_k.
    history : list of ndarray or None
        All u_0..u_k (generic structure only; drives the convolution).
    tail_sums : list of ndarray or None
        Geometric accumulators s_k^(j) = s_{k-1}^(j)/c_j + u_k, one per pole
        (rational structure only).
    """

    k: int
    u: np.ndarray
    d: np.ndarray
    history: list | None = None
    tail_sums: list | None = None


def series_start(vector, shifted: ShiftedSystem) -> SeriesState:
    """Initial state u_0 = d_0 = vector (with s_0^(j) = vector per pole)."""
    v = _c2vector(vector)
    if shifted.is_rational:
        sums = [v.copy() for _ in shifted.tail_poles]
        return SeriesState(k=0, u=v, d=v.copy(), tail_sums=sums)
    return SeriesState(k=0, u=v, d=v.copy(), history=[v])


def frobenius_step(state: SeriesState, shifted: ShiftedSystem) -> SeriesState:
    """Advance the recurrence one step: u_{k+1}, d_{k+1} from the state.

    Implements u_k = (A0 - k)^(-1) ((A1 + 1) d_{k-1} - sum_{l<k} G_{k-1-l} u_l)
    and d_k = d_{k-1} + u_k.  For rational structure the convolution collapses
    to  C u_{k-1} - sum_j (R_j / c_j) s_{k-1}^(j)  with the geometric
    accumulators updated as s_k = s_{k-1}/c_j + u_k in O(1) per pole; this
    runs one step of the scalar kernel that `theta_iterate` and `prefix_sums`
    use.  Generic structure evaluates the full convolution from the stored
    history.

    Raises
    ------
    SingularStep
        If |det(A0 - k*I)| < 1e-30 at the new index k.
    ValueError
        If a rational state does not hold one accumulator per pole.
    """
    if shifted.is_rational:
        if state.tail_sums is None or (len(state.tail_sums)
                                       != len(shifted.tail_poles)):
            raise ValueError("state needs one tail accumulator per pole")
        sums = [s.tolist() for s in state.tail_sums]
        k, u0, u1, d0, d1 = next(_rational_steps(
            shifted, state.k, state.u.tolist(), state.d.tolist(), sums))
        return SeriesState(k=k, u=np.array([u0, u1]), d=np.array([d0, d1]),
                           tail_sums=[np.array(s) for s in sums])

    k = state.k + 1
    hist = state.history
    conv = np.zeros(2, dtype=complex)
    for ell in range(k):
        conv = conv + shifted._coeff(k - 1 - ell) @ hist[ell]
    rhs = (shifted.A1 + np.eye(2)) @ state.d - conv
    # closed-form 2x2 solve of (A0 - k I) u = rhs; the determinant doubles
    # as the singular-step guard
    (a11, a12), (a21, a22) = shifted.A0.tolist()
    m11, m22 = a11 - k, a22 - k
    det = m11 * m22 - a12 * a21
    if abs(det) < _SINGULAR_STEP_TOL:
        raise _singular_step(k, det)
    u = np.array([(m22 * rhs[0] - a12 * rhs[1]) / det,
                  (m11 * rhs[1] - a21 * rhs[0]) / det])
    return SeriesState(k=k, u=u, d=state.d + u, history=hist + [u])


def _singular_step(k: int, det: complex) -> SingularStep:
    return SingularStep(f"A0 - {k}*I is singular (|det| = {abs(det):.3e})")


def _rational_steps(shifted: ShiftedSystem, k: int, u: list, d: list,
                    sums: list):
    """Scalar recurrence kernel for rational structure.

    Starts from u_k = ``u`` and d_k = ``d`` (pairs of complex) and yields
    ``(k, u0, u1, d0, d1)`` after every step, without end.  ``sums`` holds
    one [s0, s1] list per pole and is advanced in place.  Raises
    SingularStep at the first k with |det(A0 - k*I)| < 1e-30.
    """
    (a11, a12), (a21, a22) = shifted.A0.tolist()
    (e11, e12), (e21, e22) = (shifted.A1 + np.eye(2)).tolist()
    (c11, c12), (c21, c22) = shifted.tail_const.tolist()
    a12a21 = a12 * a21
    # per pole: the entries of R_j / c_j, 1 / c_j and the accumulator s^(j)
    poles = [(*(r / c).ravel().tolist(), 1 / c, s)
             for c, r, s in zip(shifted.tail_poles, shifted.tail_residues,
                                sums)]
    u0, u1 = u
    d0, d1 = d
    # w = sum_j (R_j / c_j) s^(j), carried from each step into the next
    w0 = sum(q11 * s[0] + q12 * s[1] for q11, q12, _, _, _, s in poles)
    w1 = sum(q21 * s[0] + q22 * s[1] for _, _, q21, q22, _, s in poles)
    while True:
        k += 1
        r0 = e11 * d0 + e12 * d1 - (c11 * u0 + c12 * u1) + w0
        r1 = e21 * d0 + e22 * d1 - (c21 * u0 + c22 * u1) + w1
        m11 = a11 - k
        m22 = a22 - k
        det = m11 * m22 - a12a21
        if abs(det) < _SINGULAR_STEP_TOL:
            raise _singular_step(k, det)
        u0 = (m22 * r0 - a12 * r1) / det
        u1 = (m11 * r1 - a21 * r0) / det
        w0 = w1 = 0
        for q11, q12, q21, q22, inv_c, s in poles:
            s0 = s[0] = s[0] * inv_c + u0
            s1 = s[1] = s[1] * inv_c + u1
            w0 += q11 * s0 + q12 * s1
            w1 += q21 * s0 + q22 * s1
        d0 += u0
        d1 += u1
        yield k, u0, u1, d0, d1


def _generic_steps(state: SeriesState, shifted: ShiftedSystem):
    """`frobenius_step` from ``state`` on, yielding like `_rational_steps`."""
    while True:
        state = frobenius_step(state, shifted)
        (u0, u1), (d0, d1) = state.u.tolist(), state.d.tolist()
        yield state.k, u0, u1, d0, d1


def _steps(state: SeriesState, shifted: ShiftedSystem):
    """Steps k+1, k+2, ... of the series from ``state`` as scalar tuples."""
    if shifted.is_rational:
        return _rational_steps(shifted, state.k, state.u.tolist(),
                               state.d.tolist(),
                               [s.tolist() for s in state.tail_sums])
    return _generic_steps(state, shifted)


def prefix_sums(shifted: ShiftedSystem, start, n_terms: int) -> np.ndarray:
    """Prefix sums d_0..d_{n_terms-1} of the series started from ``start``.

    Returns a complex array of shape (n_terms, 2).  Rational structure runs
    the scalar kernel; generic structure steps `frobenius_step`.

    Raises
    ------
    SingularStep
        As `frobenius_step`.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    state = series_start(start, shifted)
    steps = itertools.islice(_steps(state, shifted), n_terms - 1)
    # streamed into the array: a list of row tuples would hold several
    # times the result's memory at the peak
    flat = itertools.chain(state.d.tolist(), itertools.chain.from_iterable(
        (d0, d1) for _, _, _, d0, d1 in steps))
    return np.fromiter(flat, dtype=complex, count=2 * n_terms).reshape(-1, 2)


def _power_sum(coefs, x):
    """sum_k coefs[k] * x**k, truncated adaptively.

    Stops once 3 terms in a row are each at most 1e-12 * |running sum|.
    The sum starts from 0, so real coefficients at real x give a real sum.
    """
    total = 0
    xk = 1.0
    small = 0
    for ck in coefs:
        term = ck * xk
        total += term
        xk *= x
        if abs(term) <= 1e-12 * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    return total


# --------------------------------------------------------------------------
# acceleration vectors and the Theta iteration
# --------------------------------------------------------------------------

def p_vector(b2, tilde_prefix: Sequence, delta: complex, k: int, n: int) -> np.ndarray:
    """Acceleration vector p_k of order n.

    p_k = b2 + sum_{l=1..n} (prod_{m=0..l-1} (m+delta)/(m+delta-k)) d~_l,
    with the product factors accumulated iteratively.

    Parameters
    ----------
    b2 : (2,) complex array-like
    tilde_prefix : sequence of (2,) arrays
        Mirrored prefix sums d~_0, d~_1, ..., at least n entries beyond d~_0.
    delta : complex
        Exponent difference beta2 - beta1.
    k : int
        Current index; must satisfy k > Re(delta) + n - 1 so no denominator
        vanishes.
    n : int
        Acceleration order (n = 0 returns b2 unchanged).
    """
    if n < 0:
        raise ValueError("acceleration order n must be >= 0")
    if len(tilde_prefix) < n + 1:
        raise ValueError(f"tilde_prefix needs >= {n} entries beyond d~_0")
    if not k > complex(delta).real + n - 1:
        raise ValueError(f"index k={k} too small for order n={n}")
    p = _c2vector(b2).copy()
    prod = 1.0 + 0.0j
    for ell in range(1, n + 1):
        m = ell - 1
        prod *= (m + delta) / (m + delta - k)
        p += prod * np.asarray(tilde_prefix[ell], dtype=complex)
    return p


def weight_vector(b1, p) -> np.ndarray:
    """Weight vector nu = J p / <J p, b1>, J = [[0,1],[-1,0]].

    Satisfies <b1, nu> = 1 and <p, nu> = 0 in the bilinear pairing.

    Raises
    ------
    DegenerateFrame
        If |det(b1, p)| <= 1e-12 * ||b1|| * ||p|| (b1 and p too close to
        parallel; the caller should advance k and retry).
    """
    b1 = _c2vector(b1)
    p = _c2vector(p)
    # <J p, b1> = b1[0] p[1] - b1[1] p[0] = det of the (b1, p) column pair
    norm = b1[0] * p[1] - b1[1] * p[0]
    if abs(norm) <= _DEGENERATE_TOL * _norm2(b1) * _norm2(p):
        raise DegenerateFrame(
            f"det(b1, p) = {norm:.3e} too small to normalize the weight vector")
    return np.array([p[1] / norm, -p[0] / norm])


@dataclass(frozen=True)
class ThetaResult:
    """Outcome of a Theta iteration.

    Attributes
    ----------
    theta : complex
        Final Theta_k (the best estimate of Theta).
    error_bound : float
        A posteriori bound 2 * k * |Theta_k - Theta_{k-1}| / (Re(delta)+n+1);
        at convergence this is <= 2*tol and, on the regression corpus, an
        upper bound for the true error |Theta - Theta_k|.
    k_final : int
        Terminal series index.
    n : int
        Acceleration order used.
    tau_estimate : complex
        k**(delta+n+2) * (Theta_k - Theta_{k-1}), the empirical limit
        constant of the difference sequence (principal branch power).
    status : str
        One of ``"converged"``, ``"k_max_reached"``, ``"frame_degenerate"``.
    """

    theta: complex
    error_bound: float
    k_final: int
    n: int
    tau_estimate: complex
    status: str


#: error_bound carries this factor over the raw bound (stands in for 1+eps)
_BOUND_SAFETY = 2.0

#: number of trailing bounds required to be non-increasing before stopping
_MONOTONE_STEPS = 5


def theta_iterate(system: TwoPointSystem, frame: SpectralFrame, n: int = 5,
                  tol: float = 1e-10, k_max: int = 10 ** 6,
                  tilde_prefix: Sequence | None = None) -> ThetaResult:
    """Iterate Theta_k = <d_k, nu_k> until the a posteriori bound meets tol.

    Runs the mirrored recurrence for the first n prefix sums d~_1..d~_n, then
    advances the main recurrence, forming p_k, nu_k and Theta_k at each step
    once the frame is nondegenerate.  For rational structure this is one
    loop of plain complex arithmetic on the scalar kernel (see the module
    docstring); p_k and nu_k follow the formulas of `p_vector` and
    `weight_vector`.
    Stops at the first k where

        k * |Theta_k - Theta_{k-1}| / (Re(delta) + n + 1) <= tol

    and the bound has been non-increasing over the last 5 recorded steps
    (values at or below tol never break monotonicity: near the roundoff floor
    of |Theta_k - Theta_{k-1}| the sequence jitters by design).  The reported
    ``error_bound`` carries a safety factor 2 over the raw bound.

    Parameters
    ----------
    system, frame : TwoPointSystem, SpectralFrame
    n : int
        Acceleration order.  The default 5 reaches ~1e-10 bounds within a few
        hundred steps on the wave-equation systems; n <= 1 may need millions
        of steps (raise k_max accordingly).
    tol : float
        Target for the raw a posteriori bound.
    k_max : int
        Step budget; on exhaustion the best Theta_k and bound so far are
        returned with status ``"k_max_reached"``.
    tilde_prefix : sequence, optional
        Precomputed d~_0..d~_n.  Used by callers that know the mirrored
        coefficients without a second recurrence run (e.g. symmetric
        systems); default is to run `mirrored_shifted` through `prefix_sums`.

    Returns
    -------
    ThetaResult
        With status ``"frame_degenerate"`` (and NaN theta) if no k <= k_max
        admits a valid weight vector.

    Raises
    ------
    ValueError
        If tol < 0, n < 0, tilde_prefix is too short, or b1, b2 or
        d~_0..d~_n are not finite.
    SingularStep
        As `frobenius_step`.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    if n < 0:
        raise ValueError("acceleration order n must be >= 0")
    delta = frame.delta
    shifted = build_shifted(system, frame)      # the one frame check
    if tilde_prefix is None:
        tilde_prefix = prefix_sums(_mirrored(system, frame), frame.b2, n + 1)
    elif len(tilde_prefix) < n + 1:
        raise ValueError(f"tilde_prefix needs >= {n} entries beyond d~_0")

    # everything the loop reads, unpacked and checked for finiteness once
    b10, b11 = _c2vector(frame.b1).tolist()
    b20, b21 = _c2vector(frame.b2).tolist()
    b1_norm = math.hypot(abs(b10), abs(b11))
    tilde = [_c2vector(v).tolist() for v in tilde_prefix[:n + 1]]
    # p_k = b2 + sum_l (prod_{m<l} (m+delta)/(m+delta-k)) d~_l
    accel = [(m + delta, t0, t1) for m, (t0, t1) in enumerate(tilde[1:])]

    denom = delta.real + n + 1
    k_start = max(math.floor(delta.real + n - 1) + 1, 1)
    steps = itertools.islice(_steps(series_start(frame.a0, shifted), shifted),
                             k_max)
    prev_theta = None       # Theta_{k-1}; None after a skipped index
    theta = complex("nan")
    raw_bound = math.inf    # latest recorded bound
    calm = 0                # trailing recorded bounds with no increase
    last_pair = None
    seen_valid = False

    for k, _, _, d0, d1 in steps:
        if k < k_start:
            continue
        p0, p1 = b20, b21
        prod = 1.0
        for m_delta, t0, t1 in accel:
            prod *= m_delta / (m_delta - k)
            p0 += prod * t0
            p1 += prod * t1
        # nu = J p / <J p, b1>; the weight_vector degeneracy test
        norm = b10 * p1 - b11 * p0
        if abs(norm) <= _DEGENERATE_TOL * b1_norm * math.hypot(abs(p0),
                                                               abs(p1)):
            # k < k1: no usable weight vector yet; step on
            prev_theta = None
            continue
        seen_valid = True
        theta = d0 * (p1 / norm) + d1 * (-p0 / norm)
        if prev_theta is not None:
            dtheta = theta - prev_theta
            bound = k * abs(dtheta) / denom
            # values at or below tol never break the non-increasing run
            calm = calm + 1 if bound <= raw_bound or bound <= tol else 1
            raw_bound = bound
            last_pair = (k, dtheta)
            if bound <= tol and calm >= _MONOTONE_STEPS:
                return ThetaResult(
                    theta=theta, error_bound=_BOUND_SAFETY * bound,
                    k_final=k, n=n, tau_estimate=_tau(last_pair, delta, n),
                    status="converged")
        prev_theta = theta

    if not seen_valid:
        return ThetaResult(theta=complex("nan"), error_bound=math.inf,
                           k_final=k_max, n=n, tau_estimate=complex("nan"),
                           status="frame_degenerate")
    bound = _BOUND_SAFETY * raw_bound if math.isfinite(raw_bound) else math.inf
    return ThetaResult(theta=theta, error_bound=bound, k_final=k_max, n=n,
                       tau_estimate=_tau(last_pair, delta, n),
                       status="k_max_reached")


def _tau(last_pair, delta: complex, n: int) -> complex:
    """tau estimate k**(delta+n+2) * dTheta, principal branch."""
    if last_pair is None:
        return complex("nan")
    k, dtheta = last_pair
    return cmath.exp((delta + n + 2) * math.log(k)) * dtheta


def _real_part(values, what: str):
    """Real part of ``values`` (scalar or array), which must be real.

    Raises
    ------
    ConsistencyError
        If some |imaginary part| exceeds 1e-10 * max(1, max |values|).
    """
    v = np.asarray(values)
    imag = float(np.max(np.abs(v.imag), initial=0.0))
    scale = max(float(np.max(np.abs(v), initial=0.0)), 1.0)
    if not imag <= 1e-10 * scale:
        raise ConsistencyError(
            f"{what} should be real for real parameters (imaginary part "
            f"{imag:.3e})")
    return v.real


def _real_guard(result: ThetaResult, inputs_real: bool) -> ThetaResult:
    """Check that a finite Theta from real parameters is real."""
    if inputs_real and math.isfinite(result.theta.real):
        _real_part(result.theta, f"theta = {result.theta}")
    return result

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

For rational structure every series runs on one scalar recurrence kernel,
which reads one plain description of the problem, a `ThetaKernel`: Python
scalars for the entries of A0, A1 + I and C and the (R_j / c_j, 1 / c_j) per
pole, for the main and the mirrored series, plus a0, b1, b2 and delta.  A
single loop advances u_k, d_k and the geometric sums s_k^(j) with no array
allocation per step.  A value whose
imaginary part is exactly 0 is unpacked as a float, any other as a complex
(`_unpack`), so real problems run on float arithmetic.  This keeps the bits:
CPython's complex ``+``, ``-``, ``*``, ``/`` and ``abs`` on operands with
imaginary part 0 give the real part that float arithmetic gives, as long as
nothing overflows, and a float met by a complex is promoted to
``complex(x, 0.0)``.  Only the sign of an exact zero can differ; comparisons
and ``abs`` do not see it.  So a system and frame with real entries give a
Theta whose imaginary part is exactly 0, by construction and unchecked.

The Theta iteration forms p_k, nu_k and Theta_k from the same scalars inside
that loop, with the mirrored prefix sums straight from the kernel.  Spheroidal
eigenfunctions step it only as far as a sum reads; ellipsoidal ones take all
`_SERIES_TERMS` `prefix_sums` up front.  The public `frobenius_step`,
`p_vector` and `weight_vector` stay as validating single-step entry points.
Generic structure keeps its own O(k) convolution in `frobenius_step`.

Two kinds of caller fill the description.  `theta_iterate` given a
`TwoPointSystem` and a `SpectralFrame` checks the frame against the system
once, then reads the shifted arrays (`theta_kernel`).  `spheroidal.theta_t`
and `ellipsoidal.theta` fill it in closed form, with no array and no frame
check, since their frames are exact eigenvectors by construction; each
scalar comes out of the same floating-point operations as the array path,
so the values are the same bits.  `theta_many` runs many descriptions as
one batch and returns, bit for bit, what `theta_iterate` returns for each:
those whose scalars are all floats advance in lockstep, one numpy
operation per scalar operation of the loop, in the same order; a
description leaves the arrays when its iteration stops, and the last few
finish on the scalar loop from the state they reached.  IEEE arithmetic
on float64 arrays is the scalar float arithmetic, so the bits agree;
numpy's complex division is not CPython's, so a description holding a
complex scalar runs the scalar loop on its own.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (ConncoefError, DegenerateFrame, FrameMismatch,
                     NoConvergence, SingularStep)

__all__ = [
    "RationalTail",
    "TwoPointSystem",
    "SpectralFrame",
    "ShiftedSystem",
    "SeriesState",
    "ThetaResult",
    "ThetaKernel",
    "build_shifted",
    "mirrored_shifted",
    "series_start",
    "frobenius_step",
    "prefix_sums",
    "p_vector",
    "weight_vector",
    "theta_kernel",
    "theta_iterate",
    "theta_many",
]

#: determinant threshold below which a recurrence step counts as singular
_SINGULAR_STEP_TOL = 1e-30

#: relative threshold for the k1 detection in `weight_vector`
_DEGENERATE_TOL = 1e-12

#: relative eigen-residual allowed when a frame is matched against a system
_FRAME_RESIDUAL_TOL = 1e-10

#: length of the eigenfunctions' coefficient sequences (spheroidal: the cap)
_SERIES_TERMS = 2000


#: the 2x2 identity, read-only
_EYE = np.eye(2)
_EYE.flags.writeable = False


def _c2vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=complex).reshape(2)
    if not all(map(cmath.isfinite, v.tolist())):
        raise ValueError("C2 vector has non-finite components")
    return v


def _c2matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=complex).reshape(2, 2)
    if not all(map(cmath.isfinite, m.ravel().tolist())):
        raise ValueError("C2 matrix has non-finite entries")
    return m


def _unpack(values) -> list:
    """Kernel scalars: a float where the imaginary part is exactly 0.

    Every other value becomes a Python complex.  Float arithmetic gives the
    real part that complex arithmetic would give (see the module
    docstring), so a real problem keeps its values and runs faster.
    """
    return [v if type(v) is float
            else z.real if (z := complex(v)).imag == 0 else z for v in values]


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
        _check_exponents(self.delta, self.b1.tolist(), self.b2.tolist())

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


def _norm2(v) -> float:
    return math.hypot(abs(v[0]), abs(v[1]))


def _check_exponents(delta, b1, b2) -> None:
    """A frame's own conditions: delta != 0, Re(delta) > -1, b1 and b2
    linearly independent."""
    if delta == 0:
        raise FrameMismatch("beta1 and beta2 must be distinct")
    if not delta.real > -1:
        raise FrameMismatch(
            f"Re(delta) = {delta.real} <= -1 is outside the frame's "
            "admissible region")
    det12 = b1[0] * b2[1] - b1[1] * b2[0]
    scale = _norm2(b1) * _norm2(b2)
    if abs(det12) <= 1e-14 * scale:
        raise FrameMismatch("b1 and b2 are (numerically) linearly dependent")


def _check_frame(system: TwoPointSystem, frame: SpectralFrame) -> None:
    """Relative eigen-residual |M v - val v| / max(|M v|, |val| |v|) test."""
    A = _unpack(system.A.ravel().tolist())
    B = _unpack(system.B.ravel().tolist())
    checks = (
        ("a0", A, frame.alpha0, frame.a0),
        ("b1", B, frame.beta1, frame.b1),
        ("b2", B, frame.beta2, frame.b2),
    )
    for name, (m11, m12, m21, m22), val, vec in checks:
        val, v0, v1 = _unpack((val, *vec.tolist()))
        w0 = m11 * v0 + m12 * v1
        w1 = m21 * v0 + m22 * v1
        scale = max(_norm2((w0, w1)), abs(val) * _norm2((v0, v1)), 1e-300)
        res = _norm2((w0 - val * v0, w1 - val * v1)) / scale
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
    A0 = system.A - frame.alpha0 * _EYE
    A1 = system.B - (frame.beta1 + 1) * _EYE
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
    A0 = system.B - frame.beta2 * _EYE
    A1 = system.A - frame.alpha0 * _EYE
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
# the kernel's description of a Theta problem
# --------------------------------------------------------------------------

class ThetaKernel(NamedTuple):
    """Everything `theta_iterate` reads, as Python scalars.

    ``main`` describes the shifted system of the series started from ``a0``
    (see `build_shifted`), ``mirror`` that of the mirrored series started
    from ``b2`` (see `mirrored_shifted`).  Each is a flat tuple, a *side*:
    the entries of A0, A1 + I and C, row-major, then per pole c_j the
    entries of R_j / c_j, row-major, and 1 / c_j.  A generic-structure
    system keeps its two `ShiftedSystem` objects there instead.  ``b1``,
    ``b2`` and ``delta`` = beta2 - beta1 are the frame's data at z = 1.
    Make one with `theta_kernel`.
    """

    main: tuple | ShiftedSystem
    mirror: tuple | ShiftedSystem
    a0: tuple
    b1: tuple
    b2: tuple
    delta: float | complex


def _side(values) -> tuple:
    """A side of kernel scalars (see `ThetaKernel`), each through `_unpack`.

    Raises ValueError if one is not finite.
    """
    side = tuple(_unpack(values))
    if not all(map(cmath.isfinite, side)):
        raise ValueError("Theta kernel has non-finite entries")
    return side


def _series(shifted: ShiftedSystem):
    """The side of a rational shifted system; a generic one as is."""
    if not shifted.is_rational:
        return shifted
    # numpy divides a complex array by c as a product with 1 / c
    return _side([*shifted.A0.ravel().tolist(),
                  *(shifted.A1 + _EYE).ravel().tolist(),
                  *shifted.tail_const.ravel().tolist(),
                  *itertools.chain(*((*(r / c).ravel().tolist(), 1 / c)
                                     for c, r in zip(shifted.tail_poles,
                                                     shifted.tail_residues)))])


def theta_kernel(main, mirror, a0, b1, b2, delta) -> ThetaKernel:
    """Check a Theta problem's data and unpack it into a `ThetaKernel`.

    ``main`` and ``mirror`` are each a sequence of numbers laid out as a
    side (see `ThetaKernel`), or a generic-structure `ShiftedSystem`, taken
    as is.  ``a0``, ``b1`` and ``b2`` are pairs of numbers.  Every number
    goes through `_unpack`, so a real problem is described by floats.

    Raises
    ------
    ValueError
        If a number is not finite.
    FrameMismatch
        As `SpectralFrame`: delta = 0, Re(delta) <= -1, or b1 and b2
        (numerically) linearly dependent.
    """
    sides = [s if isinstance(s, ShiftedSystem) else _side(s)
             for s in (main, mirror)]
    frame = _side([*a0, *b1, *b2, delta])
    a0, b1, b2 = frame[0:2], frame[2:4], frame[4:6]
    _check_exponents(frame[6], b1, b2)
    return ThetaKernel(*sides, a0, b1, b2, frame[6])


def _frame_kernel(system: TwoPointSystem, frame: SpectralFrame) -> ThetaKernel:
    """The `ThetaKernel` of a system and frame, after the one frame check."""
    shifted = build_shifted(system, frame)
    return theta_kernel(_series(shifted), _series(_mirrored(system, frame)),
                        frame.a0.tolist(), frame.b1.tolist(),
                        frame.b2.tolist(), frame.delta)


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
        sums = [_unpack(s.tolist()) for s in state.tail_sums]
        k, u0, u1, d0, d1 = next(_rational_steps(
            _series(shifted), state.k, _unpack(state.u.tolist()),
            _unpack(state.d.tolist()), sums))
        return SeriesState(k=k, u=np.array([u0, u1], dtype=complex),
                           d=np.array([d0, d1], dtype=complex),
                           tail_sums=[np.array(s, dtype=complex) for s in sums])

    k = state.k + 1
    hist = state.history
    conv = np.zeros(2, dtype=complex)
    for ell in range(k):
        conv = conv + shifted._coeff(k - 1 - ell) @ hist[ell]
    rhs = (shifted.A1 + _EYE) @ state.d - conv
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


def _rational_steps(side: tuple, k: int, u: list, d: list, sums: list):
    """Scalar recurrence kernel for rational structure.

    Starts from u_k = ``u`` and d_k = ``d`` (pairs of scalars) and yields
    ``(k, u0, u1, d0, d1)`` after every step, without end.  ``sums`` holds
    one [s0, s1] list per pole and is advanced in place.  All of them are
    kernel scalars (see `_unpack`), like the side's, so a real problem
    steps on floats and yields floats.  Raises SingularStep at the first k
    with |det(A0 - k*I)| < 1e-30.
    """
    a11, a12, a21, a22, e11, e12, e21, e22, c11, c12, c21, c22 = side[:12]
    a12a21 = a12 * a21
    # per pole: the entries of R_j / c_j, 1 / c_j and the accumulator s^(j)
    poles = [(*side[j:j + 5], s) for j, s in zip(range(12, len(side), 5),
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
        u0, u1, d0, d1 = _unpack([*state.u.tolist(), *state.d.tolist()])
        yield state.k, u0, u1, d0, d1


def _steps(series, start: list):
    """Steps 1, 2, ... of the series from u_0 = d_0 = ``start`` (2 scalars).

    ``series`` is a side of a `ThetaKernel` or a `ShiftedSystem`.
    """
    if isinstance(series, ShiftedSystem):
        if not series.is_rational:
            return _generic_steps(series_start(start, series), series)
        series = _series(series)
    return _rational_steps(series, 0, start, start,
                           [list(start) for _ in range(12, len(series), 5)])


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
    start = _unpack(_c2vector(start).tolist())
    steps = itertools.islice(_steps(shifted, start), n_terms - 1)
    # streamed into the array: a list of row tuples would hold several
    # times the result's memory at the peak
    flat = itertools.chain(start, itertools.chain.from_iterable(
        (d0, d1) for _, _, _, d0, d1 in steps))
    return np.fromiter(flat, dtype=complex, count=2 * n_terms).reshape(-1, 2)


def _power_sum(coefs, x):
    """sum_k coefs[k] * x**k, truncated adaptively.

    Stops once 3 terms in a row are each at most 1e-12 * |running sum|.
    The sum starts from 0, so real coefficients at real x give a real sum.
    Raises NoConvergence if the sum is not finite.
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
    if not cmath.isfinite(total):
        raise NoConvergence(f"power series at x = {x} sums to {total}")
    return total


# --------------------------------------------------------------------------
# acceleration vectors and the Theta iteration
# --------------------------------------------------------------------------

def p_vector(b2, prefix: Sequence, delta: complex, k: int, n: int) -> np.ndarray:
    """Acceleration vector p_k of order n.

    p_k = b2 + sum_{l=1..n} (prod_{m=0..l-1} (m+delta)/(m+delta-k)) d~_l,
    with the product factors accumulated iteratively.

    Parameters
    ----------
    b2 : (2,) complex array-like
    prefix : sequence of (2,) arrays
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
    if len(prefix) < n + 1:
        raise ValueError(f"prefix needs >= {n} entries beyond d~_0")
    if not k > complex(delta).real + n - 1:
        raise ValueError(f"index k={k} too small for order n={n}")
    p = _c2vector(b2).copy()
    prod = 1.0 + 0.0j
    for ell in range(1, n + 1):
        m = ell - 1
        prod *= (m + delta) / (m + delta - k)
        p += prod * np.asarray(prefix[ell], dtype=complex)
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


def _first_index(n, tol, k_max, delta) -> int:
    """The one check of n, tol and k_max; returns the first usable index.

    k_start is the first k > Re(delta) + n - 1, the range `p_vector`
    admits, and at least 1.  ``tol >= 0`` is False for NaN.
    """
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if not (isinstance(tol, numbers.Real) and tol >= 0):
        raise ValueError(f"tol must be a real number >= 0, got {tol!r}")
    k_start = max(math.floor(delta.real + n - 1) + 1, 1)
    if not (isinstance(k_max, numbers.Integral) and k_max >= k_start):
        raise ValueError(f"k_max must be an integer >= the first usable index "
                         f"k = {k_start} at order n = {n}, got {k_max!r}")
    return k_start


def theta_iterate(system: TwoPointSystem, frame: SpectralFrame, n: int = 5,
                  tol: float = 1e-10, k_max: int = 10 ** 6) -> ThetaResult:
    """Iterate Theta_k = <d_k, nu_k> until the a posteriori bound meets tol.

    Runs the mirrored recurrence (the system of `mirrored_shifted`) for the
    first n prefix sums d~_1..d~_n, then advances the main recurrence,
    forming p_k, nu_k and Theta_k at each step from the first usable index
    k_start = max(floor(Re(delta) + n - 1) + 1, 1) on, once the frame is
    nondegenerate.  For rational structure this is one loop of plain scalar
    arithmetic on the kernel's description (`ThetaKernel`): every scalar
    with imaginary part exactly 0 is a float, all others complex, which
    gives the bits of all-complex arithmetic (see the module docstring).
    p_k and nu_k follow the formulas of `p_vector` and `weight_vector`;
    ``theta`` and ``tau_estimate`` are returned as complex.
    Stops at the first k where

        k * |Theta_k - Theta_{k-1}| / (Re(delta) + n + 1) <= tol

    and the bound has been non-increasing over the last 5 recorded steps
    (values at or below tol never break monotonicity: near the roundoff floor
    of |Theta_k - Theta_{k-1}| the sequence jitters by design).  The reported
    ``error_bound`` carries a safety factor 2 over the raw bound.

    Parameters
    ----------
    system, frame : TwoPointSystem, SpectralFrame
        The frame is checked against the system once.  In their place a
        `ThetaKernel` may be passed as ``system``, with ``frame`` None; it
        is read as is, with no frame check.
    n : int
        Acceleration order.  The default 5 reaches ~1e-10 bounds within a few
        hundred steps on the wave-equation systems; n <= 1 may need millions
        of steps (raise k_max accordingly).
    tol : float
        Target for the raw a posteriori bound.
    k_max : int
        Step budget, at least k_start; on exhaustion the best Theta_k and
        bound so far are returned with status ``"k_max_reached"``.

    Returns
    -------
    ThetaResult
        With status ``"frame_degenerate"`` (and NaN theta) if no k in
        k_start..k_max admits a valid weight vector.

    Raises
    ------
    ValueError
        Before any series work unless n is an integer >= 0, tol a real
        number >= 0 (not NaN) and k_max an integer >= k_start; and if
        d~_0..d~_n are not finite.
    FrameMismatch
        As `build_shifted`.
    SingularStep
        As `frobenius_step`.
    """
    if isinstance(system, ThetaKernel):
        if frame is not None:
            raise TypeError("pass frame=None with a ThetaKernel")
        kernel = system
        k_start = _first_index(n, tol, k_max, kernel.delta)
    else:
        k_start = _first_index(n, tol, k_max, frame.delta)
        kernel = _frame_kernel(system, frame)       # the one frame check

    main, mirror, (a00, a01), b1, (b20, b21), delta = kernel
    # p_k = b2 + sum_l (prod_{m<l} (m+delta)/(m+delta-k)) d~_l, with the
    # mirrored prefix sums d~_1..d~_n straight from the kernel
    mirrored = itertools.islice(_steps(mirror, [b20, b21]), n)
    accel = [(m + delta, t0, t1)
             for m, (_, _, _, t0, t1) in enumerate(mirrored)]
    if not all(cmath.isfinite(t0) and cmath.isfinite(t1)
               for _, t0, t1 in accel):
        raise ValueError(_MIRROR_NOT_FINITE)
    steps = itertools.islice(_steps(main, [a00, a01]), k_max)
    return _theta_loop(steps, accel, b1, (b20, b21), delta, n, tol, k_max,
                       k_start)


#: the state of `_theta_loop` before its first step: Theta_{k-1} (None after
#: a skipped index), the last Theta_k, the latest recorded bound, the
#: trailing recorded bounds with no increase, the last (k, dTheta), and
#: whether some k had a valid weight vector
_FRESH = (None, complex("nan"), math.inf, 0, None, False)


def _theta_loop(steps, accel, b1, b2, delta, n: int, tol, k_max: int,
                k_start: int, state=_FRESH) -> ThetaResult:
    """The Theta loop of `theta_iterate` over the main series ``steps``.

    ``accel`` holds (m + delta, d~_{m+1}) per order m < n; ``state`` is the
    loop's state after the steps before ``steps`` (see `_FRESH`), so that a
    run of `_lockstep` can end here, bit for bit.
    """
    prev_theta, theta, raw_bound, calm, last_pair, seen_valid = state
    (b10, b11), (b20, b21) = b1, b2
    b1_norm = math.hypot(abs(b10), abs(b11))
    denom = delta.real + n + 1
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
                return _converged(theta, bound, k, n, last_pair, delta)
        prev_theta = theta

    if not seen_valid:
        return ThetaResult(theta=complex("nan"), error_bound=math.inf,
                           k_final=k_max, n=n, tau_estimate=complex("nan"),
                           status="frame_degenerate")
    bound = _BOUND_SAFETY * raw_bound if math.isfinite(raw_bound) else math.inf
    return ThetaResult(theta=complex(theta), error_bound=bound,
                       k_final=k_max, n=n,
                       tau_estimate=_tau(last_pair, delta, n),
                       status="k_max_reached")


_MIRROR_NOT_FINITE = "mirrored prefix sums d~_0..d~_n are not finite"


def _converged(theta, bound, k, n, last_pair, delta) -> ThetaResult:
    """The result of a run that met its stop rule at step k."""
    return ThetaResult(theta=complex(theta), error_bound=_BOUND_SAFETY * bound,
                       k_final=k, n=n, tau_estimate=_tau(last_pair, delta, n),
                       status="converged")


def _tau(last_pair, delta: complex, n: int) -> complex:
    """tau estimate k**(delta+n+2) * dTheta, principal branch."""
    if last_pair is None:
        return complex("nan")
    k, dtheta = last_pair
    return cmath.exp((delta + n + 2) * math.log(k)) * dtheta


# --------------------------------------------------------------------------
# many Theta problems in lockstep
# --------------------------------------------------------------------------

def theta_many(kernels, n: int = 5, tol: float = 1e-10,
               k_max: int = 10 ** 6) -> list:
    """`theta_iterate` of many `ThetaKernel` objects, bit for bit, as a batch.

    ``kernels`` may be any iterable; it is read once, and a float kernel is
    kept only as its scalars.  Returns one entry per kernel, in order: the
    `ThetaResult` that ``theta_iterate(kernel, None, n=n, tol=tol,
    k_max=k_max)`` returns, or None where that call raises a
    `ConncoefError` or an `ArithmeticError`.

    Kernels whose scalars are all floats advance together, grouped by first
    usable index and side lengths: one numpy loop runs the operations of
    the scalar loop in the same order on arrays with one entry per kernel,
    so IEEE arithmetic gives the same bits.  Kernels that stop leave the
    arrays, and once fewer than `_LOCKSTEP_MIN` are left, those finish on
    the scalar loop from the state they reached, since a numpy step then
    costs more than their scalar steps.  Any other kernel (a complex
    scalar, generic structure) runs `theta_iterate` on its own, because
    numpy's complex division is not CPython's.

    Raises
    ------
    ValueError
        As `theta_iterate`: before any series work for a bad n, tol or
        k_max, and if some kernel's d~_0..d~_n are not finite.
    """
    out = []
    groups = {}         # (k_start, side lengths) -> (positions, scalars)
    alone = []
    k_starts = {}       # the gate, once per distinct delta
    for i, kernel in enumerate(kernels):
        out.append(None)
        if kernel.delta not in k_starts:
            k_starts[kernel.delta] = _first_index(n, tol, k_max, kernel.delta)
        row = _float_row(kernel)
        if row is None:
            alone.append((i, kernel))
            continue
        key = (k_starts[kernel.delta], len(kernel.main), len(kernel.mirror))
        idx, scalars = groups.setdefault(key, ([], array("d")))
        idx.append(i)
        scalars.extend(row)
    # no numpy warning escapes: where the scalar loop meets inf or NaN
    # without raising, so do the arrays
    with np.errstate(all="ignore"):
        for (k_start, m, _), (idx, scalars) in groups.items():
            table = np.frombuffer(scalars).reshape(len(idx), -1).T
            for i, res in zip(idx, _lockstep(table, m, n, tol, k_max,
                                             k_start)):
                out[i] = res
    for i, kernel in alone:
        try:
            out[i] = theta_iterate(kernel, None, n=n, tol=tol, k_max=k_max)
        except (ConncoefError, ArithmeticError):
            pass
    return out


def _float_row(kernel: ThetaKernel) -> list | None:
    """The kernel's scalars in `_lockstep`'s order, or None unless every one
    is a float."""
    main, mirror, a0, b1, b2, delta = kernel
    if isinstance(main, ShiftedSystem):
        return None
    row = [*main, *mirror, *a0, *b1, *b2, delta]
    return row if set(map(type, row)) == {float} else None


def _batch_start(side, x0, x1) -> list:
    """State u_0 = d_0 = s_0^(j) = (x0, x1) of `_batch_step` on ``side``."""
    w0 = w1 = np.zeros(len(x0))
    for j in range(12, len(side), 5):
        q11, q12, q21, q22, _ = side[j:j + 5]
        w0 = w0 + (q11 * x0 + q12 * x1)
        w1 = w1 + (q21 * x0 + q22 * x1)
    return [x0, x1, x0, x1, w0, w1] + [x0, x1] * ((len(side) - 12) // 5)


def _batch_step(k: int, side, state: list):
    """One `_rational_steps` step on arrays, operation for operation.

    ``side`` holds one row per scalar of a side (see `ThetaKernel`),
    ``state`` the arrays u0, u1, d0, d1, w0, w1 and s0, s1 per pole.
    Returns the new state and the mask of singular steps.
    """
    a11, a12, a21, a22, e11, e12, e21, e22, c11, c12, c21, c22 = side[:12]
    u0, u1, d0, d1, w0, w1, *sums = state
    r0 = e11 * d0 + e12 * d1 - (c11 * u0 + c12 * u1) + w0
    r1 = e21 * d0 + e22 * d1 - (c21 * u0 + c22 * u1) + w1
    m11 = a11 - k
    m22 = a22 - k
    det = m11 * m22 - a12 * a21
    u0 = (m22 * r0 - a12 * r1) / det
    u1 = (m11 * r1 - a21 * r0) / det
    w0 = w1 = np.zeros(len(det))
    for i, j in enumerate(range(12, len(side), 5)):
        q11, q12, q21, q22, inv_c = side[j:j + 5]
        s0 = sums[2 * i] = sums[2 * i] * inv_c + u0
        s1 = sums[2 * i + 1] = sums[2 * i + 1] * inv_c + u1
        w0 = w0 + (q11 * s0 + q12 * s1)
        w1 = w1 + (q21 * s0 + q22 * s1)
    return ([u0, u1, d0 + u0, d1 + u1, w0, w1, *sums],
            np.abs(det) < _SINGULAR_STEP_TOL)


def _degenerate(norm, b1_norm, p0, p1):
    """The `weight_vector` degeneracy test of `theta_iterate`, on arrays.

    np.hypot and math.hypot may differ in the last bit, so every node the
    arrays find degenerate, or within a hair of it, is decided by
    math.hypot on its scalars, as the scalar loop decides it.
    """
    lhs = np.abs(norm)
    rhs = _DEGENERATE_TOL * b1_norm * np.hypot(p0, p1)
    out = np.zeros(len(lhs), dtype=bool)
    for j in np.flatnonzero(lhs <= rhs * (1 + 1e-14)).tolist():
        out[j] = lhs[j] <= _DEGENERATE_TOL * b1_norm[j] * math.hypot(
            abs(p0[j]), abs(p1[j]))
    return out


#: fewest kernels a `_lockstep` step runs: one step costs about 100 numpy
#: calls, near 1.5 us each on small arrays, and a scalar step about 3.5 us
#: (2-core x86-64, CPython 3.11), so below this many kernels the rest
#: finish faster on the scalar loop
_LOCKSTEP_MIN = 32


def _lockstep(table, m: int, n: int, tol, k_max: int, k_start: int) -> list:
    """The loop of `theta_iterate` on columns of float kernels.

    ``table`` has one row per scalar in `_float_row`'s order, with the main
    side in its first ``m`` rows, and one column per kernel; ``k_start`` is
    the kernels' first usable index.  Every array operation is the scalar
    loop's operation, in the same order.  Returns a `ThetaResult`, or None
    for a raised `ConncoefError` or `ArithmeticError`, per column.
    """
    results = [None] * table.shape[1]
    mirror = table[m:-7]
    a00, a01, b10, b11, b20, b21, delta = table[-7:]

    # the mirrored prefix sums d~_1..d~_n; a singular step fails its kernel
    state = _batch_start(mirror, b20, b21)
    failed = np.zeros(table.shape[1], dtype=bool)
    accel = []
    for k in range(1, n + 1):
        state, singular = _batch_step(k, mirror, state)
        failed |= singular
        accel += [(k - 1) + delta, state[2], state[3]]
    if not all(np.isfinite(t[~failed]).all()
               for t in accel[1::3] + accel[2::3]):
        raise ValueError(_MIRROR_NOT_FINITE)

    # the main series; every per-kernel constant sits in one table, so that
    # one index drops the kernels that stopped
    b1_norm = [math.hypot(abs(x), abs(y))
               for x, y in zip(b10.tolist(), b11.tolist())]
    consts = np.vstack([table[:m], a00, a01, b10, b11, b20, b21, b1_norm,
                        delta, delta + n + 1, *accel])

    def split(consts):
        return consts[:m], consts[m:m + 9], consts[m + 9:]

    side, (a00, a01, b10, b11, b20, b21, b1_norm, delta, denom), acc = split(
        consts)
    state = _batch_start(side, a00, a01)
    cols = np.arange(len(failed))       # the table column of each entry
    prev = theta = last_d = np.full(len(cols), np.nan)
    raw = np.full(len(cols), np.inf)
    calm = last_k = np.zeros(len(cols), dtype=int)
    has_prev = seen = has_last = np.zeros(len(cols), dtype=bool)
    done = failed       # stopped, with its result (or None) recorded

    def finish(j, k):
        """Entry j's run, continued from step k on the scalar loop."""
        x = [v[j].item() for v in state]
        a = acc[:, j].tolist()
        steps = _rational_steps(tuple(side[:, j].tolist()), k, x[0:2], x[2:4],
                                [x[i:i + 2] for i in range(6, len(x), 2)])
        loop_state = (prev[j].item() if has_prev[j] else None,
                      theta[j].item() if seen[j] else complex("nan"),
                      raw[j].item(), calm[j].item(),
                      (last_k[j].item(), last_d[j].item())
                      if has_last[j] else None, bool(seen[j]))
        return _theta_loop(itertools.islice(steps, k_max - k),
                           list(zip(a[0::3], a[1::3], a[2::3])),
                           (b10[j].item(), b11[j].item()),
                           (b20[j].item(), b21[j].item()), delta[j].item(),
                           n, tol, k_max, k_start, loop_state)

    for k in range(1, k_max + 1):
        state, stop = _batch_step(k, side, state)
        if k >= k_start:
            p0, p1 = b20, b21
            prod = 1.0
            for m_delta, t0, t1 in zip(acc[0::3], acc[1::3], acc[2::3]):
                prod = prod * (m_delta / (m_delta - k))
                p0 = p0 + prod * t0
                p1 = p1 + prod * t1
            norm = b10 * p1 - b11 * p0
            valid = ~_degenerate(norm, b1_norm, p0, p1)
            theta_k = state[2] * (p1 / norm) + state[3] * (-p0 / norm)
            new = valid & has_prev      # the kernels that record a bound
            dtheta = theta_k - prev
            bound = k * np.abs(dtheta) / denom
            calm = np.where(new, np.where((bound <= raw) | (bound <= tol),
                                          calm + 1, 1), calm)
            raw = np.where(new, bound, raw)
            last_k = np.where(new, k, last_k)
            last_d = np.where(new, dtheta, last_d)
            has_last = has_last | new
            theta = np.where(valid, theta_k, theta)
            seen = seen | valid
            prev, has_prev = theta_k, valid
            conv = (new & (bound <= tol) & (calm >= _MONOTONE_STEPS)
                    & ~(stop | done))
            for j in np.flatnonzero(conv).tolist():
                results[cols[j]] = _or_none(
                    _converged, theta_k[j].item(), bound[j].item(), k, n,
                    (k, dtheta[j].item()), delta[j].item())
            stop = stop | conv
        done = done | stop
        left = np.flatnonzero(~done)
        if len(left) < _LOCKSTEP_MIN or k == k_max:
            break
        # stopped kernels step on until a quarter of the arrays is spent
        if 4 * (len(done) - len(left)) >= len(done):
            keep = ~done
            cols = cols[keep]
            consts = consts[:, keep]
            side, (a00, a01, b10, b11, b20, b21, b1_norm, delta, denom), \
                acc = split(consts)
            state = [x[keep] for x in state]
            (prev, theta, last_d, raw, calm, last_k, has_prev, seen, has_last,
             done) = (x[keep] for x in (prev, theta, last_d, raw, calm, last_k,
                                        has_prev, seen, has_last, done))
    # the kernels left finish on the scalar loop from step k (at k = k_max,
    # with no step to go)
    for j in left.tolist():
        results[cols[j]] = _or_none(finish, j, k)
    return results


def _or_none(make, *args):
    """``make(*args)``, or None if it raises a ConncoefError or an
    ArithmeticError, as a node of `theta_many` does."""
    try:
        return make(*args)
    except (ConncoefError, ArithmeticError):
        return None

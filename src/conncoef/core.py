"""Connection-coefficient engine for 2x2 systems with two regular singular points.

This module works on first-order systems

    y'(z) = (A/z + B/(z-1) + G(z)) y(z),                                 (*)

where ``A`` and ``B`` are constant complex 2x2 matrices and ``G`` is analytic
on a neighbourhood of the closed unit disk, given in the closed rational form

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

valid for every eps > 0 once k is large enough; it stops once that bound
meets tol, or rtol * |Theta_k| when a relative limit is asked for; see
`theta_iterate`.

Every series runs on one scalar recurrence kernel, which reads one plain
description of the problem, a `ThetaKernel`: Python scalars for the entries
of A0, A1 + I and C and the (R_j / c_j, 1 / c_j) per pole, for the main and
the mirrored series, plus a0, b1, b2 and delta.  One function, `_advance`,
advances u_k, d_k and the geometric sums s_k^(j) m steps at a time: in a
loop written out for a side with no pole and for one with one pole, with
no array allocation per step, and for any other side by the one general
step, `_step`, which also runs a batch on numpy columns.  A value whose
imaginary part is exactly 0 is unpacked as a float, any other as a complex
(`_unpack`), so real problems run on float arithmetic.  This keeps the
bits: CPython's complex ``+``, ``-``, ``*``, ``/`` and ``abs`` on operands
with imaginary part 0 give the real part that float arithmetic gives, as
long as nothing overflows, and a float met by a complex is promoted to
``complex(x, 0.0)``.  Only the sign of an exact zero can differ;
comparisons and ``abs`` do not see it.  So a system and frame with real
entries give a Theta whose imaginary part is exactly 0, by construction
and unchecked.

The Theta iteration steps the main series in blocks and reads each block
in one of two ways, with the mirrored prefix sums straight from the
kernel.  The *head*, which most series never leave, forms p_k, nu_k and
Theta_k from the same scalars step by step.  A series whose scalars are
all floats leaves it after `_HEAD` steps, or sooner once its bound shows a
long series still to go, and reads the rest in float64 chunks with
`_read`, the one numpy reader, which reads `theta_many`'s batches too:
p_k, nu_k, Theta_k, the bound and the stop rule, which need only k, the
mirrored sums and the frame besides d_k, are formed for a block of steps
at once, one numpy operation per scalar operation of the head, in the
same order.  IEEE arithmetic on float64 arrays is the scalar float
arithmetic, so the bits agree; steps past the stop are computed and
dropped.  A series with a complex scalar stays in the head, since numpy's
complex division is not CPython's.

Eigenfunctions are built for real problems only, so their series are
real.  Both families sum series of terms of the prefix sums' second
components, at most `_SERIES_TERMS` of them, in one class, `_Series`: it
steps a kernel side of floats only as far as a sum reads, `_CHUNK` steps
at a time (`_advance`), keeps the terms as float64, and resumes from the
recurrence state it left.  Only the map from d_k to a term is the
family's own.  One summer, `_power_sum`, sums such a series at all the
points of an array at once, `_CHUNK` terms at a time, in float64, and
gives at each point the bits of the scalar loop that sums one term after
another.
`frobenius_step` is one step of the kernel on a side, as a function of its
state; the library's loops run the kernel directly.

Only this module knows how a side is laid out.  One builder forms the
description from the numbers of A, B, the tail and the frame: its
arithmetic, `_kernel_rows`, forms A - alpha0*I, A1 + I, the mirrored
system with -C and poles 1 - c_j, and R_j / c_j, on numbers or on numpy
columns alike, as `_step` does; `_kernel_of` finishes numbers into a
`ThetaKernel` and `_float_table` finishes float64 columns into a table for
`_lockstep`, with its checks as masks.  `theta_kernel` (and so
`theta_iterate` given a `TwoPointSystem` and a `SpectralFrame`) checks the
frame against the system once, then runs it on the entries of their
arrays.  `spheroidal.theta_t` and `ellipsoidal.theta` run it on the numbers
their `build_system` and `spectral_frame` are made of, with no array and
no frame check, since their frames are exact eigenvectors by construction;
the same numbers through the same operations give the same bits.
`ellipsoidal.scan_grid` runs it on the columns of all its nodes at once,
and `spheroidal._theta_batch` on a column of t.

`theta_many` runs many descriptions as one batch and returns, bit for bit,
what `theta_iterate` returns for each: those whose scalars are all floats
advance in lockstep on numpy columns, stepped through `_step` and read by
`_read` a block of `_HEAD_EVERY` steps at a time; a description leaves
the arrays when its iteration stops, and the last few finish on the loop
of `theta_iterate` (head and tail) from the state they reached.  A
description holding a complex scalar runs `theta_iterate` on its own.
A table of float kernels built as columns runs the same lockstep with no
`ThetaKernel` in between (`_theta_table`): `ellipsoidal.scan_grid` runs
the Theta and Theta-hat kernels of all its nodes so, and
`spheroidal.eigenvalues` and the command line's spheroidal scan run so
the scan samples they are sure to read (`spheroidal._theta_batch`).
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConncoefError, FrameMismatch, NoConvergence, SingularStep

__all__ = [
    "RationalTail",
    "TwoPointSystem",
    "SpectralFrame",
    "ThetaResult",
    "ThetaKernel",
    "frobenius_step",
    "theta_kernel",
    "theta_iterate",
    "theta_many",
]

#: determinant threshold below which a recurrence step counts as singular
_SINGULAR_STEP_TOL = 1e-30

#: relative threshold for the degenerate-weight-vector (k < k1) test
_DEGENERATE_TOL = 1e-12

#: relative eigen-residual allowed when a frame is matched against a system
_FRAME_RESIDUAL_TOL = 1e-10

#: length of the eigenfunctions' coefficient sequences (`_Series`)
_SERIES_TERMS = 2000

#: terms a `_Series` computes at a time, when a read passes the known ones,
#: and `_power_sum` sums at a time
_CHUNK = 32


def _finite(x, shape) -> np.ndarray:
    """x as a complex array of ``shape``, every entry finite."""
    a = np.asarray(x, dtype=complex).reshape(shape)
    if not all(map(cmath.isfinite, a.ravel().tolist())):
        raise ValueError(f"C2 {'vector' if a.ndim == 1 else 'matrix'} has "
                         "non-finite entries")
    return a


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
        object.__setattr__(self, "const", _finite(self.const, (2, 2)))
        poles = tuple(complex(c) for c in self.poles)
        residues = tuple(_finite(r, (2, 2)) for r in self.residues)
        if len(poles) != len(residues):
            raise ValueError("need one residue matrix per pole")
        for c in poles:
            if not abs(c) > 1:
                raise ValueError(
                    f"pole at {c} lies in the closed unit disk; the geometric "
                    "tail would not converge there")
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", residues)


@dataclass(frozen=True)
class TwoPointSystem:
    """The data of the system y' = (A/z + B/(z-1) + G(z)) y.

    G is given in closed rational form, so every recurrence step is O(1)
    work.

    Attributes
    ----------
    A, B : (2, 2) complex ndarray
        Residue matrices at the singular points z=0 and z=1.
    tail : RationalTail
        Closed rational form of G.
    """

    A: np.ndarray
    B: np.ndarray
    tail: RationalTail

    def __post_init__(self):
        object.__setattr__(self, "A", _finite(self.A, (2, 2)))
        object.__setattr__(self, "B", _finite(self.B, (2, 2)))

    @classmethod
    def from_rational(cls, A, B, const, poles=(), residues=()) -> "TwoPointSystem":
        """Build a system from C, c_j, R_j."""
        return cls(A=A, B=B, tail=RationalTail(const, tuple(poles), tuple(residues)))


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
            object.__setattr__(self, name, _finite(getattr(self, name), 2))
        _check_exponents(self.delta, self.b1.tolist(), self.b2.tolist())

    @property
    def delta(self) -> complex:
        """Exponent difference beta2 - beta1."""
        return self.beta2 - self.beta1


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
# the kernel's description of a Theta problem
# --------------------------------------------------------------------------

class ThetaKernel(NamedTuple):
    """Everything `theta_iterate` reads, as Python scalars.

    ``main`` describes the shifted system eta' = (A0/z + A1/(z-1) + G) eta
    of the series started from ``a0``, with A0 = A - alpha0*I and
    A1 = B - (beta1+1)*I.  ``mirror`` describes the mirrored series
    (z -> 1-z) started from ``b2``, with A0 = B - beta2*I, A1 = A - alpha0*I
    and -G(1-x) = -C + sum_j R_j / (x - (1 - c_j)) in place of G.  Each is
    a flat tuple, a *side*: the entries of A0, A1 + I and C, row-major, then
    per pole c_j the entries of R_j / c_j, row-major, and 1 / c_j.  ``b1``,
    ``b2`` and ``delta`` = beta2 - beta1 are the frame's data at z = 1.
    `theta_kernel` makes one from a system and frame.
    """

    main: tuple
    mirror: tuple
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


def _kernel_rows(A, B, const, poles, residues, alpha0, a0, beta1, beta2, b1,
                 b2) -> list:
    """The scalars of the `ThetaKernel` of a system and frame, unchecked,
    in `_float_row`'s order.

    ``A``, ``B``, ``const`` and each of ``residues`` are the entries of a
    2x2 matrix, row-major; ``a0``, ``b1`` and ``b2`` are pairs.  The main
    side holds A - alpha0*I, (B - (beta1+1)*I) + I and C, the mirrored side
    B - beta2*I, (A - alpha0*I) + I and -C with the poles 1 - c_j; each
    R_j / c_j is formed as R_j * (1 / c_j).  Like `_step`, this runs on
    numbers or on numpy columns, one entry per kernel; the poles are
    numbers.  `_kernel_of` finishes numbers, `_float_table` columns.
    """
    a11, a12, a21, a22 = A
    b11, b12, b21, b22 = B
    c11, c12, c21, c22 = const
    m11, m22 = a11 - alpha0, a22 - alpha0
    shift = beta1 + 1
    main = [m11, a12, a21, m22, b11 - shift + 1, b12, b21, b22 - shift + 1,
            c11, c12, c21, c22]
    mirror = [b11 - beta2, b12, b21, b22 - beta2, m11 + 1, a12, a21, m22 + 1,
              -c11, -c12, -c21, -c22]
    for c, (r11, r12, r21, r22) in zip(poles, residues):
        for side, inv_c in ((main, 1 / c), (mirror, 1 / (1 - c))):
            side += (r11 * inv_c, r12 * inv_c, r21 * inv_c, r22 * inv_c, inv_c)
    return [*main, *mirror, *a0, *b1, *b2, beta2 - beta1]


def _kernel_of(A, B, const, poles, residues, alpha0, a0, beta1, beta2, b1,
               b2) -> ThetaKernel:
    """The `ThetaKernel` of a system and frame given as numbers, unchecked
    against each other: `_kernel_rows`, each number through `_unpack`, so
    a real problem is described by floats.

    Raises
    ------
    ValueError
        If a number is not finite.
    FrameMismatch
        As `SpectralFrame`: delta = 0, Re(delta) <= -1, or b1 and b2
        (numerically) linearly dependent.
    """
    s = _side(_kernel_rows(A, B, const, poles, residues, alpha0, a0, beta1,
                           beta2, b1, b2))
    _check_exponents(s[-1], s[-5:-3], s[-3:-1])
    return _split(s, 12 + 5 * len(poles))


def _split(s: tuple, m: int) -> ThetaKernel:
    """The `ThetaKernel` of the scalars ``s`` in `_float_row`'s order, with
    the main side in the first ``m``."""
    return ThetaKernel(s[:m], s[m:-7], s[-7:-5], s[-5:-3], s[-3:-1], s[-1])


def _float_table(rows, size: int) -> tuple:
    """`_kernel_of` on columns: the float64 table of ``rows``, from
    `_kernel_rows` on columns of ``size`` real kernels, where a number
    stands for a column of its value, and the mask of the kernels for
    which `_kernel_of` would not raise.

    Each check of `_kernel_of` is a mask: every scalar finite (`_side`),
    then `_check_exponents`.  np.hypot and math.hypot may differ in the last
    bit, so the columns only pick the kernels whose exponents fail, or
    come within a hair of failing, and `_check_exponents` decides each on
    its scalars.
    """
    table = np.empty((len(rows), size))
    for row, x in zip(table, rows):
        row[...] = x
    ok = np.isfinite(table).all(axis=0)
    delta, (b10, b11), (b20, b21) = table[-1], table[-5:-3], table[-3:-1]
    near = (delta == 0) | ~(delta > -1) | (
        np.abs(b10 * b21 - b11 * b20)
        <= np.hypot(b10, b11) * np.hypot(b20, b21) * (1e-14 * (1 + 1e-12)))
    for j in np.flatnonzero(near & ok).tolist():
        try:
            _check_exponents(delta[j].item(), table[-5:-3, j].tolist(),
                             table[-3:-1, j].tolist())
        except FrameMismatch:
            ok[j] = False
    return table, ok


def theta_kernel(system: TwoPointSystem, frame: SpectralFrame) -> ThetaKernel:
    """The `ThetaKernel` of a system and frame, after the one frame check.

    Its `theta_iterate` and `theta_many` results are those of
    ``theta_iterate(system, frame)``, bit for bit.

    Raises
    ------
    FrameMismatch
        If the frame's eigen-residuals against the system exceed 1e-10
        (relative).
    """
    _check_frame(system, frame)
    tail = system.tail
    return _kernel_of(system.A.ravel().tolist(), system.B.ravel().tolist(),
                      tail.const.ravel().tolist(), tail.poles,
                      [r.ravel().tolist() for r in tail.residues],
                      frame.alpha0, frame.a0.tolist(), frame.beta1,
                      frame.beta2, frame.b1.tolist(), frame.b2.tolist())


# --------------------------------------------------------------------------
# Frobenius recurrence
# --------------------------------------------------------------------------

def _singular_step(k: int, det: complex) -> SingularStep:
    return SingularStep(f"A0 - {k}*I is singular (|det| = {abs(det):.3e})")


def _origin(side: tuple, start: Sequence) -> tuple:
    """The state (k, u, d, sums) at k = 0 of the series on a side of a
    `ThetaKernel` from u_0 = d_0 = ``start`` (2 kernel scalars)."""
    start = tuple(start)
    return 0, start, start, [list(start) for _ in range(12, len(side), 5)]


def _step(k: int, side, state: list):
    """Step k of the recurrence kernel on a side with any number of poles,
    on Python scalars or on numpy columns, one entry per kernel.

    ``side`` holds a side's scalars (see `ThetaKernel`), or a row per
    scalar; ``state`` is the flat list u0, u1, d0, d1 and s0, s1 per pole
    after step k - 1, ``[x0, x1] * (2 + poles)`` for the series from
    (x0, x1).  Its entries are replaced, never added to in place, and
    det(A0 - k*I) is returned for the caller to judge; on scalars, an exact
    zero raises ZeroDivisionError.
    """
    a11, a12, a21, a22, e11, e12, e21, e22, c11, c12, c21, c22 = side[:12]
    u0, u1, d0, d1 = state[:4]
    poles = range(12, len(side), 5), range(4, len(state), 2)
    w0 = w1 = 0         # w = sum_j (R_j / c_j) s^(j), formed at entry
    for j, i in zip(*poles):
        q11, q12, q21, q22, _ = side[j:j + 5]
        w0 = w0 + (q11 * state[i] + q12 * state[i + 1])
        w1 = w1 + (q21 * state[i] + q22 * state[i + 1])
    r0 = e11 * d0 + e12 * d1 - (c11 * u0 + c12 * u1) + w0
    r1 = e21 * d0 + e22 * d1 - (c21 * u0 + c22 * u1) + w1
    m11 = a11 - k
    m22 = a22 - k
    det = m11 * m22 - a12 * a21
    u0 = (m22 * r0 - a12 * r1) / det
    u1 = (m11 * r1 - a21 * r0) / det
    state[0], state[1], state[2], state[3] = u0, u1, d0 + u0, d1 + u1
    for j, i in zip(*poles):
        inv_c = side[j + 4]
        state[i] = state[i] * inv_c + u0
        state[i + 1] = state[i + 1] * inv_c + u1
    return det


def _advance(side: tuple, state: tuple, m: int, d0s: list, d1s: list):
    """The state after m more steps of the recurrence kernel on ``side``.

    ``state`` is ``(k, u, d, sums)`` as in `frobenius_step`, and is left
    unchanged; the new one is returned in the same form.  The first and
    second components of d_{k+1}, ..., d_{k+m} are appended to ``d0s`` and
    ``d1s``.  All values are kernel scalars (see `_unpack`), like the
    side's, so a real problem steps on floats.  Raises SingularStep at the
    first k with |det(A0 - k*I)| < 1e-30; a step that raises leaves the
    lists holding every step before it.

    The loop is written out for a side with no pole (spheroidal) and with
    one (ellipsoidal); any other side steps through `_step`, the general
    step, on a flat state.  The written-out loops differ from it only where
    the result cannot: they count k in floats, and add a float 0.0 where it
    adds an int 0 (its empty sum over poles, or the start of its sum over
    one pole); either operand is converted to the same double, so
    ``a11 - k`` and ``0 + x`` keep their bits, signs of zero included.
    `_step` divides before the check: a det that is an exact zero raises
    ZeroDivisionError there, read as det = 0.
    """
    k, (u0, u1), (d0, d1), sums = state
    a11, a12, a21, a22, e11, e12, e21, e22, c11, c12, c21, c22 = side[:12]
    a12a21 = a12 * a21
    tiny = _SINGULAR_STEP_TOL
    put0, put1 = d0s.append, d1s.append
    if len(side) == 12:
        for k in map(float, range(k + 1, k + m + 1)):
            r0 = e11 * d0 + e12 * d1 - (c11 * u0 + c12 * u1) + 0.0
            r1 = e21 * d0 + e22 * d1 - (c21 * u0 + c22 * u1) + 0.0
            m11 = a11 - k
            m22 = a22 - k
            det = m11 * m22 - a12a21
            if abs(det) < tiny:
                raise _singular_step(int(k), det)
            u0 = (m22 * r0 - a12 * r1) / det
            u1 = (m11 * r1 - a21 * r0) / det
            d0 += u0
            d1 += u1
            put0(d0)
            put1(d1)
        return int(k), (u0, u1), (d0, d1), []
    if len(side) == 17:
        q11, q12, q21, q22, inv_c = side[12:]
        (s0, s1), = sums
        w0 = 0.0 + (q11 * s0 + q12 * s1)
        w1 = 0.0 + (q21 * s0 + q22 * s1)
        for k in map(float, range(k + 1, k + m + 1)):
            r0 = e11 * d0 + e12 * d1 - (c11 * u0 + c12 * u1) + w0
            r1 = e21 * d0 + e22 * d1 - (c21 * u0 + c22 * u1) + w1
            m11 = a11 - k
            m22 = a22 - k
            det = m11 * m22 - a12a21
            if abs(det) < tiny:
                raise _singular_step(int(k), det)
            u0 = (m22 * r0 - a12 * r1) / det
            u1 = (m11 * r1 - a21 * r0) / det
            s0 = s0 * inv_c + u0
            s1 = s1 * inv_c + u1
            w0 = 0.0 + (q11 * s0 + q12 * s1)
            w1 = 0.0 + (q21 * s0 + q22 * s1)
            d0 += u0
            d1 += u1
            put0(d0)
            put1(d1)
        return int(k), (u0, u1), (d0, d1), [[s0, s1]]
    flat = [u0, u1, d0, d1, *(x for s in sums for x in s)]
    for k in range(k + 1, k + m + 1):
        try:
            det = _step(k, side, flat)
        except ZeroDivisionError:       # det is an exact zero
            det = 0
        if abs(det) < tiny:
            raise _singular_step(k, det)
        put0(flat[2])
        put1(flat[3])
    return k, (flat[0], flat[1]), (flat[2], flat[3]), [
        flat[i:i + 2] for i in range(4, len(flat), 2)]


def frobenius_step(state: tuple, side: tuple) -> tuple:
    """One step of the recurrence kernel on a side of a `ThetaKernel`.

    ``state`` is ``(k, u, d, sums)``: the index k, u_k and d_k as pairs of
    kernel scalars (see `_unpack`), and one [s0, s1] accumulator
    s_k^(j) = s_{k-1}^(j) / c_j + u_k per pole of the side.  The series
    from a start vector v begins at ``(0, v, v, sums)`` with one copy of v
    per pole in ``sums``.  Returns the state at k + 1 in the same form,
    computing

        u_k = (A0 - k)^(-1) ((A1 + 1) d_{k-1} - C u_{k-1}
                              + sum_j (R_j / c_j) s_{k-1}^(j)),
        d_k = d_{k-1} + u_k,

    and leaves the given state unchanged.  The library never calls it: its
    loops run the kernel directly, in blocks of steps (`_advance`).

    Raises
    ------
    SingularStep
        If |det(A0 - k*I)| < 1e-30 at the new index k.
    ValueError
        If the state does not hold one accumulator per pole of the side.
    """
    if len(state[3]) != (len(side) - 12) // 5:
        raise ValueError("state needs one tail accumulator per pole")
    return _advance(side, state, 1, [], [])


def _power_sum(coefs, x):
    """sum_k coefs[k] * x**k at each point of x, truncated adaptively.

    ``coefs`` are real and ``x`` is a float or a float64 array; the sums
    are floats in the shape of x.  At each point the sum is, bit for bit,
    the sequential loop

        total, xk = 0, 1.0
        for ck in coefs:
            term = ck * xk;  total += term;  xk *= x
            stop once 3 terms in a row each have
                abs(term) <= 1e-12 * max(abs(total), 1e-300)

    run for all points at once.  ``coefs`` is read from one iterator,
    `_CHUNK` terms at a time, into a points x chunk matrix of the powers
    (np.multiply.accumulate, sequential products) and of the totals
    (np.add.accumulate, sequential sums, where np.sum sums pairwise).  A
    point leaves the arrays at its stop, so a call holds points x `_CHUNK`
    values however long its series.

    Raises NoConvergence if the sum at some point is not finite: an
    argument outside the disk of convergence, or a NaN one, which reads
    every term.
    """
    xs = np.asarray(x, dtype=float)
    at = xs.ravel()                     # x of the points still summing
    live = np.arange(at.size)           # and their places
    out = np.zeros(at.size)
    xk, total, tail = 1.0, 0.0, False   # x**k, sum and the last two small
    terms = iter(coefs)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(live) and (chunk := list(itertools.islice(terms, _CHUNK))):
            m = len(chunk)
            power = np.empty((len(live), m + 1))
            power[:, 0] = xk
            power[:, 1:] = at[:, None]
            np.multiply.accumulate(power, axis=1, out=power)
            xk = power[:, m]
            # the running total and the terms, then the totals
            acc = np.empty((2, len(live), m + 1))
            acc[0, :, 0] = total
            np.multiply(np.array(chunk, dtype=float), power[:, :m],
                        out=acc[0, :, 1:])
            np.add.accumulate(acc[0], axis=1, out=acc[1])
            size = np.abs(acc[:, :, 1:])
            small = size[0] <= 1e-12 * np.maximum(size[1], 1e-300)
            seq = np.empty((len(live), m + 2), bool)
            seq[:, :2] = tail
            seq[:, 2:] = small
            three = seq[:, :-2] & seq[:, 1:-1] & seq[:, 2:]
            total, tail = acc[1, :, m], seq[:, -2:]
            stops = three.any(axis=1)
            if stops.any():
                first = three.argmax(axis=1)[stops] + 1
                out[live[stops]] = acc[1, stops, first]
                if stops.all():
                    break
                keep = ~stops
                live, at, xk = live[keep], at[keep], xk[keep]
                total, tail = total[keep], tail[keep]
        else:                           # the points left read every term
            out[live] = total
    if not np.isfinite(out).all():
        i = np.flatnonzero(~np.isfinite(out))[0]
        raise NoConvergence(f"power series at x = {xs.flat[i].item()} sums "
                            f"to {out[i].item()}")
    return out.reshape(xs.shape)[()]


class _Series:
    """The terms k < `_SERIES_TERMS` of a real eigenfunction series, computed
    as they are read.

    The series on a side of a `ThetaKernel` of floats from u_0 = d_0 =
    ``start`` has as terms the second components d1 of its prefix sums
    d_k, or ``term(d1, k)`` if a map is given, which maps the float64 array
    d1 of d_k, d_{k+1}, ... to their terms.  A read past the known terms
    computes the next `_CHUNK` of them, resuming the recurrence from the
    state it left: k, u_k, d_k and the per-pole sums, plain scalars as in
    `frobenius_step`, so a series pickles and copies.  The terms are kept
    in one float64 array, and the state is dropped once all are known.

    Iteration yields the terms in order, as Python floats, the same at
    every pass; ``len`` is `_SERIES_TERMS`, an integer index reads one
    term, and ``np.asarray`` gives a copy of all of them.
    """

    def __init__(self, side: tuple, start: Sequence, term=None):
        self._side = side
        self._term = term
        self._state = _origin(side, start)
        self._terms = np.zeros(_SERIES_TERMS)
        self._known = 0

    def _compute(self, stop: int) -> None:
        """Compute the terms below ``stop`` that are not known yet, whole
        `_CHUNK`s at a time."""
        while self._known < stop:
            known = self._known
            end = min(known + _CHUNK, _SERIES_TERMS)
            d1 = [] if known else [self._state[2][1]]
            state = _advance(self._side, self._state, end - known - len(d1),
                             [], d1)
            terms = np.array(d1, dtype=float)
            self._terms[known:end] = (self._term(terms, known) if self._term
                                      else terms)
            self._known = end
            self._state = None if end == _SERIES_TERMS else state

    def __iter__(self):
        return itertools.chain.from_iterable(
            map(self._block, range(0, _SERIES_TERMS, _CHUNK)))

    def _block(self, k: int) -> list:
        """The `_CHUNK` terms from k on, computed if need be."""
        stop = min(k + _CHUNK, _SERIES_TERMS)
        self._compute(stop)
        return self._terms[k:stop].tolist()

    def __len__(self) -> int:
        return _SERIES_TERMS

    def __getitem__(self, k):
        k = range(_SERIES_TERMS)[operator.index(k)]
        self._compute(k + 1)
        return self._terms[k].item()

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("the array of a series is always a copy")
        self._compute(_SERIES_TERMS)
        return np.array(self._terms, dtype=dtype)


# --------------------------------------------------------------------------
# acceleration vectors and the Theta iteration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaResult:
    """Outcome of a Theta iteration.

    Attributes
    ----------
    theta : complex
        Final Theta_k (the best estimate of Theta).
    error_bound : float
        A posteriori bound 2 * k * |Theta_k - Theta_{k-1}| / (Re(delta)+n+1);
        at convergence this is <= 2 * max(tol, rtol * |Theta_k|) and, on the
        regression corpus, an upper bound for the true error
        |Theta - Theta_k|.
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


def _first_index(n, tol, k_max, delta, rtol=0.0) -> int:
    """The one check of n, tol, rtol and k_max; returns the first usable
    index.

    k_start is the first k > Re(delta) + n - 1, where no denominator
    m + delta - k of p_k vanishes, and at least 1; with ``delta`` None it is
    1, the least for any delta.  ``tol >= 0`` is False for NaN, and
    ``0 <= rtol < inf`` for NaN and inf.
    """
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if not (isinstance(tol, numbers.Real) and tol >= 0):
        raise ValueError(f"tol must be a real number >= 0, got {tol!r}")
    if not (isinstance(rtol, numbers.Real) and 0 <= rtol < math.inf):
        raise ValueError(f"rtol must be a finite real number >= 0, got "
                         f"{rtol!r}")
    k_start = 1 if delta is None else max(math.floor(delta.real + n - 1) + 1,
                                          1)
    if not (isinstance(k_max, numbers.Integral) and k_max >= k_start):
        raise ValueError(f"k_max must be an integer >= the first usable index "
                         f"k = {k_start} at order n = {n}, got {k_max!r}")
    return k_start


def theta_iterate(system: TwoPointSystem, frame: SpectralFrame, n: int = 5,
                  tol: float = 1e-10, k_max: int = 10 ** 6,
                  rtol: float = 0.0) -> ThetaResult:
    """Iterate Theta_k = <d_k, nu_k> until the a posteriori bound meets its
    limit, tol or rtol * |Theta_k|.

    Runs the mirrored recurrence (the ``mirror`` side of the `ThetaKernel`)
    for the first n prefix sums d~_1..d~_n, then advances the main
    recurrence in blocks of 16 steps, forming p_k, nu_k and Theta_k at each
    step from the first usable index k_start = max(floor(Re(delta) + n - 1)
    + 1, 1) on, once the frame is nondegenerate.  Each step is plain scalar
    arithmetic on the kernel's description: every scalar with imaginary
    part exactly 0 is a float, all others complex, which gives the bits of
    all-complex arithmetic (see the module docstring).  p_k and nu_k are
    the formulas of the module docstring; a k with
    |det(b1, p_k)| <= 1e-12 * ||b1|| * ||p_k|| has no usable weight vector
    and is skipped.  ``theta`` and ``tau_estimate`` are returned as
    complex.  When every scalar is a float, the steps past the first 512,
    or past a block end from step 64 on where the bound shows at least 256
    more steps to go, form Theta_k and the stop rule in float64 chunks of
    128 to 1024 steps, one numpy operation per scalar operation in the same
    order, so the result keeps every bit; a series with a complex scalar
    runs on scalars throughout (numpy's complex division is not CPython's).
    Stops at the first k where the bound

        bound_k = k * |Theta_k - Theta_{k-1}| / (Re(delta) + n + 1)

    meets its limit, ``bound_k <= tol``, or ``bound_k <= rtol * |Theta_k|``
    with rtol > 0 and bound_k (and so Theta_k) finite, and the bound has
    been non-increasing over the last 5 recorded steps (values that meet
    the limit never break monotonicity: near the roundoff floor of
    |Theta_k - Theta_{k-1}| the sequence jitters by design).  The reported
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
        Absolute target for the raw a posteriori bound.
    k_max : int
        Step budget, at least k_start; on exhaustion the best Theta_k and
        bound so far are returned with status ``"k_max_reached"``.
    rtol : float
        Relative target: a bound at or below rtol * |Theta_k| also meets
        the limit.  At large |Theta|, tol can lie below the rounding of
        Theta_k, and the absolute rule then runs until Theta_k stops
        changing in floating point; rtol stops it at the digits that
        |Theta_k| can carry.  The default 0 is the absolute rule alone.

    Returns
    -------
    ThetaResult
        With status ``"frame_degenerate"`` (and NaN theta) if no k in
        k_start..k_max admits a valid weight vector.

    Raises
    ------
    ValueError
        Before any series work unless n is an integer >= 0, tol a real
        number >= 0 (not NaN), rtol a finite real number >= 0 and k_max an
        integer >= k_start; and if d~_0..d~_n are not finite.
    FrameMismatch
        If the frame's eigen-residuals against the system exceed 1e-10
        (relative).
    SingularStep
        As `frobenius_step`.
    """
    if isinstance(system, ThetaKernel):
        if frame is not None:
            raise TypeError("pass frame=None with a ThetaKernel")
        kernel = system
        k_start = _first_index(n, tol, k_max, kernel.delta, rtol)
    else:
        k_start = _first_index(n, tol, k_max, frame.delta, rtol)
        kernel = theta_kernel(system, frame)        # the one frame check

    main, mirror, a0, b1, b2, delta = kernel
    # p_k = b2 + sum_l (prod_{m<l} (m+delta)/(m+delta-k)) d~_l, with the
    # mirrored prefix sums d~_1..d~_n straight from the kernel
    t0s, t1s = [], []
    _advance(mirror, _origin(mirror, b2), n, t0s, t1s)
    if not all(map(cmath.isfinite, t0s + t1s)):
        raise ValueError(_MIRROR_NOT_FINITE)
    accel = [(m + delta, t0, t1) for m, (t0, t1) in enumerate(zip(t0s, t1s))]
    return _theta_loop(main, _origin(main, a0), accel, b1, b2, delta, n, tol,
                       rtol, k_max, k_start, kernel)


#: the state of the Theta loop before its first step: the last usable
#: Theta_k, whether step k was usable, whether some step was, the latest
#: recorded bound, the trailing recorded bounds with no increase, and the k
#: (0: none) and dTheta of the latest recorded bound
_FRESH = (math.nan, False, False, math.inf, 0, 0, math.nan)


#: steps a float run takes in the scalar head before its float64 tail,
#: unless the bound shows a long series sooner (`_HEAD_MIN`)
_HEAD = 512

#: the head reads `_HEAD_EVERY` steps at a time, as `_lockstep` does; from
#: step `_HEAD_MIN` on, a block end where `_tail_len` predicts at least two
#: of the shortest tail chunks still to go ends a float run's head early
_HEAD_MIN, _HEAD_EVERY = 64, 16

#: fewest and most steps of one chunk of the float64 tail
_TAIL_MIN, _TAIL_MAX = 128, 1024


def _theta_loop(side: tuple, series: tuple, accel, b1, b2, delta, n: int, tol,
                rtol, k_max: int, k_start: int, kernel=None,
                state=_FRESH) -> ThetaResult:
    """The Theta loop of `theta_iterate` over the main series on ``side``.

    ``series`` is the series' state (k, u, d, sums) after step k, as in
    `frobenius_step`; ``accel`` holds (m + delta, d~_{m+1}) per order m < n;
    ``state`` is the loop's state after step k (see `_FRESH`), so that a
    run of `_lockstep` can end here, bit for bit.

    Each block of steps is stepped (`_advance`), then read.  The head reads
    `_HEAD_EVERY` steps at a time in scalars, through step `_HEAD` (or
    k_start - 1, if later), or to a block end from `_HEAD_MIN` on where
    `_tail_len` shows a long series still to go, sized from the limit at
    the last Theta_k (`_limit`).  The rest is read in float64 chunks
    (`_read`) if every scalar of ``kernel`` is a float, or if ``kernel`` is
    None, as for a run of `_lockstep`, and in the head otherwise; that
    check comes at most once, and never in a run that stops in the head.
    An error that `_advance` raises in a block is dropped when the stop
    comes earlier in the block, and raised otherwise.
    """
    theta, has_prev, seen, raw_bound, calm, last_k, last_d = state
    (b10, b11), (b20, b21) = b1, b2
    b1_norm = math.hypot(abs(b10), abs(b11))
    denom = delta.real + n + 1
    k = series[0]
    end = min(max(_HEAD, k_start - 1, k), k_max)     # the head's last step
    early = max(_HEAD_MIN, k_start)         # the first early hand-off
    head, floor = True, False
    while k < k_max:
        limit = _limit(tol, rtol, theta) if rtol else tol
        if head and (k == end or k >= early and _tail_len(
                k, raw_bound, limit, denom) >= 2 * _TAIL_MIN):
            if kernel is None or _float_row(kernel) is not None:
                head = False
                tail_accel = (np.array([a[0] for a in accel]).reshape(n, 1),
                              [a[1] for a in accel], [a[2] for a in accel])
                state = [np.array([x]) for x in (
                    theta, has_prev, seen, raw_bound, calm, last_k, last_d)]
            else:       # a complex scalar: the rest in the head
                end, early = k_max, math.inf
        if head:
            m = min(_HEAD_EVERY, end - k)
        else:
            m = min(_tail_len(k, raw_bound, limit, denom, floor), k_max - k)
        d0s, d1s, error = [], [], None
        try:
            series = _advance(side, series, m, d0s, d1s)
        except (ConncoefError, ArithmeticError) as exc:
            error = exc
        if head:
            for k, d0, d1 in zip(range(k + 1, k + m + 1), d0s, d1s):
                if k < k_start:
                    continue
                p0, p1 = b20, b21
                prod = 1.0
                for m_delta, t0, t1 in accel:
                    prod *= m_delta / (m_delta - k)
                    p0 += prod * t0
                    p1 += prod * t1
                # nu = J p / <J p, b1>, unless b1 and p are nearly parallel
                norm = b10 * p1 - b11 * p0
                if abs(norm) <= _DEGENERATE_TOL * b1_norm * math.hypot(
                        abs(p0), abs(p1)):
                    # k < k1: no usable weight vector yet; step on
                    has_prev = False
                    continue
                seen = True
                theta_k = d0 * (p1 / norm) + d1 * (-p0 / norm)
                if has_prev:
                    dtheta = theta_k - theta
                    bound = k * abs(dtheta) / denom
                    last_k, last_d = k, dtheta
                    # the limit: tol, or rtol * |Theta_k| at a finite bound
                    # (a finite bound has a finite Theta_k); a value that
                    # meets it never breaks the run
                    if bound <= tol or rtol and bound < math.inf and (
                            bound <= rtol * abs(theta_k)):
                        calm += 1
                        if calm >= _MONOTONE_STEPS:
                            return _converged(theta_k, bound, k, dtheta, n,
                                              delta)
                    else:
                        calm = calm + 1 if bound <= raw_bound else 1
                    raw_bound = bound
                theta, has_prev = theta_k, True
        elif d0s:
            stopped, floor, state = _read(
                k, np.array(d0s), np.array(d1s), tail_accel, b1, b2, b1_norm,
                denom, tol, rtol, state)
            theta, has_prev, seen, raw_bound, calm, last_k, last_d = (
                x.item() for x in state)
            if stopped:
                return _converged(theta, raw_bound, last_k, last_d, n, delta)
        if error is not None:
            raise error
        k = series[0]
    return _spent(theta, seen, raw_bound, last_k, last_d, n, k_max, delta)


def _read(k: int, d0, d1, accel, b1, b2, b1_norm, denom, tol, rtol, state):
    """Read steps k + 1, ..., k + m of the Theta loop on float64 arrays.

    Steps run along the last axis of ``d0`` and ``d1``, the prefix sums'
    components, and series along the axes before it: the float64 tail
    reads one series with scalars for the rest, `_lockstep` many with a
    (kernels, 1) column per scalar.  ``state`` is the loop's state after
    step k (see `_FRESH`), an array of shape (..., 1) per entry.  Every
    operation is the head's, in the same order, so IEEE arithmetic gives
    its bits.  Returns, per series, whether it stopped, whether it
    recorded a bound that met the limit, and its state after the block,
    or at its stop: Theta, the raw bound, k_final and dTheta there.
    """
    theta, has_prev, seen, raw, calm, last_k, last_d = state
    m = d0.shape[-1]
    with np.errstate(all="ignore"):
        ks = np.arange(k + 1, k + m + 1, dtype=float)
        thetas, valid = _theta_k(ks, d0, d1, accel, b1, b2, b1_norm)
        # along the last axis, position 0 holds the state's value and
        # position i + 1 that of step k + 1 + i (the steps' values are
        # views); ``origin`` is the flat index of each series' position 0
        thetas = np.concatenate((theta, thetas), axis=-1)
        origin = np.arange(0, thetas.size, m + 1).reshape(theta.shape)
        # the steps that record a bound: usable, after a usable step
        rec = valid & np.concatenate((has_prev, valid[..., :-1]), axis=-1)
        dthetas = np.concatenate(
            (last_d, thetas[..., 1:] - thetas[..., :-1]), axis=-1)
        bounds = np.concatenate(
            (raw, ks * np.abs(dthetas[..., 1:]) / denom), axis=-1)
        bound = bounds[..., 1:]
        low = bound <= tol
        if rtol:
            low |= (bound < np.inf) & (bound <= rtol * np.abs(thetas[..., 1:]))
        low &= rec
        # the recorded steps up to each step, the latest recorded position
        # and the bound recorded before each step, by a forward fill
        count = rec.cumsum(axis=-1)
        latest = np.maximum.accumulate(rec * np.arange(1, m + 1), axis=-1)
        before = np.concatenate(
            (raw, bounds.take(origin + latest[..., :-1])), axis=-1)
        latest = latest[..., -1:]
        # the non-increasing run after each recorded step: 1 at a step that
        # breaks it, and up from calm until one does
        breaks = rec & ~(low | (bound <= before))
        run = count - np.maximum.accumulate(
            np.where(breaks, count - 1, -calm), axis=-1)
        stop = low & (run >= _MONOTONE_STEPS)
        # the first stop, else the latest recorded and usable steps
        stopped = stop.any(axis=-1, keepdims=True)
        pos = np.where(stopped, stop.argmax(-1, keepdims=True) + 1, latest)
        at = origin + pos
        # the latest position with a usable Theta, the state's one included
        usable = np.concatenate((seen, valid), axis=-1)
        last = origin + m - usable[..., ::-1].argmax(axis=-1, keepdims=True)
        seen = usable.take(last)
        return stopped, low.any(axis=-1), (
            np.where(seen, thetas.take(np.where(stopped, at, last)), theta),
            valid[..., -1:], seen, bounds.take(at), run[..., -1:],
            np.where(pos > 0, k + pos, last_k), dthetas.take(at))


def _tail_len(k: int, raw_bound, limit, denom, floor=False) -> int:
    """Steps of the next tail chunk after step k: those until a bound
    falling like k**-denom from ``raw_bound`` meets ``limit`` (`_limit`),
    within [`_TAIL_MIN`, `_TAIL_MAX`].

    ``floor`` says that the chunk just done recorded a bound that met the
    limit without a stop: the run has reached its roundoff floor, where
    Theta_k repeats or moves by an ulp, or is a few steps from its stop;
    either way the decay does not tell when the run stops.  A chunk of
    ``steps`` is then cut to sqrt(2 * `_TAIL_MIN` * steps): the length that
    weighs one more chunk, whose numpy calls cost about `_TAIL_MIN` steps,
    against the half chunk that a chunk overshoots the stop by on average.
    """
    if raw_bound <= limit:
        return _TAIL_MIN
    if not (limit > 0 and raw_bound < math.inf):
        steps = _TAIL_MAX
    else:
        try:
            steps = min(max(k * ((raw_bound / limit) ** (1 / denom) - 1),
                            _TAIL_MIN), _TAIL_MAX)
        except OverflowError:       # denom < 1 and a bound far above limit
            steps = _TAIL_MAX
    if floor:
        steps = min(steps, math.sqrt(2 * _TAIL_MIN * steps))
    return int(steps)


def _limit(tol, rtol, theta) -> float:
    """The stop rule's limit max(tol, rtol * |theta|) for sizing the tail
    at the last Theta_k ``theta``; tol where rtol * |theta| is not finite.

    |theta| is math.hypot of its parts: CPython's abs of a complex raises
    OverflowError where |theta| overflows, and at a NaN part when a stale
    errno reads as overflow.
    """
    rel = rtol * math.hypot(theta.real, theta.imag)
    return rel if tol < rel < math.inf else tol


def _spent(theta, seen, raw_bound, last_k, last_d, n: int, k_max: int,
           delta) -> ThetaResult:
    """The result of a run that took all k_max steps without a stop."""
    if not seen:
        return ThetaResult(theta=complex("nan"), error_bound=math.inf,
                           k_final=k_max, n=n, tau_estimate=complex("nan"),
                           status="frame_degenerate")
    bound = _BOUND_SAFETY * raw_bound if math.isfinite(raw_bound) else math.inf
    return ThetaResult(theta=complex(theta), error_bound=bound,
                       k_final=k_max, n=n,
                       tau_estimate=_tau(last_k, last_d, delta, n),
                       status="k_max_reached")


_MIRROR_NOT_FINITE = "mirrored prefix sums d~_0..d~_n are not finite"


def _converged(theta, bound, k, dtheta, n, delta) -> ThetaResult:
    """The result of a run that met its stop rule at step k."""
    return ThetaResult(theta=complex(theta), error_bound=_BOUND_SAFETY * bound,
                       k_final=k, n=n, tau_estimate=_tau(k, dtheta, delta, n),
                       status="converged")


def _tau(k: int, dtheta, delta: complex, n: int) -> complex:
    """tau estimate k**(delta+n+2) * dTheta, principal branch; k = 0: NaN."""
    if not k:
        return complex("nan")
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
    so IEEE arithmetic gives the same bits: `_step`, the step of
    `_advance` on a side with two or more poles, and `_read`, the reader of
    the float64 tail, `_HEAD_EVERY` steps at a time.  Kernels that stop
    leave the arrays, and once fewer than `_LOCKSTEP_MIN` are left, those
    finish on the loop of `theta_iterate` from the state they reached,
    since a numpy step then costs more than their own steps.  A kernel with
    a complex scalar runs `theta_iterate` on its own, because numpy's
    complex division is not CPython's.

    Raises
    ------
    ValueError
        As `theta_iterate`: before any series work for a bad n, tol or
        k_max (an empty batch included), and if some kernel's d~_0..d~_n
        are not finite.
    """
    _first_index(n, tol, k_max, None)      # before the batch is read
    out = []
    groups = {}         # side lengths -> (positions, scalars)
    alone = []
    checked = set()     # the gate, once per distinct delta
    for i, kernel in enumerate(kernels):
        out.append(None)
        if kernel.delta not in checked:
            _first_index(n, tol, k_max, kernel.delta)
            checked.add(kernel.delta)
        row = _float_row(kernel)
        if row is None:
            alone.append((i, kernel))
            continue
        idx, scalars = groups.setdefault(
            (len(kernel.main), len(kernel.mirror)), ([], array("d")))
        idx.append(i)
        scalars.extend(row)
    for (m, _), (idx, scalars) in groups.items():
        table = np.frombuffer(scalars).reshape(len(idx), -1).T
        for i, res in zip(idx, _theta_table(table, m, n, tol, k_max)):
            out[i] = res
    for i, kernel in alone:
        out[i] = _or_none(theta_iterate, kernel, None, n, tol, k_max)
    return out


def _theta_table(table, m: int, n: int, tol, k_max: int) -> list:
    """`theta_many` of float kernels given as the columns of ``table``.

    ``table`` has one row per scalar in `_float_row`'s order, with the main
    side in its first ``m`` rows.  The columns run `_lockstep`, one run per
    first usable index.  Raises ValueError as `theta_many` does, before
    any series work.
    """
    deltas, at = np.unique(table[-1], return_inverse=True)
    k_starts = np.array([_first_index(n, tol, k_max, d)
                         for d in deltas.tolist()], dtype=int)[at]
    out = [None] * len(k_starts)
    # no numpy warning escapes: where the scalar loop meets inf or NaN
    # without raising, so do the arrays
    with np.errstate(all="ignore"):
        for k_start in np.unique(k_starts).tolist():
            idx = np.flatnonzero(k_starts == k_start)
            for j, res in zip(idx.tolist(), _lockstep(
                    table[:, idx], m, n, tol, k_max, k_start)):
                out[j] = res
    return out


def _float_row(kernel: ThetaKernel) -> list | None:
    """The kernel's scalars in `_lockstep`'s order, or None unless every one
    is a float."""
    main, mirror, a0, b1, b2, delta = kernel
    row = [*main, *mirror, *a0, *b1, *b2, delta]
    return row if set(map(type, row)) == {float} else None


def _theta_k(k, d0, d1, accel, b1, b2, b1_norm):
    """Theta_k and the mask of usable weight vectors, on arrays.

    The head's p_k, nu_k and Theta_k, operation for operation, broadcast
    against the steps ``k`` (see `_read`).  ``accel`` holds m + delta for
    the orders m < n, an array of shape (n, 1) or (n, kernels, 1), and the
    sequences of their d~0 and d~1.  Each order's ratio is formed in the
    loop, so that no (n, kernels, steps) array is held.
    """
    (b10, b11), (p0, p1) = b1, b2
    prod = 1.0
    for m_delta, t0, t1 in zip(*accel):
        prod = prod * (m_delta / (m_delta - k))
        p0 = p0 + prod * t0
        p1 = p1 + prod * t1
    if not len(accel[0]):       # p_k = b2 at every step
        p0, p1 = np.full(d0.shape, p0), np.full(d0.shape, p1)
    norm = b10 * p1 - b11 * p0
    valid = ~_degenerate(norm, b1_norm, p0, p1)
    return d0 * (p1 / norm) + d1 * (-p0 / norm), valid


def _degenerate(norm, b1_norm, p0, p1):
    """The weight-vector degeneracy test of `theta_iterate`, on arrays.

    np.hypot and math.hypot may differ in the last bit, so every entry the
    arrays find degenerate, or within a hair of it, is decided by
    math.hypot on its scalars, as the scalar loop decides it.
    """
    lhs = np.abs(norm)
    out = lhs <= np.hypot(p0, p1) * (_DEGENERATE_TOL * (1 + 1e-14) * b1_norm)
    for j in zip(*np.nonzero(out)):
        out[j] = lhs[j] <= _DEGENERATE_TOL * np.broadcast_to(
            b1_norm, out.shape)[j] * math.hypot(abs(p0[j]), abs(p1[j]))
    return out


#: fewest kernels a `_lockstep` block runs.  A lockstep step is one `_step`
#: and 1/16 of a block read (`_read`): 33-41 us for 16-32 one-pole kernels,
#: plus 0.15-0.25 us per kernel; a step of `_theta_loop` costs 2.0-2.9 us
#: in its scalar head and 0.8-1.1 us in its float64 tail (2-core shared
#: x86-64 VM, CPython 3.11), so the break-even lies between about 15 and
#: 65 kernels, and 32 stays
_LOCKSTEP_MIN = 32


def _lockstep(table, m: int, n: int, tol, k_max: int, k_start: int) -> list:
    """The loop of `theta_iterate` on columns of float kernels.

    ``table`` has one row per scalar in `_float_row`'s order, with the main
    side in its first ``m`` rows, and one column per kernel; ``k_start`` is
    the kernels' first usable index.  The columns step through `_step`,
    whose det gives the mask of singular steps, |det| < 1e-30, and `_read`
    reads them `_HEAD_EVERY` steps at a time.  As in `_theta_loop`, a
    singular step at or before a kernel's stop fails it, and one after it
    is dropped.  Returns a `ThetaResult`, or None for a raised
    `ConncoefError` or `ArithmeticError`, per column.  A table of fewer
    than `_LOCKSTEP_MIN` columns takes no numpy step: each column runs
    `theta_iterate` on its scalars, as the last few columns finish.
    """
    if table.shape[1] < _LOCKSTEP_MIN:
        return [_or_none(theta_iterate, _split(tuple(col), m), None, n, tol,
                         k_max) for col in table.T.tolist()]
    results = [None] * table.shape[1]
    mirror = table[m:-7]
    a00, a01, b10, b11, b20, b21, delta = table[-7:]

    # the mirrored prefix sums d~_1..d~_n; a singular step fails its kernel
    state = [b20, b21] * (2 + (len(mirror) - 12) // 5)
    done = np.zeros(table.shape[1], dtype=bool)   # with its result recorded
    orders = []
    for k in range(1, n + 1):
        done |= np.abs(_step(k, mirror, state)) < _SINGULAR_STEP_TOL
        orders += [(k - 1) + delta, state[2], state[3]]
    if not all(np.isfinite(x[~done]).all()
               for x in orders[1::3] + orders[2::3]):
        raise ValueError(_MIRROR_NOT_FINITE)

    # the main series; every per-kernel constant sits in one table, so that
    # one index drops the kernels that stopped: after the side, b1, b2,
    # ||b1||, delta, Re(delta) + n + 1, then m + delta, d~0, d~1 per order
    b1_norm = [math.hypot(abs(x), abs(y))
               for x, y in zip(b10.tolist(), b11.tolist())]
    consts = np.vstack([table[:m], b10, b11, b20, b21, b1_norm, delta,
                        delta + n + 1, *orders])
    state = [a00, a01] * (2 + (m - 12) // 5)
    loop = tuple(np.full((len(done), 1), x) for x in _FRESH)
    place = np.arange(len(done))        # the table column of each entry
    k = 0
    while True:
        # the main side's rows, then a (kernels, 1) column per constant
        side, cols = consts[:m], consts[m:, :, None]
        accel = cols[7::3], cols[8::3], cols[9::3]
        left = np.flatnonzero(~done)
        if len(left) < _LOCKSTEP_MIN or k == k_max:
            break
        # the steps before k_start record no bound: the blocks up to step
        # k_start - 1 are stepped, not read
        steps = min(_HEAD_EVERY, (k_start - 1 if k < k_start - 1 else k_max)
                    - k)
        d0s, d1s, dets = np.empty((3, steps, len(done)))
        for i, k in enumerate(range(k + 1, k + steps + 1)):
            dets[i] = _step(k, side, state)
            d0s[i], d1s[i] = state[2], state[3]
        singular = np.abs(dets).T < _SINGULAR_STEP_TOL
        if k >= k_start:
            stopped, _, loop = _read(
                k - steps, d0s.T, d1s.T, accel, cols[0:2], cols[2:4],
                cols[4], cols[6], tol, 0.0, loop)
            theta, _, _, bound, _, last_k, last_d = loop
            # a stop before the kernel's first singular step stands
            first = np.where(singular.any(axis=1), singular.argmax(axis=1),
                             steps)
            for j in np.flatnonzero(stopped[:, 0] & ~done & (
                    last_k[:, 0] - (k - steps) <= first)).tolist():
                results[place[j]] = _or_none(
                    _converged, theta[j].item(), bound[j].item(),
                    last_k[j].item(), last_d[j].item(), n, cols[5, j].item())
                done[j] = True
        done |= singular.any(axis=1)
        # stopped kernels step on until a quarter of the arrays is spent
        if 4 * done.sum() >= len(done):
            keep = ~done
            place, consts, done = place[keep], consts[:, keep], done[keep]
            state = [x[keep] for x in state]
            loop = tuple(x[keep] for x in loop)

    # the kernels left finish on `_theta_loop` from step k (at k = k_max,
    # with no step to go)
    for j in left.tolist():
        x, c = [v[j].item() for v in state], cols[:, j, 0].tolist()
        results[place[j]] = _or_none(
            _theta_loop, tuple(side[:, j].tolist()),
            (k, x[0:2], x[2:4], [x[i:i + 2] for i in range(4, len(x), 2)]),
            list(zip(c[7::3], c[8::3], c[9::3])), c[0:2], c[2:4], c[5], n,
            tol, 0.0, k_max, k_start, None, tuple(v[j].item() for v in loop))
    return results


def _or_none(make, *args):
    """``make(*args)``, or None if it raises a ConncoefError or an
    ArithmeticError, as a node of `theta_many` does."""
    try:
        return make(*args)
    except (ConncoefError, ArithmeticError):
        return None

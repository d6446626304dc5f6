"""Reference Theta iteration for the test suite: the full O(k) convolution.

The library steps every series on the rational kernel, where the tail sum
collapses to geometric accumulators, and forms p_k, nu_k and Theta_k from
scalars inside the same loop.  This module steps the same recurrence

    u_k = (A0 - k)^(-1) ((A1 + 1) d_{k-1} - sum_{l<k} G_{k-1-l} u_l)

from the Taylor coefficients G_k of the rational tail and the whole history
u_0..u_{k-1}, and forms

    p_k   = b2 + sum_{l=1..n} (prod_{m<l} (m+delta)/(m+delta-k)) d~_l,
    nu_k  = J p_k / <J p_k, b1>,          J = [[0,1],[-1,0]],
    Theta_k = <d_k, nu_k>

on numpy arrays.  It shares no arithmetic with the library, so that the
kernel and the Theta loop can be checked against it.

It also holds the rational kernel as a generator that yields after every
step (`rational_steps`): the same operations in the same order as the
library's chunked kernel, `core._advance`, so that it checks that kernel
bit for bit, and plain scalar arithmetic, so that it runs unchanged on
`mpmath` numbers.  And it holds the scalar power-series loop
(`power_sum`) that the library's array summer, `core._power_sum`, must
give bit for bit at every point.
"""

import cmath
import math

import numpy as np

from conncoef.errors import NoConvergence, SingularStep

#: determinant threshold below which a recurrence step counts as singular
_SINGULAR_STEP_TOL = 1e-30


def rational_steps(side, k, u, d, sums):
    """The scalar recurrence kernel on a side of a `ThetaKernel`.

    Starts from u_k = ``u`` and d_k = ``d`` (pairs of scalars) and yields
    ``(k, u0, u1, d0, d1)`` after every step, without end.  ``sums`` holds
    one [s0, s1] list per pole and is advanced in place.  Raises
    SingularStep at the first k with |det(A0 - k*I)| < 1e-30.
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
            raise SingularStep(
                f"A0 - {k}*I is singular (|det| = {abs(det):.3e})")
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


def steps(side, start):
    """Steps 1, 2, ... of `rational_steps` on a side from
    u_0 = d_0 = ``start``."""
    start = tuple(start)
    return rational_steps(side, 0, start, start,
                          [list(start) for _ in range(12, len(side), 5)])


def coeff_at_zero(tail, k):
    """Taylor coefficient G_k of G(z) = sum G_k z**k."""
    out = -sum((r / c ** (k + 1) for c, r in zip(tail.poles, tail.residues)),
               start=np.zeros((2, 2), dtype=complex))
    return out + tail.const if k == 0 else out


def coeff_at_one(tail, k):
    """Coefficient G~_k of G(z) = sum G~_k (1-z)**k."""
    out = sum((r / (1 - c) ** (k + 1) for c, r in zip(tail.poles, tail.residues)),
              start=np.zeros((2, 2), dtype=complex))
    return out + tail.const if k == 0 else out


def series(A0, A1, stream, start):
    """Yields (history u_0..u_k, d_k) for k = 1, 2, ... of the series from
    u_0 = d_0 = ``start``, with G_k = ``stream(k)``."""
    history = [np.asarray(start, dtype=complex)]
    d = history[0].copy()
    (a11, a12), (a21, a22) = A0.tolist()
    while True:
        k = len(history)
        conv = np.zeros(2, dtype=complex)
        for m in range(k):
            conv = conv + stream(k - 1 - m) @ history[m]
        rhs = (A1 + np.eye(2)) @ d - conv
        m11, m22 = a11 - k, a22 - k
        det = m11 * m22 - a12 * a21
        u = np.array([(m22 * rhs[0] - a12 * rhs[1]) / det,
                      (m11 * rhs[1] - a21 * rhs[0]) / det])
        history.append(u)
        d = d + u
        yield history, d


def streams(system, frame):
    """The main and mirrored series of a system and frame (see `series`):
    G at z = 0 from a0, and -G(1-x) at x = 0 from b2."""
    A, B, tail, eye = system.A, system.B, system.tail, np.eye(2)
    return (series(A - frame.alpha0 * eye, B - (frame.beta1 + 1) * eye,
                   lambda k: coeff_at_zero(tail, k), frame.a0),
            series(B - frame.beta2 * eye, A - frame.alpha0 * eye,
                   lambda k: -coeff_at_one(tail, k), frame.b2))


def p_vector(b2, prefix, delta, k, n):
    """Acceleration vector p_k of order n from the mirrored prefix sums
    ``prefix`` = d~_0, d~_1, ..., d~_n (at least), for k > Re(delta) + n - 1.

    The product factors are accumulated one order at a time.
    """
    p = np.array(b2, dtype=complex)
    prod = 1.0 + 0.0j
    for ell in range(1, n + 1):
        m = ell - 1
        prod *= (m + delta) / (m + delta - k)
        p += prod * np.asarray(prefix[ell], dtype=complex)
    return p


def weight_vector(b1, p):
    """Weight vector nu = J p / <J p, b1>, J = [[0,1],[-1,0]], so that
    <b1, nu> = 1 and <p, nu> = 0; None where |det(b1, p)| <= 1e-12 *
    ||b1|| * ||p|| (b1 and p too close to parallel)."""
    b1 = np.asarray(b1, dtype=complex)
    p = np.asarray(p, dtype=complex)
    # <J p, b1> = b1[0] p[1] - b1[1] p[0] = det of the (b1, p) column pair
    norm = b1[0] * p[1] - b1[1] * p[0]
    if abs(norm) <= 1e-12 * math.hypot(*map(abs, b1)) * math.hypot(
            *map(abs, p)):
        return None
    return np.array([p[1] / norm, -p[0] / norm])


def thetas(system, frame, n):
    """(k, Theta_k) for every k > Re(delta) + n - 1, from `p_vector` and
    `weight_vector` on the convolution series; None where p_k is
    degenerate."""
    main, mirrored = streams(system, frame)
    prefix = [frame.b2] + [d for _, (_, d) in zip(range(n), mirrored)]
    for k, (_, d) in enumerate(main, start=1):
        if k > frame.delta.real + n - 1:
            nu = weight_vector(frame.b1, p_vector(frame.b2, prefix,
                                                  frame.delta, k, n))
            yield k, None if nu is None else complex(d @ nu)


def power_sum(coefs, x):
    """sum_k coefs[k] * x**k, truncated adaptively, one term at a time.

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

"""Analytic ODE residual for the piecewise ellipsoidal eigenfunction.

Finite differences of the evaluated function are polluted by the adaptive
series truncation (the cutoff index jumps between stencil points and the
second difference amplifies the jump by 1/h^2), so the residual here is
computed by differentiating the truncated series term by term and applying
the product rule to the algebraic prefactor.  That tests exactly what the
eigenfunction object claims: the stored coefficients times the prefactor
satisfy the second-order equation.
"""

import numpy as np
from numpy.polynomial import polynomial as P


def _series3(coefs, x):
    """S, S', S'' of sum c_k x^k using the full coefficient array."""
    coefs = np.asarray(coefs)
    c1 = P.polyder(coefs)
    c2 = P.polyder(c1)
    return P.polyval(x, coefs), P.polyval(x, c1), P.polyval(x, c2)


def _power_form(S, Sp, Spp, chain, f_a, e_a, f_b, e_b, pref):
    """w, w', w'' of pref * f_a^e_a * f_b^e_b * S(t(z)).

    ``chain`` is dt/dz (+-1 or -1/(c-1)); f_a, f_b are the (positive)
    prefactor base values at z and their z-derivatives are baked into the
    logarithmic terms below via da, db.
    """
    (va, da), (vb, db) = f_a, f_b
    L = e_a * da / va + e_b * db / vb
    Lp = -e_a * (da / va) ** 2 - e_b * (db / vb) ** 2
    F = pref * va ** e_a * vb ** e_b
    w = F * S
    wp = F * (chain * Sp + L * S)
    wpp = F * (chain * chain * Spp + 2 * L * chain * Sp + (L * L + Lp) * S)
    return w, wp, wpp


def eigenfunction_ode_residual(fn, e, z: float) -> float:
    """Relative residual of w'' + phi'/(2 phi) w' + Q/c w at z.

    ``fn`` is an EllipsoidalEigenfunction, ``e`` its SystemEntries;
    Q(z) = a12/z + b12/(z-1) + r12/(z-c).  The piece is selected with the
    same rule as fn.__call__.
    """
    c, r1 = fn.c, fn.radius1
    if z <= 1.0:
        q0, q1 = abs(z), abs(1 - z) / r1
        use1 = q1 < min(q0, 0.95)
    else:
        q2 = (c - z) / (c - 1)
        q1 = (z - 1) / r1
        use1 = q1 < min(q2, 0.95)

    if use1:
        x = 1.0 - z
        S, Sp, Spp = _series3(fn.coef1, x)
        if x > 0:
            w, wp, wpp = _power_form(S, Sp, Spp, -1.0,
                                     (z, 1.0), -fn.rho / 2,
                                     (x, -1.0), -fn.sigma / 2, fn.C1)
        else:
            w, wp, wpp = _power_form(S, Sp, Spp, -1.0,
                                     (z, 1.0), -fn.rho / 2,
                                     (z - 1.0, 1.0), -fn.sigma / 2, fn.C1)
    elif z <= 1.0:
        S, Sp, Spp = _series3(fn.coef0, z)
        w, wp, wpp = _power_form(S, Sp, Spp, 1.0,
                                 (z, 1.0), -fn.rho / 2,
                                 (1.0 - z, -1.0), (1 + fn.sigma) / 2, fn.C0)
    else:
        u = (c - z) / (c - 1)
        s = -1.0 / (c - 1)
        S, Sp, Spp = _series3(fn.coef2, u)
        w, wp, wpp = _power_form(S, Sp, Spp, s,
                                 (u, s), -fn.tau / 2,
                                 (1.0 - u, -s), (1 + fn.sigma) / 2, fn.C2)

    Q = (complex(e.a12) / z + complex(e.b12) / (z - 1)
         + complex(e.r12) / (z - c)).real / c
    res = wpp + 0.5 * (1 / z + 1 / (z - 1) + 1 / (z - c)) * wp + Q * w
    return abs(res) / max(abs(w), abs(wp), 1.0)

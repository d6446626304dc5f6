"""Tests for the recurrence/acceleration core.

Expected values fall into three classes: exact hand-derived arithmetic
(first recurrence steps, acceleration vectors), structural identities
(prefix sums, driver equivalence, ODE residuals of the assembled series),
and cross-checks against the independent integration oracle in _oracle.py.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from conncoef import core
from conncoef import ellipsoidal as ell
from conncoef import spheroidal as sph
from conncoef.core import (
    RationalTail,
    ShiftedSystem,
    SpectralFrame,
    TwoPointSystem,
    build_shifted,
    frobenius_step,
    mirrored_shifted,
    p_vector,
    prefix_sums,
    series_start,
    theta_iterate,
    weight_vector,
)
from conncoef.errors import (ConncoefError, DegenerateFrame, FrameMismatch,
                             NoConvergence, SingularStep)

from _oracle import theta_oracle


def _sample_system():
    """A rational-tail system with one pole, nontrivial in every slot."""
    A = np.array([[-0.5, 2.0], [0.0, 0.0]])
    B = np.array([[-0.5, 1.0], [0.0, 0.0]])
    const = np.array([[0.0, 0.0], [-0.3, 0.0]])
    R = np.array([[-0.5, 0.7], [0.0, 0.0]])
    return TwoPointSystem.from_rational(A, B, const=const, poles=(2.5,),
                                        residues=(R,))


def _sample_frame():
    # eigen-data of the matrices above: A has eigenpairs (-1/2, e1) and
    # (0, (4, 1)); B has (-1/2, e1) and (0, (2, 1))
    return SpectralFrame(alpha0=-0.5, a0=np.array([1.0, 0.0]),
                         beta1=-0.5, beta2=0.0,
                         b1=np.array([1.0, 0.0]), b2=np.array([2.0, 1.0]))


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------

def test_rational_tail_rejects_pole_in_unit_disk():
    R = np.eye(2)
    with pytest.raises(ValueError, match="unit disk"):
        RationalTail(const=np.zeros((2, 2)), poles=(0.9,), residues=(R,))
    with pytest.raises(ValueError, match="unit disk"):
        RationalTail(const=np.zeros((2, 2)), poles=(1.0,), residues=(R,))


def test_rational_tail_requires_matching_residues():
    with pytest.raises(ValueError, match="residue"):
        RationalTail(const=np.zeros((2, 2)), poles=(2.0,), residues=())


def test_rational_tail_coefficient_streams():
    # G(z) = C + R/(z - c) = C - (R/c) * sum (z/c)^k  at z = 0
    #      = C + R/(1 - c) * sum ((1-z)/(1-c))^k      around z = 1
    C = np.array([[1.0, 0.0], [0.0, 2.0]])
    R = np.array([[0.0, 3.0], [1.0, 0.0]])
    c = 4.0
    tail = RationalTail(const=C, poles=(c,), residues=(R,))
    assert np.allclose(tail.coeff_at_zero(0), C - R / c, atol=1e-15)
    assert np.allclose(tail.coeff_at_zero(3), -R / c ** 4, atol=1e-15)
    assert np.allclose(tail.coeff_at_one(0), C + R / (1 - c), atol=1e-15)
    assert np.allclose(tail.coeff_at_one(2), R / (1 - c) ** 3, atol=1e-15)


def test_structure_tags():
    sys_r = _sample_system()
    assert sys_r.structure == "rational"
    sys_g = TwoPointSystem.from_streams(sys_r.A, sys_r.B,
                                        g_at_zero=sys_r.tail.coeff_at_zero)
    assert sys_g.structure == "generic"
    with pytest.raises(ValueError):
        TwoPointSystem(A=sys_r.A, B=sys_r.B)


def test_frame_rejects_equal_exponents():
    with pytest.raises(FrameMismatch):
        SpectralFrame(alpha0=0, a0=[1, 0], beta1=0.5, beta2=0.5,
                      b1=[1, 0], b2=[0, 1])


def test_frame_rejects_delta_at_or_below_minus_one():
    with pytest.raises(FrameMismatch):
        SpectralFrame(alpha0=0, a0=[1, 0], beta1=0.0, beta2=-1.0,
                      b1=[1, 0], b2=[0, 1])


def test_frame_rejects_dependent_eigenvectors():
    with pytest.raises(FrameMismatch, match="dependent"):
        SpectralFrame(alpha0=0, a0=[1, 0], beta1=-0.5, beta2=0.0,
                      b1=[1, 2], b2=[2, 4])


def test_build_shifted_rejects_wrong_eigenvector():
    sys_ = _sample_system()
    bad = SpectralFrame(alpha0=-0.5, a0=np.array([0.3, 1.0]),  # not an eigvec
                        beta1=-0.5, beta2=0.0,
                        b1=np.array([1.0, 0.0]), b2=np.array([2.0, 1.0]))
    with pytest.raises(FrameMismatch, match="a0"):
        build_shifted(sys_, bad)


def test_theta_iterate_checks_a_user_built_frame():
    # closed-form kernels skip the frame check; a system and frame from the
    # caller still get it
    bad = SpectralFrame(alpha0=-0.5, a0=np.array([0.3, 1.0]),  # not an eigvec
                        beta1=-0.5, beta2=0.0,
                        b1=np.array([1.0, 0.0]), b2=np.array([2.0, 1.0]))
    with pytest.raises(FrameMismatch, match="a0"):
        theta_iterate(_sample_system(), bad)
    kernel = core._frame_kernel(_sample_system(), _sample_frame())
    with pytest.raises(TypeError):
        theta_iterate(kernel, _sample_frame())


def test_theta_iterate_checks_the_frame_once(monkeypatch):
    calls = []
    check = core._check_frame

    def counting_check(system, frame):
        calls.append(frame)
        check(system, frame)

    monkeypatch.setattr(core, "_check_frame", counting_check)
    res = theta_iterate(_sample_system(), _sample_frame(), n=5, tol=1e-10)
    assert res.status == "converged"
    assert len(calls) == 1


def test_shift_matrices():
    sys_ = _sample_system()
    frame = _sample_frame()
    sh = build_shifted(sys_, frame)
    assert np.allclose(sh.A0, sys_.A + 0.5 * np.eye(2), atol=0)
    assert np.allclose(sh.A1, sys_.B - 0.5 * np.eye(2), atol=0)
    mi = mirrored_shifted(sys_, frame)
    assert np.allclose(mi.A0, sys_.B, atol=0)          # beta2 = 0
    assert np.allclose(mi.A1, sys_.A + 0.5 * np.eye(2), atol=0)
    assert mi.tail_poles == (1 - 2.5,)
    assert np.allclose(mi.tail_const, -sys_.tail.const, atol=0)


# --------------------------------------------------------------------------
# the recurrence
# --------------------------------------------------------------------------

def test_first_step_matches_hand_derivation():
    # For A = [[-1, -t], [0, 0]], B = [[-1, t], [0, 0]], G = [[0, -4g], [1, 0]]
    # with frame alpha0 = 0, a0 = (-t, 1), beta1 = -1 (so A1 = B), the first
    # step is u1 = (A0 - 1)^{-1} ((B + 1) a0 - G a0) and works out by hand to
    # u1 = ((t^2 - 4g)/2, -(1 + t)).
    for t, g in ((0.0, 4.0), (1.5, 4.0), (2.0, -3.0)):
        A = np.array([[-1.0, -t], [0.0, 0.0]])
        B = np.array([[-1.0, t], [0.0, 0.0]])
        G0 = np.array([[0.0, -4 * g], [1.0, 0.0]])
        sys_ = TwoPointSystem.from_rational(A, B, const=G0)
        frame = SpectralFrame(alpha0=0.0, a0=np.array([-t, 1.0]),
                              beta1=-1.0, beta2=0.0,
                              b1=np.array([1.0, 0.0]), b2=np.array([t, 1.0]))
        sh = build_shifted(sys_, frame)
        st = frobenius_step(series_start(frame.a0, sh), sh)
        assert st.k == 1
        want = np.array([(t * t - 4 * g) / 2, -(1 + t)], dtype=complex)
        assert np.array_equal(st.u, want)
        assert np.array_equal(st.d, frame.a0 + want)


def test_prefix_sum_identity():
    # d_k is the running sum of the u_l; the generic driver keeps the full
    # history, so the identity can be checked directly.
    sys_r = _sample_system()
    sys_g = TwoPointSystem.from_streams(sys_r.A, sys_r.B,
                                        g_at_zero=sys_r.tail.coeff_at_zero)
    st = series_start(_sample_frame().a0, build_shifted(sys_g, _sample_frame()))
    sh = build_shifted(sys_g, _sample_frame())
    for _ in range(50):
        st = frobenius_step(st, sh)
    total = np.sum(st.history, axis=0)
    assert np.allclose(st.d, total, rtol=0, atol=1e-13)


def test_generic_and_rational_drivers_agree():
    """The O(1) geometric accumulators must reproduce the full convolution."""
    sys_r = _sample_system()
    frame = _sample_frame()
    sys_g = TwoPointSystem.from_streams(sys_r.A, sys_r.B,
                                        g_at_zero=sys_r.tail.coeff_at_zero,
                                        g_at_one=sys_r.tail.coeff_at_one)
    for builder in (build_shifted, mirrored_shifted):
        start = frame.a0 if builder is build_shifted else frame.b2
        sr = series_start(start, builder(sys_r, frame))
        sg = series_start(start, builder(sys_g, frame))
        shr, shg = builder(sys_r, frame), builder(sys_g, frame)
        for k in range(1, 301):
            sr = frobenius_step(sr, shr)
            sg = frobenius_step(sg, shg)
            scale = max(np.max(np.abs(sr.d)), 1e-30)
            assert np.max(np.abs(sr.d - sg.d)) <= 1e-13 * scale, f"k={k}"


def test_prefix_sums_match_frobenius_steps():
    # prefix_sums runs the scalar kernel (rational) or frobenius_step
    # (generic) from the same start; both must equal step-by-step stepping
    sys_r = _sample_system()
    frame = _sample_frame()
    sys_g = TwoPointSystem.from_streams(sys_r.A, sys_r.B,
                                        g_at_zero=sys_r.tail.coeff_at_zero)
    for system in (sys_r, sys_g):
        sh = build_shifted(system, frame)
        st = series_start(frame.a0, sh)
        want = [st.d.copy()]
        for _ in range(39):
            st = frobenius_step(st, sh)
            want.append(st.d.copy())
        assert np.array_equal(prefix_sums(sh, frame.a0, 40), np.array(want))
    with pytest.raises(ValueError, match="n_terms"):
        prefix_sums(build_shifted(sys_r, frame), frame.a0, 0)


def test_series_solves_the_ode():
    # Assemble y = z^alpha0 (1-z)^beta1 sum u_k z^k from 60 recurrence steps
    # and check y' = (A/z + B/(z-1) + G) y pointwise.  (The partial sums d_k
    # carry the extra factor 1/(1-z), hence the beta1+1 exponent elsewhere.)
    sys_ = _sample_system()
    frame = _sample_frame()
    sh = build_shifted(sys_, frame)
    st = series_start(frame.a0, sh)
    us = [st.u.copy()]
    for _ in range(60):
        st = frobenius_step(st, sh)
        us.append(st.u.copy())

    def y_and_deriv(z):
        eta = sum(u * z ** k for k, u in enumerate(us))
        deta = sum(k * u * z ** (k - 1) for k, u in enumerate(us) if k > 0)
        a, b = frame.alpha0, frame.beta1
        pref = z ** a * (1 - z) ** b
        y = pref * eta
        dy = pref * (deta + (a / z - b / (1 - z)) * eta)
        return y, dy

    t = sys_.tail
    for z in (0.1, 0.2, 0.3):
        y, dy = y_and_deriv(z)
        M = sys_.A / z + sys_.B / (z - 1) + t.const + t.residues[0] / (z - t.poles[0])
        res = np.max(np.abs(dy - M @ y)) / max(np.max(np.abs(y)), 1e-30)
        assert res <= 1e-8, f"z={z}: residual {res:.2e}"


def test_singular_step_guard():
    # A0 with eigenvalue exactly 1 makes (A0 - 1*I) singular on step one.
    from conncoef.core import ShiftedSystem
    sh = ShiftedSystem(A0=np.array([[1.0, 0.0], [0.0, 0.0]]),
                       A1=np.zeros((2, 2)),
                       tail_const=np.zeros((2, 2)))
    st = series_start(np.array([0.0, 1.0]), sh)
    with pytest.raises(SingularStep):
        frobenius_step(st, sh)
    with pytest.raises(SingularStep):
        prefix_sums(sh, np.array([0.0, 1.0]), 3)


def test_frobenius_step_rejects_state_of_other_pole_count():
    sh = build_shifted(_sample_system(), _sample_frame())   # one pole
    no_pole = ShiftedSystem(A0=sh.A0, A1=sh.A1, tail_const=sh.tail_const)
    st = series_start(_sample_frame().a0, no_pole)
    with pytest.raises(ValueError, match="accumulator"):
        frobenius_step(st, sh)


# --------------------------------------------------------------------------
# power series sums
# --------------------------------------------------------------------------

@pytest.mark.parametrize("c", [1.0, 1 + 1j])
def test_power_sum_raises_on_an_overflowing_series(c):
    # 2**k overflows at k = 1024, and the inf term meets the stop rule
    # (inf <= 1e-12 * inf): only the check of the total can catch it
    with pytest.raises(NoConvergence, match="sums to"):
        core._power_sum([c] * 2000, 2.0)
    assert abs(core._power_sum([c] * 2000, 0.5) - 2 * c) <= 1e-11


# --------------------------------------------------------------------------
# acceleration vectors
# --------------------------------------------------------------------------

def test_p_vector_order_zero_is_b2():
    b2 = np.array([2.0, 1.0])
    p = p_vector(b2, [b2], delta=0.5, k=7, n=0)
    assert np.array_equal(p, b2.astype(complex))


def test_p_vector_order_one_hand_value():
    # With delta = 1/2, k = 2 the single product factor is
    # (0 + 1/2) / (0 + 1/2 - 2) = -1/3.
    b2 = np.array([2.0, 1.0])
    d1 = np.array([0.3, -0.9])
    p = p_vector(b2, [np.array([99.0, 99.0]), d1], delta=0.5, k=2, n=1)
    assert np.allclose(p, b2 - d1 / 3, rtol=0, atol=1e-16)


def test_weight_vector_hand_values():
    e1 = np.array([1.0, 0.0])
    assert np.allclose(weight_vector(e1, np.array([0.0, 1.0])),
                       [1.0, 0.0], atol=0)
    assert np.allclose(weight_vector(e1, np.array([1.0, 3.0])),
                       [1.0, -1.0 / 3.0], atol=1e-16)


def test_weight_vector_degenerate():
    with pytest.raises(DegenerateFrame):
        weight_vector(np.array([1.0, 2.0]), np.array([2.0, 4.0]))


def test_weight_vector_bilinear_identities():
    # <b1, nu> = 1 and <p, nu> = 0 for any nondegenerate draw.
    rng = np.random.default_rng(7)
    for _ in range(200):
        b1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        try:
            nu = weight_vector(b1, p)
        except DegenerateFrame:
            continue
        assert abs(b1 @ nu - 1) <= 1e-12
        assert abs(p @ nu) <= 1e-12 * max(1.0, float(np.max(np.abs(p))))


# --------------------------------------------------------------------------
# the Theta iteration
# --------------------------------------------------------------------------

def _reference_theta(system, frame, n, k):
    """Theta_k from the public single-step functions, one array op at a time."""
    sh = build_shifted(system, frame)
    mi = mirrored_shifted(system, frame)
    st = series_start(frame.b2, mi)
    prefix = [st.d.copy()]
    for _ in range(n):
        st = frobenius_step(st, mi)
        prefix.append(st.d.copy())
    st = series_start(frame.a0, sh)
    for _ in range(k):
        st = frobenius_step(st, sh)
    nu = weight_vector(frame.b1, p_vector(frame.b2, prefix, frame.delta, k, n))
    return complex(st.d @ nu)


@pytest.mark.parametrize("case", ["one pole", "constant tail"])
def test_theta_iterate_matches_reference_loop(case):
    # Both sides step the same series; the fused loop forms p_k, nu_k and
    # Theta_k from scalars where the reference calls p_vector and
    # weight_vector on arrays, so agreement is to rounding, not bitwise.
    if case == "one pole":
        system, frame = _sample_system(), _sample_frame()
    else:
        problem = sph.SpheroidalProblem(mu=1, gamma2=4.0)
        system = sph.build_system(2.5, problem)
        frame = sph.spectral_frame(2.5, problem)
    for n in (0, 3, 5):
        res = theta_iterate(system, frame, n=n, tol=1e-300, k_max=60)
        assert res.status == "k_max_reached" and res.k_final == 60
        ref = _reference_theta(system, frame, n, 60)
        assert abs(res.theta - ref) <= 1e-13 * max(1.0, abs(ref))


def test_theta_iterate_matches_oracle_on_synthetic_system():
    sys_ = _sample_system()
    frame = _sample_frame()
    res = theta_iterate(sys_, frame, n=5, tol=1e-12)
    assert res.status == "converged"
    ref = theta_oracle(sys_, frame)
    assert abs(res.theta - ref) <= 1e-10
    assert np.isfinite(res.tau_estimate.real)


def test_theta_iterate_error_bound_is_sound():
    sys_ = _sample_system()
    frame = _sample_frame()
    ref = theta_oracle(sys_, frame)              # ~1e-13 of the true value
    for tol in (1e-6, 1e-8, 1e-10):
        res = theta_iterate(sys_, frame, n=4, tol=tol)
        assert res.status == "converged"
        assert abs(res.theta - ref) <= res.error_bound + 1e-12


def test_theta_iterate_k_max_status():
    res = theta_iterate(_sample_system(), _sample_frame(), n=2, tol=1e-30,
                        k_max=40)
    assert res.status == "k_max_reached"
    assert res.k_final == 40
    assert np.isfinite(res.error_bound)


def test_theta_iterate_rejects_negative_tol():
    with pytest.raises(ValueError):
        theta_iterate(_sample_system(), _sample_frame(), tol=-1.0)


@pytest.mark.parametrize("kwargs, what", [
    ({"tol": float("nan")}, "tol"),
    ({"tol": "1e-8"}, "tol"),
    ({"n": 2.5}, "n must be"),
    ({"k_max": 2.5}, "k_max"),
    ({"k_max": 12.5}, "k_max"),
])
def test_theta_iterate_rejects_bad_arguments(kwargs, what):
    # each bad argument is a ValueError naming it, raised before any step
    # (a NaN tol would otherwise run the whole step budget)
    with pytest.raises(ValueError, match=what):
        theta_iterate(_sample_system(), _sample_frame(), **kwargs)


def test_theta_iterate_rejects_k_max_below_first_usable_index():
    # delta = 1/2 at n = 5 puts the first usable index at k = 5: a smaller
    # budget tries no index at all, which is a caller error, not a status
    frame = _sample_frame()
    assert frame.delta == 0.5
    with pytest.raises(ValueError, match="first usable index"):
        theta_iterate(_sample_system(), frame, n=5, k_max=4)
    res = theta_iterate(_sample_system(), frame, n=5, k_max=5)
    assert res.status == "k_max_reached" and res.k_final == 5


# --------------------------------------------------------------------------
# property: scalar rational kernel against the generic-stream path
# --------------------------------------------------------------------------

_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(gamma_re=hst.floats(-5.0, 5.0, **_finite),
       gamma_im=hst.floats(-5.0, 5.0, **_finite),
       lam=hst.floats(-5.0, 5.0, **_finite),
       mu=hst.floats(0.01, 5.0, **_finite),
       c=hst.floats(1.05, 3.0, exclude_min=True, exclude_max=True, **_finite),
       rho=hst.integers(0, 1), tau=hst.integers(0, 1))
def test_rational_kernel_agrees_with_generic_streams(gamma_re, gamma_im, lam,
                                                     mu, c, rho, tau):
    problem = ell.EllipsoidalProblem(gamma=complex(gamma_re, gamma_im), c=c,
                                     rho=rho, sigma=1, tau=tau)
    sys_r = ell.build_system(lam, mu, problem)
    frame = ell.spectral_frame(problem, ell.entries(lam, mu, problem))
    assert frame.delta == -0.5
    sys_g = TwoPointSystem.from_streams(sys_r.A, sys_r.B,
                                        g_at_zero=sys_r.tail.coeff_at_zero,
                                        g_at_one=sys_r.tail.coeff_at_one)
    # the generic path is O(k^2); a capped run still compares like with
    # like, since both report the bound of the Theta_k they return
    a = theta_iterate(sys_r, frame, n=5, tol=1e-8, k_max=300)
    b = theta_iterate(sys_g, frame, n=5, tol=1e-8, k_max=300)
    allowance = a.error_bound + b.error_bound + 1e-9 * max(1.0, abs(a.theta))
    assert abs(a.theta - b.theta) <= allowance


# --------------------------------------------------------------------------
# property: exact-real unpacking keeps every value of all-complex arithmetic
# --------------------------------------------------------------------------

def _all_complex(values):
    """`core._unpack` as it would be with no float fast path."""
    return [complex(v) for v in values]


def _same(a, b) -> bool:
    """``a == b``, with NaN equal to NaN; arrays must share dtype and shape."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    return a == b or (a != a and b != b)


def _draw_system(family, kind, x, y, im, c, bits):
    """A system, frame, problem and parameters of one family; ``kind``
    says where i enters.

    real: every parameter real; complex gamma: gamma (or gamma^2) complex;
    mixed: gamma real but lambda (or t) complex, so the kernel mixes float
    and complex entries.  The parameters are (lambda, mu) or (t,).
    """
    if family == "ell":
        gamma = complex(x, im) if kind == "complex gamma" else x
        lam = complex(y, im) if kind == "mixed" else y
        problem = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=bits[0],
                                         sigma=bits[1], tau=bits[2])
        return (ell.build_system(lam, -y, problem),
                ell.spectral_frame(problem, ell.entries(lam, -y, problem)),
                problem, (lam, -y))
    gamma2 = complex(x, im) if kind == "complex gamma" else x
    t = complex(y, im) if kind == "mixed" else y
    problem = sph.SpheroidalProblem(mu=bits[0] + bits[1] / 2, gamma2=gamma2)
    return (sph.build_system(t, problem), sph.spectral_frame(t, problem),
            problem, (t,))


def _outputs(system, frame, n):
    """Every value the unpacking reaches: Theta, prefix sums, single steps."""
    res = theta_iterate(system, frame, n=n, tol=1e-9, k_max=400)
    out = [res.theta, res.error_bound, res.k_final, res.status,
           res.tau_estimate]
    for sh, start in ((build_shifted(system, frame), frame.a0),
                      (mirrored_shifted(system, frame), frame.b2)):
        out.append(prefix_sums(sh, start, 40))
        st = series_start(start, sh)
        for _ in range(5):
            st = frobenius_step(st, sh)
            out += [st.u, st.d, *st.tail_sums]
    return out


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=hst.sampled_from(["ell", "sph"]),
       kind=hst.sampled_from(["real", "complex gamma", "mixed"]),
       x=hst.floats(-20.0, 20.0, **_finite),
       y=hst.floats(-20.0, 20.0, **_finite),
       im=hst.floats(0.01, 5.0, **_finite),
       c=hst.floats(1.05, 3.0, exclude_min=True, exclude_max=True, **_finite),
       bits=hst.tuples(*[hst.integers(0, 1)] * 3),
       n=hst.integers(0, 8))
def test_exact_real_unpacking_keeps_every_value(family, kind, x, y, im, c,
                                                bits, n):
    system, frame, problem, params = _draw_system(family, kind, x, y, im, c,
                                                  bits)
    fast = _outputs(system, frame, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_unpack", _all_complex)
        reference = _outputs(system, frame, n)
    # `==`: the two can differ only in the sign of an exact zero
    assert all(_same(a, b) for a, b in zip(fast, reference, strict=True))
    assert all(v.dtype == complex for v in fast if isinstance(v, np.ndarray))
    assert type(fast[0]) is complex and type(fast[4]) is complex

    # the fast path must really run on floats when the problem is real
    start = core._unpack(frame.a0.tolist())
    step = next(core._steps(build_shifted(system, frame), start))[1:]
    if kind != "real":
        assert any(type(v) is complex for v in step)
        return
    assert all(type(v) is float for v in start + list(step))

    # so Theta of a real problem is real by construction, through every
    # public entry point, and no runtime check is needed
    kw = dict(n=n, tol=1e-9, k_max=400)
    if family == "ell":
        public = [ell.theta(*params, problem, **kw),
                  ell.theta_hat(*params, problem, **kw)]
    else:
        public = [sph.theta_t(*params, problem, **kw)]
    assert all(r.theta.imag == 0.0 for r in public)
    if family == "sph":
        eig = sph.eigenvalues(problem, 1)[0]
        assert type(eig.lam) is float
        fn = sph.eigenfunction(eig, problem, [-0.5, 0.0, 0.5])
        assert fn.values.dtype == np.float64


# --------------------------------------------------------------------------
# property: the closed-form kernels and the lockstep batch keep every bit
# --------------------------------------------------------------------------

def _bits(result):
    """A ThetaResult's fields as exact text (signed zeros included)."""
    if result is None:
        return None
    return tuple(repr(getattr(result, name)) for name in
                 ("theta", "error_bound", "k_final", "n", "tau_estimate",
                  "status"))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=hst.sampled_from(["ell", "sph"]),
       kind=hst.sampled_from(["real", "complex gamma", "mixed"]),
       x=hst.floats(-20.0, 20.0, **_finite),
       y=hst.floats(-20.0, 20.0, **_finite),
       im=hst.floats(0.01, 5.0, **_finite),
       c=hst.floats(1.05, 3.0, exclude_min=True, exclude_max=True, **_finite),
       bits=hst.tuples(*[hst.integers(0, 1)] * 3),
       n=hst.integers(0, 8), k_max=hst.sampled_from([12, 60, 5000]))
def test_closed_form_kernels_equal_the_array_path(family, kind, x, y, im, c,
                                                  bits, n, k_max):
    system, frame, problem, params = _draw_system(family, kind, x, y, im, c,
                                                  bits)
    kw = dict(n=n, tol=1e-10, k_max=k_max)
    if family == "sph":
        pairs = [(sph.theta_t(*params, problem, **kw),
                  theta_iterate(system, frame, **kw))]
    else:
        lam_h, mu_h, hat = ell.hat_parameters(*params, problem)
        pairs = [(ell.theta(*params, problem, **kw),
                  theta_iterate(system, frame, **kw)),
                 (ell.theta_hat(*params, problem, **kw),
                  theta_iterate(ell.build_system(lam_h, mu_h, hat),
                                ell.spectral_frame(hat, ell.entries(
                                    lam_h, mu_h, hat)), **kw))]
    for closed, array_path in pairs:
        assert _bits(closed) == _bits(array_path)


def _scalar(kernel, **kw):
    """`theta_iterate` of one kernel, None where it raises as a grid node."""
    try:
        return theta_iterate(kernel, None, **kw)
    except (ConncoefError, ArithmeticError):
        return None


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=hst.sampled_from(["ell", "sph"]),
       x=hst.floats(-20.0, 20.0, **_finite),
       lo=hst.floats(-20.0, 0.0, **_finite),
       span=hst.floats(0.5, 20.0, **_finite),
       c=hst.floats(1.05, 3.0, exclude_min=True, exclude_max=True, **_finite),
       bits=hst.tuples(*[hst.integers(0, 1)] * 3),
       n=hst.integers(0, 8), log_tol=hst.floats(-12.0, -3.0, **_finite),
       budget=hst.sampled_from([0, 4, 30, 3000]),
       extra=hst.sampled_from(["none", "complex", "singular main",
                               "singular mirror"]),
       lockstep_min=hst.sampled_from([1, 8, 12, 24, 64]))
def test_theta_many_equals_the_scalar_loop(family, x, lo, span, c, bits, n,
                                           log_tol, budget, extra,
                                           lockstep_min):
    axis = np.linspace(lo, lo + span, 4)
    if family == "ell":
        problem = ell.EllipsoidalProblem(gamma=x, c=c, rho=bits[0],
                                         sigma=bits[1], tau=bits[2])
        kernels = [make(lam, mu, problem) for lam in axis for mu in -axis
                   for make in (ell._kernel, ell._hat_kernel)]
        odd = ell._kernel(axis[1], -axis[2],
                          replace(problem, gamma=complex(x, 1.5)))
    else:
        problem = sph.SpheroidalProblem(mu=bits[0] + bits[1] / 2, gamma2=x)
        kernels = [sph._kernel(float(t), problem)
                   for t in np.linspace(lo, lo + 4 * span, 16)]
        odd = sph._kernel(axis[1], sph.SpheroidalProblem(
            mu=problem.mu, gamma2=complex(x, 1.5)))
    # the scalar fallback, or a node whose step k = 3 (main series) or
    # k = 1 (mirrored series) is singular
    if extra == "complex":
        assert core._float_row(odd) is None
        kernels.insert(3, odd)
    elif extra == "singular main":
        kernels[2] = kernels[2]._replace(main=(3.0, *kernels[2].main[1:]))
    elif extra == "singular mirror":
        kernels[2] = kernels[2]._replace(
            mirror=(1.0, *kernels[2].mirror[1:]))
    k_max = core._first_index(n, 0.0, 10 ** 9, kernels[0].delta) + budget
    kw = dict(n=n, tol=10.0 ** log_tol, k_max=k_max)
    # 1: every kernel stays in the arrays to the end; 64: the arrays hand
    # every kernel to the scalar loop after the first step; the others hand
    # off part of the way
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_LOCKSTEP_MIN", lockstep_min)
        many = core.theta_many(iter(kernels), **kw)
    assert [_bits(r) for r in many] == [_bits(_scalar(k, **kw))
                                        for k in kernels]
    if extra.startswith("singular") and k_max >= 3 and n >= 1:
        assert many[2] is None


@pytest.mark.parametrize("k_max", [400, 150])
def test_theta_many_hands_off_to_the_scalar_loop_at_every_point(k_max):
    # the kernels left in the arrays finish on the scalar loop from their
    # state; move that hand-off through every count of kernels left.  The
    # k_final spread over 74..205, so at k_max = 150 some kernels run out
    # of steps after the hand-off
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    kernels = [sph._kernel(float(t), problem) for t in np.linspace(-3, 9, 24)]
    kw = dict(n=5, tol=1e-12, k_max=k_max)
    expected = [_bits(_scalar(k, **kw)) for k in kernels]
    assert len({e[2] for e in expected}) > 5
    for lockstep_min in range(1, len(kernels) + 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_LOCKSTEP_MIN", lockstep_min)
            many = core.theta_many(kernels, **kw)
        assert [_bits(r) for r in many] == expected


def test_batch_degeneracy_test_decides_like_math_hypot():
    # np.hypot and math.hypot differ in the last bit on some pairs; a node
    # right at the threshold must be decided as the scalar loop decides it
    rng = np.random.default_rng(3)
    pairs = [(a, b) for a, b in rng.uniform(-5.0, 5.0, (20000, 2)).tolist()
             if float(np.hypot(a, b)) != math.hypot(a, b)]
    if not pairs:
        pytest.skip("np.hypot and math.hypot agree on every sample here")
    for a, b in pairs[:50]:
        for h in (float(np.hypot(a, b)), math.hypot(a, b)):
            norm = core._DEGENERATE_TOL * h
            scalar = abs(norm) <= core._DEGENERATE_TOL * 1.0 * math.hypot(
                abs(a), abs(b))
            batch = core._degenerate(np.array([norm]), np.array([1.0]),
                                     np.array([a]), np.array([b]))
            assert batch.tolist() == [scalar]

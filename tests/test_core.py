"""Tests for the recurrence/acceleration core.

Expected values fall into three classes: exact hand-derived arithmetic
(first recurrence steps, acceleration vectors), structural identities
(prefix sums, driver equivalence, ODE residuals of the assembled series),
and cross-checks against the independent integration oracle in _oracle.py.
"""

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
from conncoef.errors import DegenerateFrame, FrameMismatch, SingularStep

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


def test_theta_iterate_short_tilde_prefix_rejected():
    frame = _sample_frame()
    with pytest.raises(ValueError, match="tilde_prefix"):
        theta_iterate(_sample_system(), frame, n=3,
                      tilde_prefix=[frame.b2, frame.b2])


def test_theta_iterate_accepts_precomputed_prefix():
    # Supplying the prefix computed by the mirrored run itself must not
    # change anything.
    sys_ = _sample_system()
    frame = _sample_frame()
    mi = mirrored_shifted(sys_, frame)
    st = series_start(frame.b2, mi)
    prefix = [st.d.copy()]
    for _ in range(5):
        st = frobenius_step(st, mi)
        prefix.append(st.d.copy())
    a = theta_iterate(sys_, frame, n=5, tol=1e-10)
    b = theta_iterate(sys_, frame, n=5, tol=1e-10, tilde_prefix=prefix)
    assert a.theta == b.theta
    assert a.k_final == b.k_final


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

"""Tests for the recurrence/acceleration core.

Expected values fall into three classes: exact hand-derived arithmetic
(first recurrence steps, acceleration vectors), structural identities
(prefix sums, driver equivalence, ODE residuals of the assembled series),
and cross-checks against the independent integration oracle in _oracle.py.
"""

import cmath
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

from conncoef import core
from conncoef import ellipsoidal as ell
from conncoef import spheroidal as sph
from conncoef.core import (
    RationalTail,
    SpectralFrame,
    TwoPointSystem,
    frobenius_step,
    theta_iterate,
)
from conncoef.errors import (ConncoefError, FrameMismatch, NoConvergence,
                             SingularStep)

import _reference
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


def _start(side, v):
    """The `frobenius_step` state at k = 0 of the series on ``side`` from
    u_0 = d_0 = ``v``."""
    return 0, tuple(v), tuple(v), [list(v) for _ in range(12, len(side), 5)]


def _prefix_sums(side, start, n_terms):
    """d_0..d_{n_terms-1} of the series on ``side`` from ``start``, stepped
    by the reference kernel, as a complex array of shape (n_terms, 2)."""
    steps = itertools.islice(_reference.steps(side, start), n_terms - 1)
    return np.array([start, *((d0, d1) for *_, d0, d1 in steps)],
                    dtype=complex)


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


@pytest.mark.parametrize("make, what", [
    (lambda: RationalTail(const=[[0, 0], [np.nan, 0]], poles=(),
                          residues=()), "matrix"),
    (lambda: RationalTail(const=np.zeros((2, 2)), poles=(2.0,),
                          residues=([[np.inf, 0], [0, 0]],)), "matrix"),
    (lambda: TwoPointSystem(A=[[0, 0], [0, complex(0, np.inf)]],
                            B=np.zeros((2, 2)),
                            tail=RationalTail(np.zeros((2, 2)), (), ())),
     "matrix"),
    (lambda: replace(_sample_frame(), b2=[2.0, np.nan]), "vector"),
], ids=["tail-const", "tail-residue", "system-A", "frame-b2"])
def test_non_finite_entries_are_rejected(make, what):
    with pytest.raises(ValueError, match=f"C2 {what} has non-finite entries"):
        make()


def test_rational_tail_coefficient_streams():
    # G(z) = C + R/(z - c) = C - (R/c) * sum (z/c)^k  at z = 0
    #      = C + R/(1 - c) * sum ((1-z)/(1-c))^k      around z = 1
    C = np.array([[1.0, 0.0], [0.0, 2.0]])
    R = np.array([[0.0, 3.0], [1.0, 0.0]])
    c = 4.0
    tail = RationalTail(const=C, poles=(c,), residues=(R,))
    at_zero, at_one = _reference.coeff_at_zero, _reference.coeff_at_one
    assert np.allclose(at_zero(tail, 0), C - R / c, atol=1e-15)
    assert np.allclose(at_zero(tail, 3), -R / c ** 4, atol=1e-15)
    assert np.allclose(at_one(tail, 0), C + R / (1 - c), atol=1e-15)
    assert np.allclose(at_one(tail, 2), R / (1 - c) ** 3, atol=1e-15)


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


def test_theta_kernel_rejects_wrong_eigenvector():
    sys_ = _sample_system()
    bad = SpectralFrame(alpha0=-0.5, a0=np.array([0.3, 1.0]),  # not an eigvec
                        beta1=-0.5, beta2=0.0,
                        b1=np.array([1.0, 0.0]), b2=np.array([2.0, 1.0]))
    with pytest.raises(FrameMismatch, match="a0"):
        core.theta_kernel(sys_, bad)


def test_theta_iterate_checks_a_user_built_frame():
    # closed-form kernels skip the frame check; a system and frame from the
    # caller still get it
    bad = SpectralFrame(alpha0=-0.5, a0=np.array([0.3, 1.0]),  # not an eigvec
                        beta1=-0.5, beta2=0.0,
                        b1=np.array([1.0, 0.0]), b2=np.array([2.0, 1.0]))
    with pytest.raises(FrameMismatch, match="a0"):
        theta_iterate(_sample_system(), bad)
    kernel = core.theta_kernel(_sample_system(), _sample_frame())
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
    # a side holds A0, A1 + I and C, then R_j / c_j and 1 / c_j per pole
    sys_ = _sample_system()
    kernel = core.theta_kernel(sys_, _sample_frame())
    eye = np.eye(2)
    R, c = sys_.tail.residues[0], sys_.tail.poles[0]

    def side(A0, A1, C, pole):
        return [*A0.ravel(), *(A1 + eye).ravel(), *C.ravel(),
                *(R / pole).ravel(), 1 / pole]

    assert np.allclose(kernel.main, side(sys_.A + 0.5 * eye,
                                         sys_.B - 0.5 * eye,
                                         sys_.tail.const, c), atol=0)
    # beta2 = 0; the mirrored tail is -C + R / (x - (1 - c))
    assert np.allclose(kernel.mirror, side(sys_.B, sys_.A + 0.5 * eye,
                                           -sys_.tail.const, 1 - c), atol=0)


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
        kernel = core.theta_kernel(sys_, frame)
        k, u, d, sums = frobenius_step(_start(kernel.main, kernel.a0),
                                       kernel.main)
        assert k == 1 and sums == []
        want = ((t * t - 4 * g) / 2, -(1 + t))
        assert u == want
        assert d == (-t + want[0], 1.0 + want[1])


def test_prefix_sum_identity():
    # d_k is the running sum of the u_l; the reference convolution keeps the
    # full history, so the identity can be checked directly.
    main, _ = _reference.streams(_sample_system(), _sample_frame())
    for _, (history, d) in zip(range(50), main):
        pass
    assert np.allclose(d, np.sum(history, axis=0), rtol=0, atol=1e-13)


def test_generic_and_rational_drivers_agree():
    """The O(1) geometric accumulators must reproduce the full convolution."""
    sys_r = _sample_system()
    frame = _sample_frame()
    kernel = core.theta_kernel(sys_r, frame)
    for side, start, reference in zip(
            (kernel.main, kernel.mirror), (kernel.a0, kernel.b2),
            _reference.streams(sys_r, frame)):
        state = _start(side, start)
        for k, (_, d) in zip(range(1, 301), reference):
            state = frobenius_step(state, side)
            scale = max(np.max(np.abs(state[2])), 1e-30)
            assert np.max(np.abs(np.subtract(state[2], d))) <= 1e-13 * scale, \
                f"k={k}"


def test_prefix_sums_match_frobenius_steps():
    # frobenius_step must give the reference generator's bits one step at a
    # time, and leave its input unchanged
    kernel = core.theta_kernel(_sample_system(), _sample_frame())
    for side, start in ((kernel.main, kernel.a0), (kernel.mirror, kernel.b2)):
        state = _start(side, start)
        for step in itertools.islice(_reference.steps(side, start), 40):
            before = repr(state)
            new = frobenius_step(state, side)
            assert repr(state) == before
            state = new
            assert repr((state[0], *state[1], *state[2])) == repr(step)


def test_series_solves_the_ode():
    # Assemble y = z^alpha0 (1-z)^beta1 sum u_k z^k from 60 recurrence steps
    # and check y' = (A/z + B/(z-1) + G) y pointwise.  (The partial sums d_k
    # carry the extra factor 1/(1-z), hence the beta1+1 exponent elsewhere.)
    sys_ = _sample_system()
    frame = _sample_frame()
    kernel = core.theta_kernel(sys_, frame)
    state = _start(kernel.main, kernel.a0)
    us = [np.array(state[1])]
    for _ in range(60):
        state = frobenius_step(state, kernel.main)
        us.append(np.array(state[1]))

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
    # A0 with eigenvalue exactly 1 makes (A0 - 1*I) singular on step one:
    # the side of A0 = diag(1, 0), A1 + I = I and C = 0, with no pole
    side = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    start = (0.0, 1.0)
    with pytest.raises(SingularStep):
        frobenius_step(_start(side, start), side)
    with pytest.raises(SingularStep):
        next(_reference.steps(side, start))


def test_frobenius_step_rejects_state_of_other_pole_count():
    kernel = core.theta_kernel(_sample_system(), _sample_frame())  # 1 pole
    no_pole = (0, kernel.a0, kernel.a0, [])
    with pytest.raises(ValueError, match="accumulator"):
        frobenius_step(no_pole, kernel.main)


# --------------------------------------------------------------------------
# power series sums
# --------------------------------------------------------------------------

@pytest.mark.parametrize("c", [1.0])
def test_power_sum_raises_on_an_overflowing_series(c):
    # 2**k overflows at k = 1024, and the inf term meets the stop rule
    # (inf <= 1e-12 * inf): only the check of the total can catch it
    with pytest.raises(NoConvergence, match="sums to"):
        core._power_sum([c] * 2000, 2.0)
    assert abs(core._power_sum([c] * 2000, 0.5) - 2 * c) <= 1e-11


def _sum_outcome(summer, coefs, x):
    """repr of the sum as a float, signed zeros included, or the message
    of the NoConvergence it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return repr(float(summer(coefs, x)))
    except NoConvergence as exc:
        return str(exc)


_SPECIAL_X = [0.0, -0.0, 1.0, 2.0, -0.999, math.nan]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(length=hst.sampled_from([1, 2, 3, 31, 32, 33, 100, 2000]),
       decay=hst.floats(0.05, 1.0),
       seed=hst.integers(0, 2 ** 32 - 1),
       xs=hst.lists(hst.one_of(hst.floats(-1.0, 2.0, exclude_min=True,
                                          exclude_max=True),
                               hst.sampled_from(_SPECIAL_X)),
                    min_size=1, max_size=12))
def test_power_sum_equals_the_scalar_loop_at_every_point(length, decay,
                                                         seed, xs):
    # coefficients decaying at a drawn rate, with exact and negative zeros,
    # so that points stop at different k or read every term; at 2.0 the
    # sum overflows, and NaN reads every term.  The reference reads numpy
    # scalars
    rng = np.random.default_rng(seed)
    coefs = rng.standard_normal(length) * decay ** np.arange(length)
    coefs[rng.random(length) < 0.1] = 0.0
    coefs[rng.random(length) < 0.05] = -0.0
    want = [_sum_outcome(_reference.power_sum, coefs, x) for x in xs]
    # one point at a time
    assert [_sum_outcome(core._power_sum, coefs.tolist(), x)
            for x in xs] == want
    # all at once: the first failing point's message, and the sums of the
    # others
    failed = [w for w in want if w.startswith("power series")]
    if failed:
        with pytest.raises(NoConvergence) as info:
            core._power_sum(coefs.tolist(), np.array(xs))
        assert str(info.value) == failed[0]
    fine = [x for x, w in zip(xs, want) if not w.startswith("power series")]
    got = core._power_sum(coefs.tolist(), np.array(fine))
    assert got.dtype == float
    assert [repr(float(v)) for v in got] == [w for w in want
                                             if w not in failed]
    # a 2-d array of points gives its shape
    assert core._power_sum(coefs.tolist(), np.array(fine * 2).reshape(
        2, -1)).shape == (2, len(fine))


def test_series_array_is_always_a_copy():
    coefs = sph._coefficients(2.5, sph.SpheroidalProblem(mu=0, gamma2=4.0))
    with pytest.raises(ValueError, match="always a copy"):
        np.asarray(coefs, copy=False)
    assert np.asarray(coefs).tolist() == list(coefs)


# --------------------------------------------------------------------------
# acceleration vectors of the reference (`_reference`), which the Theta loop
# is checked against
# --------------------------------------------------------------------------

def test_p_vector_order_zero_is_b2():
    b2 = np.array([2.0, 1.0])
    p = _reference.p_vector(b2, [b2], delta=0.5, k=7, n=0)
    assert np.array_equal(p, b2.astype(complex))


def test_p_vector_order_one_hand_value():
    # With delta = 1/2, k = 2 the single product factor is
    # (0 + 1/2) / (0 + 1/2 - 2) = -1/3.
    b2 = np.array([2.0, 1.0])
    d1 = np.array([0.3, -0.9])
    p = _reference.p_vector(b2, [np.array([99.0, 99.0]), d1], delta=0.5,
                            k=2, n=1)
    assert np.allclose(p, b2 - d1 / 3, rtol=0, atol=1e-16)


def test_weight_vector_hand_values():
    e1 = np.array([1.0, 0.0])
    assert np.allclose(_reference.weight_vector(e1, np.array([0.0, 1.0])),
                       [1.0, 0.0], atol=0)
    assert np.allclose(_reference.weight_vector(e1, np.array([1.0, 3.0])),
                       [1.0, -1.0 / 3.0], atol=1e-16)


def test_weight_vector_degenerate():
    assert _reference.weight_vector(np.array([1.0, 2.0]),
                                    np.array([2.0, 4.0])) is None


def test_weight_vector_bilinear_identities():
    # <b1, nu> = 1 and <p, nu> = 0 for any nondegenerate draw.
    rng = np.random.default_rng(7)
    for _ in range(200):
        b1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        nu = _reference.weight_vector(b1, p)
        if nu is None:
            continue
        assert abs(b1 @ nu - 1) <= 1e-12
        assert abs(p @ nu) <= 1e-12 * max(1.0, float(np.max(np.abs(p))))


# --------------------------------------------------------------------------
# the Theta iteration
# --------------------------------------------------------------------------

def _reference_theta(system, frame, n, k):
    """Theta_k of the reference convolution (see `_reference.thetas`)."""
    return next(t for j, t in _reference.thetas(system, frame, n) if j == k)


@pytest.mark.parametrize("case", ["one pole", "constant tail"])
def test_theta_iterate_matches_reference_loop(case):
    # The reference steps the full convolution and calls p_vector and
    # weight_vector on arrays, where the fused loop forms p_k, nu_k and
    # Theta_k from scalars on the kernel, so agreement is to rounding, not
    # bitwise.
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
    ({"rtol": float("nan")}, "rtol"),
    ({"rtol": -1.0}, "rtol"),
    ({"rtol": math.inf}, "rtol"),
    ({"rtol": "1e-8"}, "rtol"),
])
def test_theta_iterate_rejects_bad_arguments(kwargs, what, monkeypatch):
    # each bad argument is a ValueError naming it, raised before any step
    # (a NaN tol would otherwise run the whole step budget), from a system
    # and frame, a kernel, `ell.theta` and `ell.theta_hat`
    def no_step(*args):
        raise AssertionError("a series was stepped")

    monkeypatch.setattr(core, "_advance", no_step)
    problem = ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=1)
    calls = [lambda: theta_iterate(_sample_system(), _sample_frame(),
                                   **kwargs),
             lambda: theta_iterate(ell._kernel(3.2, -5.0, problem), None,
                                   **kwargs),
             lambda: ell.theta(3.2, -5.0, problem, **kwargs),
             lambda: ell.theta_hat(3.2, -5.0, problem, **kwargs)]
    for call in calls:
        with pytest.raises(ValueError, match=what):
            call()


def _overflowing_theta():
    """A kernel whose Theta_k overflows, +inf and -inf in turn, from finite
    prefix sums: with A0 = 1e6 I and A1 + I = -2e6 I, d_k is about
    (-1)**k d_0 with d_0 = (1e250, 0), and at n = 0 with b1 = (1e-100, 0)
    and b2 = (0, 1), Theta_k = <d_k, e1> / 1e-100 overflows.  Each recorded
    bound k |Theta_k - Theta_{k-1}| / (delta + 1) is inf, as is
    rtol * |Theta_k|."""
    main = (1e6, 0.0, 0.0, 1e6, -2e6, 0.0, 0.0, -2e6, 0.0, 0.0, 0.0, 0.0)
    mirror = (0.5, 0.0, 0.0, 0.25, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    return core.ThetaKernel(main=main, mirror=mirror, a0=(1e250, 0.0),
                            b1=(1e-100, 0.0), b2=(0.0, 1.0), delta=0.5)


@pytest.mark.parametrize("head", [0, 512, None])
@pytest.mark.parametrize("rtol", [1e-8, 0.5])
def test_an_overflowing_theta_never_converges_at_rtol(head, rtol):
    # the relative limit holds only at a finite bound: inf <= rtol * inf
    # must not count, in the scalar head (512, None) or the float64 tail (0)
    with pytest.MonkeyPatch.context() as mp:
        if head is None:
            _no_tail(mp)
        else:
            mp.setattr(core, "_HEAD", head)
        for k_max in (40, 2000):
            res = theta_iterate(_overflowing_theta(), None, n=0, tol=1e-10,
                                rtol=rtol, k_max=k_max)
            assert res.status == "k_max_reached"
            assert math.isinf(res.theta.real)
            # and a series whose prefix sums overflow, then turn NaN
            kernel = ell._kernel(3.0, -3.0, ell.EllipsoidalProblem(
                gamma=2.0, c=1.6, rho=1))
            kernel = kernel._replace(main=(*kernel.main, 1.0, 0.0, 0.0, 1.0,
                                           2.0 ** (1024 / 100)))
            res = theta_iterate(kernel, None, tol=0.0, rtol=rtol, k_max=k_max)
            assert res.status == "k_max_reached"


def test_theta_iterate_rejects_k_max_below_first_usable_index():
    # delta = 1/2 at n = 5 puts the first usable index at k = 5: a smaller
    # budget tries no index at all, which is a caller error, not a status
    frame = _sample_frame()
    assert frame.delta == 0.5
    with pytest.raises(ValueError, match="first usable index"):
        theta_iterate(_sample_system(), frame, n=5, k_max=4)
    res = theta_iterate(_sample_system(), frame, n=5, k_max=5)
    assert res.status == "k_max_reached" and res.k_final == 5


def _inf_mirror(kernel):
    """``kernel`` with an infinite C entry on its mirrored side, so that
    d~_1 is not finite."""
    return kernel._replace(mirror=(*kernel.mirror[:8], math.inf,
                                   *kernel.mirror[9:]))


@pytest.mark.parametrize("gamma2", [4.0, 4 + 1.5j])
def test_non_finite_mirrored_sums_raise(gamma2):
    # the scalar loop, and theta_many's arrays (float) or the scalar loop
    # (complex): a ValueError, not a None per node
    kernel = _inf_mirror(sph._kernel(2.5, sph.SpheroidalProblem(
        mu=0, gamma2=gamma2)))
    with pytest.raises(ValueError, match="not finite"):
        theta_iterate(kernel, None)
    with pytest.raises(ValueError, match="not finite"):
        core.theta_many([kernel] * 3)


# --------------------------------------------------------------------------
# property: scalar rational kernel against the reference convolution
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
    # the reference is O(k^2); a capped run still compares like with like,
    # since both carry the bound of the Theta_k they give: the reference's
    # is theta_iterate's bound formula at the same k
    n = 5
    a = theta_iterate(sys_r, frame, n=n, tol=1e-8, k_max=300)
    ref = dict(itertools.takewhile(lambda kt: kt[0] <= a.k_final,
                                   _reference.thetas(sys_r, frame, n)))
    b_theta, b_prev = ref[a.k_final], ref[a.k_final - 1]
    denom = frame.delta.real + n + 1
    b_bound = 2 * a.k_final * abs(b_theta - b_prev) / denom
    allowance = a.error_bound + b_bound + 1e-9 * max(1.0, abs(a.theta))
    assert abs(a.theta - b_theta) <= allowance


# --------------------------------------------------------------------------
# property: the chunked kernel keeps the generator's every bit
# --------------------------------------------------------------------------

def _generator_run(side, state, m):
    """The reference generator's steps after ``state``, up to m of them, as
    the states (k, u, d, sums) after each, and the message of the
    SingularStep that ends them early, if one does."""
    k, u, d, sums = state
    sums = [list(s) for s in sums]
    out = []
    try:
        for k, u0, u1, d0, d1 in itertools.islice(
                _reference.rational_steps(side, k, u, d, sums), m):
            out.append((k, (u0, u1), (d0, d1), [list(s) for s in sums]))
    except SingularStep as exc:
        return out, str(exc)
    return out, None


_POLE = hst.tuples(*[hst.floats(-5.0, 5.0, **_finite)] * 4,
                   hst.floats(-0.95, 0.95, **_finite))


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=hst.sampled_from(["ell", "sph"]),
       complex_side=hst.booleans(),
       x=hst.floats(-20.0, 20.0, **_finite),
       y=hst.floats(-20.0, 20.0, **_finite),
       c=hst.floats(1.05, 3.0, exclude_min=True, exclude_max=True, **_finite),
       poles=hst.sampled_from([0, 1, 2, 3]),
       drawn=hst.lists(_POLE, min_size=3, max_size=3),
       overflow=hst.booleans(),
       zeros=hst.lists(hst.integers(0, 11), max_size=4),
       start=hst.sampled_from(["a0", (-0.0, 1.0), (1.0, -0.0), (-0.0, -0.0)]),
       chunks=hst.lists(hst.sampled_from([1, 2, 33]), min_size=1, max_size=6),
       singular=hst.sampled_from([None, "first", "middle", "last", "tiny"]))
@example(family="sph", complex_side=False, x=4.0, y=1.5, c=2.0, poles=0,
         drawn=[(0.0, 0.0, 0.0, 0.0, 0.0)] * 3, overflow=False, zeros=[],
         start="a0", chunks=[33, 33, 33], singular="middle")
@example(family="ell", complex_side=False, x=4.0, y=1.5, c=1.6, poles=1,
         drawn=[(0.0, 0.0, 0.0, 0.0, 0.0)] * 3, overflow=True, zeros=[],
         start="a0", chunks=[2, 33, 1, 33], singular=None)
@example(family="ell", complex_side=True, x=4.0, y=1.5, c=1.6, poles=2,
         drawn=[(0.5, -1.0, 2.0, 0.25, 0.5)] * 3, overflow=False, zeros=[],
         start="a0", chunks=[33, 2, 33], singular="middle")
@example(family="sph", complex_side=False, x=4.0, y=1.5, c=2.0, poles=2,
         drawn=[(0.5, -1.0, 2.0, 0.25, -0.5)] * 3, overflow=False, zeros=[],
         start="a0", chunks=[2, 33], singular="tiny")
@example(family="ell", complex_side=True, x=4.0, y=1.5, c=1.6, poles=2,
         drawn=[(0.5, -1.0, 2.0, 0.25, -0.5)] * 3, overflow=False, zeros=[],
         start="a0", chunks=[1, 1, 2], singular="tiny")
def test_chunked_kernel_equals_the_generator(family, complex_side, x, y, c,
                                             poles, drawn, overflow, zeros,
                                             start, chunks, singular):
    # `_advance` against the reference generator, bit for bit, signs of
    # zero included (repr): the written-out loops for 0 and 1 pole, the
    # general step `_step` for 2 to 4, on float and complex sides, in
    # chunks of 1, 2 and 33 steps resumed from the state each returns.  A
    # singular step, where det(A0 - k*I) is an exact zero or, at k = 3
    # ("tiny"), ulp(3)**2 ~ 2e-31, raises the generator's message, leaves
    # the lists holding every step before it and keeps the given state
    x = complex(x, 1.5) if complex_side else x
    if family == "ell":
        kernel = ell._kernel(y, -y, ell.EllipsoidalProblem(gamma=x, c=c))
    else:
        kernel = sph._kernel(y, sph.SpheroidalProblem(mu=0, gamma2=x))
    side = list(kernel.main[:12])
    for i in zeros:
        side[i] = -0.0
    own = [kernel.main[12:17]] if family == "ell" else []
    for pole in (own + drawn)[:poles]:
        side += pole
    if overflow:
        # a pole inside the unit disk: its geometric sum overflows near
        # step 20, and the sums turn inf, then NaN
        side += (1.0, 0.0, 0.0, 1.0, 2.0 ** (1024 / 20))
    k_bad = None
    if singular == "tiny":
        # both diagonal entries of A0 one ulp above 3 and a12 = 0
        side[0] = side[3] = math.nextafter(3.0, 4.0)
        side[1], k_bad = 0.0, 3
    elif singular is not None:
        # A0 - k_bad*I singular at a chosen step of the last chunk
        offset = {"first": 1, "middle": chunks[-1] // 2 + 1,
                  "last": chunks[-1]}[singular]
        k_bad = sum(chunks[:-1]) + offset
        side[0], side[1] = float(k_bad), 0.0
    side = tuple(side)
    assert (len(side) - 12) // 5 == poles + overflow
    state = core._origin(side, kernel.a0 if start == "a0" else start)
    expected, error = _generator_run(side, state, sum(chunks))
    d0s, d1s, raised = [], [], None
    for m in chunks:
        before = repr(state)
        try:
            new = core._advance(side, state, m, d0s, d1s)
        except SingularStep as exc:
            raised = str(exc)
        assert repr(state) == before        # the given state is kept
        if raised is not None:
            break
        assert repr(new) == repr(expected[new[0] - 1])
        state = new
    # on a singular step, the lists hold every step before it
    assert raised == error
    assert raised is not None or k_bad is None or k_bad > sum(chunks)
    assert repr((d0s, d1s)) == repr(([d[0] for _, _, d, _ in expected],
                                      [d[1] for _, _, d, _ in expected]))
    if overflow and start == "a0" and len(d0s) >= 40:
        # premise: the run went through inf to NaN
        assert any(map(cmath.isnan, expected[-1][3][-1]))


@pytest.mark.parametrize("poles", [0, 1])
@pytest.mark.parametrize("kind", [float, complex])
def test_chunked_kernel_keeps_the_signs_of_zero(poles, kind):
    # from d_0 = (-0, -0) every term is a zero whose sign rests on the
    # generator's "+ w" with w = 0 + (R / c) s: with A0 = diag(1/2, 1/4),
    # A1 + I = I and C = -I, r = -0 + w must read +0, so u_k and d_k stay -0
    side = (0.5, 0.0, 0.0, 0.25, 1.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, -1.0,
            *(1.0, 0.0, 0.0, 1.0, 0.5)[:5 * poles])
    side = tuple(map(kind, side))
    state = core._origin(side, (kind(-0.0), kind(-0.0)))
    expected, _ = _generator_run(side, state, 3)
    d0s, d1s = [], []
    for m in (1, 2):
        state = core._advance(side, state, m, d0s, d1s)
        assert repr(state) == repr(expected[state[0] - 1])
    assert repr(d0s) == repr([d[0] for _, _, d, _ in expected])
    assert math.copysign(1.0, complex(d0s[-1]).real) == -1.0


# --------------------------------------------------------------------------
# the kernel rerun in 50-digit arithmetic
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [
    pytest.param(ell._kernel(3.2, -5.0, ell.EllipsoidalProblem(
        gamma=4.0, c=1.6, rho=1)), id="ell real"),
    pytest.param(ell._kernel(0.3, -0.5, ell.EllipsoidalProblem(
        gamma=1 + 0.5j, c=1 / 0.9)), id="ell complex gamma"),
    pytest.param(sph._kernel(1.5, sph.SpheroidalProblem(mu=0, gamma2=4.0)),
                 id="prolate"),
    pytest.param(sph._kernel(83.93, sph.SpheroidalProblem(
        mu=0, gamma2=-100.0)), id="oblate"),
])
def test_kernel_agrees_with_a_50_digit_rerun(kernel):
    # The kernel is plain scalar arithmetic, so its reference generator runs
    # unchanged on mpmath numbers: the same sides, read exactly, stepped at
    # 50 digits, form an oracle that shares no rounding with the library's
    # float run.  In the oblate case the prefix sums peak near 6e10 at
    # k = 20 and fall to 5e-4 by k = 300, so the error is measured against
    # the largest |d_l| so far.
    mpmath = pytest.importorskip("mpmath")
    for side, start in ((kernel.main, kernel.a0), (kernel.mirror, kernel.b2)):
        d0s, d1s = [], []
        core._advance(side, core._origin(side, start), 300, d0s, d1s)
        with mpmath.workdps(50):
            exact = itertools.islice(_reference.steps(
                tuple(map(mpmath.mpc, side)), list(map(mpmath.mpc, start))),
                300)
            peak = max(map(abs, start))
            for k, (f0, f1, x) in enumerate(zip(d0s, d1s, exact,
                                                strict=True), start=1):
                assert x[0] == k
                peak = max(peak, abs(x[3]), abs(x[4]))
                err = max(abs(f0 - x[3]), abs(f1 - x[4]))
                assert err <= 1e-13 * peak, f"k={k}: {float(err / peak)}"


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
    kernel = core.theta_kernel(system, frame)
    for side, start in ((kernel.main, kernel.a0), (kernel.mirror, kernel.b2)):
        out.append(_prefix_sums(side, start, 40))
        state = _start(side, start)
        for _ in range(5):
            state = frobenius_step(state, side)
            out += [*state[1], *state[2], *itertools.chain(*state[3])]
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
    main = core.theta_kernel(system, frame).main
    _, u, d, _ = frobenius_step(_start(main, start), main)
    step = (*u, *d)
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
        hat_system = ell.build_system(lam_h, mu_h, hat)
        hat_frame = ell.spectral_frame(hat, ell.entries(lam_h, mu_h, hat))
        pairs = [(ell.theta(*params, problem, **kw),
                  theta_iterate(system, frame, **kw)),
                 (ell.theta_hat(*params, problem, **kw),
                  theta_iterate(hat_system, hat_frame, **kw))]
    for closed, array_path in pairs:
        assert _bits(closed) == _bits(array_path)
    if family == "ell" and kind == "real":
        # the eigenfunction series, which are built for real problems only:
        # closed-form sides against the arrays
        main, hat_main = ell._kernel(*params, problem), ell._hat_kernel(
            *params, problem)
        closed = [np.asarray(core._Series(side, start))
                  for side, start in ((main.main, main.a0),
                                      (main.mirror, main.b2),
                                      (hat_main.main, hat_main.a0))]
        kernel = core.theta_kernel(system, frame)
        hat_kernel = core.theta_kernel(hat_system, hat_frame)
        arrays = [_prefix_sums(side, start, core._SERIES_TERMS)
                  for side, start in ((kernel.main, kernel.a0),
                                      (kernel.mirror, kernel.b2),
                                      (hat_kernel.main, hat_kernel.a0))]
        assert [c.tobytes() for c in closed] == [
            a[:, 1].real.tobytes() for a in arrays]


def _scalar(kernel, **kw):
    """`theta_iterate` of one kernel, None where it raises as a grid node."""
    try:
        return theta_iterate(kernel, None, **kw)
    except (ConncoefError, ArithmeticError):
        return None


def _no_tail(mp):
    """Patch the head so that every step runs on the scalar loop: no float64
    tail, at the end of the head nor at a checkpoint in it."""
    mp.setattr(core, "_HEAD", 10 ** 12)
    mp.setattr(core, "_HEAD_MIN", 10 ** 12)


def _all_scalar(kernel, **kw):
    """`_scalar` with every step on the scalar loop (no float64 tail)."""
    with pytest.MonkeyPatch.context() as mp:
        _no_tail(mp)
        return _scalar(kernel, **kw)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=hst.sampled_from(["ell", "sph", "two poles"]),
       x=hst.floats(-20.0, 20.0, **_finite),
       lo=hst.floats(-20.0, 0.0, **_finite),
       span=hst.floats(0.5, 20.0, **_finite),
       c=hst.floats(1.05, 3.0, exclude_min=True, exclude_max=True, **_finite),
       bits=hst.tuples(*[hst.integers(0, 1)] * 3),
       n=hst.integers(0, 8), log_tol=hst.floats(-12.0, -3.0, **_finite),
       budget=hst.sampled_from([0, 4, 30, 3000]),
       extra=hst.sampled_from(["none", "complex", "singular main",
                               "singular mirror"]),
       lockstep_min=hst.sampled_from([1, 8, 12, 24, 64]),
       head=hst.sampled_from([0, 1, 7, 512]))
@example(family="sph", x=4.0, lo=-3.0, span=3.0, c=2.0, bits=(0, 0, 0), n=5,
         log_tol=-12.0, budget=30, extra="none", lockstep_min=1, head=0)
@example(family="two poles", x=4.0, lo=-3.0, span=3.0, c=1.5, bits=(0, 0, 0),
         n=5, log_tol=-8.0, budget=3000, extra="complex", lockstep_min=8,
         head=512)
def test_theta_many_equals_the_scalar_loop(family, x, lo, span, c, bits, n,
                                           log_tol, budget, extra,
                                           lockstep_min, head):
    axis = np.linspace(lo, lo + span, 4)
    if family == "ell":
        problem = ell.EllipsoidalProblem(gamma=x, c=c, rho=bits[0],
                                         sigma=bits[1], tau=bits[2])
        kernels = [make(lam, mu, problem) for lam in axis for mu in -axis
                   for make in (ell._kernel, ell._hat_kernel)]
        odd = ell._kernel(axis[1], -axis[2],
                          replace(problem, gamma=complex(x, 1.5)))
    elif family == "sph":
        problem = sph.SpheroidalProblem(mu=bits[0] + bits[1] / 2, gamma2=x)
        kernels = [sph._kernel(float(t), problem)
                   for t in np.linspace(lo, lo + 4 * span, 16)]
        odd = sph._kernel(axis[1], sph.SpheroidalProblem(
            mu=problem.mu, gamma2=complex(x, 1.5)))
    else:
        # the kernel's general branch: poles c and -3 over a range of A's
        # a12, which moves no eigenvector of the frame; the twin's second
        # pole lies off the real axis
        def two_poles(a12, pole=-3.0):
            return core._kernel_of(
                (-0.5, a12, 0.0, 0.0), (-0.5, 1.0, 0.0, 0.0),
                (0.0, 0.0, x / 20, 0.0), (c, pole),
                ((-0.5, 0.7, 0.0, 0.0), (0.2, -0.4, 0.6, 0.1)),
                -0.5, (1.0, 0.0), -0.5, 0.0, (1.0, 0.0), (2.0, 1.0))
        kernels = [two_poles(float(a12))
                   for a12 in np.linspace(lo, lo + 4 * span, 16)]
        odd = two_poles(float(axis[1]), complex(-3.0, 1.5))
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
    # 1: every kernel stays in the arrays to the end, and those left at
    # k_max finish with no step to go; 64: the arrays hand every kernel to
    # the scalar loop at step k_start - 1, before their first read; the
    # others hand off part of the way, at the end of a block.  A kernel
    # handed off past the head goes on in the float64 tail
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_LOCKSTEP_MIN", lockstep_min)
        mp.setattr(core, "_HEAD", head)
        many = core.theta_many(iter(kernels), **kw)
    assert [_bits(r) for r in many] == [_bits(_all_scalar(k, **kw))
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


@pytest.mark.parametrize("gamma2", [4.0, 4 + 1.5j])
def test_theta_many_gives_none_for_a_kernel_that_raises(gamma2):
    # kernel 5 meets a singular step at k = 10 (A0 - 10 I): a float kernel
    # after the arrays hand it off at k_start - 1 = 5, a complex one on the
    # scalar loop; either way its entry is None and the others keep their
    # bits
    problem = sph.SpheroidalProblem(mu=0, gamma2=gamma2)
    kernels = [sph._kernel(float(t), problem) for t in np.linspace(-3, 9, 8)]
    kernels[5] = kernels[5]._replace(main=(10.0, *kernels[5].main[1:]))
    with pytest.raises(SingularStep):
        theta_iterate(kernels[5], None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_LOCKSTEP_MIN", len(kernels) + 1)
        many = core.theta_many(kernels)
    assert many[5] is None
    assert [_bits(r) for r in many] == [_bits(_scalar(k)) for k in kernels]


@pytest.mark.parametrize("kw", [
    dict(n=-1, tol=float("nan"), k_max=0), dict(n=2.5), dict(tol=-1.0),
    dict(tol=float("nan")), dict(k_max=0), dict(k_max=1.5)])
def test_theta_many_checks_its_input_before_reading_the_batch(kw):
    # an empty batch raises as a one-kernel batch does, and no batch is
    # read before the check
    kernel = sph._kernel(1.5, sph.SpheroidalProblem(mu=0, gamma2=4.0))

    def unread():
        raise AssertionError("the batch was read")
        yield

    for batch in ([], [kernel], unread()):
        with pytest.raises(ValueError):
            core.theta_many(batch, **kw)


def test_theta_kernel_of_a_user_system_runs_as_theta_iterate():
    # the public way from a caller's system and frame into a batch: each
    # result is the bits of theta_iterate on the same system and frame,
    # float kernels in lockstep and a complex one (a pole off the real axis)
    # on the scalar loop
    sys_, frame = _sample_system(), _sample_frame()
    off_axis = TwoPointSystem(sys_.A, sys_.B, RationalTail(
        sys_.tail.const, (2.5 + 1j,), sys_.tail.residues))
    sph_problem = sph.SpheroidalProblem(mu=1, gamma2=4.0)
    cases = [(sys_, frame), (off_axis, frame),
             (sph.build_system(2.5, sph_problem),
              sph.spectral_frame(2.5, sph_problem))]
    for gamma in (4.0, 1 + 0.5j):
        problem = ell.EllipsoidalProblem(gamma=gamma, c=1.6, rho=1)
        cases.append((ell.build_system(3.2, -5.0, problem),
                      ell.spectral_frame(problem,
                                         ell.entries(3.2, -5.0, problem))))
    kernels = [core.theta_kernel(s, f) for s, f in cases]
    assert [core._float_row(k) is None for k in kernels] == [
        False, True, False, False, True]
    for kw in (dict(n=5, tol=1e-10), dict(n=2, tol=1e-30, k_max=90)):
        expected = [_bits(theta_iterate(s, f, **kw)) for s, f in cases]
        for lockstep_min in (1, core._LOCKSTEP_MIN):
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


# --------------------------------------------------------------------------
# property: the float64 tail of the Theta loop keeps every bit
# --------------------------------------------------------------------------

def _outcome(kernel, head, chunk=None, every=None, **kw):
    """The bits of `theta_iterate` with the scalar head ``head`` patched in
    (None: every step on the scalar loop), a checkpoint of the head at
    every ``every``-th step from step 1 on if it is given, and every tail
    chunk ``chunk`` steps long if it is given, or the type and message of
    what it raises; no warning may escape."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        if head is None:
            _no_tail(mp)
        else:
            mp.setattr(core, "_HEAD", head)
        if every is not None:
            mp.setattr(core, "_HEAD_MIN", 1)
            mp.setattr(core, "_HEAD_EVERY", every)
        if chunk is not None:
            mp.setattr(core, "_TAIL_MIN", chunk)
            mp.setattr(core, "_TAIL_MAX", chunk)
        try:
            return _bits(theta_iterate(kernel, None, **kw))
        except (ConncoefError, ArithmeticError) as exc:
            return type(exc).__name__, str(exc)


def _singular_at(mp, kernel, k_bad):
    """Patch the kernel so that the main series of ``kernel`` raises
    SingularStep at step ``k_bad``, with every step before it unchanged:
    the chunked kernel that the head and the tail both step."""
    advance = core._advance

    def chunk(side, state, m, d0s, d1s):
        if side is kernel.main and state[0] < k_bad <= state[0] + m:
            advance(side, state, k_bad - 1 - state[0], d0s, d1s)
            raise core._singular_step(k_bad, 0.0)
        return advance(side, state, m, d0s, d1s)

    mp.setattr(core, "_advance", chunk)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=hst.sampled_from(["ell", "sph"]),
       x=hst.floats(-20.0, 20.0, **_finite),
       y=hst.floats(-20.0, 20.0, **_finite),
       c=hst.one_of(hst.floats(1.05, 1.25, exclude_min=True, **_finite),
                    hst.floats(1.25, 3.0, exclude_max=True, **_finite)),
       bits=hst.tuples(*[hst.integers(0, 1)] * 3),
       n=hst.integers(0, 8),
       tol=hst.one_of(hst.sampled_from([0.0, 1e3]),
                      hst.floats(-12.0, -3.0, **_finite).map(
                          lambda e: 10.0 ** e)),
       head=hst.sampled_from([0, 1, 7, 512]),
       chunk=hst.sampled_from([None, None, 1, 3]),
       budget=hst.sampled_from([0, 1, 37, 200, 1500]),
       extra=hst.sampled_from(["none", "overflow", "singular", "complex"]),
       offset=hst.sampled_from([-40, -1, 0, 1, 3, 150]),
       every=hst.sampled_from([None, None, 1, 5]))
def test_float_tail_equals_the_scalar_loop(family, x, y, c, bits, n, tol,
                                           head, chunk, budget, extra,
                                           offset, every):
    # the tail against the all-scalar loop: with c near 1 the ellipsoidal
    # series run long; tol = 0 never stops, tol = 1e3 stops at the fifth
    # recorded bound; chunk = 1 or 3 puts a chunk boundary everywhere;
    # every = 1 or 5 lets the head hand off early at any step, or any fifth
    # one, where the bound shows a long series; a complex kernel goes on
    # past the head on the scalar loop.  Each case runs with the absolute
    # limit alone (rtol = 0) and with the relative one (rtol = 1e-8), which
    # decides where tol is 0 or below 1e-8 |Theta|
    x = complex(x, 1.5) if extra == "complex" else x
    if family == "ell":
        kernel = ell._kernel(y, -y, ell.EllipsoidalProblem(
            gamma=x, c=c, rho=bits[0], sigma=bits[1], tau=bits[2]))
    else:
        kernel = sph._kernel(y, sph.SpheroidalProblem(
            mu=bits[0] + bits[1] / 2, gamma2=x))
    assert (core._float_row(kernel) is None) == (extra == "complex")
    k_start = core._first_index(n, 0.0, 10 ** 9, kernel.delta)
    hand_off = max(head, k_start - 1)
    if extra == "overflow":
        # one more pole, inside the unit disk: its geometric sum overflows
        # before step hand_off + 60, and the prefix sums turn inf, then NaN
        kernel = kernel._replace(main=(*kernel.main, 1.0, 0.0, 0.0, 1.0,
                                       2.0 ** (1024 / (hand_off + 60))))
    for rtol in (0.0, 1e-8):
        # budget 0: k_max at the head (or at k_start); else inside a chunk
        kw = dict(n=n, tol=tol, k_max=max(hand_off, k_start) + budget,
                  rtol=rtol)
        expected = _outcome(kernel, None, **kw)
        if extra != "singular":
            assert _outcome(kernel, head, chunk, every, **kw) == expected
            continue
        # a singular main step near where the scalar loop stops
        stop = expected[2] if expected[-1] == "'converged'" else kw["k_max"]
        k_bad = max(int(stop) + offset, 1)
        with pytest.MonkeyPatch.context() as mp:
            _singular_at(mp, kernel, k_bad)
            singular = _outcome(kernel, None, **kw)
            assert _outcome(kernel, head, chunk, every, **kw) == singular
        if k_bad <= min(int(stop), kw["k_max"]):
            assert singular == ("SingularStep", str(core._singular_step(
                k_bad, 0.0)))
        else:
            assert singular == expected


def _straddling(kernel, k_mid):
    """``kernel`` with a hand-made mirrored side, b1 = (1, 0) and
    b2 = (1, 2e-12), so that at order n = 2 the second component of p_k,
    2e-12 (1 + f1 + f1 f2) + f1 f2 z with f1 f2 ~ delta (1 + delta) / k**2,
    passes through 0 near k = k_mid: the weight vector is degenerate on a
    stretch around there and usable before and after it."""
    eta, delta = 2e-12, kernel.delta
    z = -eta * k_mid ** 2 / (delta * (1 + delta))
    # A0 = diag(1/4, 1/2), A1 + I = [[1/2, 0], [z', 0]], C = [[1/8, 0],
    # [z', 0]]: d~_1 = (., eta) and d~_2 = (., eta + z'/(1/2 - 2))
    zp = z * (0.5 - 2)
    mirror = (0.25, 0.0, 0.0, 0.5, 0.5, 0.0, zp, 0.0, 0.125, 0.0, zp, 0.0)
    return kernel._replace(mirror=mirror, b1=(1.0, 0.0), b2=(1.0, eta))


def _degenerate_steps(kernel, n, k_start, k_end):
    """The k in k_start..k_end - 1 with no usable weight vector, by the
    independent reference formulas."""
    prefix = [kernel.b2] + [(d0, d1) for *_, d0, d1 in itertools.islice(
        _reference.steps(kernel.mirror, kernel.b2), n)]
    return [k for k in range(k_start, k_end)
            if _reference.weight_vector(kernel.b1, _reference.p_vector(
                kernel.b2, prefix, kernel.delta, k, n)) is None]


@pytest.mark.parametrize("head", [0, 1, 7, 512])
@pytest.mark.parametrize("where", ["across", "after"])
def test_float_tail_keeps_a_degenerate_stretch(head, where):
    base = sph._kernel(1.5, sph.SpheroidalProblem(mu=0, gamma2=4.0))
    k_start = core._first_index(2, 0.0, 10 ** 9, base.delta)
    hand_off = max(head, k_start - 1)
    if where == "across":
        kernel = _straddling(base, 0.85 * hand_off if head >= 7 else 2)
    else:
        kernel = _straddling(base, 1.3 * hand_off + 10)
    k_end = 4 * hand_off + 40
    degenerate = _degenerate_steps(kernel, 2, k_start, k_end)
    # premise: one stretch of degenerate steps, with usable ones after it;
    # "across" starts it at or before the hand-off (or, below k_start, at
    # the tail's first step) and ends it past the hand-off; "after" has it
    # wholly inside the tail, usable steps on either side
    assert degenerate[-1] - degenerate[0] + 1 == len(degenerate)
    assert hand_off < degenerate[-1] < k_end - 1
    if where == "across":
        assert degenerate[0] <= max(hand_off, k_start)
        assert degenerate[0] > k_start or head < 7
    else:
        assert degenerate[0] > hand_off + 2
    # k_max past the stretch, inside it, at its end, one step past its end
    # and one step past the head; chunks of 1 and 3 steps put a chunk
    # boundary at every step
    for tol, k_max in itertools.product(
            (1e-10, 1e3), (k_end, (degenerate[0] + degenerate[-1]) // 2,
                           degenerate[-1], degenerate[-1] + 1, hand_off + 1)):
        kw = dict(n=2, tol=tol, k_max=max(k_max, k_start))
        expected = _outcome(kernel, None, **kw)
        for chunk in (None, 1, 3):
            assert _outcome(kernel, head, chunk, **kw) == expected
    # b1 = b2 at n = 0: no step has a usable weight vector
    flat = kernel._replace(b1=kernel.b2)
    kw = dict(n=0, tol=1e-10, k_max=hand_off + 300)
    assert _outcome(flat, head, **kw)[-1] == "'frame_degenerate'"
    assert _outcome(flat, head, **kw) == _outcome(flat, None, **kw)


@pytest.mark.parametrize("head", [0, 1, 7])
def test_float_tail_drops_an_error_past_the_stop(head):
    # the tail steps the kernel past the stop in whole chunks; an error
    # there must not surface, and one before the stop must surface at the
    # same k as on the scalar loop
    kernel = sph._kernel(1.5, sph.SpheroidalProblem(mu=0, gamma2=4.0))
    kw = dict(n=5, tol=1e-12, k_max=5000)
    expected = _outcome(kernel, None, **kw)
    stop = int(expected[2])
    assert expected[-1] == "'converged'" and stop > 8
    for k_bad in (stop + 1, stop + 2, stop + 100):
        with pytest.MonkeyPatch.context() as mp:
            _singular_at(mp, kernel, k_bad)
            assert _outcome(kernel, head, **kw) == expected
    for k_bad in (stop, stop - 1, 9):
        with pytest.MonkeyPatch.context() as mp:
            _singular_at(mp, kernel, k_bad)
            assert _outcome(kernel, head, **kw) == (
                "SingularStep", str(core._singular_step(k_bad, 0.0)))
    # a true singular step of the kernel: A0 - 40*I is singular
    resonant = kernel._replace(main=(40.0, *kernel.main[1:]))
    assert _outcome(resonant, head, **kw) == _outcome(
        resonant, None, **kw) == ("SingularStep",
                                      str(core._singular_step(40, 0.0)))


def test_head_drops_an_error_past_the_stop_in_its_block():
    # the head, too, steps the kernel a block at a time and past the stop;
    # an error 1 to 15 steps after the stop, in the stop's block or the
    # next, must not surface, and one 3 steps before it must
    kernel = sph._kernel(1.5, sph.SpheroidalProblem(mu=0, gamma2=4.0))
    kw = dict(n=5, tol=1e-10)
    expected = _bits(theta_iterate(kernel, None, **kw))
    stop = int(expected[2])
    # premise: the run stops in the head, before its first checkpoint
    assert expected[-1] == "'converged'" and 8 < stop < core._HEAD_MIN
    for k_bad in range(stop + 1, stop + 16):
        with pytest.MonkeyPatch.context() as mp:
            _singular_at(mp, kernel, k_bad)
            assert _bits(theta_iterate(kernel, None, **kw)) == expected
    with pytest.MonkeyPatch.context() as mp:
        _singular_at(mp, kernel, stop - 3)
        with pytest.raises(SingularStep) as exc:
            theta_iterate(kernel, None, **kw)
    assert str(exc.value) == str(core._singular_step(stop - 3, 0.0))


def test_lockstep_drops_an_error_past_the_stop_in_its_block(monkeypatch):
    # the arrays, too, step a block at a time and past a kernel's stop; a
    # singular step 1 to 15 steps after the stop, in the stop's block or
    # the next, must not fail the kernel, and one at the stop or 3 steps
    # before it must; the other kernels keep their bits either way
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    kernels = [sph._kernel(float(t), problem) for t in np.linspace(-3, 9, 24)]
    kw = dict(n=5, tol=1e-12)
    expected = [_bits(_scalar(k, **kw)) for k in kernels]
    target = kernels[7]
    stop = int(expected[7][2])
    assert expected[7][-1] == "'converged'" and stop > 24
    monkeypatch.setattr(core, "_LOCKSTEP_MIN", 1)
    assert [_bits(r) for r in core.theta_many(kernels, **kw)] == expected
    step = core._step

    def singular_at(k_bad):
        def patched(k, side, state):
            det = step(k, side, state)
            if k == k_bad and len(side) == len(target.main):
                own = np.all([np.asarray(row) == value
                              for row, value in zip(side, target.main)],
                             axis=0)
                det = np.where(own, 0.0, det)
            return det
        return patched

    for k_bad in [*range(stop + 1, stop + 16), stop, stop - 3]:
        monkeypatch.setattr(core, "_step", singular_at(k_bad))
        many = [_bits(r) for r in core.theta_many(kernels, **kw)]
        assert many[:7] + many[8:] == expected[:7] + expected[8:]
        assert many[7] == (expected[7] if k_bad > stop else None)


def test_lockstep_reads_from_a_late_first_index(monkeypatch):
    # at mu = 40 the first usable index is k_start = 46: the arrays step
    # blocks of at most 16 steps unread up to step 45, and read from there
    problem = sph.SpheroidalProblem(mu=40, gamma2=4.0)
    kernels = [sph._kernel(float(t), problem) for t in np.linspace(-3, 9, 40)]
    k_start = core._first_index(5, 1e-10, 10 ** 6, kernels[0].delta)
    assert k_start == 46
    read, starts = core._read, []

    def spy_read(k, d0, *rest):
        starts.append((k, d0.shape))
        return read(k, d0, *rest)

    monkeypatch.setattr(core, "_read", spy_read)
    monkeypatch.setattr(core, "_LOCKSTEP_MIN", 1)
    many = core.theta_many(kernels)
    assert starts[0] == (k_start - 1, (len(kernels), core._HEAD_EVERY))
    assert [_bits(r) for r in many] == [_bits(_scalar(k)) for k in kernels]


def test_head_hands_off_where_the_bound_shows_a_long_series(monkeypatch):
    # the wave row k^2 = 0.9 (c = 1/0.9) runs ~22000 steps: its float run
    # leaves the head at the first checkpoint, where its first tail block
    # starts; its complex twin asks once whether it is float and stays in
    # the head; a short series never asks
    read, float_row = core._read, core._float_row
    seen, starts = [], []

    def spy_read(k, *rest):
        starts.append(k)
        return read(k, *rest)

    def spy_float_row(kernel):
        seen.append("float?")
        return float_row(kernel)

    monkeypatch.setattr(core, "_read", spy_read)
    monkeypatch.setattr(core, "_float_row", spy_float_row)
    c = 1 / 0.9
    for gamma, first in ((25 / 4, [core._HEAD_MIN]), (25 / 4 + 0.5j, [])):
        kernel = ell._kernel(141.0901 * c / 4, -482.5134 * c / 4,
                             ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1,
                                                    sigma=0, tau=1))
        seen.clear()
        starts.clear()
        got = _bits(theta_iterate(kernel, None))
        assert seen == ["float?"] and starts[:1] == first
        assert got == _bits(_all_scalar(kernel)) and int(got[2]) > 20000
    seen.clear()
    starts.clear()
    short = theta_iterate(sph._kernel(1.5, sph.SpheroidalProblem(
        mu=0, gamma2=4.0)), None, tol=1e-14)
    assert seen == starts == [] and \
        short.k_final > core._HEAD_MIN + core._HEAD_EVERY


def test_float_tail_chunks_follow_the_bound():
    # a chunk reaches to where a bound falling like k**-denom meets tol,
    # within the clamps; no finite estimate means the largest chunk
    assert core._tail_len(512, 1e-12, 1e-10, 6.5) == core._TAIL_MIN
    assert core._tail_len(512, 1e-8, 1e-10, 6.5) == 512 * (
        100 ** (1 / 6.5) - 1) // 1
    assert core._tail_len(512, 1e3, 1e-10, 6.5) == core._TAIL_MAX
    assert core._tail_len(512, math.inf, 1e-10, 6.5) == core._TAIL_MAX
    assert core._tail_len(512, math.nan, 1e-10, 6.5) == core._TAIL_MAX
    assert core._tail_len(512, 1e-8, 0.0, 6.5) == core._TAIL_MAX
    assert core._tail_len(0, 1e-8, 1e-10, 6.5) == core._TAIL_MIN
    # Re(delta) + n + 1 < 1 at n = 0: the power overflows
    assert core._tail_len(512, 1e300, 1e3, 0.5) == core._TAIL_MAX
    # at the roundoff floor a chunk is cut to sqrt(2 * _TAIL_MIN * steps),
    # never below _TAIL_MIN nor above the length the bound gives
    floor = dict(floor=True)
    assert core._tail_len(512, 1e3, 1e-10, 6.5, **floor) == int(math.sqrt(
        2 * core._TAIL_MIN * core._TAIL_MAX))
    assert core._tail_len(512, 1e-8, 1e-10, 6.5, **floor) == int(math.sqrt(
        2 * core._TAIL_MIN * (512 * (100 ** (1 / 6.5) - 1))))
    assert core._tail_len(512, 1e-12, 1e-10, 6.5, **floor) == core._TAIL_MIN
    assert core._tail_len(0, 1e-8, 1e-10, 6.5, **floor) == core._TAIL_MIN

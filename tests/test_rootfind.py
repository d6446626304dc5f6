"""Tests for the scalar/2-d root-finding helpers."""

import hashlib
import math

import numpy as np
import pytest

from conncoef.errors import NoConvergence, SingularJacobian
from conncoef.rootfind import SolverOptions, bracket_scan, broyden2, secant


# --------------------------------------------------------------------------
# options
# --------------------------------------------------------------------------

def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)


def test_options_reject_nan_tolerance():
    with pytest.raises(ValueError):
        SolverOptions(tol_residual=float("nan"))


def test_options_reject_infinite_tolerance():
    # every residual met tol inf, so unsolved points passed for roots
    with pytest.raises(ValueError, match="tol_residual"):
        SolverOptions(tol_residual=float("inf"))


@pytest.mark.parametrize("max_iter", [2.5, float("nan"), float("inf"), "50"])
def test_options_reject_non_integer_max_iter(max_iter):
    # these once passed and failed later inside the solver's range()
    with pytest.raises(ValueError, match="max_iter"):
        SolverOptions(max_iter=max_iter)


# --------------------------------------------------------------------------
# secant
# --------------------------------------------------------------------------

def test_secant_quadratic():
    root = secant(lambda t: t * t - 4.0, 1.0, 3.0)
    assert abs(root - 2.0) <= 1e-9


def test_secant_affine_is_immediate():
    root = secant(lambda t: 3.0 * t - 6.0, 0.0, 1.0,
                  SolverOptions(max_iter=2))
    assert abs(root - 2.0) <= 1e-12


def test_secant_returns_endpoint_root():
    calls = []

    def f(t):
        calls.append(t)
        return t

    assert secant(f, 0.0, 5.0) == 0.0
    assert calls == [0.0, 5.0]  # no iteration needed


def test_secant_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        secant(lambda t: float("nan"), 0.0, 1.0)


def test_secant_no_convergence_carries_best():
    with pytest.raises(NoConvergence) as exc:
        secant(lambda t: t * t + 1.0, 0.5, 1.5, SolverOptions(max_iter=5))
    assert exc.value.best is not None
    assert exc.value.residual >= 1.0  # t^2 + 1 is bounded below by 1


# --------------------------------------------------------------------------
# bracket_scan
# --------------------------------------------------------------------------

def test_bracket_scan_simple_crossings():
    brackets = bracket_scan(math.cos, 0.0, 7.0, 0.5)
    assert len(brackets) == 2
    for (a, b), root in zip(brackets, (math.pi / 2, 3 * math.pi / 2)):
        assert a < root < b


def test_bracket_scan_validates_step():
    with pytest.raises(ValueError):
        bracket_scan(math.cos, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("step", [float("nan"), float("inf"), -0.5])
def test_bracket_scan_rejects_non_finite_or_negative_step(step):
    # a NaN or infinite step once sampled only the two endpoints, and
    # missed the roots of cos between 0 and 7
    calls = []
    with pytest.raises(ValueError, match="step"):
        bracket_scan(lambda t: calls.append(t) or math.cos(t), 0.0, 7.0, step)
    assert calls == []


def test_bracket_scan_exact_grid_zeros():
    # Roots 0, 2, 6 all fall exactly on the 0.5-step grid.  Each must yield
    # exactly one bracket (paired with the right neighbor), not two.
    f = lambda t: t * (t - 2.0) * (t - 6.0)
    brackets = bracket_scan(f, -1.0, 7.0, 0.5)
    assert brackets == [(0.0, 0.5), (2.0, 2.5), (6.0, 6.5)]
    roots = sorted(secant(f, a, b) for a, b in brackets)
    assert np.allclose(roots, [0.0, 2.0, 6.0], atol=1e-9)


def test_bracket_scan_trailing_zero_degenerates():
    brackets = bracket_scan(lambda t: t - 2.0, 0.0, 2.0, 1.0)
    assert brackets == [(2.0, 2.0)]


@pytest.mark.parametrize("lo, hi", [
    (5.0, 1.0),                 # reversed
    (float("nan"), 1.0),
    (0.0, float("nan")),
    (0.0, float("inf")),        # would grow the sample list without end
    (float("-inf"), 0.0),
])
def test_bracket_scan_rejects_bad_bounds(lo, hi):
    calls = []
    with pytest.raises(ValueError, match="finite"):
        bracket_scan(lambda t: calls.append(t) or t, lo, hi, 0.5)
    assert calls == []


@pytest.mark.parametrize("lo, hi, step", [
    (1e16, 1e16 + 4, 0.5),      # t += 0.5 rounds back to t
    (1e16, 1e16, 0.5),
    (-1e16 - 4, -1e16, 0.5),
    (1e16, 1e16 + 2, 1.0),      # half an ulp: ties to even stall at 1e16
])
def test_bracket_scan_rejects_step_that_cannot_move_t(lo, hi, step):
    # t += step cannot advance t in any of these: reject before sampling
    calls = []
    with pytest.raises(ValueError, match="ulp"):
        bracket_scan(lambda t: calls.append(t) or t, lo, hi, step)
    assert calls == []


def test_bracket_scan_accepts_step_just_above_half_an_ulp():
    # ulp(1e16) = 2: a step of 1.0000000000000002 moves t by one ulp.  The
    # end slack 1e-12 * |hi| = 1e4 is far above the step, and hi is still
    # sampled once
    ts = []
    bracket_scan(lambda t: ts.append(t) or 1.0, 1e16, 1e16 + 4,
                 math.nextafter(1.0, 2.0))
    assert ts == [1e16, 1e16 + 2, 1e16 + 4]


def test_bracket_scan_warns_on_nan():
    def f(t):
        return float("nan") if t < 0 else t - 0.75

    with pytest.warns(RuntimeWarning, match="NaN"):
        brackets = bracket_scan(f, -1.0, 1.0, 0.5)
    assert brackets == [(0.5, 1.0)]


# --------------------------------------------------------------------------
# broyden2
# --------------------------------------------------------------------------

def _circle_hyperbola(v):
    x, y = v
    return np.array([x * x + y * y - 5.0, x * y - 2.0])


def test_broyden2_quadratic_pair():
    root = broyden2(_circle_hyperbola, np.array([2.2, 0.8]))
    assert np.allclose(root, [2.0, 1.0], atol=1e-8)


def test_broyden2_affine():
    M = np.array([[2.0, 1.0], [0.0, 3.0]])
    r = np.array([1.0, -2.0])
    root = broyden2(lambda v: M @ (v - r), np.array([5.0, 5.0]))
    assert np.allclose(root, r, atol=1e-9)


def test_broyden2_singular_jacobian():
    with pytest.raises(SingularJacobian):
        broyden2(lambda v: np.array([1.0, 1.0]), np.array([0.0, 0.0]))


def test_broyden2_rejects_nonfinite_seed_value():
    with pytest.raises(ValueError):
        broyden2(lambda v: np.array([np.nan, 0.0]), np.array([0.0, 0.0]))


def test_broyden2_no_convergence_trace():
    with pytest.raises(NoConvergence) as exc:
        broyden2(_circle_hyperbola, np.array([30.0, -40.0]),
                 SolverOptions(max_iter=2))
    err = exc.value
    assert err.best is not None and len(err.best) == 2
    assert np.isfinite(err.residual)
    assert len(err.trace) >= 1
    assert err.residual <= err.trace[0]  # best is no worse than the seed


def test_broyden2_damps_through_failed_evaluations():
    # The full quasi-Newton step from x = 4 lands in the forbidden region
    # x < 0; the solver must treat the failed evaluation as a halving event
    # and still reach the root at (2, 1).
    def F(v):
        if v[0] < 0:
            raise ValueError("out of domain")
        return np.array([math.atan(v[0] - 2.0), v[1] - 1.0])

    root = broyden2(F, np.array([4.0, 0.0]))
    assert np.allclose(root, [2.0, 1.0], atol=1e-8)


def test_broyden2_stops_on_step_below_residual_floor():
    # F has slope 1e12 and its root lies halfway between two floats in each
    # component, so max |F| cannot drop below 1e12 * ulp(x) / 2 ~ 4e-3, far
    # above tol_residual.  The Newton step then falls below
    # tol_step * (1 + |x|) and the solver must return the best iterate
    # instead of raising NoConvergence.
    r = np.array([39.1, -120.3])
    ulp = np.abs(np.spacing(r))

    def F(v):
        return 1e12 * ((v - r) - ulp / 2)

    opts = SolverOptions(tol_residual=1e-8)
    root = broyden2(F, r + [1e-9, -2e-9], opts)
    assert np.all(np.abs(root - r) <= 2 * ulp)
    assert np.max(np.abs(F(root))) > opts.tol_residual


def _noisy_steep(calls):
    # J (x - r) with |J| ~ 1e10, plus noise of amplitude 10 in F_0 drawn
    # from a hash of the bits of x: the residual cannot drop below ~1, and
    # every point gives the same value on every call
    r = np.array([39.19, -134.03])
    J = np.array([[1e10, -1e10], [1.0, 1.0]])

    def F(v):
        v = np.asarray(v, dtype=float)
        u = int.from_bytes(hashlib.sha256(v.tobytes()).digest()[:8], "little")
        f = J @ (v - r)
        f[0] += 10.0 * (2.0 * u / 2.0 ** 64 - 1.0)
        calls.append((v.copy(), float(np.max(np.abs(f)))))
        return f
    return F


@pytest.mark.parametrize("seed, evals", [((39.2, -134.0), 14),
                                         ((40.0, -130.0), 15)],
                         ids=["near", "far"])
def test_broyden2_stops_at_the_evaluation_floor(seed, evals):
    # No halving of a quasi-Newton step below 1e-8 * (1 + |x|) lowers the
    # residual, so F is at its noise floor and the best iterate is
    # returned.  Without the floor stop the solver wandered on to its
    # 1e-13 step rule and returned the same point after 25 and 26
    # evaluations.
    calls = []
    opts = SolverOptions(tol_residual=1e-8)
    root = broyden2(_noisy_steep(calls), seed, opts)
    residual = [res for x, res in calls if np.array_equal(x, root)]
    assert residual and residual[0] > opts.tol_residual
    assert residual[0] == min(res for _, res in calls)
    assert len(calls) <= evals


def test_broyden2_floor_stop_keeps_raising_without_a_root():
    # x0^2 + 1 > 0: the steps never shrink to the floor-stop length, and
    # the solver must still give up with NoConvergence
    with pytest.raises(NoConvergence) as exc:
        broyden2(lambda x: [x[0] ** 2 + 1.0, x[1]], (0.5, 0.5))
    assert exc.value.residual >= 1.0

"""Tests for the spheroidal eigenproblem driver.

Reference eigenvalues for (mu, gamma^2) = (0, 4) were frozen from a run
cross-checked against the integration oracle; Legendre limits are exact.
"""

import contextlib
import dataclasses
import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from conncoef import core
from conncoef import spheroidal as sph
from conncoef.core import _SERIES_TERMS, _power_sum, theta_iterate
from conncoef.errors import NoConvergence, ParityAmbiguous, ScanExhausted
from conncoef.rootfind import SolverOptions, bracket_scan, secant

import _reference
from _oracle import theta_oracle

# lowest eight eigenvalues of the prolate problem mu=0, gamma^2=4
PROLATE_8 = [
    -2.872265935150069,
    0.287128543955796,
    4.225713001105859,
    10.100203876205334,
    18.054829770465697,
    28.035263096925295,
    40.024747640293190,
    54.018370784846266,
]

THETA_REF = 0.349852604826025926  # t = 1.5, mu = 0, gamma^2 = 4


@pytest.fixture(scope="module")
def prolate():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    return problem, sph.eigenvalues(problem, 8)


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValueError, match="mu"):
        sph.SpheroidalProblem(mu=-1, gamma2=1.0)
    # a non-finite mu or gamma2 is a usage error, not a Theta that fails
    # later, and so is a value that is not a number: a string, which
    # complex() would parse, or bytes
    for mu, gamma2 in ((math.inf, 4.0), (math.nan, 4.0), (0, math.nan),
                       (0, -math.inf), (0, complex(4.0, math.inf)),
                       ("1", "4"), (0, "4"), ("1", 4.0), (b"1", 4.0),
                       (0, b"4")):
        with pytest.raises(ValueError, match="must be finite"):
            sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
    assert sph.SpheroidalProblem(mu=0, gamma2=-4.0).is_real
    assert not sph.SpheroidalProblem(mu=1, gamma2=1j).is_real
    problem = sph.SpheroidalProblem(mu=1 + 0.5j, gamma2=4)
    assert (type(problem.mu), type(problem.gamma2)) == (complex, float)


@pytest.mark.parametrize("mu, gamma2", [
    (0, 4), (np.int64(1), np.float32(4.0)), (Fraction(1, 2), Fraction(4)),
    (complex(1.0, 0.0), complex(4.0, -0.0))],
    ids=["int", "numpy", "Fraction", "complex"])
def test_a_real_value_is_stored_as_a_float_whatever_its_type(mu, gamma2):
    # one value, one arithmetic: Theta equals that of the float problem
    problem = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
    want = sph.SpheroidalProblem(mu=float(complex(mu).real),
                                 gamma2=float(complex(gamma2).real))
    assert type(problem.mu) is type(problem.gamma2) is float
    assert problem == want and problem.is_real
    assert repr(sph.theta_t(2.5, problem)) == repr(sph.theta_t(2.5, want))


def test_build_system_entries():
    problem = sph.SpheroidalProblem(mu=1, gamma2=4.0)
    sys_ = sph.build_system(1.5, problem)
    assert np.array_equal(sys_.A, [[-1.5, -1.5], [0.0, 0.5]])
    assert np.array_equal(sys_.B, [[-1.5, 1.5], [0.0, 0.5]])
    assert np.array_equal(sys_.tail.const, [[0.0, -16.0], [1.0, 0.0]])
    assert sys_.tail.poles == ()


def test_frame_delta_is_mu_plus_one():
    problem = sph.SpheroidalProblem(mu=1.5, gamma2=2.0)
    frame = sph.spectral_frame(0.7, problem)
    assert frame.delta == 2.5


# --------------------------------------------------------------------------
# the mu = 0 reflection shortcut
# --------------------------------------------------------------------------

def test_reflection_identity_is_exact():
    # For mu = 0 the mirrored recurrence is the diag(-1, 1) conjugate of the
    # main one, so the mirrored prefix sums must match bit for bit.
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    sys_ = sph.build_system(1.5, problem)
    frame = sph.spectral_frame(1.5, problem)
    kernel = core.theta_kernel(sys_, frame)
    assert kernel.b2 == (-kernel.a0[0], kernel.a0[1])
    main = _reference.steps(kernel.main, kernel.a0)
    mirr = _reference.steps(kernel.mirror, kernel.b2)
    for _, (_, _, _, m0, m1), (_, _, _, t0, t1) in zip(range(39), main,
                                                       mirr):
        assert (t0, t1) == (-m0, m1)


def test_theta_t_matches_general_path():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    a = sph.theta_t(1.5, problem, n=5, tol=1e-12)
    b = theta_iterate(sph.build_system(1.5, problem),
                      sph.spectral_frame(1.5, problem), n=5, tol=1e-12)
    assert a.theta == b.theta
    assert a.k_final == b.k_final


# --------------------------------------------------------------------------
# Theta values
# --------------------------------------------------------------------------

def test_theta_anchor_value():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    res = sph.theta_t(1.5, problem, n=5, tol=1e-12)
    assert res.status == "converged"
    assert abs(res.theta - THETA_REF) <= 3e-12
    assert abs(res.theta - THETA_REF) <= res.error_bound
    assert 78 <= res.k_final <= 118  # 98 +- 20%
    assert abs(res.theta.imag) <= 1e-12


def test_theta_matches_oracle_at_random_t(prolate):
    rng = np.random.default_rng(20240811)
    problems = [sph.SpheroidalProblem(mu=0, gamma2=4.0),
                sph.SpheroidalProblem(mu=1, gamma2=4.0),
                sph.SpheroidalProblem(mu=0, gamma2=-4.0)]
    for i in range(10):
        t = rng.uniform(-5.0, 60.0)
        problem = problems[i % 3]
        got = sph.theta_t(t, problem, n=5, tol=1e-12).theta
        ref = theta_oracle(sph.build_system(t, problem),
                           sph.spectral_frame(t, problem))
        assert abs(got - ref) <= 1e-8, f"t={t}, problem={problem}"


# --------------------------------------------------------------------------
# eigenvalues
# --------------------------------------------------------------------------

def test_prolate_spectrum(prolate):
    problem, eigs = prolate
    assert [e.index for e in eigs] == list(range(8))
    worst = max(abs(complex(e.lam).real - v)
                for e, v in zip(eigs, PROLATE_8))
    assert worst <= 1e-9
    assert [e.parity for e in eigs] == [1, -1, 1, -1, 1, -1, 1, -1]
    assert all(e.residual <= 1e-9 for e in eigs)
    assert all(a.t_root < b.t_root for a, b in zip(eigs, eigs[1:]))


def test_legendre_limit():
    eigs = sph.eigenvalues(sph.SpheroidalProblem(mu=0, gamma2=0.0), 8)
    worst = max(abs(complex(e.lam).real - N * (N + 1))
                for N, e in enumerate(eigs))
    assert worst <= 1e-10


def test_associated_legendre_limit():
    # mu = 1, gamma^2 = 0: lam = N(N+1) for N >= 1
    eigs = sph.eigenvalues(sph.SpheroidalProblem(mu=1, gamma2=0.0), 4)
    worst = max(abs(complex(e.lam).real - N * (N + 1))
                for N, e in enumerate(eigs, start=1))
    assert worst <= 1e-10


def test_explicit_scan_range():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    eigs = sph.eigenvalues(problem, 2, t_scan_range=(-4.0, 1.0))
    assert abs(complex(eigs[0].lam).real - PROLATE_8[0]) <= 1e-9
    assert abs(complex(eigs[1].lam).real - PROLATE_8[1]) <= 1e-9


def test_explicit_scan_range_extends_once():
    # [-4, -1] holds one root; the one extension to [-1, 2] finds the second
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    eigs = sph.eigenvalues(problem, 2, t_scan_range=(-4.0, -1.0))
    assert abs(complex(eigs[0].lam).real - PROLATE_8[0]) <= 1e-9
    assert abs(complex(eigs[1].lam).real - PROLATE_8[1]) <= 1e-9


def test_k_max_below_first_usable_index_raises_at_once():
    # with no usable index the scan would only see NaN samples and keep
    # doubling its span; the error must come from the first sample
    with pytest.raises(ValueError, match="first usable index"):
        sph.eigenvalues(sph.SpheroidalProblem(mu=0, gamma2=4.0), 2, k_max=0)


@pytest.mark.parametrize("tol", [0.0, float("nan")])
def test_bad_tolerance_raises_before_any_theta_evaluation(monkeypatch, tol):
    calls = []

    def counting_theta_t(*args, **kwargs):
        calls.append(args)
        return theta_t(*args, **kwargs)

    theta_t = sph.theta_t
    monkeypatch.setattr(sph, "theta_t", counting_theta_t)
    monkeypatch.setattr(sph, "_theta_batch", counting_theta_t)
    with pytest.raises(ValueError, match="tol"):
        sph.eigenvalues(sph.SpheroidalProblem(mu=0, gamma2=100.0), 4, tol=tol)
    assert calls == []


def test_scan_exhausted_on_rootless_range():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    with pytest.raises(ScanExhausted):
        sph.eigenvalues(problem, 1, t_scan_range=(30.5, 31.5))


def test_count_validation():
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    for count in (0, 1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="count"):
            sph.eigenvalues(problem, count)


# --------------------------------------------------------------------------
# eigenfunctions
# --------------------------------------------------------------------------

def test_eigenfunction_parity(prolate):
    problem, eigs = prolate
    xs = np.linspace(-0.8, 0.8, 9)
    f0 = sph.eigenfunction(eigs[0], problem, xs)
    f1 = sph.eigenfunction(eigs[1], problem, xs)
    assert f0.parity == 1 and f1.parity == -1
    assert f0.parity_deviation <= 1e-6
    assert f1.parity_deviation <= 1e-6
    # the odd mode vanishes at the origin
    w0 = sph.eigenfunction(eigs[1], problem, [0.0]).values[0]
    sup = np.max(np.abs(f1.values))
    assert abs(w0) <= 1e-8 * sup


def test_eigenfunction_solves_the_ode(prolate):
    problem, eigs = prolate
    eig = eigs[2]
    lam = complex(eig.lam).real
    h = 3e-4
    # keep every stencil on one side of the origin: the reflected-branch
    # switch at x = 0 sits exactly at the parity-probe noise level, which a
    # second difference amplifies by 1/h^2
    xs = np.concatenate([-np.linspace(0.05, 0.9, 10),
                         np.linspace(0.05, 0.9, 10)])
    worst = 0.0
    for x in xs:
        grid = [x - 2 * h, x - h, x, x + h, x + 2 * h]
        f = np.asarray(sph.eigenfunction(eig, problem, grid).values,
                       dtype=float)
        w = f[2]
        wp = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        wpp = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        res = (1 - x * x) * wpp - 2 * x * wp + (lam + 4.0 * (1 - x * x)) * w
        worst = max(worst, abs(res) / max(abs(w), abs(wp), 1.0))
    assert worst <= 1e-7


def test_eigenfunction_ode_with_order_term():
    # mu = 1 brings in the mu^2/(1-x^2) potential term
    problem = sph.SpheroidalProblem(mu=1, gamma2=2.0)
    eig = sph.eigenvalues(problem, 2)[1]
    lam = complex(eig.lam).real
    h = 3e-4
    worst = 0.0
    for x in (-0.85, -0.5, -0.1, 0.1, 0.5, 0.85):
        grid = [x - 2 * h, x - h, x, x + h, x + 2 * h]
        f = np.asarray(sph.eigenfunction(eig, problem, grid).values,
                       dtype=float)
        w = f[2]
        wp = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        wpp = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        res = ((1 - x * x) * wpp - 2 * x * wp
               + (lam + 2.0 * (1 - x * x) - 1.0 / (1 - x * x)) * w)
        worst = max(worst, abs(res) / max(abs(w), abs(wp), 1.0))
    assert worst <= 1e-7


def test_eigenfunction_domain_and_preconditions(prolate):
    problem, eigs = prolate
    with pytest.raises(ValueError, match="inside"):
        sph.eigenfunction(eigs[0], problem, [0.5, 1.0])
    stale = dataclasses.replace(eigs[0], residual=1.0)
    with pytest.raises(ValueError, match="residual"):
        sph.eigenfunction(stale, problem, [0.5])


def test_theta_t_rejects_an_infinite_t():
    # t enters the kernel's entries, which the kernel builder checks
    with pytest.raises(ValueError,
                       match="^Theta kernel has non-finite entries$"):
        sph.theta_t(math.inf, sph.SpheroidalProblem(mu=0, gamma2=4.0))


def _probed(monkeypatch, values):
    """`sph._w_direct` patched to give values[x], or 1.0 at an x not in
    ``values``, at each point of its array; returns the list of the x it
    is asked at."""
    asked = []

    def w_direct(coefs, mu, xs):
        asked.extend(xs.tolist())
        return [values.get(x, 1.0) for x in xs.tolist()]
    monkeypatch.setattr(sph, "_w_direct", w_direct)
    return asked


def test_parity_probe_falls_back_to_the_second_abscissa(prolate,
                                                        monkeypatch):
    # |w| < 1e-10 at x0 = +-0.3, so x0 = 0.55 decides: w odd there
    problem, eigs = prolate
    asked = _probed(monkeypatch, {0.3: 1e-11, -0.3: -1e-11, 0.55: 2.0,
                                  -0.55: -2.0})
    fn = sph.eigenfunction(eigs[0], problem, [-0.5])
    assert asked == [0.3, -0.3, 0.55, -0.55, -0.5]
    assert (fn.parity, fn.parity_deviation) == (-1, 0.0)


def test_parity_probe_raises_where_w_vanishes_at_both(prolate, monkeypatch):
    problem, eigs = prolate
    _probed(monkeypatch, {0.3: 0.0, -0.3: 0.0, 0.55: 1e-11, -0.55: 1e-11})
    with pytest.raises(ParityAmbiguous, match=(
            r"^w vanishes at both parity probes x0 = 0\.3 and "
            r"x0 = 0\.55$")):
        sph.eigenfunction(eigs[0], problem, [-0.5])


@pytest.mark.parametrize("case", ["prolate"])
def test_eigenfunction_values_are_the_scalar_sums(prolate, case):
    # every sample summed in one call gives, bit for bit, the value that
    # the reference scalar loop gives at that sample alone
    problem, eigs = prolate
    eig = eigs[1]
    x = np.concatenate([np.linspace(-0.95, 0.95, 39), [0.0, -0.0]])
    fn = sph.eigenfunction(eig, problem, x)
    mu = problem.mu
    coefs = np.asarray(sph._coefficients(eig.t_root, problem))

    def w(v):
        with np.errstate(over="ignore", invalid="ignore"):
            return ((1 + v) / (1 - v)) ** (mu / 2) * _reference.power_sum(
                coefs, 1.0 + v)
    want = np.array([w(v) if v <= 0 else fn.parity * w(-v)
                     for v in x.tolist()])
    assert fn.values.dtype == want.dtype == np.float64
    assert fn.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["complex mu", "complex gamma2",
                                  "complex root"])
def test_eigenfunction_rejects_a_complex_problem_or_root_before_any_series(
        prolate, monkeypatch, case):
    # eigenfunctions are built for real problems only, as eigenvalues are:
    # a real eigenvalue with a complex problem, or a real problem with a
    # hand-made complex root, is refused before a coefficient is computed
    problem, eigs = prolate
    eig = eigs[0]
    if case == "complex mu":
        problem = sph.SpheroidalProblem(mu=0.5 + 0.5j, gamma2=4.0)
    elif case == "complex gamma2":
        problem = sph.SpheroidalProblem(mu=0, gamma2=4 + 1j)
    else:
        eig = dataclasses.replace(eig, t_root=complex(eig.t_root, 0.7))

    def fail(*args, **kwargs):
        raise AssertionError("no series may run for a complex problem")

    monkeypatch.setattr(sph, "_coefficients", fail)
    with pytest.raises(ValueError, match=(
            "^eigenfunctions are built for real problems only$")):
        sph.eigenfunction(eig, problem, [-0.5, 0.5])


@pytest.mark.parametrize("xs", [[math.nan], [0.2, math.nan]],
                         ids=["nan", "inside-then-nan"])
def test_eigenfunction_rejects_nan_samples_before_any_series(
        prolate, monkeypatch, xs):
    # NaN fails every comparison, so a check that looked for samples at or
    # beyond +-1 let it through to a 2000-term sum and a NoConvergence
    problem, eigs = prolate

    def fail(*args, **kwargs):
        raise AssertionError("no series may run for a NaN sample")

    monkeypatch.setattr(sph, "_coefficients", fail)
    with pytest.raises(ValueError, match="inside"):
        sph.eigenfunction(eigs[0], problem, xs)


# --------------------------------------------------------------------------
# the coefficient sequence, computed as the sums read it
# --------------------------------------------------------------------------

def _full_build(t, problem):
    """All _SERIES_TERMS coefficients e2^T d_k / 2^k from the array path."""
    kernel = core.theta_kernel(sph.build_system(t, problem),
                                sph.spectral_frame(t, problem))
    steps = itertools.islice(_reference.steps(kernel.main, kernel.a0),
                             _SERIES_TERMS - 1)
    d1 = np.fromiter(itertools.chain([kernel.a0[1]],
                                     (d1 for *_, d1 in steps)),
                     dtype=float, count=_SERIES_TERMS)
    return d1 * np.ldexp(1.0, -np.arange(_SERIES_TERMS))


def _exact(values):
    """Values as exact text, signed zeros included."""
    return [repr(float(v)) for v in values]


def _counted(terms, reads):
    """Iterate ``terms``, counting the reads, never more than one past the
    cap."""
    for v in itertools.islice(terms, _SERIES_TERMS + 1):
        reads[0] += 1
        yield v


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mu=hst.sampled_from([0.0, 0.5, 1.0, 2.5]),
       gamma2=hst.floats(-20.0, 20.0, **_finite),
       t=hst.floats(-20.0, 40.0, **_finite),
       xs=hst.lists(hst.floats(0.05, 1.55, **_finite), min_size=1,
                    max_size=4))
def test_on_demand_coefficients_equal_the_full_build(mu, gamma2, t, xs):
    problem = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
    reference = _full_build(t, problem)
    coefs = sph._coefficients(t, problem)
    # sums over a fresh sequence, then over the terms it has kept, read the
    # same bits as over the full array
    for x in xs:
        want = _exact([_power_sum(reference, x)])
        assert _exact([_power_sum(sph._coefficients(t, problem), x)]) == want
        assert _exact([_power_sum(coefs, x)]) == want
    assert coefs._known < _SERIES_TERMS
    # element by element, up to the cap and no further
    for _ in range(2):
        terms = itertools.islice(coefs, _SERIES_TERMS + 1)
        assert _exact(terms) == _exact(reference)


@pytest.mark.parametrize("x", [2.0, float("nan")])
@pytest.mark.parametrize("mu, gamma2, t", [(0, 4.0, 1.5)])
def test_on_demand_coefficients_stop_at_the_cap(mu, gamma2, t, x):
    # at argument 2 the terms do not shrink until x**k overflows at
    # k = 1024, and inf terms meet the stop rule; NaN terms never meet it,
    # so at a NaN argument both sums read exactly _SERIES_TERMS terms.
    # Neither sum is finite, so both raise after the same reads.
    problem = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
    lazy, full = [0], [0]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NoConvergence, match="sums to"):
            _power_sum(_counted(sph._coefficients(t, problem), lazy), x)
        with pytest.raises(NoConvergence, match="sums to"):
            _power_sum(_counted(_full_build(t, problem), full), x)
    assert lazy == full
    assert (lazy[0] == _SERIES_TERMS) == (x != x)


def test_spectrum_and_eigenfunctions_run_no_full_series(monkeypatch):
    # the parity probes and the eigenfunctions sum a few dozen terms; no
    # series may be stepped to the end of the 2000-term sequence
    deepest = [0]
    advance = core._advance

    def tracked_chunk(side, state, m, d0s, d1s):
        state = advance(side, state, m, d0s, d1s)
        deepest[0] = max(deepest[0], state[0])
        return state

    # the Theta loop and `_Series` both step the chunked kernel
    monkeypatch.setattr(core, "_advance", tracked_chunk)
    problem = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    eigs = sph.eigenvalues(problem, 8)
    xs = np.linspace(-0.95, 0.95, 39)
    for eig in eigs:
        sph.eigenfunction(eig, problem, xs)
    assert 0 < deepest[0] < _SERIES_TERMS - 1


@pytest.mark.parametrize("mu, gamma2", [(0, 4.0)])
def test_residual_comes_from_the_secant_evaluation(monkeypatch, mu, gamma2):
    # the residual is |Theta| at the root, read from the evaluation the
    # secant made there, not a new one
    calls = []
    theta_t = sph.theta_t

    def counting_theta_t(t, problem, **kw):
        calls.append((t, kw["tol"]))
        return theta_t(t, problem, **kw)

    monkeypatch.setattr(sph, "theta_t", counting_theta_t)
    problem = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
    eigs = sph.eigenvalues(problem, 3)
    monkeypatch.undo()
    eval_tol = min(1e-9, 1e-9) / 100.0   # as `eigenvalues` sets it
    for eig in eigs:
        assert calls.count((eig.t_root, eval_tol)) == 1
        want = abs(sph.theta_t(eig.t_root, problem, tol=eval_tol).theta)
        assert repr(eig.residual) == repr(want)


@pytest.mark.parametrize("mu, gamma2", [(0, 4 + 0.5j), (1 + 0.5j, 2.0)])
def test_eigenvalues_reject_a_complex_problem(monkeypatch, mu, gamma2):
    # the scan and the secant see only Re Theta(t) over real t, so a complex
    # problem would return roots whose |Theta| is far above tol
    calls = []
    for name in ("theta_t", "_theta_batch"):
        monkeypatch.setattr(sph, name, lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="real problems"):
        sph.eigenvalues(sph.SpheroidalProblem(mu=mu, gamma2=gamma2), 3)
    assert calls == []


# --------------------------------------------------------------------------
# the scan stops at the count-th sign change
# --------------------------------------------------------------------------

def _eager_eigenvalues(problem, count, t_scan_range=None, samples=None):
    """`sph.eigenvalues` (default n, tol, k_max) as it ran before its scan
    streamed: every sample of each doubled segment first, then the secant
    on each bracket.  The scan's sample points are appended to ``samples``,
    and the right end of the bracket that gave the count-th distinct root
    is returned along with the eigenvalues."""
    opts = SolverOptions(tol_residual=1e-9, max_iter=60)
    eval_tol, scan_tol = 1e-11, 1e-6
    evaluated = {}
    samples = [] if samples is None else samples

    def f(t):
        result = evaluated[t] = sph.theta_t(t, problem, tol=eval_tol)
        return result.theta.real

    def f_scan(t):
        samples.append(t)
        return sph.theta_t(t, problem, tol=scan_tol).theta.real

    if t_scan_range is None:
        lo = -max(complex(problem.gamma2).real, 0.0) - 2.0
        hi = lo + max(8.0, 2.0 * count)
        extensions = 64
    else:
        lo, hi = float(t_scan_range[0]), float(t_scan_range[1])
        extensions = 1
    brackets = bracket_scan(f_scan, lo, hi, 0.5)
    for _ in range(extensions):
        if len(brackets) >= count:
            break
        new_hi = hi + (hi - lo)
        brackets += bracket_scan(f_scan, hi, new_hi, 0.5)
        hi = new_hi
    if len(brackets) < count:
        raise ScanExhausted(f"found {len(brackets)} sign changes up to "
                            f"t = {hi}, need {count}")

    roots = []
    for a, b in brackets:
        if len(roots) == count:
            break
        r = secant(f, a, b, opts)
        if any(abs(r - r0) <= 1e-8 * (1 + abs(r)) for r0 in roots):
            continue
        roots.append(float(r))
        closing = b
    if len(roots) < count:
        raise ScanExhausted(
            f"brackets collapsed to {len(roots)} distinct roots, need {count}")
    roots.sort()

    mu = complex(problem.mu)
    out = []
    for i, r in enumerate(roots):
        parity, _ = sph._parity_probe(sph._coefficients(r, problem), mu)
        lam = r + mu * (mu + 1)
        if problem.is_real:
            lam = lam.real
        out.append(sph.SpheroidalEigenvalue(
            index=i, t_root=r, lam=lam, parity=parity,
            residual=abs(evaluated[r].theta)))
    return out, closing


#: the fingerprint's spectra, the benchmark's and its command-line request
_SPECTRA = [
    ((0, 4.0), 8, None), ((0, -4.0), 4, None), ((1, 4.0), 4, None),
    ((2, 10.0), 3, None), ((0, 4.0), 2, (-4.0, 2.0)),
    ((0, 4.0), 2, (-4.0, -1.0)), ((0, 4.0), 3, (-4.0, -3.0)),
    ((0, 16.0), 8, None), ((0, -4.0), 6, None), ((2, -9.0), 5, None),
    ((0, 0.0), 8, None), ((1, 4.0), 6, None),
    # gamma2 not a multiple of 0.25, so t += step rounds
    ((0, 4.1), 4, None), ((1, 9.3), 3, None),
]


@pytest.mark.parametrize("args, count, t_range", _SPECTRA)
def test_lazy_scan_equals_the_eager_scan(args, count, t_range):
    problem = sph.SpheroidalProblem(*args)
    try:
        want, _ = _eager_eigenvalues(problem, count, t_range)
    except ScanExhausted as exc:
        with pytest.raises(ScanExhausted) as got:
            sph.eigenvalues(problem, count, t_scan_range=t_range)
        assert str(got.value) == str(exc)
        return
    got = sph.eigenvalues(problem, count, t_scan_range=t_range)
    assert ([[repr(v) for v in dataclasses.astuple(e)] for e in got]
            == [[repr(v) for v in dataclasses.astuple(e)] for e in want])


@pytest.mark.parametrize("args, count, t_range", [
    ((0, 4.0), 8, None), ((2, -9.0), 5, None), ((0, 4.0), 2, (-4.0, -1.0))])
def test_scan_stops_at_the_sample_closing_the_last_bracket(
        monkeypatch, args, count, t_range):
    problem = sph.SpheroidalProblem(*args)
    every = []
    _, closing = _eager_eigenvalues(problem, count, t_range, every)
    scanned, _ = _count_scan(monkeypatch)
    sph.eigenvalues(problem, count, t_scan_range=t_range)
    # the same grid with each segment end once, walked up to the closing
    # sample and no further
    walk = [t for i, t in enumerate(every) if i == 0 or t != every[i - 1]]
    assert scanned == walk[:walk.index(closing) + 1]
    assert scanned[-1] == closing == max(scanned)
    assert len(scanned) < len(every)


def _count_scan(monkeypatch):
    """Count the scan's samples through its sampler, `sph._scan_values`.

    Returns two lists, filled as the scan runs: the t evaluated, the batch
    in its order and then each `theta_t` call at the scan's tol 1e-6, and
    the t read."""
    evaluated, read = [], []
    theta_t, scan_values = sph.theta_t, sph._scan_values

    def counting_scan_values(ts, *args):
        evaluated.extend(ts)
        value = scan_values(ts, *args)

        def reading(t):
            read.append(t)
            return value(t)
        return reading

    def counting_theta_t(t, problem, **kw):
        if kw["tol"] == 1e-6:
            evaluated.append(t)
        return theta_t(t, problem, **kw)

    monkeypatch.setattr(sph, "_scan_values", counting_scan_values)
    monkeypatch.setattr(sph, "theta_t", counting_theta_t)
    return evaluated, read


@pytest.mark.parametrize("args, count, t_range", _SPECTRA)
def test_the_batch_equals_theta_t_on_every_scan_sample(args, count, t_range):
    problem = sph.SpheroidalProblem(*args)
    every = []
    with contextlib.suppress(ScanExhausted):
        _eager_eigenvalues(problem, count, t_range, every)
    ts = sorted(set(every))
    batch = sph._theta_batch(ts, problem, 5, 1e-6, 10 ** 6)
    assert ([repr(dataclasses.astuple(r)) for r in batch]
            == [repr(dataclasses.astuple(sph.theta_t(t, problem, tol=1e-6)))
                for t in ts])


@pytest.mark.parametrize("args, count, t_range", _SPECTRA)
def test_the_scan_evaluates_only_the_samples_it_reads(monkeypatch, args,
                                                      count, t_range):
    problem = sph.SpheroidalProblem(*args)
    evaluated, read = _count_scan(monkeypatch)
    try:
        eigs = sph.eigenvalues(problem, count, t_scan_range=t_range)
    except ScanExhausted:
        eigs = None
    # nothing past the closing sample is evaluated
    assert evaluated == read
    if eigs is not None:
        assert sph._root_floor(problem, count) <= eigs[-1].t_root


def test_a_none_batch_entry_raises_the_error_of_theta_t_when_read(
        monkeypatch):
    ts = [-6.0, -5.5, -5.0]
    # a column masked by a check of the scalar build, and the ValueError
    # of the whole batch: theta_t raises each at the first sample
    for problem, k_max, match in (
            (sph.SpheroidalProblem(0, 1e308), 10 ** 6, "non-finite"),
            (sph.SpheroidalProblem(0, 4.0), 0, "first usable index")):
        assert sph._theta_batch(ts, problem, 5, 1e-6, k_max) == [None] * 3
        value = sph._scan_values(ts, problem, 5, 1e-6, k_max)
        with pytest.raises(ValueError, match=match):
            value(ts[0])
    # a kernel whose series raised: the samples before it are the batch's,
    # and its error is theta_t's, raised where the scan reads it
    problem = sph.SpheroidalProblem(0, 4.0)
    theta_table, theta_t = sph._theta_table, sph.theta_t
    calls = []

    def dropping(table, *args):
        results = theta_table(table, *args)
        results[1] = None
        return results

    def failing(t, problem, **kw):
        calls.append(t)
        if t == ts[1]:
            raise NoConvergence("a series that fails", best=t, residual=1.0)
        return theta_t(t, problem, **kw)

    monkeypatch.setattr(sph, "_theta_table", dropping)
    monkeypatch.setattr(sph, "theta_t", failing)
    value = sph._scan_values(ts, problem, 5, 1e-6, 10 ** 6)
    assert value(ts[0]) == theta_t(ts[0], problem, tol=1e-6).theta.real
    assert calls == []
    with pytest.raises(NoConvergence, match="a series that fails"):
        value(ts[1])
    assert calls == [ts[1]]
    # the spectrum's scan reads its samples from the start of the batch
    with pytest.raises(NoConvergence, match="a series that fails"):
        sph.eigenvalues(problem, 8, t_scan_range=(-6.0, 30.0))


def test_the_batch_runs_as_the_sampler_reads_it(monkeypatch):
    # _BATCH_MAX samples at a time, each batch once its first t is read
    problem = sph.SpheroidalProblem(1, 9.3)
    ts = [-11.3 + 0.5 * i for i in range(7)]
    batches = []
    theta_batch = sph._theta_batch

    def spy(ts, *args):
        batches.append(ts)
        return theta_batch(ts, *args)

    monkeypatch.setattr(sph, "_theta_batch", spy)
    monkeypatch.setattr(sph, "_BATCH_MAX", 3)
    value = sph._scan_values(ts, problem, 5, 1e-6, 10 ** 6)
    got = []
    for i, t in enumerate(ts + [-7.5]):
        got.append(repr(value(t)))
        assert batches == [ts[j:j + 3] for j in range(0, i + 1, 3)]
    assert got == [repr(sph.theta_t(t, problem, tol=1e-6).theta.real)
                   for t in ts + [-7.5]]


def _stubbed_scan(monkeypatch, scan_value, root=0.25):
    """Replace the scan's sampler (`sph._scan_values`) and `sph.theta_t`:
    scan samples read ``scan_value(t)``, the secant's evaluations t - root,
    so every bracket polishes to ``root``.  Returns the list of scanned
    t."""
    scanned = []

    def sample(t):
        scanned.append(t)
        return complex(scan_value(t)).real

    def stub(t, problem, **kw):
        assert kw["tol"] != 1e-6, "a scan sample left the sampler"
        return types.SimpleNamespace(theta=complex(t - root))

    monkeypatch.setattr(sph, "_scan_values", lambda *args: sample)
    monkeypatch.setattr(sph, "theta_t", stub)
    return scanned


def test_collapsed_brackets_consume_the_segment(monkeypatch):
    # cos has sign changes near 1.57, 4.71 and 7.85 on [0, 10]; the second
    # bracket makes count = 2 sign changes, but all three polish to one
    # root, so the rest of the segment is scanned and not extended
    scanned = _stubbed_scan(monkeypatch, math.cos)
    with pytest.raises(ScanExhausted,
                       match="brackets collapsed to 1 distinct roots, need 2"):
        sph.eigenvalues(sph.SpheroidalProblem(0, 4.0), 2,
                        t_scan_range=(0.0, 10.0))
    assert scanned == [0.5 * i for i in range(21)]


def test_nan_warning_counts_only_the_samples_evaluated(monkeypatch):
    # NaN at t = 1 and t = 3, before the sign change in (4.5, 5]; the one
    # at t = 7 lies past the closing sample t = 5
    nan = float("nan")
    scanned = _stubbed_scan(
        monkeypatch, lambda t: nan if t in (1.0, 3.0, 7.0) else t - 4.7,
        root=4.7)
    with pytest.warns(RuntimeWarning) as caught:
        eigs = sph.eigenvalues(sph.SpheroidalProblem(0, 4.0), 1,
                               t_scan_range=(0.0, 10.0))
    assert [str(w.message) for w in caught] == [
        "eigenvalues: skipped 2 NaN scan samples"]
    assert scanned[-1] == 5.0
    assert eigs[0].t_root == pytest.approx(4.7)


@pytest.mark.parametrize("gamma2", [100.0, 9.3, -100.0])
def test_default_scan_starts_at_the_rayleigh_bound(monkeypatch, gamma2):
    # lam >= mu(mu+1) - max(gamma2, 0), so no root lies below
    # t = -max(gamma2, 0); the scan starts 2 below that bound
    scanned = _stubbed_scan(monkeypatch, lambda t: t - 0.25)
    eigs = sph.eigenvalues(sph.SpheroidalProblem(0, gamma2), 1)
    assert scanned[0] == -max(gamma2, 0.0) - 2.0
    assert eigs[0].t_root == 0.25


def test_zero_at_a_segment_end_is_one_root(monkeypatch):
    # gamma2 = 0: Theta vanishes exactly at t = N(N+1).  With count 11 the
    # scan walks [-2, 20], then [20, 42], [42, 86] and [86, 174]; the roots
    # t = 20 and t = 42 are segment ends, each sampled once
    segments = []
    grid = sph._grid

    def spy(lo, hi, step):
        segments.append((lo, hi))
        return grid(lo, hi, step)

    _, read = _count_scan(monkeypatch)
    monkeypatch.setattr(sph, "_grid", spy)
    eigs = sph.eigenvalues(sph.SpheroidalProblem(0, 0.0), 11)
    roots = [n * (n + 1.0) for n in range(11)]
    assert [e.t_root for e in eigs] == roots
    # the same segments twice: first the walk to the bound t = 110 on the
    # 11th root, whose samples run as one batch, then the scan's walk
    assert segments == 2 * [(-2.0, 20.0), (20.0, 42.0), (42.0, 86.0),
                            (86.0, 174.0)]
    ends = {t for segment in segments for t in segment}
    assert sorted(ends.intersection(roots)) == [20.0, 42.0]
    assert read.count(20.0) == read.count(42.0) == 1


def test_nan_at_a_segment_end_keeps_the_sign_change(monkeypatch):
    # the end t = 2 of the explicit range is NaN; the sign change across it
    # is seen from t = 1.5 to the extension's first sample t = 2.5
    scanned = _stubbed_scan(
        monkeypatch, lambda t: float("nan") if t == 2.0 else t - 2.2,
        root=2.2)
    with pytest.warns(RuntimeWarning) as caught:
        eigs = sph.eigenvalues(sph.SpheroidalProblem(0, 4.0), 1,
                               t_scan_range=(0.0, 2.0))
    assert [str(w.message) for w in caught] == [
        "eigenvalues: skipped 1 NaN scan samples"]
    assert scanned.count(2.0) == 1
    assert eigs[0].t_root == pytest.approx(2.2)

"""Fingerprint the program's outputs: one SHA-256 over a fixed record set.

Two checkouts that print the same digest give bit-identical results on
every record.  The records cover

* Theta: `core.theta_iterate` at orders 2..8 and on systems with two
  poles, one `core.theta_many` batch of two-pole kernels, the singular
  step of a resonant two-pole system in `theta_iterate` (at step 3 and
  at step 700) and in a batch, `ell.theta`,
  `ell.theta_hat` and `sph.theta_t` on parameter lattices, real and
  complex, and `ell.theta` with a relative limit (rtol > 0) where it
  binds and where it does not;
* spectra: `sph.eigenvalues` for prolate, oblate and mu > 0 problems, with
  the default and with explicit scan ranges, and with gamma2 off the
  scan's grid;
* eigenfunctions: `sph.eigenfunction` values and parities, and its
  ValueError at a root of Theta off the real axis, at complex gamma2 and
  at complex mu (eigenfunctions are built for real problems only), and
  `ell.eigenfunction` series, matching constants, values (on about 200
  points, with the floats where the choice of piece ties) and both
  normalizations, on the table and on a wave row at c = 1/0.9, and the
  match that fails on a second;
* eigenpairs: `ell.solve_pair` on the gamma = 0, c = 12/7 table and two
  wave-number rows (one stops at the floor of its Theta evaluations), and
  a `scan_grid`;
* root finders: every point `secant` and `broyden2` evaluate, the returned
  root and the attached best iterate on failure;
* the CLI: exit code, stdout, stderr and the file written, for each
  subcommand.  ``wall_time_s`` values are stripped, and output files go to
  relative names inside one scratch directory, so the printed paths are
  fixed.

Exceptions enter a record as their type (plus best iterate, residual and
trace for `NoConvergence`), not their message.

Usage, from the root of a checkout (it imports that checkout's ``src``)::

    python tools/fingerprint.py            # one digest
    python tools/fingerprint.py --records  # one digest per record
    python tools/fingerprint.py --no-head  # float Theta chunked from step 1
    python tools/fingerprint.py --no-tail  # every Theta on the scalar loop

``--no-head`` sets `core._HEAD` to 0 in this process, so every Theta run on
floats forms Theta_k in float64 chunks from its first usable step instead
of after the scalar head.  ``--no-tail`` sets `core._HEAD` and
`core._HEAD_MIN` to infinity, so every Theta run stays on the scalar loop
to its end and never reaches the float64 tail.  Both digests must equal the
default one.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from conncoef import core  # noqa: E402
from conncoef import ellipsoidal as ell  # noqa: E402
from conncoef import spheroidal as sph  # noqa: E402
from conncoef.cli import main as cli_main  # noqa: E402
from conncoef.errors import NoConvergence  # noqa: E402
from conncoef.rootfind import (SolverOptions, bracket_scan,  # noqa: E402
                               broyden2, secant)

C_TABLE = 12.0 / 7.0

# first three eigenpairs per exponent-bit combination at gamma = 0, c = 12/7
EIGENPAIRS = {
    (0, 0, 0): [(0.0, 0.0), (0.611407, -1.5), (2.102879, -1.5)],
    (0, 0, 1): [(0.25, -0.5), (0.964286, -3.0), (3.25, -3.0)],
    (0, 1, 0): [(0.428571, -0.5), (0.981471, -3.0), (4.304243, -3.0)],
    (1, 0, 0): [(0.678571, -0.5), (2.423953, -3.0), (4.361761, -3.0)],
    (0, 1, 1): [(0.678571, -1.5), (1.303037, -5.0), (5.482677, -5.0)],
    (1, 0, 1): [(1.428571, -1.5), (3.488893, -5.0), (5.796821, -5.0)],
    (1, 1, 0): [(1.964286, -1.5), (3.597906, -5.0), (7.473523, -5.0)],
    (1, 1, 1): [(2.714286, -3.0), (4.548506, -7.5), (9.022923, -7.5)],
}


# --------------------------------------------------------------------------
# encoding
# --------------------------------------------------------------------------

def _enc(obj) -> str:
    """Exact text form of a result: floats by repr, arrays and other
    objects with ``__array__`` by the bytes of their array."""
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            return f"array{obj.shape}{_enc(obj.tolist())}"
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return f"array[{obj.dtype}]{obj.shape}:{digest}"
    if isinstance(obj, np.generic):
        return _enc(obj.item())
    if hasattr(obj, "__array__"):
        # an array-like, such as an eigenfunction's series: by its array
        return _enc(np.asarray(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(f"{f.name}={_enc(getattr(obj, f.name))}"
                         for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_enc(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k!r}:{_enc(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, BaseException):
        text = type(obj).__name__
        if isinstance(obj, NoConvergence):
            text += _enc([obj.best, obj.residual, obj.trace])
        return f"raises {text}"
    return repr(obj)


def _run(fn):
    try:
        return fn()
    except Exception as exc:  # the exception type is part of the record
        return exc


# --------------------------------------------------------------------------
# records
# --------------------------------------------------------------------------

def _theta_iterate_records():
    problem = ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=1)
    sys_r = ell.build_system(3.2, -5.0, problem)
    frame = ell.spectral_frame(problem, ell.entries(3.2, -5.0, problem))
    for n in range(2, 9):
        yield (f"theta_iterate/rational/n={n}",
               lambda n=n: core.theta_iterate(sys_r, frame, n=n, tol=1e-10))
    yield ("theta_iterate/k_max=40",
           lambda: core.theta_iterate(sys_r, frame, n=2, tol=1e-30, k_max=40))
    # two poles, the kernel's general branch: real, complex (a pole off the
    # real axis), and real with a pole near the unit circle, whose series
    # runs past step 512
    A = np.array([[-0.5, 2.0], [0.0, 0.0]])
    B = np.array([[-0.5, 1.0], [0.0, 0.0]])
    const = np.array([[0.0, 0.0], [-0.3, 0.0]])
    residues = (np.array([[-0.5, 0.7], [0.0, 0.0]]),
                np.array([[0.2, -0.4], [0.6, 0.1]]))
    eigen = core.SpectralFrame(alpha0=-0.5, a0=np.array([1.0, 0.0]),
                               beta1=-0.5, beta2=0.0, b1=np.array([1.0, 0.0]),
                               b2=np.array([2.0, 1.0]))
    for name, poles, tol in (("real", (2.5, -3.0), 1e-12),
                             ("complex", (2.5, 1.5 + 1j), 1e-12),
                             ("long", (1.02, -3.0), 1e-10)):
        system = core.TwoPointSystem.from_rational(A, B, const, poles,
                                                   residues)
        yield (f"theta_iterate/two_poles/{name}",
               lambda system=system, tol=tol: core.theta_iterate(
                   system, eigen, n=5, tol=tol))

    # one batch of float kernels on the general branch: both pole pairs,
    # over a range of A's a12 (the frame's eigenvectors do not move)
    def regular():
        kernels = []
        for poles in ((2.5, -3.0), (2.5, 1.02)):
            for a12 in np.linspace(0.5, 4.0, 20):
                system = core.TwoPointSystem.from_rational(
                    np.array([[-0.5, a12], [0.0, 0.0]]), B, const, poles,
                    residues)
                kernels.append(core.theta_kernel(system, eigen))
        return kernels
    yield ("theta_many/two_poles",
           lambda: core.theta_many(regular(), n=5, tol=1e-10))

    # the general branch's singular step: A0 - k_bad*I is singular, and at
    # tol = 0 no stop comes first.  At k_bad = 700 the failing block is read
    # in the float64 tail (from the first usable step with --no-head, in the
    # scalar loop with --no-tail); in a batch, that kernel gives None
    def resonant(k_bad):
        return core.TwoPointSystem.from_rational(
            np.array([[-0.5, 2.0], [0.0, k_bad - 0.5]]), B, const,
            (2.5, -3.0), residues)
    for k_bad in (3, 700):
        yield (f"theta_iterate/two_poles/singular@{k_bad}",
               lambda k_bad=k_bad: core.theta_iterate(
                   resonant(k_bad), eigen, n=5, tol=0.0))
    yield ("theta_many/two_poles/singular@700",
           lambda: core.theta_many(
               [core.theta_kernel(resonant(700), eigen), *regular()], n=5,
               tol=1e-10))


def _ell_theta_records():
    points = [(-1.0, -2.0), (0.5, 0.25), (3.2, -5.0)]
    for gamma in (0.0, 4.0, 1.5 + 0.5j):
        for c in (1.6, C_TABLE, 3.0):
            for rho in (0, 1):
                for sigma in (0, 1):
                    p = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=rho,
                                               sigma=sigma, tau=1 - rho)
                    for lam, mu in points:
                        tag = f"{gamma}/{c!r}/{rho}{sigma}/{lam},{mu}"
                        yield (f"ell.theta/{tag}",
                               lambda p=p, lam=lam, mu=mu:
                               ell.theta(lam, mu, p))
                        yield (f"ell.theta_hat/{tag}",
                               lambda p=p, lam=lam, mu=mu:
                               ell.theta_hat(lam, mu, p))
    # the relative limit: at the steep wave row's seed, |Theta| ~ 1e7 and
    # rtol * |Theta| binds, in the float64 tail (the scalar loop with
    # --no-tail); at a table root it does not bind, and the result must be
    # that of the absolute limit alone
    gamma, c, lam9, mu9 = ell.from_abramov(0.9, 25.0, 141.0901, 482.5134)
    p9 = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, sigma=0, tau=1)
    yield ("ell.theta/wave(0.9,25,141.0901,482.5134)/rtol=1e-8",
           lambda: ell.theta(lam9, mu9, p9, tol=1e-9, rtol=1e-8))
    p = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE, tau=1)

    def root():
        rel = ell.theta(0.25, -0.5, p, rtol=1e-8)
        return rel, _enc(rel) == _enc(ell.theta(0.25, -0.5, p))
    yield "ell.theta/(0, 0, 1)/0.25,-0.5/rtol=1e-8", root


def _sph_theta_records():
    for mu in (0, 1, 2.5, 0.5 + 0.5j):
        for gamma2 in (4.0, -4.0, 1 + 2j):
            p = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
            for t in (-5.0, -1.5, 0.0, 1.5, 7.25, 20.0):
                yield (f"sph.theta_t/{mu}/{gamma2}/{t}",
                       lambda p=p, t=t: sph.theta_t(t, p))
    p = sph.SpheroidalProblem(mu=0, gamma2=4.0)
    for n in (2, 3, 4, 5):
        yield (f"sph.theta_t/anchor/n={n}",
               lambda n=n: sph.theta_t(1.5, p, n=n, tol=1e-12))


def _spectrum_records():
    cases = [
        ("prolate8", (0, 4.0), 8, None),
        ("oblate4", (0, -4.0), 4, None),
        ("mu1", (1, 4.0), 4, None),
        ("mu2", (2, 10.0), 3, None),
        ("explicit", (0, 4.0), 2, (-4.0, 2.0)),
        ("extended", (0, 4.0), 2, (-4.0, -1.0)),
        ("exhausted", (0, 4.0), 3, (-4.0, -3.0)),
        # gamma2 off the scan's 0.5 grid
        ("offgrid(0,4.1)", (0, 4.1), 4, None),
        ("offgrid(1,9.3)", (1, 9.3), 3, None),
    ]
    for name, (mu, gamma2), count, t_range in cases:
        p = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
        yield (f"sph.eigenvalues/{name}",
               lambda p=p, count=count, t_range=t_range:
               sph.eigenvalues(p, count, t_scan_range=t_range))


def _sph_eigenfunction_records():
    xs = np.linspace(-0.95, 0.95, 39)
    for mu, gamma2, count in ((0, 4.0, 4), (1, 4.0, 2), (0, -4.0, 2)):
        p = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
        eigs = sph.eigenvalues(p, count)
        for eig in eigs:
            yield (f"sph.eigenfunction/{mu}/{gamma2}/{eig.index}",
                   lambda p=p, eig=eig: sph.eigenfunction(eig, p, xs))
    # complex problems: a root of Theta off the real axis, found by a secant
    # in the complex plane, which the record pins with the ValueError that
    # refuses its eigenfunction
    for mu, gamma2, t0 in ((0, 4 + 1j, -1 + 0j), (0.5 + 0.5j, 4.0, -1 + 0j)):
        p = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
        t = _complex_root(lambda t, p=p: sph.theta_t(t, p).theta, t0,
                          t0 + 0.1 + 0.1j)
        eig = sph.SpheroidalEigenvalue(index=0, t_root=t, lam=t + mu * (mu + 1),
                                       parity=0, residual=0.0)
        yield (f"sph.eigenfunction/{mu}/{gamma2}/complex",
               lambda p=p, eig=eig: (eig, sph.eigenfunction(eig, p, xs)))


def _complex_root(f, t0, t1):
    """A root of f by 40 secant steps from t0, t1, or fewer once |f| is at
    most 1e-12."""
    f0 = f(t0)
    for _ in range(40):
        f1 = f(t1)
        if abs(f1) <= 1e-12:
            break
        t0, t1, f0 = t1, t1 - f1 * (t1 - t0) / (f1 - f0), f1
    return t1


def _eigenpair_records():
    for bits, pairs in EIGENPAIRS.items():
        rho, sigma, tau = bits
        p = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE, rho=rho,
                                   sigma=sigma, tau=tau)
        for lam, mu in pairs:
            yield (f"ell.solve_pair/{bits}/{lam},{mu}",
                   lambda p=p, lam=lam, mu=mu:
                   ell.solve_pair(lam + 0.01, mu - 0.01, p))
    gamma, c, lam, mu = ell.from_abramov(0.5, 1.0, 404.5725, 254.1495)
    p = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, sigma=0, tau=1)
    yield ("ell.solve_pair/wave(0.5,1,404.5725,254.1495)",
           lambda: ell.solve_pair(lam, mu, p))
    # the steep row, whose residual floor lies above the target: Broyden
    # stops at the evaluation floor
    gamma, c, lam9, mu9 = ell.from_abramov(0.9, 25.0, 141.0901, 482.5134)
    p9 = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, sigma=0, tau=1)
    yield ("ell.solve_pair/wave(0.9,25,141.0901,482.5134)",
           lambda: ell.solve_pair(lam9, mu9, p9,
                                  opts=SolverOptions(tol_residual=1e-8)))


def _ell_eigenfunction_records():
    zs = np.linspace(0.0, C_TABLE, 23)
    for bits, seed in (((0, 0, 1), (0.25, -0.5)), ((1, 0, 0), (2.42, -3.0)),
                       ((1, 1, 1), (2.71, -3.0))):
        rho, sigma, tau = bits
        p = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE, rho=rho,
                                   sigma=sigma, tau=tau)
        pair = ell.solve_pair(*seed, p, opts=SolverOptions(tol_residual=1e-8))
        fn = _run(lambda p=p, pair=pair: ell.eigenfunction(pair, p))
        yield (f"ell.eigenfunction/{bits}", lambda fn=fn: fn)
        if isinstance(fn, Exception):
            continue
        yield (f"ell.eigenfunction/{bits}/values", lambda fn=fn: fn(zs))
        for mode in ("sup", "integral"):
            yield (f"ell.normalize/{bits}/{mode}",
                   lambda fn=fn, mode=mode: ell.normalize(fn, mode=mode))
        yield (f"ell.eigenfunction/{bits}/points",
               lambda fn=fn: fn(_points(fn.c)))
    # two wave rows at c = 1/0.9, where r1 = c - 1 is about 0.11 and the
    # piece-0 series runs to some 600 terms; at the second, piece 0 cancels
    # to rounding noise at the C0 abscissas, and the match fails
    for row in ((0.9, 1.0, 465.0515, 456.8093),
                (0.9, 1.0, 137.6824, 456.4856)):
        gamma, c, lam, mu = ell.from_abramov(*row)
        p = ell.EllipsoidalProblem(gamma=gamma, c=c, rho=1, sigma=0, tau=1)
        pair = ell.solve_pair(lam, mu, p,
                              opts=SolverOptions(tol_residual=1e-8))
        fn = _run(lambda p=p, pair=pair: ell.eigenfunction(pair, p))
        yield (f"ell.eigenfunction/wave{row}", lambda fn=fn: fn)
        if isinstance(fn, Exception):
            continue
        yield (f"ell.eigenfunction/wave{row}/points",
               lambda fn=fn, c=c: fn(_points(c)))
        for mode in ("sup", "integral"):
            yield (f"ell.normalize/wave{row}/{mode}",
                   lambda fn=fn, mode=mode: ell.normalize(fn, mode=mode))


def _points(c):
    """About 200 points of [0, c] for an ellipsoidal eigenfunction: a grid,
    0, 1 and c, and the floats within 4 ulps of the two points where
    `EllipsoidalEigenfunction.__call__` changes piece, q1 = q0 and q1 = q2,
    with every float within 300 ulps where that comparison ties exactly."""
    r1 = min(1.0, c - 1.0)
    points = [*np.linspace(0.0, c, 181).tolist(), 0.0, 1.0, c]
    for z0, q in ((1 / (1 + r1), abs),
                  ((c / (c - 1) + 1 / r1) / (1 / r1 + 1 / (c - 1)),
                   lambda z: (c - z) / (c - 1))):
        near = (z0 + np.arange(-300, 301) * np.spacing(z0)).tolist()
        points += near[296:305]
        points += [z for z in near if abs(1 - z) / r1 == q(z)]
    return np.array(points)


def _scan_grid_records():
    p = ell.EllipsoidalProblem(gamma=0.0, c=C_TABLE, tau=1)
    yield ("ell.scan_grid/9x9",
           lambda: ell.scan_grid(p, (0.0, 4.0), (-4.0, 0.0), 9))
    p = ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=1)
    yield ("ell.scan_grid/5x7",
           lambda: ell.scan_grid(p, (-2.0, 6.0), (-8.0, 2.0), (5, 7)))


def _logged(f):
    calls = []

    def g(*x):
        calls.append(_enc(x))   # encoded now: a solver may reuse its arrays
        return f(*x)
    return g, calls


def _rootfind_records():
    scalar = [
        ("quadratic", lambda t: t * t - 4.0, 1.0, 3.0, SolverOptions()),
        ("affine", lambda t: 3.0 * t - 6.0, 0.0, 1.0,
         SolverOptions(max_iter=2)),
        ("cubic", lambda t: t ** 3 - 2.0 * t - 5.0, 2.0, 3.0,
         SolverOptions(tol_residual=1e-14)),
        ("steep", lambda t: 1e12 * (t - 0.1), 0.0, 1.0, SolverOptions()),
        ("flat", lambda t: 1.0, 0.0, 1.0, SolverOptions()),
        ("budget", lambda t: np.cos(t) - t, -3.0, 3.0,
         SolverOptions(tol_residual=1e-15, max_iter=3)),
        ("no_root", lambda t: t * t + 1.0, -1.0, 2.0, SolverOptions()),
    ]
    for name, f, a, b, opts in scalar:
        def run(f=f, a=a, b=b, opts=opts):
            g, calls = _logged(f)
            return _run(lambda: secant(g, a, b, opts)), calls
        yield f"secant/{name}", run

    def rosen(x):
        return [10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]

    def circle(x):
        return [x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]]

    def steep(x):
        return [2e12 * (x[0] - 0.3) + x[1], x[0] + x[1] - 1.0]

    def pole(x):
        if x[0] > 1.5:
            raise ValueError("outside the domain")
        return [x[0] - 1.0, x[1] + 2.0 * x[0]]

    systems = [
        ("rosen", rosen, (-1.2, 1.0), SolverOptions()),
        ("circle", circle, (1.0, 2.0), SolverOptions()),
        ("steep", steep, (0.0, 0.0), SolverOptions()),
        ("pole", pole, (0.0, 0.0), SolverOptions()),
        ("budget", rosen, (-1.2, 1.0), SolverOptions(max_iter=3)),
        ("singular", lambda x: [x[0] + x[1], 2.0 * (x[0] + x[1])],
         (1.0, 1.0), SolverOptions()),
        ("no_root", lambda x: [x[0] ** 2 + 1.0, x[1]], (0.5, 0.5),
         SolverOptions()),
    ]
    for name, F, seed, opts in systems:
        def run(F=F, seed=seed, opts=opts):
            g, calls = _logged(lambda x: F(x))
            return _run(lambda: broyden2(g, seed, opts)), calls
        yield f"broyden2/{name}", run

    def stepped(t):
        return np.nan if 1.0 < t < 2.0 else np.sin(t)

    for name, f, lo, hi, step in (
            ("sin", np.sin, -1.0, 10.0, 0.5),
            ("zeros", lambda t: t * (t - 1.0), -1.0, 2.0, 0.5),
            ("nan", stepped, 0.0, 7.0, 0.25),
            ("point", np.cos, 0.5, 0.5, 0.1)):
        yield (f"bracket_scan/{name}",
               lambda f=f, lo=lo, hi=hi, step=step:
               bracket_scan(f, lo, hi, step))


_CLI = [
    ("theta-ell/json", ["theta-ell", "--lambda", "3.2", "--mu", "-5",
                        "--gamma", "4", "--c", "1.6", "--rho", "1", "--json"]),
    ("theta-ell/human", ["theta-ell", "--lambda", "3.2", "--mu", "-5",
                         "--gamma", "4", "--c", "1.6", "--rho", "1"]),
    ("theta-ell/k_max", ["theta-ell", "--lambda", "3.2", "--mu", "-5",
                         "--gamma", "4", "--c", "1.6", "--rho", "1",
                         "--k-max", "40", "--json"]),
    ("eigen-ell/seeds", ["eigen-ell", "--gamma", "0", "--c", repr(C_TABLE),
                         "--tau", "1", "--seed", "0.26", "-0.45",
                         "--seed", "1.0", "-3.1", "--json"]),
    ("eigen-ell/human", ["eigen-ell", "--gamma", "0", "--c", repr(C_TABLE),
                         "--tau", "1", "--seed", "0.26", "-0.45"]),
    ("eigen-ell/scan", ["eigen-ell", "--gamma", "0", "--c", repr(C_TABLE),
                        "--tau", "1", "--lambda-range", "0", "4",
                        "--mu-range", "-4", "0", "--resolution", "9",
                        "--json"]),
    ("eigen-ell/abramov", ["eigen-ell", "--abramov", "--k2", "0.5",
                           "--omega2", "1", "--rho", "1", "--tau", "1",
                           "--seed", "202.28625", "-127.07475"]),
    ("eigen-ell/no_seeds", ["eigen-ell", "--gamma", "0", "--c",
                            repr(C_TABLE), "--tau", "1", "--lambda-range",
                            "30", "31", "--mu-range", "5", "6",
                            "--resolution", "3"]),
    ("eigen-sph/csv", ["eigen-sph", "--gamma2", "4", "--count", "4",
                       "--csv"]),
    ("eigen-sph/json", ["eigen-sph", "--mu", "1", "--gamma2", "4",
                        "--count", "3", "--json"]),
    ("eigen-sph/human", ["eigen-sph", "--gamma2", "-4", "--count", "3"]),
    ("eigen-sph/t-range", ["eigen-sph", "--gamma2", "4", "--count", "2",
                           "--t-range", "-4", "-1", "--csv"]),
    ("scan/sph/file", ["scan", "--problem", "sph", "--gamma2", "4",
                       "--t-range", "-4", "10", "--resolution", "29",
                       "--output", "scan.csv"]),
    ("scan/sph/stdout", ["scan", "--problem", "sph", "--mu-order", "1",
                         "--gamma2", "4", "--t-range", "-4", "10",
                         "--resolution", "15", "--output", "-"]),
    ("scan/ell/file", ["scan", "--problem", "ell", "--gamma", "0", "--c",
                       repr(C_TABLE), "--tau", "1", "--lambda-range", "0",
                       "4", "--mu-range", "-4", "0", "--resolution", "9",
                       "--output", "grid.csv"]),
    ("scan/ell/stdout", ["scan", "--problem", "ell", "--gamma", "4", "--c",
                         "1.6", "--rho", "1", "--lambda-range", "-2", "6",
                         "--mu-range", "-8", "2", "--resolution", "5",
                         "--output", "-"]),
    ("eigenfunction/ell/file", ["eigenfunction", "--problem", "ell",
                                "--gamma", "0", "--c", repr(C_TABLE),
                                "--tau", "1", "--lambda", "0.26", "--mu",
                                "-0.45", "--normalize", "integral",
                                "--samples", "51", "--output", "w.csv"]),
    ("eigenfunction/ell/stdout", ["eigenfunction", "--problem", "ell",
                                  "--gamma", "0", "--c", repr(C_TABLE),
                                  "--tau", "1", "--lambda", "0.26", "--mu",
                                  "-0.45", "--normalize", "sup",
                                  "--samples", "31", "--output", "-"]),
    ("eigenfunction/sph/file", ["eigenfunction", "--problem", "sph",
                                "--gamma2", "4", "--index", "1",
                                "--normalize", "sup", "--samples", "41",
                                "--output", "v.csv"]),
    ("eigenfunction/sph/stdout", ["eigenfunction", "--problem", "sph",
                                  "--mu", "1", "--gamma2", "4", "--index",
                                  "0", "--samples", "21", "--output", "-"]),
    ("usage/none", []),
    ("usage/incomplete", ["eigen-ell", "--seed", "0.2", "-0.5"]),
    ("usage/abramov-k2", ["scan", "--abramov", "--k2", "0", "--omega2", "1",
                          "--problem", "ell", "--lambda-range", "0", "1",
                          "--mu-range", "0", "1", "--output", "-"]),
]

_WALL = re.compile(r"wall_time_s = [0-9.]+")


def _cli_records(workdir: Path):
    for name, argv in _CLI:
        def run(name=name, argv=argv):
            out, err = io.StringIO(), io.StringIO()
            path = workdir / name.replace("/", "_")
            path.mkdir()
            cwd = os.getcwd()
            os.chdir(path)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = _run(lambda: cli_main(argv))
            finally:
                os.chdir(cwd)
            files = {f.name: f.read_bytes() for f in sorted(path.iterdir())}
            return (rc, _WALL.sub("wall_time_s = *", out.getvalue()),
                    err.getvalue(), files)
        yield f"cli/{name}", run


def records(workdir: Path):
    """Yield (name, thunk) for every record, in a fixed order."""
    yield from _theta_iterate_records()
    yield from _ell_theta_records()
    yield from _sph_theta_records()
    yield from _spectrum_records()
    yield from _sph_eigenfunction_records()
    yield from _eigenpair_records()
    yield from _ell_eigenfunction_records()
    yield from _scan_grid_records()
    yield from _rootfind_records()
    yield from _cli_records(workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", action="store_true",
                        help="print one digest per record")
    path = parser.add_mutually_exclusive_group()
    path.add_argument("--no-head", action="store_true",
                      help="run float Theta series in float64 chunks "
                           "from the first step (core._HEAD = 0)")
    path.add_argument("--no-tail", action="store_true",
                      help="run every Theta series on the scalar loop "
                           "(core._HEAD = core._HEAD_MIN = inf)")
    args = parser.parse_args(argv)
    if args.no_head:
        core._HEAD = 0
    if args.no_tail:
        core._HEAD = core._HEAD_MIN = float("inf")
    total = hashlib.sha256()
    count = 0
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        for name, thunk in records(Path(tmp)):
            text = f"{name}\n{_enc(_run(thunk))}\n".encode()
            total.update(text)
            count += 1
            if args.records:
                print(hashlib.sha256(text).hexdigest()[:16], name)
    print(f"{total.hexdigest()}  ({count} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

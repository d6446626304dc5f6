"""Inputs of the three benchmark workloads, made from a seed.

This module imports only numpy and conncoef, so that the set-up probe
(`probe_setup.py`) times the program's import plus input construction and
nothing of the benchmark's reference machinery.

An operation is an `Op`: a kind, which selects how `run.py` executes and
checks it, a label, and its arguments.  An operation that uses an earlier
one's output names that output's key (label, copy) in ``after``.  Some
operations run in `COPIES` copies spread over the pass, so that each gets
more than one timing in a run of one long pass (see README).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from conncoef import ellipsoidal as ell
from conncoef import spheroidal as sph

WORKLOADS = ("theta-points", "sph-spectrum", "ell-eigenpairs")
#: copies per pass of the scan_grid, the eigenfunctions and the table pairs
COPIES = 3


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    args: tuple
    after: tuple[str, int] | None = None
    copy: int = 0


# -- theta-points ------------------------------------------------------------

#: ellipsoidal anchor (lam, mu) = (3.2, -5) and spheroidal anchor t = 1.5
ELL_ANCHOR = ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=1)
SPH_ANCHOR = sph.SpheroidalProblem(mu=0, gamma2=4.0)
SPH_POINT_PROBLEMS = ((0, 4.0), (1, 4.0), (0, -4.0))
#: random points are drawn from these lattices, on which every candidate has
#: been checked once; the points listed in uncertified.json fail their check
#: (see find_uncertified.py) and are left out
ELL_LATTICE = np.linspace(-10.0, 10.0, 41)
SPH_LATTICE = np.linspace(-5.0, 60.0, 521)
#: stratified draws: each lattice axis is cut into this many runs of
#: neighbouring values and one point is drawn per cell, so that the cost of
#: a pass varies little from seed to seed (36 points per (rho, sigma) and
#: 36 per spheroidal problem)
ELL_STRATA = 6
SPH_STRATA = 36
UNCERTIFIED = Path(__file__).resolve().parent / "uncertified.json"
#: 17 x 17 seed-search grid
GRID_PROBLEM = ell.EllipsoidalProblem(gamma=0.0, c=12.0 / 7.0, tau=1)
GRID_ARGS = ((0.0, 4.0), (-4.0, 0.0), 17)
#: large-|Theta| point whose certified intervals must agree across orders
BIG_THETA_T = -150.0
BIG_THETA_ORDERS = (4, 5, 6, 8)

# -- sph-spectrum --------------------------------------------------------------

#: (mu, gamma2, count) solved through the library
SPECTRA = ((0, 4.0, 8), (0, 16.0, 8), (0, -4.0, 6), (2, -9.0, 5), (0, 0.0, 8))
#: (mu, gamma2, count) solved through the command line, in-process
CLI_SPECTRUM = (1, 4.0, 6)
#: eigenfunctions are built for every eigenvalue of this request
EIGENFUNCTION_SPECTRUM = (0, 4.0, 8)
EIGENFUNCTION_SAMPLES = 41

# -- ell-eigenpairs --------------------------------------------------------------

#: paper's table: first three eigenpairs per exponent-bit triple, gamma = 0
TABLE_C = 12.0 / 7.0
TABLE = {
    (0, 0, 0): ((0.0, 0.0), (0.611407, -1.5), (2.102879, -1.5)),
    (0, 0, 1): ((0.25, -0.5), (0.964286, -3.0), (3.25, -3.0)),
    (0, 1, 0): ((0.428571, -0.5), (0.981471, -3.0), (4.304243, -3.0)),
    (1, 0, 0): ((0.678571, -0.5), (2.423953, -3.0), (4.361761, -3.0)),
    (0, 1, 1): ((0.678571, -1.5), (1.303037, -5.0), (5.482677, -5.0)),
    (1, 0, 1): ((1.428571, -1.5), (3.488893, -5.0), (5.796821, -5.0)),
    (1, 1, 0): ((1.964286, -1.5), (3.597906, -5.0), (7.473523, -5.0)),
    (1, 1, 1): ((2.714286, -3.0), (4.548506, -7.5), (9.022923, -7.5)),
}
#: the eigenfunctions of these bits are built and normalized
EIGENFUNCTION_BITS = (0, 0, 1)
#: paper's wave-number rows (k^2, omega^2, H, L) at exponent bits (1, 0, 1)
WAVE_ROWS = (
    (0.5, 1.0, 404.5725, 254.1495),
    (0.5, 25.0, 415.4354, 281.7278),
    (0.5, 25.0, 105.6530, 274.2514),
    (0.5, 1.0, 102.0318, 253.8504),
    (0.9, 25.0, 141.0901, 482.5134),
    (0.9, 1.0, 137.6824, 456.4856),
    (0.9, 1.0, 465.0515, 456.8093),
    (0.9, 25.0, 476.7548, 490.6641),
)


def wave_problem(k2: float, omega2: float, H: float, L: float):
    """(problem, lam, mu) of a wave-number row.

    c = 1/k^2, gamma = omega^2/4, lam = H c/4, mu = -L c/4.
    """
    c = 1.0 / k2
    problem = ell.EllipsoidalProblem(gamma=omega2 / 4.0, c=c, rho=1, sigma=0,
                                     tau=1)
    return problem, H * c / 4.0, -L * c / 4.0


def ell_point_problem(rho: int, sigma: int):
    return ell.EllipsoidalProblem(gamma=4.0, c=1.6, rho=rho, sigma=sigma)


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


def _insert_after(rng, ops, dependents):
    """Insert each dependent at a random place after its source."""
    ops = list(ops)
    for dep in dependents:
        source = next(i for i, op in enumerate(ops)
                      if (op.label, op.copy) == dep.after)
        ops.insert(int(rng.integers(source + 1, len(ops) + 1)), dep)
    return ops


def _theta_points(rng) -> list[Op]:
    ops = [Op("theta", f"ell anchor n={n}", (3.2, -5.0, ELL_ANCHOR, n, 1e-10))
           for n in (2, 3, 4, 5)]
    ops += [Op("theta_t", f"sph anchor n={n}", (1.5, SPH_ANCHOR, n, 1e-12))
            for n in (2, 3, 4, 5)]
    excluded = json.loads(UNCERTIFIED.read_text(encoding="utf-8"))
    skip_ell = {tuple(p) for p in excluded["ell"]}
    skip_sph = {tuple(p) for p in excluded["sph"]}
    for rho in (0, 1):
        for sigma in (0, 1):
            problem = ell_point_problem(rho, sigma)
            for lams in np.array_split(ELL_LATTICE, ELL_STRATA):
                for mus in np.array_split(ELL_LATTICE, ELL_STRATA):
                    cell = [(float(lam), float(mu)) for lam in lams
                            for mu in mus
                            if (rho, sigma, lam, mu) not in skip_ell]
                    lam, mu = cell[rng.integers(len(cell))]
                    args = (lam, mu, problem, 5, 1e-10)
                    where = f"({lam}, {mu}) bits ({rho}, {sigma})"
                    ops.append(Op("theta", f"theta {where}", args))
                    ops.append(Op("theta_hat", f"theta_hat {where}", args))
    for mu, gamma2 in SPH_POINT_PROBLEMS:
        problem = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
        for ts in np.array_split(SPH_LATTICE, SPH_STRATA):
            cell = [float(t) for t in ts if (mu, gamma2, t) not in skip_sph]
            t = cell[rng.integers(len(cell))]
            ops.append(Op("theta_t", f"theta_t({t}) mu={mu} g2={gamma2}",
                          (t, problem, 5, 1e-10)))
    ops += [Op("scan_grid", "17x17 scan_grid", (GRID_PROBLEM,) + GRID_ARGS,
               copy=k) for k in range(COPIES)]
    ops.append(Op("big_theta", f"theta_t({BIG_THETA_T}) n={BIG_THETA_ORDERS}",
                  (BIG_THETA_T, SPH_ANCHOR, BIG_THETA_ORDERS)))
    return _shuffled(rng, ops)


def _sph_spectrum(rng) -> list[Op]:
    requests = [Op("eigenvalues", f"eigenvalues mu={m} g2={g} count={n}",
                   (sph.SpheroidalProblem(mu=m, gamma2=g), n))
                for m, g, n in SPECTRA]
    m, g, n = CLI_SPECTRUM
    requests.append(Op("cli_eigen_sph", f"cli eigen-sph mu={m} g2={g} "
                       f"count={n}", (m, g, n)))
    source = next(op.label for op in requests
                  if op.kind == "eigenvalues"
                  and (op.args[0].mu, op.args[0].gamma2, op.args[1])
                  == EIGENFUNCTION_SPECTRUM)
    x = np.sort(rng.uniform(-0.95, 0.95, EIGENFUNCTION_SAMPLES))
    functions = [Op("sph_eigenfunction", f"sph eigenfunction N={i}",
                    (SPH_ANCHOR, i, x), after=(source, 0), copy=k)
                 for i in range(EIGENFUNCTION_SPECTRUM[2])
                 for k in range(COPIES)]
    return _insert_after(rng, _shuffled(rng, requests), functions)


def _ell_eigenpairs(rng) -> list[Op]:
    pairs = []
    for (rho, sigma, tau), refs in TABLE.items():
        problem = ell.EllipsoidalProblem(gamma=0.0, c=TABLE_C, rho=rho,
                                         sigma=sigma, tau=tau)
        for lam, mu in refs:
            pairs += [Op("solve_pair",
                         f"pair ({lam}, {mu}) bits ({rho}, {sigma}, {tau})",
                         (round(lam, 1), round(mu, 1), problem, (lam, mu)),
                         copy=k) for k in range(COPIES)]
    pairs += [Op("wave_row", f"wave row {row}", wave_problem(*row) + (row,))
              for row in WAVE_ROWS]
    functions = [Op("ell_eigenfunction", f"ell eigenfunction {op.label}",
                    op.args, after=(op.label, op.copy), copy=op.copy)
                 for op in pairs if op.kind == "solve_pair"
                 and (op.args[2].rho, op.args[2].sigma, op.args[2].tau)
                 == EIGENFUNCTION_BITS]
    return _insert_after(rng, _shuffled(rng, pairs), functions)


def make_inputs(workload: str, seed: int) -> list[Op]:
    """One pass of the workload, in execution order."""
    rng = np.random.default_rng(seed)
    build = {"theta-points": _theta_points, "sph-spectrum": _sph_spectrum,
             "ell-eigenpairs": _ell_eigenpairs}
    if workload not in build:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return build[workload](rng)

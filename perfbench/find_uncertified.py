"""Find the theta-points lattice points whose certified Theta fails its check.

theta-points draws its random points from finite lattices (see
`workloads.py`).  At a few lattice points `core.theta_iterate` stops early
with an ``error_bound`` far below its true error, and the oracle check
rejects the value.  Those points fail on some seeds and not on others, so
the workload leaves them out; this script lists them in ``uncertified.json``.

Run from the repository root (about 5 minutes on 2 cores):

    python3 perfbench/find_uncertified.py --jobs 2
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _paths():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]


def _ell_row(task):
    _paths()
    import checks
    import workloads as wl
    from conncoef import ellipsoidal as ell

    rho, sigma, lam = task
    problem = wl.ell_point_problem(rho, sigma)
    bad, worst = [], 0.0
    for mu in wl.ELL_LATTICE:
        for fn, oracle in ((ell.theta, checks.ell_oracle),
                           (ell.theta_hat, checks.ell_hat_oracle)):
            res = fn(lam, float(mu), problem, n=5, tol=1e-10)
            ref = oracle(lam, float(mu), problem)
            ratio = checks.theta_error_ratio(res, ref)
            if ratio > 1.0:
                bad.append([rho, sigma, lam, float(mu)])
                break
            worst = max(worst, ratio)
    return "ell", bad, worst


def _sph_problem(task):
    _paths()
    import checks
    import workloads as wl
    from conncoef import spheroidal as sph

    mu, gamma2 = task
    problem = sph.SpheroidalProblem(mu=mu, gamma2=gamma2)
    bad, worst = [], 0.0
    for t in wl.SPH_LATTICE:
        res = sph.theta_t(float(t), problem, n=5, tol=1e-10)
        ratio = checks.theta_error_ratio(res, checks.sph_oracle(float(t),
                                                                problem))
        if ratio > 1.0:
            bad.append([mu, gamma2, float(t)])
        else:
            worst = max(worst, ratio)
    return "sph", bad, worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    _paths()
    import workloads as wl

    tasks = [(_sph_problem, p) for p in wl.SPH_POINT_PROBLEMS]
    tasks += [(_ell_row, (rho, sigma, float(lam)))
              for rho in (0, 1) for sigma in (0, 1) for lam in wl.ELL_LATTICE]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(max(1, args.jobs)) as pool:
        results = [pool.apply_async(fn, (task,)) for fn, task in tasks]
        results = [r.get() for r in results]
    found = {"ell": [], "sph": []}
    worst = 0.0
    for kind, bad, w in results:
        found[kind] += bad
        worst = max(worst, w)
    found["ell"].sort()
    found["sph"].sort()
    found["worst_kept_ratio"] = worst
    (HERE / "uncertified.json").write_text(json.dumps(found) + "\n",
                                           encoding="utf-8")
    print(f"{len(found['ell'])} ellipsoidal and {len(found['sph'])} "
          f"spheroidal points left out; worst kept error/allowed = {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

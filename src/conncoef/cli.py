"""Command-line front end.

Subcommands
-----------
theta-ell      Theta for one ellipsoidal parameter point.
eigen-ell      Ellipsoidal eigenpairs from seeds or a grid scan.
eigen-sph      Spheroidal eigenvalues (lowest `count`).
scan           Theta samples on a grid (ellipsoidal) or line (spheroidal).
eigenfunction  Sampled eigenfunction values to CSV.

Machine-readable output (``--json`` / ``--csv`` / ``--output``) is
deterministic: fixed key order, floats in shortest round-trip form (at most
17 significant digits), CSV with comma separator, LF endings, UTF-8.
Wall-clock timing appears in human-readable output only.

Exit codes: 0 success, 1 usage error (including an unwritable output
path), 2 computation did not converge (k_max reached or a solver failure),
3 scan found no seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time

import numpy as np

from . import ellipsoidal as ell
from . import spheroidal as sph
from .errors import ConncoefError, NoConvergence
from .rootfind import SolverOptions

__all__ = ["main"]


def _fmt(x) -> str:
    """Shortest round-trip decimal form of a float (<= 17 significant digits)."""
    return repr(float(x))


def _emit_json(obj) -> None:
    print(json.dumps(obj, separators=(", ", ": ")))


def _write_csv(path: str, header, rows) -> None:
    """Write the header and rows as CSV to ``path``, or to stdout for '-'."""
    with (contextlib.nullcontext(sys.stdout) if path == "-" else
          open(path, "w", encoding="utf-8", newline="")) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default; the CLI
    # contract reserves 2 for non-converged computations, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# --------------------------------------------------------------------------
# theta-ell
# --------------------------------------------------------------------------

def cmd_theta_ellipsoidal(args) -> int:
    t0 = time.perf_counter()
    problem = ell.EllipsoidalProblem(gamma=args.gamma, c=args.c,
                                     rho=args.rho, sigma=args.sigma,
                                     tau=args.tau)
    res = ell.theta(args.lam, args.mu, problem, n=args.n, tol=args.tol,
                    k_max=args.k_max)
    wall = time.perf_counter() - t0
    if args.json:
        _emit_json({
            "theta_re": res.theta.real,
            "theta_im": res.theta.imag,
            "k": res.k_final,
            "n": res.n,
            "error_bound": res.error_bound,
            "status": res.status,
        })
    else:
        print("command: theta-ell")
        for key, val in (("lambda", args.lam), ("mu", args.mu),
                         ("gamma", args.gamma), ("c", args.c),
                         ("rho", args.rho), ("sigma", args.sigma),
                         ("tau", args.tau), ("n", args.n), ("tol", args.tol)):
            print(f"  {key} = {val}")
        print(f"theta = {_fmt(res.theta.real)}  (k = {res.k_final})\n"
              f"status = {res.status}\n"
              f"error bounds: {_fmt(res.error_bound)}\n"
              f"iterations: {res.k_final}\n"
              f"wall_time_s = {wall:.3f}")
    return 0 if res.status == "converged" else 2


# --------------------------------------------------------------------------
# eigen-ell
# --------------------------------------------------------------------------

#: default scan window for seed hunting when no seeds are given
_DEFAULT_WINDOW = ((-2.0, 6.0), (-8.0, 2.0), 17)


def _ell_problem_from_args(args) -> ell.EllipsoidalProblem:
    if args.abramov:
        if args.k2 is None or args.omega2 is None:
            raise ValueError("--abramov needs --k2 and --omega2")
        gamma, c, _, _ = ell.from_abramov(args.k2, args.omega2, 0.0, 0.0)
    else:
        if args.gamma is None or args.c is None:
            raise ValueError("need --gamma and --c (or --abramov)")
        gamma, c = args.gamma, args.c
    return ell.EllipsoidalProblem(gamma=gamma, c=c, rho=args.rho,
                                  sigma=args.sigma, tau=args.tau)


def cmd_eigen_ellipsoidal(args) -> int:
    t0 = time.perf_counter()
    problem = _ell_problem_from_args(args)
    opts = SolverOptions(tol_residual=args.tol)
    if args.resolution is not None and args.resolution < 2:
        raise ValueError("--resolution must be >= 2")
    if args.seed:
        seeds = args.seed
    else:
        lam_range, mu_range, res_n = _DEFAULT_WINDOW
        seeds = ell.scan_grid(
            problem, args.lambda_range or lam_range, args.mu_range or mu_range,
            res_n if args.resolution is None else args.resolution, n=args.n,
            k_max=args.k_max).seeds

    pairs: list[ell.EigenPair] = []
    failure = None
    for s in seeds:
        try:
            pair = ell.solve_pair(s[0], s[1], problem, opts=opts, n=args.n,
                                  k_max=args.k_max)
        except ConncoefError as exc:
            failure = exc   # raised below if no seed gives a pair
            continue
        if any(abs(pair.lam - q.lam) <= 1e-6 * (1 + abs(pair.lam))
               and abs(pair.mu - q.mu) <= 1e-6 * (1 + abs(pair.mu))
               for q in pairs):
            continue
        pairs.append(pair)
    if not pairs:
        if failure is not None:
            raise failure
        print("no seeds found", file=sys.stderr)
        return 3
    pairs.sort(key=lambda p: (p.lam, p.mu))
    wall = time.perf_counter() - t0

    records = []
    for p in pairs:
        rec = {"lambda": p.lam, "mu": p.mu,
               "residual_theta": p.residual_theta,
               "residual_theta_hat": p.residual_theta_hat,
               "iterations": p.iterations}
        if args.abramov:
            _, _, rec["H"], rec["L"] = ell.to_abramov(
                problem.gamma, problem.c, p.lam, p.mu)
        records.append(rec)
    if args.json:
        _emit_json(records)
    else:
        lines = []
        for rec in records:
            line = (f"lambda = {_fmt(rec['lambda'])}  mu = {_fmt(rec['mu'])}  "
                    f"residuals = ({rec['residual_theta']:.2e}, "
                    f"{rec['residual_theta_hat']:.2e})")
            if args.abramov:
                line += f"  H = {_fmt(rec['H'])}  L = {_fmt(rec['L'])}"
            lines.append(line)
        lines.append(f"wall_time_s = {wall:.3f}")
        print("\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# eigen-sph
# --------------------------------------------------------------------------

def cmd_eigen_spheroidal(args) -> int:
    t0 = time.perf_counter()
    problem = sph.SpheroidalProblem(mu=args.mu, gamma2=args.gamma2)
    t_range = tuple(args.t_range) if args.t_range else None
    eigs = sph.eigenvalues(problem, args.count, t_scan_range=t_range,
                           n=args.n, tol=args.tol, k_max=args.k_max)
    wall = time.perf_counter() - t0
    if args.csv:
        _write_csv("-", ["N", "lambda", "parity", "residual"],
                   ([e.index, _fmt(e.lam), e.parity,
                     _fmt(e.residual)] for e in eigs))
    elif args.json:
        _emit_json([{"index": e.index, "lambda": e.lam,
                     "t": e.t_root, "parity": e.parity,
                     "residual": e.residual} for e in eigs])
    else:
        for e in eigs:
            print(f"N = {e.index}  lambda = {_fmt(e.lam)}  "
                  f"parity = {e.parity:+d}  residual = {e.residual:.2e}")
        print(f"wall_time_s = {wall:.3f}")
    return 0


# --------------------------------------------------------------------------
# scan
# --------------------------------------------------------------------------

def cmd_scan(args) -> int:
    t0 = time.perf_counter()
    if args.problem == "ell":
        problem = _ell_problem_from_args(args)
        if not (args.lambda_range and args.mu_range):
            raise ValueError("ellipsoidal scan needs --lambda-range and "
                             "--mu-range")
        grid = ell.scan_grid(problem, args.lambda_range, args.mu_range,
                             args.resolution, n=args.n, tol=args.tol,
                             k_max=args.k_max)
        _write_csv(args.output, ["lambda", "mu", "theta", "theta_hat"],
                   ([_fmt(lam), _fmt(mu), _fmt(grid.theta[i, j]),
                     _fmt(grid.theta_hat[i, j])]
                    for i, lam in enumerate(grid.lambdas)
                    for j, mu in enumerate(grid.mus)))
        n_seeds = len(grid.seeds)
    else:
        if args.gamma2 is None:
            raise ValueError("spheroidal scan needs --gamma2")
        problem = sph.SpheroidalProblem(mu=args.mu, gamma2=args.gamma2)
        if not args.t_range:
            raise ValueError("spheroidal scan needs --t-range")
        if args.resolution < 2:
            raise ValueError("spheroidal scan needs --resolution >= 2")
        ts = np.linspace(args.t_range[0], args.t_range[1], args.resolution)

        def row(t):
            r = sph.theta_t(float(t), problem, n=args.n, tol=args.tol,
                            k_max=args.k_max)
            return [_fmt(t), _fmt(r.theta.real)]
        # every row before the output opens, so that a bad tol or k_max
        # leaves no header behind
        _write_csv(args.output, ["t", "theta"], [row(t) for t in ts])
        n_seeds = None
    wall = time.perf_counter() - t0
    if args.output != "-":
        msg = f"wrote {args.output}"
        if n_seeds is not None:
            msg += f"  ({n_seeds} seed cells)"
        print(msg + f"  wall_time_s = {wall:.3f}")
    return 0


# --------------------------------------------------------------------------
# eigenfunction
# --------------------------------------------------------------------------

def cmd_eigenfunction(args) -> int:
    t0 = time.perf_counter()
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.problem == "ell":
        problem = _ell_problem_from_args(args)
        if args.abramov:
            if args.H is None or args.L is None:
                raise ValueError("--abramov eigenfunctions need --H and --L")
            _, _, lam0, mu0 = ell.from_abramov(args.k2, args.omega2, args.H,
                                               args.L)
        else:
            if args.lam is None or args.mu is None:
                raise ValueError("need --lambda and --mu (or --abramov with "
                                 "--H and --L)")
            lam0, mu0 = args.lam, args.mu
        # polish the pair first so the series pre-condition holds
        pair = ell.solve_pair(lam0, mu0, problem,
                              opts=SolverOptions(tol_residual=1e-8), n=args.n,
                              k_max=args.k_max)
        try:
            fn = ell.eigenfunction(pair, problem)
        except ValueError as exc:   # the polish left the residual too high
            raise NoConvergence(str(exc)) from exc
        if args.normalize != "none":
            fn = ell.normalize(fn, mode=args.normalize)
        zs = problem.c * np.arange(1, args.samples + 1) / (args.samples + 1)
        _write_csv(args.output, ["z", "w"],
                   ([_fmt(z), _fmt(w)] for z, w in zip(zs, fn(zs))))
        summary = (f"pair: lambda = {_fmt(pair.lam)}  mu = {_fmt(pair.mu)}  "
                   f"(residuals {pair.residual_theta:.2e}, "
                   f"{pair.residual_theta_hat:.2e})")
    else:
        if args.gamma2 is None:
            raise ValueError("spheroidal eigenfunctions need --gamma2")
        if args.normalize not in ("none", "sup"):
            raise ValueError("spheroidal eigenfunctions support "
                             "--normalize none|sup")
        if args.index < 0:
            raise ValueError(f"--index must be >= 0, got {args.index}")
        problem = sph.SpheroidalProblem(
            mu=0.0 if args.mu is None else args.mu, gamma2=args.gamma2)
        eigs = sph.eigenvalues(problem, args.index + 1, n=args.n,
                               k_max=args.k_max)
        eig = eigs[args.index]
        xs = -1.0 + 2.0 * np.arange(1, args.samples + 1) / (args.samples + 1)
        try:
            fn = sph.eigenfunction(eig, problem, xs)
        except ValueError as exc:   # the scan left the residual too high
            raise NoConvergence(str(exc)) from exc
        vals = np.asarray(fn.values, dtype=float)
        if args.normalize == "sup":
            vals = vals / np.max(np.abs(vals))
        _write_csv(args.output, ["x", "w"],
                   ([_fmt(x), _fmt(v)] for x, v in zip(xs, vals)))
        summary = (f"N = {eig.index}  lambda = {_fmt(eig.lam)}  "
                   f"parity = {fn.parity:+d}  "
                   f"parity_deviation = {fn.parity_deviation:.2e}")
    wall = time.perf_counter() - t0
    if args.output != "-":
        print(summary)
        print(f"wrote {args.output}  wall_time_s = {wall:.3f}")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser,
                tol_default: float | None = 1e-10) -> None:
    """--n, --k-max and, unless ``tol_default`` is None, --tol."""
    p.add_argument("--n", type=int, default=5,
                   help="acceleration order (default %(default)s)")
    if tol_default is not None:
        p.add_argument("--tol", type=float, default=tol_default,
                       help="tolerance (default %(default)s)")
    p.add_argument("--k-max", type=int, default=10 ** 6, dest="k_max",
                   help="series step budget (default %(default)s)")


def _add_ell_problem(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=None,
                   help="coefficient gamma of the ellipsoidal equation")
    p.add_argument("--c", type=float, default=None,
                   help="third singular point c > 1")
    p.add_argument("--rho", type=int, default=0, choices=(0, 1))
    p.add_argument("--sigma", type=int, default=0, choices=(0, 1))
    p.add_argument("--tau", type=int, default=0, choices=(0, 1))
    p.add_argument("--abramov", action="store_true",
                   help="take --k2/--omega2 (wave-number form) instead of "
                        "--gamma/--c")
    p.add_argument("--k2", type=float, default=None)
    p.add_argument("--omega2", type=float, default=None)


def _add_ranges(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, nargs=2, type=float, default=None,
                       metavar=("LO", "HI"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="conncoef", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("theta-ell",
                       help="connection coefficient for one (lambda, mu)")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--rho", type=int, default=0, choices=(0, 1))
    p.add_argument("--sigma", type=int, default=0, choices=(0, 1))
    p.add_argument("--tau", type=int, default=0, choices=(0, 1))
    _add_common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_theta_ellipsoidal)

    p = sub.add_parser("eigen-ell", help="ellipsoidal eigenpairs")
    _add_ell_problem(p)
    p.add_argument("--seed", nargs=2, type=float, action="append",
                   metavar=("LAMBDA", "MU"),
                   help="starting pair for the two-parameter solver "
                        "(repeatable); omit to scan for seeds")
    _add_ranges(p, "--lambda-range", "--mu-range")
    p.add_argument("--resolution", type=int, default=None)
    # residuals of steep problems bottom out near |dTheta/dlam| * ulp(lam):
    # near 1e-2 for the k^2 = 0.9, omega^2 = 25 wave row, where the solver
    # stops at the evaluation floor instead; 1e-8 is ~1e-12 in (lam, mu)
    _add_common(p, tol_default=1e-8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eigen_ellipsoidal)

    p = sub.add_parser("eigen-sph", help="spheroidal eigenvalues")
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--gamma2", type=float, required=True,
                   help="gamma^2 (prolate > 0, oblate < 0)")
    p.add_argument("--count", type=int, required=True)
    _add_ranges(p, "--t-range")
    _add_common(p, tol_default=1e-9)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eigen_spheroidal)

    p = sub.add_parser("scan", help="theta samples on a grid or line")
    p.add_argument("--problem", choices=("ell", "sph"), required=True)
    _add_ell_problem(p)
    p.add_argument("--mu-order", dest="mu", type=float, default=0.0,
                   help="spheroidal order mu (spheroidal scans)")
    p.add_argument("--gamma2", type=float, default=None)
    _add_ranges(p, "--lambda-range", "--mu-range", "--t-range")
    p.add_argument("--resolution", type=int, default=33)
    _add_common(p, tol_default=1e-8)
    p.add_argument("--output", required=True,
                   help="output CSV path ('-' for stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("eigenfunction", help="sampled eigenfunction to CSV")
    p.add_argument("--problem", choices=("ell", "sph"), required=True)
    _add_ell_problem(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu", type=float, default=None,
                   help="ellipsoidal: seed mu; spheroidal: order mu "
                        "(default 0)")
    p.add_argument("--H", type=float, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    p.add_argument("--index", type=int, default=0,
                   help="spheroidal eigenvalue index N")
    p.add_argument("--samples", type=int, default=401)
    p.add_argument("--normalize", choices=("none", "sup", "integral"),
                   default="none")
    # the pair's polish and the spectrum keep their own tolerances
    _add_common(p, tol_default=None)
    p.add_argument("--output", required=True,
                   help="output CSV path ('-' for stdout)")
    p.set_defaults(func=cmd_eigenfunction)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConncoefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

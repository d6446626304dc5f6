"""conncoef benchmark: one workload, checked outputs, metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload theta-points --seed 1 --seconds 5 \
        --trace 0

The program is imported from ``src/`` of the checkout and the integration
oracle from ``tests/_oracle.py``.  The load is a closed loop: one caller on
one thread runs whole passes over the workload's operations until
``--seconds`` have gone by.  Every output is checked against a reference
computed apart from the program (see `checks.py`).  Times are scaled to a
reference machine speed measured alongside them (see `calibrate.py`).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
untraced, then traced passes, and reports the per-layer metrics and the
tracing overhead; its spans go to ``perfbench/out/``.  The last line of
standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
#: operations whose latency feeds op_p50_ms / op_p90_ms, and side_p50_ms
MAIN_KINDS = {"theta", "theta_hat", "theta_t", "eigenvalues", "cli_eigen_sph",
              "solve_pair", "wave_row"}
SIDE_KINDS = {"scan_grid", "sph_eigenfunction", "ell_eigenfunction"}


def _import_paths() -> str | None:
    """Put the checkout's src/ and tests/ on sys.path; say what is missing."""
    src, tests = ROOT / "src", ROOT / "tests"
    for need in (src / "conncoef" / "__init__.py", tests / "_oracle.py"):
        if not need.is_file():
            return (f"{need.relative_to(ROOT)} not found; run from the root "
                    "of a conncoef checkout")
    sys.path[:0] = [str(src), str(tests)]
    return None


def execute(op, outputs):
    """Run one operation through the public API; return its output."""
    from conncoef import cli
    from conncoef import ellipsoidal as ell
    from conncoef import spheroidal as sph
    from conncoef.rootfind import SolverOptions

    kind, a = op.kind, op.args
    if op.after is not None:
        source = outputs[op.after]
        if isinstance(source, BaseException):
            raise RuntimeError(f"input {op.after!r} failed")
    if kind == "theta":
        return ell.theta(a[0], a[1], a[2], n=a[3], tol=a[4])
    if kind == "theta_hat":
        return ell.theta_hat(a[0], a[1], a[2], n=a[3], tol=a[4])
    if kind == "theta_t":
        return sph.theta_t(a[0], a[1], n=a[2], tol=a[3])
    if kind == "scan_grid":
        return ell.scan_grid(*a)
    if kind == "big_theta":
        t, problem, orders = a
        return [sph.theta_t(t, problem, n=n) for n in orders]
    if kind == "eigenvalues":
        return sph.eigenvalues(*a)
    if kind == "cli_eigen_sph":
        mu, gamma2, count = a
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eigen-sph", "--mu", str(mu), "--gamma2",
                             str(gamma2), "--count", str(count), "--json"])
        if code != 0:
            raise RuntimeError(f"eigen-sph exited with {code}")
        return json.loads(out.getvalue())
    if kind == "sph_eigenfunction":
        problem, index, x = a
        return sph.eigenfunction(source[index], problem, x)
    if kind == "solve_pair":
        return ell.solve_pair(a[0], a[1], a[2])
    if kind == "wave_row":
        problem, lam, mu, _ = a
        return ell.solve_pair(lam, mu, problem,
                              opts=SolverOptions(tol_residual=1e-8))
    if kind == "ell_eigenfunction":
        problem = a[2]
        return ell.normalize(ell.eigenfunction(source, problem),
                             mode="integral")
    raise ValueError(f"unknown operation kind {kind!r}")


def run_pass(ops, tracer=None):
    """Execute every operation once; return (outputs, [(op, seconds)], wall).

    ``outputs`` is keyed by (label, copy).  Each time is scaled to the
    reference speed by the speed samples taken during the operation and the
    probes on either side of it (`calibrate`); ``wall`` is their sum.
    """
    clock = time.perf_counter
    outputs, times = {}, []
    with calibrate.SpeedSampler() as speed:
        before = calibrate.probe()
        for op in ops:
            if tracer is not None:
                tracer.op = f"{op.label} #{op.copy}"
            n0, spent0 = len(speed.samples), speed.spent
            t0 = clock()
            try:
                out = execute(op, outputs)
            except Exception as exc:  # a failed operation is counted
                out = exc
            dt = clock() - t0 - (speed.spent - spent0)
            outputs[op.label, op.copy] = out
            after = calibrate.probe()
            times.append((op, calibrate.scaled(
                dt, [before, *speed.samples[n0:], after])))
            before = after
    return outputs, times, sum(dt for _, dt in times)


def check_pass(ops, outputs, refs):
    """(failed operations, problems with outputs)."""
    import checks

    failed, problems = 0, []
    for op in ops:
        out = outputs[op.label, op.copy]
        try:
            if isinstance(out, BaseException):
                raise checks.OperationFailed(f"raised {out!r}")
            problems += [f"{op.label}: {p}"
                         for p in checks.check(op, out, refs[op.label])]
        except checks.OperationFailed as exc:
            failed += 1
            print(f"failed: {op.label}: {exc}", file=sys.stderr)
    return failed, problems


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds of fresh-process import plus input construction,
    scaled to the reference speed by the samples each process takes."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup, *probes = (float(v) for v in proc.stdout.split())
        values.append(calibrate.scaled(setup, probes))
    return statistics.median(values)


def per_operation(passes):
    """[(op, time)]: each operation's median time over passes and copies."""
    samples = {}
    for _, times, _ in passes:
        for op, dt in times:
            samples.setdefault(op.label, (op, []))[1].append(dt)
    return [(op, statistics.median(v)) for op, v in samples.values()]


def end_to_end(passes, setup_s):
    times = per_operation(passes)
    main = [dt for op, dt in times if op.kind in MAIN_KINDS]
    side = [dt for op, dt in times if op.kind in SIDE_KINDS]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(dt for _, dt in times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_p50_ms": (1e3 * statistics.median(main), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(main, n=10,
                                                 method="inclusive")[8], "ms"),
        "side_p50_ms": (1e3 * statistics.median(side), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = _import_paths()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    import checks
    import workloads
    from tracer import LAYER_METRICS, Tracer

    try:
        ops = workloads.make_inputs(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    refs = {op.label: checks.reference(op, args.seed) for op in ops}

    attempted = failed = 0
    problems: list[str] = []

    def one_pass(tracer=None):
        nonlocal attempted, failed
        result = run_pass(ops, tracer)
        n_failed, n_problems = check_pass(ops, result[0], refs)
        attempted += len(ops)
        failed += n_failed
        problems.extend(n_problems)
        return result

    tracer = None
    if args.trace:
        untraced_wall = one_pass()[2]
        tracer = Tracer()
        tracer.install()
    passes = []
    start = time.perf_counter()
    try:
        while True:
            passes.append(one_pass(tracer))
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        layers = tracer.layer_metrics(len(passes))
        metrics = {name: (layers[name], unit)
                   for name, unit in LAYER_METRICS.items()}
        traced_wall = statistics.median(wall for _, _, wall in passes)
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    else:
        metrics = end_to_end(passes, setup_s)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    line = json.dumps(result)
    (out_dir / f"{stem}.json").write_text(line + "\n", encoding="utf-8")
    print(f"{args.workload}: {len(passes)} pass(es), {attempted} operations, "
          f"{failed} failed, {len(problems)} incorrect")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

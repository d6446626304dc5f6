"""The library lines that one seeded pass of each benchmark workload never runs.

Builds one pass of each workload of `perfbench/workloads.py` from seed 231,
runs every operation through the benchmark's own `execute`
(`perfbench/run.py`) under the standard library's `trace` module, and
writes its annotated copies of the files of ``src/conncoef`` to
``build/traffic/<workload>/``, where ``>>>>>>`` marks an executable line
that never ran.  It prints, per function of the library, the lines that
the pass never ran; a function the pass never called is named once.
Module-level lines run at import, before the trace, and are not reported.
Outputs are not checked, and the time printed is that of the traced pass.

Usage, from the root of a checkout (it imports that checkout's ``src`` and
``perfbench``)::

    python tools/traffic.py
"""

from __future__ import annotations

import ast
import shutil
import sys
import time
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conncoef"
COVERDIR = ROOT / "build" / "traffic"
SEED = 231
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from run import execute  # noqa: E402


def run_pass(workload: str) -> None:
    outputs = {}
    for op in workloads.make_inputs(workload, SEED):
        try:
            out = execute(op, outputs)
        except Exception as exc:  # a failed operation is an output
            out = exc
        outputs[op.label, op.copy] = out


def owners(path: Path) -> dict[int, ast.FunctionDef]:
    """{line: the innermost function whose body holds it}"""
    owner = {}
    for node in ast.walk(ast.parse(path.read_text())):   # outer ones first
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for line in range(node.body[0].lineno, node.end_lineno + 1):
                owner[line] = node
    return owner


def report(workload: str) -> None:
    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=[sys.prefix, sys.exec_prefix])
    start = time.perf_counter()
    tracer.runfunc(run_pass, workload)
    seconds = time.perf_counter() - start
    counts = {key: n for key, n in tracer.results().counts.items()
              if key[0].startswith(str(PACKAGE))}
    coverdir = COVERDIR / workload
    shutil.rmtree(coverdir, ignore_errors=True)   # no stale module files
    trace.CoverageResults(counts).write_results(show_missing=True,
                                                coverdir=str(coverdir))
    lines, never, total, ran = [], [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        cover = coverdir / f"conncoef.{path.stem}.cover"
        owner = owners(path)
        if not cover.exists():      # no line of the module ran
            if owner:
                never.append(f"every function of {path.stem}")
            continue
        missed, hit = {}, {}
        for number, text in enumerate(cover.read_text().splitlines(), 1):
            node = owner.get(number)
            if node is None or not text[:7].strip():   # not executable
                continue
            missed.setdefault(node, [])
            hit.setdefault(node, 0)
            if text.startswith(">>>>>>"):
                missed[node].append(f"    {number:5d}  {text[7:].strip()}")
            else:
                hit[node] += 1
        for node, unrun in missed.items():
            name = f"{path.stem}.{node.name}"
            total += len(unrun) + hit[node]
            ran += hit[node]
            if not hit[node]:
                never.append(f"{name} ({len(unrun)})")
            elif unrun:
                lines.append(f"  {name}: {len(unrun)} of "
                             f"{len(unrun) + hit[node]} lines not run")
                lines += unrun
    print(f"{workload}, seed {SEED}: {ran} of {total} lines run, traced in "
          f"{seconds:.1f} s; annotated files in "
          f"{coverdir.relative_to(ROOT)}")
    for line in lines:
        print(line)
    if never:
        print(f"  never called (lines in brackets): {', '.join(never)}")


def main() -> int:
    for workload in workloads.WORKLOADS:
        report(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())

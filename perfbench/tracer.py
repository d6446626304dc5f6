"""Spans and counters around the public functions of conncoef's layers.

`Tracer.install` replaces each traced function in every conncoef module
namespace that holds it (``frobenius_step``, for one, is imported by name
into `core`, `spheroidal`, `ellipsoidal` and the package), so calls made
through module globals are seen too.  Spans are kept in memory as
``[id, name, parent id, operation label, start, end]`` and written out by
`Tracer.write` when the run ends.  ``frobenius_step`` runs millions of times
in a pass, so it is counted, not spanned.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import conncoef
from conncoef import cli, core, ellipsoidal, rootfind, spheroidal

MODULES = (conncoef, core, rootfind, spheroidal, ellipsoidal, cli)

#: traced function -> (span name, counter fed by its callable argument)
SPANNED = {
    core.theta_iterate: ("core.theta_iterate", None),
    rootfind.bracket_scan: ("rootfind.bracket_scan",
                            "rootfind.bracket_scan.samples"),
    rootfind.secant: ("rootfind.secant", "rootfind.secant.f_evals"),
    rootfind.broyden2: ("rootfind.broyden2", "rootfind.broyden2.f_evals"),
    spheroidal.theta_t: ("spheroidal.theta_t", None),
    spheroidal.eigenvalues: ("spheroidal.eigenvalues", None),
    spheroidal.eigenfunction: ("spheroidal.eigenfunction", None),
    ellipsoidal.theta: ("ellipsoidal.theta", None),
    ellipsoidal.scan_grid: ("ellipsoidal.scan_grid", None),
    ellipsoidal.solve_pair: ("ellipsoidal.solve_pair", None),
    ellipsoidal.eigenfunction: ("ellipsoidal.eigenfunction", None),
    ellipsoidal.normalize: ("ellipsoidal.normalize", None),
    cli.main: ("cli.main", None),
}

#: per-layer metrics: name -> unit
LAYER_METRICS = {
    "core.theta_iterate.calls": "count",
    "core.theta_iterate.steps": "count",
    "core.theta_iterate.self_s": "s",
    "core.step_us": "us",
    "core.theta_iterate.k_max_reached": "count",
    "core.frobenius_step.outside_calls": "count",
    "rootfind.bracket_scan.samples": "count",
    "rootfind.bracket_scan.self_s": "s",
    "rootfind.secant.f_evals": "count",
    "rootfind.secant.self_s": "s",
    "rootfind.broyden2.f_evals": "count",
    "rootfind.broyden2.self_s": "s",
    "spheroidal.theta_t.calls": "count",
    "spheroidal.theta_t.s": "s",
    "spheroidal.eigenvalues.self_s": "s",
    "spheroidal.eigenfunction.s": "s",
    "ellipsoidal.theta.calls": "count",
    "ellipsoidal.theta.s": "s",
    "ellipsoidal.scan_grid.self_s": "s",
    "ellipsoidal.solve_pair.self_s": "s",
    "ellipsoidal.eigenfunction.s": "s",
    "ellipsoidal.normalize.s": "s",
    "cli.main.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counters: Counter = Counter()
        self.op: str | None = None
        self._patched: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, name, arg_counter):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_counter is not None:
                args = (self._counted(args[0], arg_counter),) + args[1:]
            record = [len(spans), name, stack[-1][0] if stack else None,
                      self.op, clock(), None]
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if name == "core.theta_iterate":
                counters["core.theta_iterate.steps"] += result.k_final
                if result.status == "k_max_reached":
                    counters["core.theta_iterate.k_max_reached"] += \
                        result.k_final
            return result
        return wrapper

    def _counted(self, f, counter):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return f(*args, **kwargs)
        return counted

    def _step_counter(self, fn):
        counters, stack = self.counters, self.stack

        @functools.wraps(fn)
        def wrapper(state, shifted):
            if not stack or stack[-1][1] != "core.theta_iterate":
                counters["core.frobenius_step.outside_calls"] += 1
            return fn(state, shifted)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        replacement = {fn: self._spanned(fn, name, counter)
                       for fn, (name, counter) in SPANNED.items()}
        replacement[core.frobenius_step] = self._step_counter(
            core.frobenius_step)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replacement:
                    setattr(module, attr, replacement[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def span_times(self):
        """Per span name: (calls, total seconds, self seconds)."""
        children = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for sid, name, _, _, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - children[sid]
        return calls, total, own

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, per traced pass."""
        calls, total, own = self.span_times()
        c = self.counters
        values = {
            "core.theta_iterate.calls": calls["core.theta_iterate"],
            "core.theta_iterate.steps": c["core.theta_iterate.steps"],
            "core.theta_iterate.self_s": own["core.theta_iterate"],
            "core.theta_iterate.k_max_reached":
                c["core.theta_iterate.k_max_reached"],
            "core.frobenius_step.outside_calls":
                c["core.frobenius_step.outside_calls"],
            "rootfind.bracket_scan.samples": c["rootfind.bracket_scan.samples"],
            "rootfind.bracket_scan.self_s": own["rootfind.bracket_scan"],
            "rootfind.secant.f_evals": c["rootfind.secant.f_evals"],
            "rootfind.secant.self_s": own["rootfind.secant"],
            "rootfind.broyden2.f_evals": c["rootfind.broyden2.f_evals"],
            "rootfind.broyden2.self_s": own["rootfind.broyden2"],
            "spheroidal.theta_t.calls": calls["spheroidal.theta_t"],
            "spheroidal.theta_t.s": total["spheroidal.theta_t"],
            "spheroidal.eigenvalues.self_s": own["spheroidal.eigenvalues"],
            "spheroidal.eigenfunction.s": total["spheroidal.eigenfunction"],
            "ellipsoidal.theta.calls": calls["ellipsoidal.theta"],
            "ellipsoidal.theta.s": total["ellipsoidal.theta"],
            "ellipsoidal.scan_grid.self_s": own["ellipsoidal.scan_grid"],
            "ellipsoidal.solve_pair.self_s": own["ellipsoidal.solve_pair"],
            "ellipsoidal.eigenfunction.s": total["ellipsoidal.eigenfunction"],
            "ellipsoidal.normalize.s": total["ellipsoidal.normalize"],
            "cli.main.self_s": own["cli.main"],
        }
        values = {k: v / passes for k, v in values.items()}
        steps = c["core.theta_iterate.steps"]
        values["core.step_us"] = (own["core.theta_iterate"] / steps * 1e6
                                  if steps else 0.0)
        return values

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, op, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "op": op, "start": start, "end": end})
                         + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")

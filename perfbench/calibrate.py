"""Machine-speed probe that scales the benchmark's timings.

On a shared virtual machine the same operation can take twice as long from
one second to the next, and slow spells last from a fraction of a second to
minutes, so raw times of two runs of the same code disagree by 20-40 %.  The
benchmark therefore samples the speed of a fixed probe kernel while it times
the program, and reports each time as its duration at the reference speed:
the time multiplied by ``REFERENCE_S`` times the mean of 1 / (probe time)
over the samples taken during and around it.  The kernel runs the same kind
of code as the program (small complex numpy products, Python complex
arithmetic and calls), so a spell that slows the program slows the kernel
alike, while a change to the program leaves the kernel as it is.

Samples are taken every ``SpeedSampler.interval`` seconds by a SIGALRM
handler, which Python runs in the main thread between bytecodes, and next
to every operation by `probe`.  The handler's own time is recorded so that
callers can take it out of what they time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: probe time at the reference speed; close to the fastest probe seen on
#: the 2-core machine the benchmark was tuned on
REFERENCE_S = 3.3e-4

_M = np.array([[0.5, 0.25j], [0.125, 0.5]])


def _kernel() -> complex:
    a = np.array([1.0 + 1.0j, 2.0 - 1.0j])
    total = 0j
    for k in range(1, 101):
        a = (_M @ a) / (1.0 + 1.0 / k) + 0.5
        total += complex(a[0] * a[1]) / abs(a[0] + 1.0)
    return total


def probe() -> float:
    """Median time of three kernel runs."""
    clock = time.perf_counter
    times = []
    for _ in range(3):
        t0 = clock()
        _kernel()
        times.append(clock() - t0)
    return statistics.median(times)


def scaled(seconds: float, probe_times) -> float:
    """``seconds`` at the reference speed, given the probe times seen."""
    return seconds * REFERENCE_S * statistics.fmean(1.0 / p
                                                    for p in probe_times)


class SpeedSampler:
    """Context manager: times the kernel on SIGALRM every ``interval`` s.

    ``samples`` collects the probe times; ``spent`` the seconds the handler
    took in all.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        clock = time.perf_counter
        t0 = clock()
        _kernel()
        self.samples.append(clock() - t0)
        self.spent += clock() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

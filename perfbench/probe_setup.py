"""Set-up probe: time a fresh process's `import conncoef` plus input construction.

Run by `run.py` as ``python3 perfbench/probe_setup.py <workload> <seed>``
from the repository root.  Prints the seconds taken, then the speed-probe
times sampled during and after it (see `calibrate`).
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# calibrate imports numpy, which conncoef imports first thing anyway
import calibrate  # noqa: E402

with calibrate.SpeedSampler() as speed:
    import conncoef  # noqa: E402,F401
    import workloads  # noqa: E402

    workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
setup = time.perf_counter() - START - speed.spent
print(setup, *speed.samples, calibrate.probe())

"""One timed set-up in a fresh interpreter. ``run.py`` starts this
``SETUP_REPS`` times and reports the median as ``setup_s``.

Usage: ``python3 bench/setup_once.py <workload> <seed>``

The package is imported before anything else, so the standard-library
modules it pulls in are timed too, as a new process using cplkit pays
for them. The workload's inputs are then built untimed (they are the
benchmark's, not the library's), and its ``setup`` is timed. Prints one
JSON object: the set-up time and the slowdown the speed probe measured
right after it.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

# The modules run.LIBRARY_MODULES lists.
t0 = time.perf_counter()
import cplkit.msc, cplkit.trace, cplkit.lang, cplkit.denot  # noqa: E401,E402
import cplkit.monitor, cplkit.simulator, cplkit.rng  # noqa: E401,E402
import_s = time.perf_counter() - t0

import json  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
lib = run.load_library()
t0 = time.perf_counter()
workload.setup(lib)
setup_s = import_s + time.perf_counter() - t0
json.dump({"setup_s": setup_s, "slowdown": run.slowdown(setup_s)}, sys.stdout)

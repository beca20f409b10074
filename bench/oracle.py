"""The wide workloads' oracle, run in a child process.

Usage: ``python3 bench/oracle.py < request.json``

The oracle's own work (a monitor replay with its causal-past sets, or
``sat_table`` on a grown chart) must not count toward the measured
process's ``peak_rss_mb``. So the measured process sends a request on
standard input and reads back only a compact answer. The request names
the workload, its seed, mutation and shape, and the arguments of its
``expected`` method; this process rebuilds the workload, runs its set-up
and prints ``expected(**args)`` as JSON.
"""

from __future__ import annotations

import json
import sys

from run import SRC, load_library
from scenario import WideShape
from workloads import WORKLOADS


def main() -> None:
    request = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[request["workload"]](
        request["seed"], request["mutation"], WideShape(**request["shape"])
    )
    workload.setup(load_library())
    json.dump(workload.expected(**request["args"]), sys.stdout)


if __name__ == "__main__":
    main()

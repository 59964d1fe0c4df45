"""Capture the reference outputs the benchmark compares against.

Usage, from the root of a checkout:

    python3 bench/capture_reference.py [WORKLOAD ...]

Runs each workload (all by default) once at the default seed, in a child
interpreter set up exactly as the benchmark sets up its calls, checks the
output's invariants, and writes it to ``bench/reference/<workload>.csv`` or
``.json``.  Re-capture only when the program's output is meant to change.
"""

import os
import sys
import time

from check import check_output
from run import RUN_BUDGET_S, Caller, reference_path
from workloads import DEFAULT_SEED, WORKLOADS


def main(names) -> int:
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        caller = Caller(workload, DEFAULT_SEED, time.monotonic() + RUN_BUDGET_S)
        _, result, error = caller.spawn(caller.argv, False)
        if error or result["exit_code"] != 0:
            print(f"{name}: {error or result['exit_code']}", file=sys.stderr)
            return 1
        check_output(workload.kind, workload.n_sites, caller.alphas, result["output"])
        path = reference_path(workload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(result["output"])
        print(f"{name}: {len(result['output'])} bytes -> {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""spinring benchmark: time what users of the CLI wait for.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every call of the program is a fresh child interpreter (``child.py``) that
imports ``spinring`` from this checkout's ``src`` and runs
``spinring.cli.main(argv)`` with stdout captured; calls run one after the
other, with BLAS and OpenMP pinned to one thread.  The argv comes from the
workload and the seed (``workloads.py``); every output is checked
(``check.py``), and a call that exits nonzero, crashes, times out or fails
the check counts as failed.

With ``--trace 0`` the run calls the program until ``--seconds`` have
passed and at least MIN_CALLS calls are done, starting SETUP_PER_CALL
interpreters that only import the package before each call, and reports
the medians of

* ``wall_s``: wall time of ``cli.main(argv)`` after the import;
* ``peak_rss_mb``: peak resident memory of the child;
* ``setup_s``: interpreter start plus ``import spinring.cli``.

With ``--trace 1`` it alternates untraced and traced calls (``tracer.py``)
and reports the per-layer self times and counts of the traced calls, plus
``trace.overhead_s``, the median traced minus the median untraced wall time.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, every sample)
goes to ``bench/results/``, and the spans of the last traced call next to it.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from check import CheckError, check_output
from tracer import LAYER_METRICS, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# import-only children before each measured call; spread over the run, they
# sample the machine's speed at the same times as the calls do
SETUP_PER_CALL = 2
# a shared host's speed can drift by 30 % or more over tens of seconds, so a
# run never rests on fewer calls than this, even when they outlast --seconds
MIN_CALLS = 3
# a run must end within 180 s; no call may push it past this
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {**LAYER_METRICS, "trace.overhead_s": "s"}


def child_env() -> dict:
    # the caller's PYTHON* settings (search path, bytecode writing) would
    # change what is imported and what setup_s measures
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def reference_path(workload) -> str:
    suffix = "json" if workload.kind == "report" else "csv"
    return os.path.join(REFERENCE_DIR, f"{workload.name}.{suffix}")


class Caller:
    """Starts child interpreters and keeps every sample they produce."""

    def __init__(self, workload, seed: int, deadline: float):
        self.workload = workload
        self.argv, self.alphas = workload.inputs(seed)
        path = reference_path(workload)
        self.reference = None
        if seed == DEFAULT_SEED and os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self.reference = handle.read()
        self.deadline = deadline
        self.env = child_env()
        self.setup = []
        self.calls = []
        self.errors = []

    def spawn(self, argv, trace: bool):
        request = json.dumps({"src": SRC, "argv": argv, "trace": trace})
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "child.py"), request],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return started, None, "timed out"
        if proc.returncode != 0:
            return started, None, f"child exited with {proc.returncode}: {err.strip()[-500:]}"
        return started, json.loads(out), None

    def import_only(self) -> None:
        started, result, error = self.spawn(None, False)
        if error:
            raise RuntimeError(f"importing spinring failed: {error}")
        self.setup.append(result["imported_at"] - started)

    def call(self, trace: bool) -> dict:
        started, result, error = self.spawn(self.argv, trace)
        sample = {"trace": trace, "ok": False}
        if result is not None:
            self.setup.append(result["imported_at"] - started)
            sample.update(wall_s=result["wall_s"], maxrss_kb=result["maxrss_kb"])
            if result["exit_code"] != 0:
                error = f"spinring exited with {result['exit_code']}"
            else:
                try:
                    check_output(self.workload.kind, self.workload.n_sites, self.alphas,
                                 result["output"], self.reference)
                    sample["ok"] = True
                except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
                    error = f"output check failed: {exc}"
        else:
            # a call that died counts with the time it took to die
            sample["wall_s"] = time.monotonic() - started
        if error:
            self.errors.append(error)
            print(f"call {len(self.calls) + 1} failed: {error}", file=sys.stderr)
        if trace and sample["ok"]:
            sample["layers"] = layer_metrics(result["spans"], self.workload.n_sites,
                                             len(result["output"].encode("utf-8")))
            sample["missing"] = result["missing"]
            sample["spans"] = result["spans"]
        self.calls.append(sample)
        return sample


def environment(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record of it."""
    run_start = time.monotonic()
    caller = Caller(workload, seed, run_start + RUN_BUDGET_S)
    measure_until = run_start + seconds
    while True:
        if not trace:
            for _ in range(SETUP_PER_CALL):
                caller.import_only()
        caller.call(trace=False)
        if trace:
            caller.call(trace=True)
        now = time.monotonic()
        if (now >= measure_until and len(caller.calls) >= MIN_CALLS) or now >= caller.deadline:
            break
    calls = caller.calls
    if trace:
        traced = [c for c in calls if c["trace"] and c["ok"]]
        plain = [c["wall_s"] for c in calls if not c["trace"]]
        metrics = {}
        if traced:
            for name in LAYER_METRICS:
                metrics[name] = statistics.median(c["layers"][name] for c in traced)
            metrics["trace.overhead_s"] = (statistics.median(c["wall_s"] for c in traced)
                                           - statistics.median(plain))
        units = TRACE_UNITS
    else:
        # children that died did not report; the largest waited-for child did
        rss = ([c["maxrss_kb"] for c in calls if "maxrss_kb" in c]
               or [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss])
        metrics = {"wall_s": statistics.median(c["wall_s"] for c in calls),
                   "peak_rss_mb": statistics.median(rss) / 1024,
                   "setup_s": statistics.median(caller.setup)}
        units = END_TO_END_UNITS
    failed = sum(1 for c in calls if not c["ok"])
    return {
        "workload": workload.name,
        "argv": caller.argv,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "checked_against_reference": caller.reference is not None,
        "setup_samples": caller.setup,
        "calls": [{k: v for k, v in c.items() if k != "spans"} for c in calls],
        "errors": caller.errors,
        "spans": next((c["spans"] for c in reversed(calls) if "spans" in c), None),
        "result": {
            "correct": failed == 0 and len(metrics) == len(units),
            "attempted": len(calls),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics},
        },
    }


def write_record(record: dict, seed: int) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = f"{record['workload']}-seed{seed}-trace{int(record['trace'])}"
    spans = record.pop("spans")
    if spans is not None:
        with open(os.path.join(RESULTS_DIR, stem + "-spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(spans, handle)
    path = os.path.join(RESULTS_DIR, stem + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinring", "cli.py")):
        print(f"bench: no spinring source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = write_record(record, args.seed)
    result = record["result"]
    print(f"{args.workload} seed={args.seed}: {result['attempted']} calls, "
          f"{result['failed']} failed; record in {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

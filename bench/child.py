"""One benchmark call in a fresh interpreter.

Usage: python3 child.py REQUEST_JSON

REQUEST_JSON holds ``src`` (the directory that must provide ``spinring``),
``argv`` (for ``spinring.cli.main``, or null to stop after the import) and
``trace`` (wrap the layers with the outside-in tracer).  The child imports
``spinring.cli``, runs ``main(argv)`` with stdout captured, and writes one
JSON object to stdout: the monotonic clock after the import, the wall time
of ``main``, its exit code, the process's peak RSS, the captured output and
the spans.  CLOCK_MONOTONIC is shared by all processes, so the parent can
subtract its own reading taken before it started this interpreter.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    request = json.loads(sys.argv[1])
    import spinring.cli
    imported_at = time.monotonic()
    package_dir = os.path.join(request["src"], "spinring")
    if os.path.dirname(os.path.realpath(spinring.cli.__file__)) != os.path.realpath(package_dir):
        print(f"spinring was imported from {spinring.cli.__file__}, not {package_dir}",
              file=sys.stderr)
        return 2
    result = {"imported_at": imported_at}
    if request["argv"] is not None:
        missing = []
        if request["trace"]:
            from tracer import Tracer  # this script's directory is on sys.path
            tracer = Tracer()
            missing = tracer.install()
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = spinring.cli.main(request["argv"])
        result["wall_s"] = time.perf_counter() - start
        result["exit_code"] = code
        result["output"] = captured.getvalue()
        if request["trace"]:
            result["spans"] = tracer.spans
            result["missing"] = missing
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

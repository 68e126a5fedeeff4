"""The benchmark's single client process: runs ``eltsim.cli.main`` on request.

Usage: python perfbench/worker.py <checkout root>

Reads one JSON request per line on stdin, {"argv": [...], "trace": bool},
runs it in this warm process and answers with one JSON line on stdout before
reading the next request (a closed loop). The reply holds the wall time of
``cli.main``, its exit code or the name of the exception it raised, what it
printed, and for a traced request the per-function self time and call
counts of that operation; the tracer is installed on the first traced
request, so a worker that gets none never imports it. The request
"calibrate" times the reference kernel of ``calibration`` instead.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def main() -> int:
    root = sys.argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    from eltsim import cli

    import calibration

    tracer = None
    replies = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if request == "calibrate":
            replies.write(json.dumps({"kernel_s": calibration.kernel_seconds()}) + "\n")
            replies.flush()
            continue
        traced = request["trace"]
        if traced:
            if tracer is None:
                import tracing

                tracer = tracing.install()
            tracer.enable()
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(request["argv"])
        except SystemExit as stop:  # argparse rejects bad flags this way
            code = stop.code
        except Exception as error:  # a crash is an outcome the benchmark reports
            exc = type(error).__name__
        wall = time.perf_counter() - start
        reply = {"wall_s": wall, "exit": code, "exception": exc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}
        if traced:
            tracer.disable()
            reply["self_s"], reply["calls"] = tracer.take()
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one chebcurve CLI job in this fresh interpreter and report on it.

Usage: python3 child.py SPAWN_TIME TRACE ARG...

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this interpreter, TRACE is 0 or 1, and ARG... is the CLI's argv.  The last
line of stdout is one JSON object: the exit code, the report the CLI
printed, the set-up time (interpreter start plus `import chebcurve`), the
job time around `cli.main`, the peak RSS and, when tracing, the per-layer
statistics.
"""

import contextlib
import io
import json
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    spawned = float(sys.argv[1])
    trace = sys.argv[2] == "1"
    argv = sys.argv[3:]

    import chebcurve  # noqa: F401  (the import is part of set-up)
    from chebcurve import cli

    setup_s = now() - spawned
    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.install()
    out = io.StringIO()
    error = None
    start = now()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception as exc:  # an escaped exception fails the job, not the benchmark
        rc, error = None, f"{type(exc).__name__}: {exc}"
    job_s = now() - start
    envelope = {
        "rc": rc,
        "error": error,
        "stdout": out.getvalue(),
        "setup_s": setup_s,
        "job_s": job_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        envelope["layers"] = tracer.summary()
    sys.stdout.write(json.dumps(envelope) + "\n")


if __name__ == "__main__":
    main()

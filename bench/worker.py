"""Warm benchmark worker: one process that runs jobs one at a time.

Usage: ``python bench/worker.py <trace 0|1>`` with ``src`` on PYTHONPATH.
Reads one JSON job per line on stdin and answers one JSON line on stdout:
CLI jobs run ``tetraclausen.cli.main(argv)`` with stdout and stderr
captured; oracle jobs compare ``cl2_series_reference`` with ``cl2``.  The
first line the worker writes carries its start and import timestamps and its
CPU time at the end of the import.  Each answer carries the job's wall and
CPU time (of the job alone) and the mean time of the ``calib`` loop run just
before and just after it.  The message ``{"op": "stats"}`` returns peak RSS,
``get_ctx`` cache counters and, when tracing, the recorded spans.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tetraclausen.cli as cli  # noqa: E402
from tetraclausen import mpcore, polylog  # noqa: E402

T_IMPORTED = time.monotonic()
CPU_IMPORTED = time.process_time()

import calib  # noqa: E402
import tracing  # noqa: E402


def run_job(job, run_cli):
    if job["kind"] == "oracle":
        ctx = mpcore.PrecisionCtx(job["digits"])
        theta = ctx.mpf(job["theta"])
        series = polylog.cl2_series_reference(theta, ctx)
        primary = polylog.cl2(theta, ctx)
        out = "%s\n%s\n" % (mpcore.to_decimal(series, ctx), mpcore.to_decimal(primary, ctx))
        return {"exit": 0, "error": None, "stdout": out}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(job["argv"])
    return {"exit": code, "error": None, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    proto = sys.stdout
    tracer = tracing.install() if sys.argv[1] == "1" else None
    run_cli = tracer.wrap("cli.main", cli.main) if tracer else cli.main

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send({"start": T_START, "imported": T_IMPORTED, "cpu_s": CPU_IMPORTED})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("op") == "stats":
            info = mpcore.get_ctx.cache_info()
            send({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "get_ctx": [info.hits, info.misses],
                  "spans": tracer.spans if tracer else []})
            continue
        if tracer:
            tracer.job = msg["id"]
        calib_s = calib.calibrate()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            result = run_job(msg["job"], run_cli)
        except Exception as exc:  # a job that raises is a measured failure
            result = {"exit": None, "error": "%s: %s" % (type(exc).__name__, exc), "stdout": ""}
        result["cpu_s"] = time.process_time() - cpu
        result["wall_s"] = time.perf_counter() - wall
        result["calib_s"] = (calib_s + calib.calibrate()) / 2
        send(result)


if __name__ == "__main__":
    main()

"""The tetraclausen benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload feynman_routes --seed 1 --seconds 20 --trace 0

Workloads (inputs are generated from ``--seed`` by ``workloads.py``):

* ``feynman_routes`` -- ``feynman --method all --json`` on seeded mass pairs,
  including masses near 0 and near a^2+b^2 = 4, at 20/50/100/200 digits.
* ``catalog_pslq``  -- identity-catalog ``verify`` jobs, ``pslq`` built-ins
  and value files (planted and independent vectors), and ``cl2`` against
  ``cl2_series_reference`` oracle jobs.
* ``cold_cli``      -- a fresh ``python -m tetraclausen.cli`` per job.

Each workload is a closed loop: one client (this process) and one worker
process, the next job sent when the previous one returns.  The warm
workloads run ``tetraclausen.cli.main(argv)`` in a single worker
(``worker.py``); ``cold_cli`` starts a new interpreter for every job.
Jobs come in rounds of fixed composition; a run measures whole rounds, as
many as bring it closest to ``--seconds`` (at least one).

Every output is checked against an mpmath reference (``reference.py``)
after the timed loop.  The last stdout line is the JSON result; the lines
before it are a readable report with the environment, every metric with
its unit, and the sha256 digest of the first round's outputs.

``--trace 0`` reports the end-to-end metrics ``jobs_per_ref_s`` and
``job_ref_p50_s``: throughput and median job time with each job's CPU time
scaled to a fixed reference speed (``calib.py``, ``ref_seconds``).  On a
shared host the speed of a core drifts by up to 30% between runs of the same
inputs and by as much between neighbouring jobs, and wall and CPU time both
carry that drift; the scaled time carries less of it.  Beside them:
``setup_s``, the set-up CPU time at reference speed (warm: median over three
worker start-ups of the import plus one warm-up job per (kind, digits)
class, see ``Worker.warm_up``; cold: median over nine fresh interpreters
that import ``tetraclausen.cli`` and exit, scaled by the run's median
factor), and ``peak_rss_mb`` (``ru_maxrss`` of the worker, or of the largest
child).  The report lines also give the wall set-up time, the raw
``jobs_per_s`` (jobs over the summed wall time of the jobs themselves),
``job_p50_s`` (median wall latency), ``job_p90_s`` where a run holds at
least 100 jobs, ``failed_frac`` and ``wrong_frac``.  A job's wall time
leaves out the calibration and, for warm jobs, the message passing.
``--trace 1`` runs the first round once untraced and once traced
(``tracing.py``) and reports the per-layer metrics, including the tracing
overhead.

Self-tests: ``python -m pytest bench`` from the repository root.

The metric names and units come from ``BENCHMARK.json``.  The result's
``failed`` counts jobs that raised, exited non-zero or
returned a value that misses its reference by more than half of its digits
(or an impossible PSLQ verdict); ``correct`` is true when there are none.
Values that miss the full ``digits`` contract are counted in ``wrong_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import calib
import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 3
COLD_SETUP_SAMPLES = 9


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Worker:
    """A warm worker process running jobs one at a time."""

    def __init__(self, trace: bool):
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=child_env(), text=True)
        self.hello = self._recv()
        self.setup_s = self.setup_wall_s = None

    def _recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark worker exited with status %s" % self.proc.wait())
        return json.loads(line)

    def _send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def run(self, job_id, job):
        self._send({"id": job_id, "job": job})
        result = self._recv()
        result["speed"] = calib.REFERENCE_S / result["calib_s"]
        return result

    def warm_up(self, jobs):
        """Run the warm-up jobs.  ``setup_wall_s`` is the wall time from spawn
        to ready; ``setup_s`` the worker's CPU time up to ready (import, then
        the warm-up jobs without the calibration loops) at reference speed,
        the import scaled by the first job's speed factor."""
        results = [self.run(-1, job) for job in jobs]
        self.setup_wall_s = time.monotonic() - self.t_spawn
        self.setup_s = self.hello["cpu_s"] * results[0]["speed"] + sum(
            r["cpu_s"] * r["speed"] for r in results)

    def stats(self):
        self._send({"op": "stats"})
        return self._recv()

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Rounds:
    """The seeded rounds of one workload; value files are written on demand."""

    def __init__(self, workload, seed, workdir, max_jobs):
        self.workload, self.seed, self.workdir, self.max_jobs = workload, seed, workdir, max_jobs
        self._cache = {}

    def get(self, index):
        if index not in self._cache:
            rel = str(self.workdir.relative_to(ROOT))
            jobs = workloads.round_jobs(self.workload, self.seed, index, rel)
            if self.max_jobs:
                jobs = jobs[:self.max_jobs]
            workloads.write_value_files(jobs, ROOT)
            self._cache[index] = jobs
        return self._cache[index]


def run_rounds(execute, rounds: Rounds, seconds, max_rounds=None):
    """Closed loop over whole rounds.  Returns [(job, result)]; each result
    carries the job's own wall time ``wall_s`` and CPU time ``cpu_s``."""
    records = []
    busy = 0.0
    r = 0
    while True:
        for job in rounds.get(r):
            result = execute(len(records), job)
            records.append((job, result))
            busy += result["wall_s"]
        r += 1
        if rounds.max_jobs or (max_rounds and r >= max_rounds):
            break
        if busy + busy / r / 2 >= seconds:
            break
    return records


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cold_speed():
    """Speed factor for the next cold job: the reference CPU time of
    ``python bench/calib.py`` over its CPU time now."""
    cpu = _children_cpu()
    subprocess.run([sys.executable, str(BENCH / "calib.py")], cwd=ROOT, env=child_env(),
                   check=True)
    return calib.COLD_REFERENCE_S / (_children_cpu() - cpu)


def cold_execute(job_id, job):
    speed = cold_speed()
    wall, cpu = time.perf_counter(), _children_cpu()
    proc = subprocess.run([sys.executable, "-m", "tetraclausen.cli", *job["argv"]],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True)
    cpu, wall = _children_cpu() - cpu, time.perf_counter() - wall
    return {"exit": proc.returncode, "error": None, "stdout": proc.stdout,
            "stderr": proc.stderr, "cpu_s": cpu, "wall_s": wall, "speed": speed}


def cold_import_sample():
    """(spawn s, import s, CPU s) of a fresh interpreter that imports the CLI."""
    t, cpu = time.monotonic(), _children_cpu()
    proc = subprocess.run([sys.executable, str(BENCH / "cold_child.py"), "import"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          check=True)
    stamps = json.loads(proc.stdout)
    return stamps["start"] - t, stamps["imported"] - stamps["start"], _children_cpu() - cpu


def ref_seconds(records):
    """Each job's CPU time at the reference speed of ``calib``, and the
    run's median speed factor.

    Warm workers time the loop just before and just after every job, on the
    core that runs the jobs, and each job is scaled by its own factor: over
    repeated runs of one round the median job time then spread 0.02-0.04
    (IQR over median) where a factor per run left 0.03-0.13.  Each cold job
    is scaled by a fresh reference interpreter run just before it
    (``cold_speed``).  Over 16 back-to-back runs of the six cold jobs, the
    coefficient of variation of a run's geometric-mean job CPU time was 0.095
    unscaled and 0.043 scaled so; scaled by ``calibrate`` timed in this
    process it was 0.16, and timed in the child right after its job it was
    worse than unscaled."""
    factors = [r["speed"] for _, r in records]
    return [r["cpu_s"] * f for (_, r), f in zip(records, factors)], statistics.median(factors)


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def digest(records, first_round_size):
    h = hashlib.sha256()
    for k, (job, result) in enumerate(records[:first_round_size]):
        h.update(("%d\n%s\n%s\n" % (k, result.get("exit"), result.get("stdout"))).encode())
    return h.hexdigest()


def check_records(records):
    verdicts = [reference.check(job, result) for job, result in records]
    n = len(verdicts)
    errors = sum(v.status == "error" for v in verdicts)
    wrong = sum(v.status == "wrong" for v in verdicts)
    gross_wrong = sum(v.status == "wrong" and v.gross for v in verdicts)
    return {"attempted": n, "errors": errors, "wrong": wrong, "gross_wrong": gross_wrong,
            "failed_frac": (errors + wrong) / n, "wrong_frac": wrong / n,
            "verdicts": verdicts}


# ---------------------------------------------------------------------------
# Timed (untraced) runs.
# ---------------------------------------------------------------------------

def timed_warm(rounds, seconds, repeats):
    """Returns (records, setup_s, wall setup s, peak MB); both set-up times
    are medians over ``repeats`` worker start-ups."""
    warm = workloads.warmup_jobs(rounds.get(0), str(rounds.workdir.relative_to(ROOT)))
    workloads.write_value_files(warm, ROOT)
    setups, walls = [], []
    worker = None
    try:
        for _ in range(repeats):
            if worker:
                worker.close()
            worker = Worker(trace=False)
            worker.warm_up(warm)
            setups.append(worker.setup_s)
            walls.append(worker.setup_wall_s)
        records = run_rounds(worker.run, rounds, seconds)
        stats = worker.stats()
    finally:
        if worker:
            worker.close()
    return records, statistics.median(setups), statistics.median(walls), stats["maxrss_kb"] / 1024


def timed_cold(rounds, seconds, repeats):
    cold_import_sample()  # writes the bytecode caches; not measured
    samples = [cold_import_sample() for _ in range(COLD_SETUP_SAMPLES if repeats > 1 else 1)]
    records = run_rounds(cold_execute, rounds, seconds)
    # CPU time scaled by the run's median speed factor, not wall time: the
    # wall time of a 0.2 s spawn varies by 2x on a shared host (medians of
    # five drifted by 45% between runs).
    setup_s = statistics.median(cpu for _, _, cpu in samples) * ref_seconds(records)[1]
    wall_s = statistics.median(spawn + imp for spawn, imp, _ in samples)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return records, setup_s, wall_s, peak_mb


# ---------------------------------------------------------------------------
# Traced runs: the first round untraced, then traced.
# ---------------------------------------------------------------------------

def traced_warm(rounds):
    warm = workloads.warmup_jobs(rounds.get(0), str(rounds.workdir.relative_to(ROOT)))
    workloads.write_value_files(warm, ROOT)
    worker = Worker(trace=False)
    try:
        worker.warm_up(warm)
        plain = run_rounds(worker.run, rounds, 0, max_rounds=1)
    finally:
        worker.close()
    worker = Worker(trace=True)
    try:
        worker.warm_up(warm)
        traced = run_rounds(worker.run, rounds, 0, max_rounds=1)
        stats = worker.stats()
    finally:
        worker.close()
    spans = stats["spans"]
    layers = tracing.layer_metrics(spans, set(range(len(traced))))
    layers["polylog.cl2.first_call_s"] = tracing.first_call_excess([spans])
    layers["cli.spawn_s"] = worker.hello["start"] - worker.t_spawn
    layers["cli.import_s"] = worker.hello["imported"] - worker.hello["start"]
    layers["mpcore.get_ctx.hits"], layers["mpcore.get_ctx.misses"] = stats["get_ctx"]
    return plain, traced, layers


def traced_cold(rounds):
    cold_import_sample()
    plain = run_rounds(cold_execute, rounds, 0, max_rounds=1)
    children = []

    def execute(job_id, job):
        span_file = rounds.workdir / ("spans-%d.json" % job_id)
        speed = cold_speed()
        t, wall, cpu = time.monotonic(), time.perf_counter(), _children_cpu()
        proc = subprocess.run([sys.executable, str(BENCH / "cold_child.py"), "trace",
                               str(span_file), *job["argv"]],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True)
        cpu, wall = _children_cpu() - cpu, time.perf_counter() - wall
        if span_file.exists():
            data = json.loads(span_file.read_text(encoding="utf-8"))
            data["spawn"] = data["start"] - t
            children.append(data)
        return {"exit": proc.returncode, "error": None, "stdout": proc.stdout,
                "stderr": proc.stderr, "cpu_s": cpu, "wall_s": wall, "speed": speed}

    traced = run_rounds(execute, rounds, 0, max_rounds=1)
    spans = []
    for job_id, child in enumerate(children):
        offset = len(spans)
        for name, parent, _, start, end, info in child["spans"]:
            spans.append([name, parent + offset if parent >= 0 else -1, job_id,
                          start, end, info])
    layers = tracing.layer_metrics(spans, set(range(len(children))))
    layers["polylog.cl2.first_call_s"] = tracing.first_call_excess(
        [c["spans"] for c in children])
    layers["cli.spawn_s"] = statistics.median(c["spawn"] for c in children)
    layers["cli.import_s"] = statistics.median(c["imported"] - c["start"] for c in children)
    layers["mpcore.get_ctx.hits"] = sum(c["get_ctx"][0] for c in children)
    layers["mpcore.get_ctx.misses"] = sum(c["get_ctx"][1] for c in children)
    return plain, traced, layers


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def environment():
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "loadavg": ",".join("%.2f" % x for x in os.getloadavg())}


def report_line(name, value, unit, note=""):
    print("%-40s %14.6g %-9s %s" % (name, value, unit, note))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="smoke test: run only the first N jobs of one round, set up once")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tetraclausen" / "cli.py").is_file():
        sys.stderr.write("error: %s holds no tetraclausen sources\n" % ROOT)
        return 2
    env = environment()
    workdir = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    rounds = Rounds(args.workload, args.seed, workdir, args.jobs)
    cold = args.workload == "cold_cli"
    repeats = 1 if args.jobs else SETUP_REPEATS
    try:
        if args.trace:
            plain, records, layers = traced_cold(rounds) if cold else traced_warm(rounds)
            all_records = plain + records
        else:
            records, setup_s, setup_wall_s, peak_mb = (
                timed_cold if cold else timed_warm)(rounds, args.seconds, repeats)
            all_records = records
        checked = check_records(all_records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("env " + " ".join("%s=%s" % kv for kv in env.items()))
    first = len(rounds.get(0))
    print("digest sha256:%s  (first round, %d jobs)" % (digest(records, first), first))
    n = len(records)
    latencies = sorted(result["wall_s"] for _, result in records)
    if args.trace:
        # Reference-speed time, not wall time: the two passes run minutes
        # apart on a host whose speed drifts.
        traced_ref = sum(ref_seconds(records)[0])
        plain_ref = sum(ref_seconds(plain)[0])
        layers["trace.jobs_per_ref_s"] = n / traced_ref
        layers["trace.untraced_jobs_per_ref_s"] = len(plain) / plain_ref
        layers["trace.overhead_frac"] = traced_ref / plain_ref - 1
        layers["checks.failed_frac"] = checked["failed_frac"]
        layers["checks.wrong_frac"] = checked["wrong_frac"]
        metrics = {}
        for m in SPEC["per_layer"]:
            report_line(m["name"], layers[m["name"]], m["unit"])
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    else:
        ref, speed = ref_seconds(records)
        values = {"jobs_per_ref_s": n / sum(ref), "job_ref_p50_s": statistics.median(ref),
                  "setup_s": setup_s, "peak_rss_mb": peak_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        report_line("jobs_per_s", n / sum(latencies), "jobs/s",
                    "(%d jobs in %.2f s of job wall time)" % (n, sum(latencies)))
        report_line("job_p50_s", statistics.median(latencies), "s", "(n=%d)" % n)
        if n >= 100:
            report_line("job_p90_s", nearest_rank(latencies, 0.9), "s",
                        "(n=%d, %d beyond)" % (n, n - math.ceil(0.9 * n)))
        else:
            print("%-40s %14s %-9s (n=%d < 100)" % ("job_p90_s", "-", "s", n))
        report_line("jobs_per_ref_s", values["jobs_per_ref_s"], "jobs/s",
                    "(CPU time x speed factor, median %.3f)" % speed)
        report_line("job_ref_p50_s", values["job_ref_p50_s"], "s", "(n=%d)" % n)
        report_line("setup_s", setup_s, "s", "(median of %d; wall %.3f s)" % (
            repeats if not cold else (COLD_SETUP_SAMPLES if repeats > 1 else 1), setup_wall_s))
        report_line("peak_rss_mb", peak_mb, "MB")
        classes = {}
        for job, result in records:
            classes.setdefault("%s/%d" % (job["kind"], job["digits"]), []).append(result["wall_s"])
        for name, lats in sorted(classes.items()):
            report_line("  latency p50 " + name, statistics.median(lats), "s", "(n=%d)" % len(lats))
    report_line("failed_frac", checked["failed_frac"], "fraction",
                "(%d errors, %d wrong of %d)" % (checked["errors"], checked["wrong"],
                                                 checked["attempted"]))
    report_line("wrong_frac", checked["wrong_frac"], "fraction",
                "(%d of them gross)" % checked["gross_wrong"])
    for (job, _), verdict in zip(all_records, checked["verdicts"]):
        if verdict.status != "ok":
            print("  %s %s %s" % (verdict.status, " ".join(job.get("argv", [job.get("theta", "")])),
                                  verdict.detail))
    failed = checked["errors"] + checked["gross_wrong"]
    print(json.dumps({"correct": failed == 0, "attempted": checked["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

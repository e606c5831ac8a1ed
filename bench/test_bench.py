"""Self-tests of the benchmark.  Run from the repository root:

    python -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = run.SPEC
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_unit(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", "0", "--jobs", "3")
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 3
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name in ("jobs_per_s", "job_p50_s", "job_p90_s", "failed_frac",
                 "wrong_frac", "setup_s", "peak_rss_mb"):
        assert any(line.startswith(name + " ") for line in proc.stdout.splitlines()), name
    assert "digest sha256:" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_every_layer_metric(workload):
    result = result_line(bench("--workload", workload, "--seed", "5", "--seconds", "1",
                               "--trace", "1", "--jobs", "2"))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_same_seed_same_inputs():
    a = workloads.round_jobs("catalog_pslq", 7, 0, "w")
    b = workloads.round_jobs("catalog_pslq", 7, 0, "w")
    c = workloads.round_jobs("catalog_pslq", 8, 0, "w")
    assert a == b and a != c


def test_feynman_round_keeps_edge_masses():
    jobs = workloads.round_jobs("feynman_routes", 3, 0, "w")
    classes = [job["mass_class"] for job in jobs]
    assert classes.count("small") == 10 and classes.count("boundary") == 10


def _flip_digit(text, key):
    """Change the 8th significant digit of the value stored under ``key``."""
    report = json.loads(text)
    value = report["values"][key]
    digits_seen = 0
    for i, ch in enumerate(value):
        if ch.isdigit() and (digits_seen or ch != "0"):
            digits_seen += 1
            if digits_seen == 8:
                value = value[:i] + str((int(ch) + 1) % 10) + value[i + 1:]
                break
    report["values"][key] = value
    return json.dumps(report)


def _cli(job):
    proc = subprocess.run([sys.executable, "-m", "tetraclausen.cli", *job["argv"]],
                          cwd=ROOT, env=run.child_env(), capture_output=True, text=True)
    return {"exit": proc.returncode, "error": None, "stdout": proc.stdout}


def test_flipped_digit_makes_wrong_frac_nonzero():
    job = {"kind": "eval-cl2", "digits": 50, "expect": {},
           "argv": ["eval", "cl2", "--theta", "1.234", "--digits", "50", "--json"]}
    good = _cli(job)
    bad = dict(good, stdout=_flip_digit(good["stdout"], "cl2"))
    assert run.check_records([(job, good)])["wrong_frac"] == 0
    checked = run.check_records([(job, good), (job, bad)])
    assert checked["verdicts"][1].status == "wrong" and checked["verdicts"][1].gross
    assert checked["wrong_frac"] == 0.5


def test_flipped_digit_in_a_route_is_caught():
    job = next(j for j in workloads.round_jobs("feynman_routes", 2, 0, "w")
               if j["digits"] == 50 and j["mass_class"] == "uniform")
    good = _cli(job)
    for key in ("c_closed", "c_direct", "c_stepwise"):
        bad = dict(good, stdout=_flip_digit(good["stdout"], key))
        verdict = run.check_records([(job, bad)])["verdicts"][0]
        assert verdict.status == "wrong" and key in verdict.detail


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cold_cli", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert not os.path.exists(tmp_path / ".bench_work")

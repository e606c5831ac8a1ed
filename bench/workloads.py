"""Seeded job generation for the three benchmark workloads.

A job is a JSON-serialisable dict.  CLI jobs carry the ``argv`` passed to
``tetraclausen.cli.main`` (or to ``python -m tetraclausen.cli``), oracle jobs
carry an angle.  Every job also carries what the checker in ``reference.py``
needs (``expect``).  Nothing here imports ``tetraclausen``.

Runs are made of rounds.  A round has a fixed composition (how many jobs of
each kind and precision, and of each mass class), so every round costs about
the same; the seed only draws the values inside each slot and the job order.
That keeps runs with different seeds comparable.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import mpmath

# Per round of feynman_routes: (digits, uniform, small-mass, near-boundary)
# job counts.  Mostly 50 digits, one 200-digit job; 10% of the jobs have one
# mass log-uniform in [1e-5, 1e-2], 10% have 4-a^2-b^2 log-uniform in
# [1e-8, 1e-2].
FEYNMAN_ROUND = ((20, 24, 3, 3), (50, 51, 6, 6), (100, 4, 1, 1), (200, 1, 0, 0))

# The 33 catalog entries of tetraclausen.identities, in catalog order.
CATALOG = (
    "conj-1.1", "conj-1.2", "conj-1.3", "conj-1.4", "theorem-1", "prop-1",
    "prop-2", "duplication", "q-relations", "i1-plus-i2", "r-relations",
    "rs-relations", "angle-relations", "broadhurst-c11", "prop1-T-checks",
    "prop2-log-checks", "lewin-1.1", "lewin-1.2", "lewin-1.3", "lewin-1.4",
    "lewin-1.5", "harmonic-closed-form", "harmonic-gf",
    "chain-2.1", "chain-2.2", "chain-2.3", "chain-2.4", "chain-2.5",
    "chain-2.6", "chain-2.7", "chain-2.8", "chain-2.9", "broadhurst-series",
)

# Value-file PSLQ slots per round: (n, digits) for planted and independent
# vectors alike, so each kind covers n = 4..12 at both precisions.
PSLQ_FILE_SLOTS = ((4, 100), (4, 200), (6, 100), (6, 200), (8, 100),
                   (8, 200), (10, 100), (10, 200), (12, 100), (12, 200))
PSLQ_MAX_NORM = 10 ** 6
# Oracle jobs per round, set from traced rounds: with the 66 verify jobs, the
# built-ins and the value files above, 24 oracle jobs put about 45% of the
# job time in identities.verify, 15% in the oracle's polylog calls and 36% in
# pslq.find_relation.  With 40 oracle jobs the oracle took 21% and verify
# 42%, further from the aim of about half in verify and a third in pslq.
ORACLE_JOBS = 24
ORACLE_DIGITS = 50

# Relations the paper states for the built-in searches (up to sign).
CONJ14_RELATION = (-12, 4, -12, -18, 7)
R19_RELATIONS = {
    "r2,r9": (1, -1), "r5,r11": (1, -1), "r4,r13": (1, 1),
    "r1,r15": (1, -1), "r8,r17": (1, 1), "r6,r18": (1, -1),
}


def _rng(seed: int, workload: str, round_index: int) -> random.Random:
    return random.Random("%d:%s:%d" % (seed, workload, round_index))


def _fmt(x: float) -> str:
    return "%.15g" % x


def _strata(rng, n):
    """n numbers in [0, 1), one in each of n equal strata, in random order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


# The mass draws map u, v uniform in [0, 1) to one mass pair.

def _uniform_masses(u, v):
    """(a, b) uniform over the quarter disc a^2 + b^2 < 3.99."""
    r = math.sqrt(3.99 * u)
    th = v * math.pi / 2
    a, b = r * math.cos(th), r * math.sin(th)
    return _fmt(max(a, 1e-6)), _fmt(max(b, 1e-6))


def _small_mass(u, v):
    """One mass log-uniform in [1e-5, 1e-2], the other uniform in
    [0.05, 1.95]; the small mass is a when v < 1/2."""
    small = _fmt(10 ** (-5 + 3 * u))
    other = _fmt(0.05 + 1.9 * (2 * v % 1))
    return (small, other) if v < 0.5 else (other, small)


def _boundary_masses(u, v):
    """4 - a^2 - b^2 = gap with gap log-uniform in [1e-8, 1e-2]."""
    gap = 10 ** (-8 + 6 * u)
    th = 0.15 + v * (math.pi / 2 - 0.3)
    a = _fmt(math.sqrt(4 - gap) * math.cos(th))
    ctx = mpmath.MPContext()
    ctx.dps = 40
    b = ctx.sqrt(4 - ctx.mpf(gap) - ctx.mpf(a) ** 2)
    return a, mpmath.nstr(b, 25, strip_zeros=False)


def _feynman_job(a, b, digits, mass_class):
    return {"kind": "feynman", "digits": digits, "mass_class": mass_class,
            "argv": ["feynman", "--a", a, "--b", b, "--method", "all",
                     "--digits", str(digits), "--json"],
            "expect": {"a": a, "b": b, "routes": ["closed", "direct", "stepwise"]}}


def _feynman_round(rng):
    """Latin hypercube draws: in every round each slot spreads its masses
    over the whole range of both coordinates, so the cost of a round, which
    depends on the masses, varies little from seed to seed."""
    jobs = []
    for digits, n_uniform, n_small, n_edge in FEYNMAN_ROUND:
        for mass_class, count, draw in (("uniform", n_uniform, _uniform_masses),
                                        ("small", n_small, _small_mass),
                                        ("boundary", n_edge, _boundary_masses)):
            for u, v in zip(_strata(rng, count), _strata(rng, count)):
                jobs.append(_feynman_job(*draw(u, v), digits, mass_class))
    return jobs


def _decimal(m: int, scale: int) -> str:
    sign = "-" if m < 0 else ""
    m = abs(m)
    return "%s%d.%s" % (sign, m // 10 ** scale, str(m % 10 ** scale).zfill(scale))


def _value_vector(rng, n, digits, planted):
    """n decimals in [1, 10) with digits+10 places; a planted vector has
    x_n = -sum c_i x_i exactly, with c_i in [-9, 9]."""
    scale = digits + 10
    ms = [rng.randrange(10 ** scale, 10 ** (scale + 1))
          for _ in range(n - 1 if planted else n)]
    coeffs = None
    if planted:
        cs = [rng.randint(-9, 9) for _ in range(n - 1)]
        ms.append(-sum(c * m for c, m in zip(cs, ms)))
        coeffs = cs + [1]
    return [_decimal(m, scale) for m in ms], coeffs


def _pslq_file_job(rng, n, digits, planted, path):
    lines, coeffs = _value_vector(rng, n, digits, planted)
    return {"kind": "pslq-file", "digits": digits, "n": n,
            "argv": ["pslq", "--values-from", path, "--max-norm",
                     str(PSLQ_MAX_NORM), "--digits", str(digits), "--json"],
            "file": {"path": path, "lines": lines},
            "expect": {"coeffs": coeffs, "max_norm": PSLQ_MAX_NORM}}


def _builtin_job(builtin, digits, masses=None):
    argv = ["pslq", "--builtin", builtin]
    if masses:
        argv += ["--a", masses[0], "--b", masses[1]]
    return {"kind": "pslq-builtin", "digits": digits,
            "argv": argv + ["--digits", str(digits), "--json"],
            "expect": {"builtin": builtin, "masses": masses}}


def _verify_job(suite, samples, seed, digits):
    return {"kind": "verify", "digits": digits,
            "argv": ["verify", "--suite", suite, "--samples", str(samples),
                     "--seed", str(seed), "--digits", str(digits), "--json"],
            "expect": {"suite": suite}}


def _oracle_job(theta, digits):
    return {"kind": "oracle", "digits": digits, "theta": theta, "expect": {}}


def _catalog_round(rng, round_index, workdir):
    jobs = []
    for name in CATALOG:
        for digits in (60, 100):
            jobs.append(_verify_job(name, 20, rng.randrange(10 ** 6), digits))
    jobs.append(_builtin_job("conj14", 200))
    jobs.append(_builtin_job("r19", 200, _uniform_masses(rng.random(), rng.random())))
    jobs.append(_builtin_job("qs", 200, _uniform_masses(rng.random(), rng.random())))
    for k, (n, digits) in enumerate(PSLQ_FILE_SLOTS):
        for planted in (True, False):
            path = "%s/r%d-%d-%s.txt" % (workdir, round_index, k, "p" if planted else "i")
            jobs.append(_pslq_file_job(rng, n, digits, planted, path))
    for _ in range(ORACLE_JOBS):
        # Angles in (0.1, 2pi - 0.1) away from pi, where Cl2 vanishes.
        theta = rng.uniform(0.1, math.pi - 0.1)
        if rng.random() < 0.5:
            theta = 2 * math.pi - theta
        jobs.append(_oracle_job(_fmt(theta), ORACLE_DIGITS))
    return jobs


def _cold_round(rng):
    """The fixed cold list, twice; the seed sets only its rotation and the
    verify sampling seed, because each job's cost is set by its arguments
    (the coefficient tables a fresh process builds) and must not vary by
    seed.  Two passes put two samples of each job in the median."""
    jobs = [
        {"kind": "closed", "digits": 200,
         "argv": ["feynman", "--a", "1", "--b", "1", "--method", "closed",
                  "--digits", "200", "--json"],
         "expect": {"a": "1", "b": "1", "routes": ["closed"]}},
        {"kind": "closed", "digits": 300,
         "argv": ["feynman", "--a", "0.7", "--b", "1.1", "--method", "closed",
                  "--digits", "300", "--json"],
         "expect": {"a": "0.7", "b": "1.1", "routes": ["closed"]}},
        {"kind": "eval-cl2", "digits": 300,
         "argv": ["eval", "cl2", "--theta", "2", "--digits", "300", "--json"], "expect": {}},
        {"kind": "eval-li2", "digits": 300,
         "argv": ["eval", "li2", "--x", "0.75", "--digits", "300", "--json"], "expect": {}},
        _builtin_job("conj14", 250),
        _verify_job("broadhurst-c11,conj-1.4", 20, rng.randrange(10 ** 6), 250),
    ]
    k = rng.randrange(len(jobs))
    return (jobs[k:] + jobs[:k]) * 2


def round_jobs(workload: str, seed: int, round_index: int, workdir: str) -> list:
    """The jobs of one round, in run order.  ``workdir`` is the directory,
    relative to the checkout root, that value files are written to."""
    rng = _rng(seed, workload, round_index)
    if workload == "feynman_routes":
        jobs = _feynman_round(rng)
    elif workload == "catalog_pslq":
        jobs = _catalog_round(rng, round_index, workdir)
    elif workload == "cold_cli":
        return _cold_round(rng)
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(jobs)
    return jobs


def write_value_files(jobs: list, root: Path) -> None:
    for job in jobs:
        spec = job.get("file")
        if spec:
            path = root / spec["path"]
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(spec["lines"]) + "\n", encoding="utf-8")


def warmup_jobs(jobs: list, workdir: str) -> list:
    """One fixed, discarded job for each (kind, digits) class in ``jobs``,
    highest precision first; it builds that precision's coefficient tables
    and quadrature nodes before timing starts."""
    classes = sorted({(job["kind"], job["digits"]) for job in jobs},
                     key=lambda kd: (-kd[1], kd[0]))
    rng = random.Random(0)
    out = []
    for k, (kind, digits) in enumerate(classes):
        if kind == "feynman":
            out.append(_feynman_job("1", "1", digits, "uniform"))
        elif kind == "verify":
            out.append(_verify_job("duplication,lewin-1.5", 2, 1, digits))
        elif kind == "pslq-builtin":
            out.append(_builtin_job("conj14", digits))
        elif kind == "pslq-file":
            out.append(_pslq_file_job(rng, 4, digits, True,
                                      "%s/warmup-%d.txt" % (workdir, k)))
        elif kind == "oracle":
            out.append(_oracle_job("1", digits))
        else:
            raise ValueError("no warm-up for %r" % kind)
    return out

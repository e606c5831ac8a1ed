"""Independent correctness references and the per-job checker.

Every reference is computed with mpmath alone, at 30 digits above the job's
precision, and never with ``tetraclausen`` code:

* C(a,b) from the eight-term Clausen form with ``mpmath.clsin(2, .)``;
* Cl2 from ``mpmath.clsin`` and Li2 from ``mpmath.polylog``;
* PSLQ: planted coefficients come back up to sign, independent vectors
  give ``none_found`` with an exclusion bound >= max-norm, the built-in
  searches return the relations the paper states (``qs``: any relation that
  annihilates the q-vector recomputed here).

Each job gets a verdict: ``ok``; ``wrong`` when a returned value misses its
reference (the "digits correct" contract: within one unit of the last
requested digit, or for ``c_direct`` within its own error estimate); or
``error`` when the job raised, exited non-zero or printed nothing parseable.
A wrong job is also ``gross`` when it misses by more than half of its digits
or returns an impossible verdict; that is what makes a run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath

from workloads import CONJ14_RELATION, R19_RELATIONS

GUARD = 30


@dataclass
class Verdict:
    status: str          # "ok" | "wrong" | "error"
    gross: bool = False
    detail: str = ""


def _ctx(digits):
    ctx = mpmath.MPContext()
    ctx.dps = digits + GUARD
    return ctx


def c_reference(a: str, b: str, digits: int):
    """C(a,b) by the eight-term Clausen closed form, in mpmath."""
    ctx = _ctx(digits)
    a, b = ctx.mpf(a), ctx.mpf(b)
    d = ctx.sqrt(4 - a * a - b * b)
    p = a + b + 2
    ph, pa, pb = ctx.atan(d / p), ctx.atan(d / a), ctx.atan(d / b)

    def cl(t):
        return ctx.clsin(2, t)

    total = (cl(4 * ph) + cl(2 * pa + 2 * pb - 2 * ph) + cl(2 * pa - 2 * ph)
             + cl(2 * pb - 2 * ph) - cl(2 * pa + 2 * pb - 4 * ph)
             - cl(2 * pa) - cl(2 * pb) - cl(2 * ph))
    return ctx, 8 / (a * b * d) * total


def _q_values(a: str, b: str, digits: int):
    """q1..q13 of the mass-independent pieces, recomputed from the angle
    definitions sin(alpha1) = sqrt((2-b)/(2+b)), tan(alpha2) = sqrt(4-b^2)/b."""
    ctx = _ctx(digits)
    b = ctx.mpf(b)
    a1 = ctx.asin(ctx.sqrt((2 - b) / (2 + b)))
    a2 = ctx.atan(ctx.sqrt(4 - b * b) / b)
    pi = ctx.pi
    angles = (2 * a1 + 2 * a2, 2 * a1 - 2 * a2, 2 * a2, a2 - a1, a2 + a1,
              2 * a2, pi - 2 * a2, pi - a1 - a2, pi + a1 - a2, a2, a1,
              pi - a2, pi - a1)
    return ctx, [ctx.clsin(2, t) for t in angles]


def _digits_check(ctx, value: str, ref, digits: int, label: str):
    """(strict ok, coarse ok, label) for a decimal string against a reference.

    Strict: |v - ref| <= one unit in the last of ``digits`` significant
    digits of ref.  Coarse: within half of the digits.  A miss is labelled
    with the number of trailing digits lost."""
    err = abs(ctx.mpf(value) - ref)
    scale = abs(ref) if ref else ctx.mpf(1)
    ulp = ctx.mpf(10) ** (ctx.floor(ctx.log10(scale)) - digits + 1)
    if err > ulp:
        label = "%s (%.1f digits lost)" % (label, float(ctx.log10(err / ulp)))
    return err <= ulp, err <= scale * ctx.mpf(10) ** (-(digits // 2)), label


def _canonical(coeffs):
    coeffs = tuple(int(c) for c in coeffs)
    first = next((c for c in coeffs if c), 0)
    return tuple(-c for c in coeffs) if first < 0 else coeffs


def _coeffs(values: dict, name: str, n: int):
    return tuple(int(values["%s.coeff%d" % (name, i)]) for i in range(n))


def _combine(checks):
    """checks: iterable of (strict ok, coarse ok, label)."""
    misses = [(label, coarse) for strict, coarse, label in checks if not strict]
    if not misses:
        return Verdict("ok")
    gross = any(not coarse for _, coarse in misses)
    return Verdict("wrong", gross, "missed: " + ", ".join(label for label, _ in misses))


def _check_feynman(job, report):
    digits = job["digits"]
    values = report["values"]
    ctx, ref = c_reference(job["expect"]["a"], job["expect"]["b"], digits)
    checks = []
    for route in job["expect"]["routes"]:
        key = "c_" + route
        if route == "direct":
            # The direct route promises only its own error estimate.
            err = abs(ctx.mpf(values[key]) - ref)
            est = ctx.mpf(values["c_direct.error_estimate"])
            coarse = abs(ref) * ctx.mpf(10) ** (-(digits // 2))
            checks.append((err <= est, err <= max(est, coarse),
                           "c_direct (error %s > estimate %s)"
                           % (mpmath.nstr(err, 3), mpmath.nstr(est, 3))))
        else:
            checks.append(_digits_check(ctx, values[key], ref, digits, key))
    return _combine(checks)


def _check_verify(job, report):
    bad = [r["name"] for r in report["results"]
           if r["status"] not in ("pass", "conjecture-ok")]
    if bad:
        return Verdict("wrong", True, "status: " + ", ".join(bad))
    return Verdict("ok")


def _check_builtin(job, report):
    values = report["values"]
    builtin = job["expect"]["builtin"]
    if builtin == "conj14":
        expected = {"conj14": CONJ14_RELATION}
    elif builtin == "r19":
        expected = R19_RELATIONS
    else:
        coeffs = _coeffs(values, "qs", 13)
        ctx, q = _q_values(*job["expect"]["masses"], job["digits"])
        size = sum(abs(c) * abs(x) for c, x in zip(coeffs, q))
        residual = abs(sum(c * x for c, x in zip(coeffs, q)))
        ok = any(coeffs) and residual <= size * ctx.mpf(10) ** (-job["digits"])
        return Verdict("ok") if ok else Verdict("wrong", True, "qs relation does not hold")
    for name, rel in expected.items():
        if _coeffs(values, name, len(rel)) != _canonical(rel):
            return Verdict("wrong", True, "%s relation differs" % name)
    return Verdict("ok")


def _check_pslq_file(job, report):
    values = report["values"]
    planted = job["expect"]["coeffs"]
    max_norm = job["expect"]["max_norm"]
    n = job["n"]
    found = "values-from.coeff0" in values
    if planted is not None:
        if found and _coeffs(values, "values-from", n) == _canonical(planted):
            return Verdict("ok")
        return Verdict("wrong", True, "planted relation not recovered")
    if found:
        # No relation of norm <= max-norm exists for these random values; a
        # reported one above the norm bound is a spurious detection.
        coeffs = _coeffs(values, "values-from", n)
        norm = math.sqrt(sum(c * c for c in coeffs))
        return Verdict("wrong", norm <= max_norm, "spurious relation of norm %.3g" % norm)
    bound = mpmath.mpf(values["values-from.exclusion_bound"])
    if bound >= max_norm:
        return Verdict("ok")
    return Verdict("wrong", True, "exclusion bound below max-norm")


def _check_eval(job, report):
    digits = job["digits"]
    ctx = _ctx(digits)
    argv = job["argv"]
    if job["kind"] == "eval-cl2":
        ref = ctx.clsin(2, ctx.mpf(argv[argv.index("--theta") + 1]))
        key = "cl2"
    else:
        ref = ctx.polylog(2, ctx.mpf(argv[argv.index("--x") + 1]))
        key = "li2"
    return _combine([_digits_check(ctx, report["values"][key], ref, digits, key)])


def _check_oracle(job, stdout):
    digits = job["digits"]
    ctx = _ctx(digits)
    ref = ctx.clsin(2, ctx.mpf(job["theta"]))
    series, primary = stdout.split()
    return _combine([_digits_check(ctx, series, ref, digits, "cl2_series_reference"),
                     _digits_check(ctx, primary, ref, digits, "cl2")])


_CLI_CHECKS = {"feynman": _check_feynman, "closed": _check_feynman,
               "verify": _check_verify, "pslq-builtin": _check_builtin,
               "pslq-file": _check_pslq_file, "eval-cl2": _check_eval,
               "eval-li2": _check_eval}


def check(job: dict, result: dict) -> Verdict:
    """Verdict for one job given the worker's or child's result
    ``{"exit": int | None, "error": str | None, "stdout": str}``."""
    if result.get("error"):
        return Verdict("error", True, result["error"])
    if result.get("exit") not in (0, None):
        return Verdict("error", True, "exit status %s" % result["exit"])
    try:
        if job["kind"] == "oracle":
            return _check_oracle(job, result["stdout"])
        return _CLI_CHECKS[job["kind"]](job, json.loads(result["stdout"]))
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict("error", True, "unparseable output: %s: %s" % (type(exc).__name__, exc))

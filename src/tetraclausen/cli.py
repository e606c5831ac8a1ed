"""Command-line front end: evaluation, verification, stepwise tracing, PSLQ.

Subcommands
-----------
eval     evaluate cl2 or li2 at one point and print a decimal string
feynman  C(a,b) by the closed form, direct quadrature, and/or the stepwise
         reduction (one stepwise report serves all but ``--method closed``),
         each check passing below 10^(-digits+10) plus any quadrature error
verify   run identity-catalog verification suites
pslq     integer-relation searches on built-in or user-supplied vectors

Numbers on the command line may be decimal literals (``0.25``, ``1e-3``),
rationals ``p/q``, rational multiples of pi (``pi``, ``2pi/3``, ``-pi/2``),
or the named values ``e``, ``1/e``, ``1/pi``.  Anything else exits with
status 2.  Exit status 0 means every requested check passed (or a value was
printed), 1 means a verification failed, 2 a usage or domain error.

With ``--json`` every subcommand emits one report object:

    {"tool": ..., "digits": ..., "seed": ...,
     "results": [{"name", "status", "max_residual", "samples"}, ...],
     "values": {name: decimal-string, ...}}

Output is deterministic: identical argv produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .mpcore import DomainError, PrecisionCtx, to_decimal
from .quad import QuadratureError
from . import feynman, identities, polylog, pslq

__all__ = ["main", "parse_number", "REPORT_SCHEMA"]

REPORT_SCHEMA = {
    "type": "object",
    "required": ["tool", "digits", "seed", "results", "values"],
    "additionalProperties": False,
    "properties": {
        "tool": {"type": "string"},
        "digits": {"type": "integer"},
        "seed": {"type": "integer"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "max_residual", "samples"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail",
                                        "conjecture-ok", "conjecture-violated"]},
                    "max_residual": {"type": "string"},
                    "samples": {"type": "integer"},
                },
            },
        },
        "values": {
            "type": "object",
            "additionalProperties": {"type": "string"},
        },
    },
}

_DECIMAL_RE = re.compile(r"(\d+\.?\d*|\.\d+)(e[+-]?\d+)?")
_PI_RE = re.compile(r"(\d+)?pi(?:/(\d+))?")
_FRACTION_RE = re.compile(r"(\d+)/(\d+)")


class UsageError(ValueError):
    """Bad command-line input; reported with exit status 2."""


def parse_number(text: str, ctx: PrecisionCtx):
    """Parse the CLI number grammar into a working-precision real."""
    s = text.strip().lower().replace(" ", "")
    sign = 1
    while s and s[0] in "+-":
        if s[0] == "-":
            sign = -sign
        s = s[1:]
    if not s:
        raise UsageError("empty number in %r" % text)
    if s == "pi":
        return sign * ctx.pi
    if s == "e":
        return sign * ctx.exp(ctx.mpf(1))
    if s == "1/pi":
        return sign / ctx.pi
    if s == "1/e":
        return sign * ctx.exp(ctx.mpf(-1))
    m = _PI_RE.fullmatch(s)
    if m:
        num = int(m.group(1) or 1)
        den = int(m.group(2) or 1)
        if den == 0:
            raise UsageError("zero denominator in %r" % text)
        return sign * num * ctx.pi / den
    m = _FRACTION_RE.fullmatch(s)
    if m:
        den = int(m.group(2))
        if den == 0:
            raise UsageError("zero denominator in %r" % text)
        return sign * ctx.mpf(Fraction(int(m.group(1)), den))
    if _DECIMAL_RE.fullmatch(s):
        return sign * ctx.mpf(s)
    raise UsageError("cannot parse number %r (decimal, p/q, or k*pi/q forms only)" % text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tetraclausen", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--digits", type=int, default=50,
                       help="decimal digits of working precision (default 50)")
        p.add_argument("--seed", type=int, default=42,
                       help="seed for any randomized sampling (default 42)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p_eval = sub.add_parser("eval", help="evaluate one special-function value")
    p_eval.add_argument("function", choices=["cl2", "li2"])
    p_eval.add_argument("--theta", help="angle argument for cl2")
    p_eval.add_argument("--x", help="real argument for li2")
    common(p_eval)

    p_fey = sub.add_parser("feynman", help="C(a,b) by one or all routes", description=(
        "C(a,b) by one or all routes; each check passes below 10^(-digits+10)"
        " plus the error estimate of any quadrature it involves"))
    p_fey.add_argument("--a", required=True)
    p_fey.add_argument("--b", required=True)
    p_fey.add_argument("--method", choices=["closed", "direct", "stepwise", "all"],
                       default="all")
    common(p_fey)

    p_ver = sub.add_parser("verify", help="verify identity suites")
    p_ver.add_argument("--suite", default="all",
                       help="'all' or comma-separated identity names")
    p_ver.add_argument("--samples", type=int, default=20)
    common(p_ver)

    p_pslq = sub.add_parser("pslq", help="integer-relation search")
    p_pslq.add_argument("--builtin", choices=["r19", "conj14", "qs"])
    p_pslq.add_argument("--values-from", dest="values_from",
                        help="file with one decimal value per line ('#' comments)")
    p_pslq.add_argument("--a", help="mass a for the r19/qs vectors")
    p_pslq.add_argument("--b", help="mass b for the r19/qs vectors")
    p_pslq.add_argument("--max-norm", dest="max_norm", default="1e6",
                        help="norm bound for the exclusion verdict (default 1e6)")
    common(p_pslq)

    return parser


def _result(name, ok, residual_str, samples, conjectural=False):
    if conjectural:
        status = "conjecture-ok" if ok else "conjecture-violated"
    else:
        status = "pass" if ok else "fail"
    return {"name": name, "status": status,
            "max_residual": residual_str, "samples": samples}


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (results, values, text_lines); ``main``
# builds the report and the exit code from them.
# ---------------------------------------------------------------------------

def _run_eval(args, ctx):
    if args.function == "cl2":
        if args.theta is None:
            raise UsageError("eval cl2 requires --theta")
        value = polylog.cl2(parse_number(args.theta, ctx), ctx)
        name = "cl2"
    else:
        if args.x is None:
            raise UsageError("eval li2 requires --x")
        value = polylog.li2(parse_number(args.x, ctx), ctx)
        name = "li2"
        if isinstance(value, ctx._mp.mpc):
            dec_re = to_decimal(value.real, ctx)
            dec_im = to_decimal(value.imag, ctx)
            return [], {"li2.re": dec_re, "li2.im": dec_im}, ["%s + %s i" % (dec_re, dec_im)]
    dec = to_decimal(value, ctx)
    return [], {name: dec}, [dec]


def _run_feynman(args, ctx):
    a = parse_number(args.a, ctx)
    b = parse_number(args.b, ctx)
    m = feynman.MassPair(a, b)
    values = {"a": to_decimal(a, ctx), "b": to_decimal(b, ctx)}
    results, lines, computed = [], [], {}

    # One stepwise report gives every route; its s vector gives c_closed.
    steps = feynman.stepwise(m, ctx) if args.method != "closed" else None
    if args.method in ("closed", "all"):
        computed["closed"] = feynman.c_closed(m, ctx) if steps is None else steps.closed
        values["c_closed"] = to_decimal(computed["closed"], ctx)
        lines.append("c_closed    = " + values["c_closed"])
    if args.method in ("direct", "all"):
        computed["direct"] = steps.direct.value
        values["c_direct"] = to_decimal(steps.direct.value, ctx)
        values["c_direct.error_estimate"] = to_decimal(steps.direct.error_estimate, ctx)
        lines.append("c_direct    = %s  (error estimate %s, %d evaluations)"
                     % (values["c_direct"], values["c_direct.error_estimate"],
                        steps.direct.evaluations))
    if args.method in ("stepwise", "all"):
        computed["stepwise"] = steps.c_from_steps
        values["c_stepwise"] = to_decimal(steps.c_from_steps, ctx)
        lines.append("c_stepwise  = " + values["c_stepwise"])
        for name in ("I1", "I2", "I3", "I4"):
            values[name + ".closed"] = to_decimal(steps.i_closed[name], ctx)
            values[name + ".quadrature"] = to_decimal(steps.i_quad[name].value, ctx)
            residual = steps.match_residuals[name]
            results.append(_result(name + "-closed-vs-quadrature",
                                   residual < steps.tol + steps.i_quad[name].error_estimate,
                                   to_decimal(residual, ctx), 1))
        i12 = abs(steps.i1_plus_i2_closed)
        values["i1_plus_i2.closed"] = to_decimal(steps.i1_plus_i2_closed, ctx)
        values["i1_plus_i2.quadrature"] = to_decimal(steps.i1_plus_i2_quad, ctx)
        results.append(_result("i1-plus-i2", i12 < steps.tol, to_decimal(i12, ctx), 1))
        for vec in (steps.q, steps.r, steps.s):
            for name, (angle, value) in vec.items():
                values[name] = to_decimal(value, ctx)
                values[name + ".angle"] = to_decimal(angle, ctx)

    for left, right in (("closed", "direct"), ("closed", "stepwise"), ("direct", "stepwise")):
        if left in computed and right in computed:
            diff = abs(computed[left] - computed[right])
            quad_err = steps.direct.error_estimate if "direct" in (left, right) else 0
            ok = diff < steps.tol + quad_err
            results.append(_result("%s-vs-%s" % (left, right), ok, to_decimal(diff, ctx), 1))
            lines.append("%-22s %s  (|diff| = %s)"
                         % ("%s vs %s:" % (left, right), "pass" if ok else "FAIL",
                            to_decimal(diff, ctx)))
    return results, values, lines


def _run_verify(args, ctx):
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    if args.suite == "all":
        names = identities.catalog_names()
    else:
        names = [n.strip() for n in args.suite.split(",") if n.strip()]
        known = set(identities.catalog_names())
        for n in names:
            if n not in known:
                raise UsageError("unknown identity %r" % n)
        if not names:
            raise UsageError("empty suite")
    results = []
    lines = []
    values = {}
    for name in names:
        rep = identities.verify(name, args.samples, args.seed, ctx)
        conjectural = rep.status == "conjectural"
        res_str = to_decimal(rep.max_residual, ctx)
        results.append(_result(name, rep.passed, res_str, rep.samples, conjectural))
        values[name + ".max_residual"] = res_str
        lines.append("%-24s %-20s max_residual=%s samples=%d"
                     % (name, results[-1]["status"], res_str, rep.samples))
    return results, values, lines


def _bound_str(bound, max_norm, ctx):
    """``bound`` cut toward zero to 2 significant digits, so that it stays a
    bound (about 40 of its digits hold at 100), or ``max_norm`` if larger."""
    x, floor = (Fraction(v.man_exp[0]) * Fraction(2) ** v.man_exp[1] for v in (bound, max_norm))
    e = len(str(x.numerator)) - len(str(x.denominator))
    e -= x < Fraction(10) ** e
    m = int(x / Fraction(10) ** (e - 1))   # 10 <= m <= 99
    if m * Fraction(10) ** (e - 1) < floor:
        return to_decimal(max_norm, ctx)
    return "%d.%de%+d" % (m // 10, m % 10, e)


def _run_pslq(args, ctx):
    if bool(args.builtin) == bool(args.values_from):
        raise UsageError("pslq needs exactly one of --builtin or --values-from")
    max_norm = parse_number(args.max_norm, ctx)
    if not max_norm > 0:
        raise UsageError("--max-norm must be positive, got %s" % args.max_norm)
    results = []
    lines = []
    values = {}

    def record(name, search_vals, expect_found):
        try:
            rel = pslq.find_relation(search_vals, max_norm, ctx)
        except pslq.InsufficientPrecision as exc:
            raise DomainError("pslq: %s" % exc) from exc
        if rel.found:
            coeff_str = "(" + ", ".join(str(c) for c in rel.coeffs) + ")"
            res_str = to_decimal(rel.residual, ctx)
            lines.append("%-18s relation %s  residual %s" % (name, coeff_str, res_str))
            for i, c in enumerate(rel.coeffs):
                values["%s.coeff%d" % (name, i)] = str(c)
            values["%s.residual" % name] = res_str
            results.append(_result(name, True, res_str, 1))
        else:
            bound_str = _bound_str(rel.exclusion_bound, max_norm, ctx)
            lines.append("%-18s no relation with norm below %s" % (name, bound_str))
            values["%s.exclusion_bound" % name] = bound_str
            results.append(_result(name, not expect_found, bound_str, 1))

    if args.values_from:
        vals = pslq.read_value_file(args.values_from, ctx)
        if len(vals) < 2:
            raise UsageError("need at least 2 values in %s" % args.values_from)
        record("values-from", vals, expect_found=False)
    elif args.builtin == "conj14":
        record("conj14", identities.conj14_values(ctx), expect_found=True)
    else:
        if args.a is None or args.b is None:
            raise UsageError("--builtin %s requires --a and --b" % args.builtin)
        m = feynman.MassPair(parse_number(args.a, ctx), parse_number(args.b, ctx))
        ang = feynman.derive(m, ctx)
        if args.builtin == "qs":
            qv = feynman.q_vector(ang, ctx)
            record("qs", [qv["q%d" % i][1] for i in range(1, 14)], expect_found=True)
        else:
            rv = feynman.r_vector(ang, ctx)
            for _, combo in feynman.R_RELATIONS:
                names = [name for name, _ in combo]
                record(",".join(names), [rv[name][1] for name in names], expect_found=True)
    return results, values, lines


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.digits < 15:
            raise UsageError("--digits must be >= 15")
        ctx = PrecisionCtx(args.digits)
        handler = {"eval": _run_eval, "feynman": _run_feynman,
                   "verify": _run_verify, "pslq": _run_pslq}[args.subcommand]
        results, values, lines = handler(args, ctx)
    except (DomainError, OSError, KeyError, ValueError,   # UsageError is a ValueError
            QuadratureError, feynman.RouteMismatchError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    if args.json:
        report = {"tool": args.subcommand, "digits": ctx.digits, "seed": args.seed,
                  "results": results, "values": values}
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")
    return 0 if all(r["status"] in ("pass", "conjecture-ok") for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

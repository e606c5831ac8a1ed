"""The two-mass tetrahedral vacuum integral C(a,b) by three routes.

``c_direct`` integrates the defining pair of one-dimensional integrals

    C(a,b) = -16/b [ int_2^{2+b} arctanh((w^2-4-2b)/(w sqrt(w^2+b^2-4)))
                                  dw / (w (w+a) sqrt(w^2+b^2-4))
             + int_{2+b}^inf arctanh(b/sqrt(w^2+b^2-4))
                                  dw / (w (w+a) sqrt(w^2+b^2-4)) ]

by double-exponential quadrature (the first integrand has a logarithmic
endpoint singularity at w = 2 where the arctanh argument reaches -1).

``stepwise`` reproduces the reduction chain: partial fractions split the
mass-dependent factor 1/(w(w+a)) so that C = 16/(ab) (I3 + I4 - (I1+I2)),
the four pieces are evaluated both by quadrature and by their Clausen
closed forms, and the intermediate q/r/s Clausen-value vectors are exposed
together with the relations among them.

``c_direct`` and ``stepwise`` share one quadrature sweep per panel: their
integrands differ only in the weight 1/w, 1/(w+a) or 1/(w(w+a)), so each
panel is integrated once with all three (see ``StepReport.direct``).

``stepwise`` also computes each Clausen value once.  The closed forms of
I1..I4 (``I_CLOSED``) are integer combinations of the q and r values, and
the eight-term form of C(a,b) below is a sum over the s values.  So one
``derive`` and the 39 distinct values of the q, r and s vectors (q3 and
q6 share an angle) give every closed form, ``c_closed``'s included
(``StepReport.closed``).

``c_closed`` evaluates the eight-term closed form

    C(a,b) = 8/(ab sqrt(4-a^2-b^2)) { Cl2(4phi) + Cl2(2phi_a+2phi_b-2phi)
             + Cl2(2phi_a-2phi) + Cl2(2phi_b-2phi) - Cl2(2phi_a+2phi_b-4phi)
             - Cl2(2phi_a) - Cl2(2phi_b) - Cl2(2phi) }

with phi = arctan(d/p), phi_a = arctan(d/a), phi_b = arctan(d/b).
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath.libmp import (fone, from_int, mpf_add, mpf_div, mpf_log, mpf_mul,
                          mpf_shift, mpf_sqrt, mpf_sub)

from .mpcore import DomainError, PrecisionCtx, round_out, to_decimal
from .polylog import _cl2 as cl2  # the unrounded kernel: public values round once
from .quad import QuadratureError, QuadratureResult, integrate

__all__ = [
    "MassPair",
    "DerivedAngles",
    "StepReport",
    "RouteMismatchError",
    "derive",
    "c_direct",
    "c_closed",
    "stepwise",
    "q_vector",
    "r_vector",
    "s_vector",
    "R_RELATIONS",
    "I_CLOSED",
    "closed_integrals",
    "RS_RELATIONS",
    "Q_RELATIONS",
]


@dataclass(frozen=True)
class MassPair:
    """Masses on the two non-adjacent lines; valid for a, b > 0, a^2+b^2 < 4."""

    a: object
    b: object

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise DomainError("masses must be positive")
        if not (self.a * self.a + self.b * self.b < 4):
            raise DomainError("region requires a^2 + b^2 < 4")


@dataclass(frozen=True)
class DerivedAngles:
    """Every derived quantity of the reduction chain for one mass pair."""

    a: object
    b: object
    c: object          # sqrt(4 - b^2)
    d: object          # sqrt(4 - a^2 - b^2)
    p: object          # a + b + 2
    alpha1: object
    alpha2: object
    alpha3: object
    alpha4: object
    alpha6: object     # also the chain's delta8 = arctan(p/d)
    alpha7: object
    delta1: object
    delta2: object
    delta3: object
    delta4: object
    delta7: object
    delta9: object
    delta10: object
    delta11: object
    phi: object
    phi_a: object
    phi_b: object


class RouteMismatchError(ArithmeticError):
    """A Clausen closed form and its quadrature counterpart disagree."""

    def __init__(self, integral: str, closed, quadrature, difference, tolerance):
        self.integral = integral
        self.closed = closed
        self.quadrature = quadrature
        self.difference = difference
        self.tolerance = tolerance
        super().__init__(
            "%s: closed form and quadrature differ by %s (tolerance %s)"
            % (integral, difference, tolerance)
        )


def _validate_region(a, b, ctx: PrecisionCtx):
    margin = ctx.pow10(-(ctx.digits // 2))
    if a <= 0 or b <= 0:
        raise DomainError("masses must be positive")
    if a < margin or b < margin:
        raise DomainError("mass within %s of 0 is ill-conditioned at %d digits" % (margin, ctx.digits))
    gap = 4 - (a * a + b * b)
    if gap <= 0:
        raise DomainError("region requires a^2 + b^2 < 4")
    if gap < margin:
        raise DomainError("a^2 + b^2 within %s of 4 is ill-conditioned at %d digits" % (margin, ctx.digits))


def _prop_angles(a, b, ctx: PrecisionCtx):
    """``(d, p, phi, phi_a, phi_b, alpha7)``, the angles of Props. 1 and 2
    (alpha7 is Prop. 1's gamma); ``derive`` adds the rest and the checks."""
    d = ctx.sqrt(4 - a * a - b * b)
    p = a + b + 2
    return (d, p, ctx.atan(d / p), ctx.atan(d / a), ctx.atan(d / b),
            ctx.atan((p + ctx.sqrt(2 * b * b + 4 * b)) / d))


def derive(m: MassPair, ctx: PrecisionCtx) -> DerivedAngles:
    """All derived angles and auxiliary quantities for a mass pair.

    Every defining relation and the seven cross-identities among the angles
    are asserted at construction to 10^(-digits+5).
    """
    a, b = ctx.mpf(m.a), ctx.mpf(m.b)
    _validate_region(a, b, ctx)
    c = ctx.sqrt(4 - b * b)
    d, p, phi, phi_a, phi_b, alpha7 = _prop_angles(a, b, ctx)

    ang = DerivedAngles(
        a=a, b=b, c=c, d=d, p=p,
        alpha1=ctx.asin(ctx.sqrt((2 - b) / (2 + b))),
        alpha2=ctx.atan(c / b),
        alpha3=ctx.asin(a / c),
        alpha4=ctx.asin(a / c + d * d / (c * p)),
        alpha6=ctx.atan(p / d),
        alpha7=alpha7,
        delta1=2 * ctx.atan((c * d - a * b) / (2 * d + b * c)),
        delta2=2 * ctx.atan((c * d - a * b) / (2 * d - b * c)),
        delta3=2 * ctx.atan((c * d + a * b) / (2 * d - b * c)),
        delta4=2 * ctx.atan((c * d + a * b) / (2 * d + b * c)),
        delta7=ctx.atan(a / d),
        delta9=ctx.atan((a - b - 2) / d),
        delta10=ctx.atan((a - b + 2) / d),
        delta11=ctx.atan((a + b - 2) / d),
        phi=phi,
        phi_a=phi_a,
        phi_b=phi_b,
    )
    _assert_angle_invariants(ang, ctx)
    return ang


def _wrap_residual(x, ctx: PrecisionCtx):
    """Reduce an angle difference into (-pi, pi]."""
    two_pi = 2 * ctx.pi
    k = ctx.nint(x / two_pi)
    return x - k * two_pi if k else x


def angle_identity_residuals(ang: DerivedAngles, ctx: PrecisionCtx) -> dict:
    """The seven identities tying the reduction angles to phi, phi_a, phi_b.

    delta2/delta3 use the principal branch of 2*arctan, so where 2d - bc < 0
    (which does happen inside the region, e.g. near b -> 2) they differ from
    the identity right-hand sides by exactly 2pi; since every use is inside
    the 2pi-periodic Cl2, the identities are stated and checked modulo 2pi.
    """
    half_pi = ctx.pi / 2
    raw = {
        "alpha3": ang.alpha3 - (half_pi - ang.phi_a),
        "alpha6": ang.alpha6 - (half_pi - ang.phi),
        "delta1": ang.delta1 - (-2 * ang.phi + ang.phi_a + 2 * ang.phi_b - half_pi),
        "delta3": ang.delta3 - (2 * ang.phi - ang.phi_a - 2 * ang.phi_b + 3 * half_pi),
        "delta7": ang.delta7 - (half_pi - ang.phi_a),
        "delta9": ang.delta9 - (-ang.phi + ang.phi_b - half_pi),
        "delta11": ang.delta11 - (half_pi + ang.phi - ang.phi_a - ang.phi_b),
    }
    return {k: _wrap_residual(v, ctx) for k, v in raw.items()}


def _assert_angle_invariants(ang: DerivedAngles, ctx: PrecisionCtx):
    tol = ctx.pow10(-ctx.digits + 5)
    a, b, c, d, p = ang.a, ang.b, ang.c, ang.d, ang.p
    checks = {
        "sin(alpha1)": ctx.sin(ang.alpha1) - ctx.sqrt((2 - b) / (2 + b)),
        "tan(alpha2)": ctx.tan(ang.alpha2) - c / b,
        "sin(alpha3)": ctx.sin(ang.alpha3) - a / c,
        "sin(alpha4)": ctx.sin(ang.alpha4) - (a / c + d * d / (c * p)),
        "tan(alpha6)": ctx.tan(ang.alpha6) - p / d,
        "tan(alpha7)": ctx.tan(ang.alpha7) - (p + ctx.sqrt(2 * b * b + 4 * b)) / d,
        "closure": (4 - a * a) * (4 - b * b) - a * a * b * b - 4 * d * d,
    }
    checks.update(angle_identity_residuals(ang, ctx))
    for name, residual in checks.items():
        if abs(residual) > tol:
            raise DomainError("angle invariant %s violated: residual %s"
                              % (name, to_decimal(abs(residual), ctx)))


# ---------------------------------------------------------------------------
# Clausen-value vectors and relations.
# ---------------------------------------------------------------------------

def q_vector(ang: DerivedAngles, ctx: PrecisionCtx) -> dict:
    """q1..q13: named (angle, unrounded value) pairs from the mass-independent pieces."""
    pi = ctx.pi
    a1, a2 = ang.alpha1, ang.alpha2
    angles = {
        "q1": 2 * a1 + 2 * a2, "q2": 2 * a1 - 2 * a2, "q3": 2 * a2,
        "q4": a2 - a1, "q5": a2 + a1, "q6": 2 * a2, "q7": pi - 2 * a2,
        "q8": pi - a1 - a2, "q9": pi + a1 - a2, "q10": a2, "q11": a1,
        "q12": pi - a2, "q13": pi - a1,
    }
    q = {}
    for k, v in angles.items():
        # q6 is q3's angle 2*alpha2 again: one Clausen value serves both.
        q[k] = (v, q["q3"][1] if k == "q6" else cl2(v, ctx))
    return q


def r_vector(ang: DerivedAngles, ctx: PrecisionCtx) -> dict:
    """r1..r19: the unrounded Clausen values of the two mass-dependent integrals."""
    pi = ctx.pi
    angles = {
        "r1": ang.delta2 - ang.alpha4, "r2": ang.delta2 - ang.alpha3,
        "r3": ang.delta1 + ang.alpha3, "r4": ang.delta1 + ang.alpha4,
        "r5": ang.delta4 - ang.alpha4, "r6": ang.delta4 - ang.alpha3,
        "r7": ang.delta3 + ang.alpha3, "r8": ang.delta3 + ang.alpha4,
        "r9": 2 * ang.alpha6 - 2 * ang.delta7, "r10": 2 * ang.alpha7 - 2 * ang.delta7,
        "r11": 2 * ang.alpha7 - 2 * ang.alpha6, "r12": 2 * ang.alpha6 - 2 * ang.delta9,
        "r13": 2 * ang.alpha7 - 2 * ang.delta9, "r14": 2 * ang.alpha6 - 2 * ang.delta10,
        "r15": 2 * ang.alpha7 - 2 * ang.delta10, "r16": 2 * ang.alpha6 - 2 * ang.delta11,
        "r17": 2 * ang.alpha7 - 2 * ang.delta11, "r18": pi - 2 * ang.alpha6,
        "r19": pi - 2 * ang.alpha7,
    }
    return {k: (v, cl2(v, ctx)) for k, v in angles.items()}


def s_vector(ang: DerivedAngles, ctx: PrecisionCtx) -> dict:
    """s1..s8: the unrounded Clausen values of the eight-term closed form."""
    ph, pa, pb = ang.phi, ang.phi_a, ang.phi_b
    angles = {
        "s1": 4 * ph, "s2": 2 * pa + 2 * pb - 2 * ph, "s3": 2 * pa - 2 * ph,
        "s4": 2 * pb - 2 * ph, "s5": 2 * pa + 2 * pb - 4 * ph,
        "s6": 2 * pa, "s7": 2 * pb, "s8": 2 * ph,
    }
    return {k: (v, cl2(v, ctx)) for k, v in angles.items()}


# Relations discovered by integer-relation search on {r1..r19}; each maps a
# name to (coefficients over the named values).  All vanish identically on
# the whole region a^2 + b^2 < 4.
R_RELATIONS = (
    ("r2-r9", (("r2", 1), ("r9", -1))),
    ("r5-r11", (("r5", 1), ("r11", -1))),
    ("r4+r13", (("r4", 1), ("r13", 1))),
    ("r1-r15", (("r1", 1), ("r15", -1))),
    ("r8+r17", (("r8", 1), ("r17", 1))),
    ("r6-r18", (("r6", 1), ("r18", -1))),
)

RS_RELATIONS = (
    ("r3-s4", (("r3", 1), ("s4", -1))),
    ("r7+s2", (("r7", 1), ("s2", 1))),
    ("r9-s3", (("r9", 1), ("s3", -1))),
    ("r12+s7", (("r12", 1), ("s7", 1))),
    ("r16-s5", (("r16", 1), ("s5", -1))),
    ("r18-s8", (("r18", 1), ("s8", -1))),
    ("bridge", (("r10", -2), ("r11", -2), ("r14", -1), ("r15", 2), ("r19", -2),
                ("s1", -1), ("s6", 1), ("s8", 4))),
)

# Consequences of the duplication formula among the q values.
Q_RELATIONS = (
    ("q1-2q5+2q8", (("q1", 1), ("q5", -2), ("q8", 2))),
    ("q2-2q9+2q4", (("q2", 1), ("q9", -2), ("q4", 2))),
    ("q3-q6", (("q3", 1), ("q6", -1))),
)


def relation_residual(values: dict, combo) -> object:
    total = None
    for name, coeff in combo:
        term = coeff * values[name][1]
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# Closed forms of the four reduced integrals and of C(a,b).
# ---------------------------------------------------------------------------

# Each reduced integral is its prefactor (1/(4c) for I1, 1/(2c) for I2,
# 1/(2d) for I3 and I4) times an integer combination of q or r values.  The
# tables come from the paper's two log-trigonometric lemmas.  Lemma 1: with
# a cos x + b sin x + c = 2R sin((d2-x)/2) sin((d1+x)/2) and R^2 = a^2+b^2,
#     int_alpha^beta log(a cos x + b sin x + c) dx = (beta-alpha) log(R/2)
#         + Cl2(d2-beta) - Cl2(d2-alpha) + Cl2(d1+alpha) - Cl2(d1+beta).
# Lemma 2: for -pi/2 < delta <= alpha <= beta < pi/2,
#     int_alpha^beta log(tan x - tan delta) dx = (Cl2(2alpha-2delta)
#         - Cl2(2beta-2delta) + Cl2(pi-2alpha) - Cl2(pi-2beta))/2
#         - (beta-alpha) log(cos delta).
# I4 applies lemma 2 to the five linear factors of its integrand with
# weights +2,+1,+1,-1,-1 for delta7, delta8 = alpha6, delta9, delta10,
# delta11; the pure-log parts cancel identically and the 2alpha6-2delta8
# term is Cl2(0) = 0.
I_CLOSED = (
    ("I1", (("q1", -1), ("q2", 1), ("q3", 2))),
    ("I2", (("q4", -1), ("q5", 1), ("q6", -1), ("q7", -1), ("q8", 1), ("q9", -1),
            ("q10", 2), ("q11", -2), ("q12", 2), ("q13", -2))),
    ("I3", (("r1", 1), ("r2", -1), ("r3", 1), ("r4", -1), ("r5", -1), ("r6", 1),
            ("r7", -1), ("r8", 1))),
    ("I4", (("r9", 2), ("r10", -2), ("r11", -1), ("r12", 1), ("r13", -1), ("r14", -1),
            ("r15", 1), ("r16", -1), ("r17", 1), ("r18", 2), ("r19", -2))),
)

# The eight-term closed form of C(a,b) over the s values.
_C_CLOSED = (("s1", 1), ("s2", 1), ("s3", 1), ("s4", 1),
             ("s5", -1), ("s6", -1), ("s7", -1), ("s8", -1))


def closed_integrals(ang: DerivedAngles, values: dict, ctx: PrecisionCtx) -> dict:
    """The closed forms of those of I1..I4 whose Clausen values are in
    ``values`` (the q vector gives I1 and I2, the r vector I3 and I4), at
    working precision: callers round what they return, once."""
    scale = {"I1": 4 * ang.c, "I2": 2 * ang.c, "I3": 2 * ang.d, "I4": 2 * ang.d}
    return {name: 1 / scale[name] * relation_residual(values, combo)
            for name, combo in I_CLOSED if combo[0][0] in values}


def _c_from_s(ang: DerivedAngles, s: dict):
    return 8 / (ang.a * ang.b * ang.d) * relation_residual(s, _C_CLOSED)


# ---------------------------------------------------------------------------
# Quadrature forms of the four reduced integrals and the defining pair.
#
# All integrands contain sqrt(w^2+b^2-4) = sqrt(w^2-c^2); the finite panel
# [2, 2+b] is integrated in the shifted variable v = w - 2 and the
# semi-infinite one in v = w - (2+b), so that distances to the singular or
# boundary endpoint enter exactly.  Near w = 2 the arctanh argument tends to
# -1; arctanh is expanded as log((1+r)/(1-r))/2 with
#
#   1 + r = (A+B)/A,  A = w sqrt(S), B = w^2-4-2b,
#   A + B = (b+2)^2 v (v+4) / (A - B),
#
# which is exact up to rounding (A - B never cancels on the panel).
#
# Both integrands compute on raw mpf tuples with mpmath.libmp, each
# operation rounded to nearest at the working precision, in the order and
# association of the formulas below, so that they return exactly what the
# same formulas on mpf objects return.  Quantities fixed by b are hoisted.
# Finite panel, w = v + 2:
#
#   s = v(v+4) + b^2                 w^2 + b^2 - 4, v(v+4) formed once
#   root = sqrt(s),  A = w root,  B = v(v+4) - 2b,  D = A - B
#   L = log(((b+2)^2 v)(v+4) / (D D)) / 2       arctanh of the argument
#
# Tail panel, w = (v + 2) + b:
#
#   s = v(v + 2(2+b)) + (2b)(b+2)    w^2 + b^2 - 4
#   root = sqrt(s),  t = b / root
#   L = log(1 + (2t)/(1-t)) / 2                 arctanh(b/root), the sum exact
#                                               (1+t rounded loses log2(1/t) bits)
#
# and each returns, with W = w + a, the three weighted terms
#
#   L/(w root),  L/(W root),  L/((w root) W).
# ---------------------------------------------------------------------------

_TWO, _FOUR = from_int(2), from_int(4)


def _weighted(mp, atanh_term, w, a, root, prec):
    """The arctanh term over w, w+a and w(w+a), each times root (raw tuples
    in, mpfs of ``mp`` out)."""
    make = mp.make_mpf
    w_root = mpf_mul(w, root, prec, "n")
    w_a = mpf_add(w, a, prec, "n")
    return (make(mpf_div(atanh_term, w_root, prec, "n")),
            make(mpf_div(atanh_term, mpf_mul(w_a, root, prec, "n"), prec, "n")),
            make(mpf_div(atanh_term, mpf_mul(w_root, w_a, prec, "n"), prec, "n")))


def _finite_panel_integrand(a, b, ctx):
    """Integrand of the [2, 2+b] panel in v = w-2."""
    mp = ctx._mp
    prec = ctx.prec_work
    a_raw = a._mpf_
    bb = (b * b)._mpf_
    two_b = (2 * b)._mpf_
    bp2 = ((b + 2) ** 2)._mpf_

    def f(v):
        v = v._mpf_
        w = mpf_add(v, _TWO, prec, "n")
        v4 = mpf_add(v, _FOUR, prec, "n")
        vv4 = mpf_mul(v, v4, prec, "n")
        root = mpf_sqrt(mpf_add(vv4, bb, prec, "n"), prec, "n")
        diff = mpf_sub(mpf_mul(w, root, prec, "n"), mpf_sub(vv4, two_b, prec, "n"), prec, "n")
        ratio = mpf_div(mpf_mul(mpf_mul(bp2, v, prec, "n"), v4, prec, "n"),
                        mpf_mul(diff, diff, prec, "n"), prec, "n")
        # Halving a prec-bit value is exact: it equals the division by 2.
        term = mpf_shift(mpf_log(ratio, prec, "n"), -1)
        return _weighted(mp, term, w, a_raw, root, prec)

    return f


def _tail_panel_integrand(a, b, ctx):
    """Integrand of the [2+b, inf) panel in v = w-(2+b)."""
    mp = ctx._mp
    prec = ctx.prec_work
    a_raw = a._mpf_
    b_raw = b._mpf_
    k_lin = (2 * (2 + b))._mpf_
    k_const = (2 * b * (b + 2))._mpf_

    def f(v):
        v = v._mpf_
        w = mpf_add(mpf_add(v, _TWO, prec, "n"), b_raw, prec, "n")
        s_val = mpf_add(mpf_mul(v, mpf_add(v, k_lin, prec, "n"), prec, "n"), k_const, prec, "n")
        root = mpf_sqrt(s_val, prec, "n")
        t = mpf_div(b_raw, root, prec, "n")
        x = mpf_div(mpf_shift(t, 1), mpf_sub(fone, t, prec, "n"), prec, "n")
        term = mpf_shift(mpf_log(mpf_add(fone, x, 0), prec, "n"), -1)
        return _weighted(mp, term, w, a_raw, root, prec)

    return f


def _sweep(a, b, ctx: PrecisionCtx, tol):
    """``(finite, tail, direct)``: each panel integrated once to ``tol`` with
    the weights 1/w, 1/(w+a), 1/(w(w+a)), and C(a,b) from the last weight."""
    prefactor = 16 / b
    finite = integrate(_finite_panel_integrand(a, b, ctx), (0, b), tol, ctx)
    tail = integrate(_tail_panel_integrand(a, b, ctx), (0, ctx.inf), tol, ctx)
    value = -prefactor * (finite[2].value + tail[2].value)
    # The panel estimates cover the panels' rounding to ``digits``; this adds
    # the rounding of C itself, at most u relative.
    u = ctx._mp.mpf(2) ** -ctx.prec_out
    err = prefactor * (finite[2].error_estimate + tail[2].error_estimate) + u * abs(value)
    return finite, tail, QuadratureResult(round_out(value, ctx), round_out(err, ctx),
                                          finite.evaluations + tail.evaluations,
                                          max(finite.levels, tail.levels))


def c_direct(m: MassPair, tol, ctx: PrecisionCtx) -> QuadratureResult:
    """C(a,b) by quadrature of the defining pair of integrals, to ``tol`` > 0,
    else QuadratureError (the panel tolerance clamps at the quadrature floor,
    and small b inflates the 16/b prefactor)."""
    a, b = ctx.mpf(m.a), ctx.mpf(m.b)
    _validate_region(a, b, ctx)
    tol = ctx.mpf(tol)
    if not tol > 0:
        raise ValueError("tol must be positive, got %s" % tol)
    panel_tol = max(tol / (2 * (16 / b)), ctx.pow10(-ctx.digits + 5))
    direct = _sweep(a, b, ctx, panel_tol)[2]
    if direct.error_estimate > tol:
        raise QuadratureError(
            "combined panel error %s exceeds requested tol; raise digits"
            % to_decimal(direct.error_estimate, ctx), result=direct)
    return direct


def c_closed(m: MassPair, ctx: PrecisionCtx):
    """C(a,b) from the eight-term Clausen closed form, rounded once, after the sum."""
    ang = derive(m, ctx)
    return round_out(_c_from_s(ang, s_vector(ang, ctx)), ctx)


# ---------------------------------------------------------------------------
# Stepwise reduction report.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepReport:
    """Everything the reduction chain produces for one mass pair.

    Each Clausen value is computed once, in the q, r and s vectors.  Their
    sums ``i_closed`` (by :data:`I_CLOSED`), ``closed`` (``c_closed``'s eight
    terms) and ``c_from_steps`` keep working precision; each value is rounded once.
    """

    angles: DerivedAngles
    i_quad: dict          # name -> QuadratureResult
    i_closed: dict        # name -> mpf
    q: dict               # name -> (angle, value)
    r: dict
    s: dict
    c_from_steps: object  # 16/(ab) (I3+I4), closed forms
    closed: object        # C(a,b) from the eight-term closed form over s
    direct: QuadratureResult  # C(a,b) from the defining integrals, same sweep
    i1_plus_i2_closed: object
    i1_plus_i2_quad: object
    match_residuals: dict  # name -> |closed - quad|
    tol: object           # check tolerance 10^(-digits+10)


def stepwise(m: MassPair, ctx: PrecisionCtx) -> StepReport:
    """Evaluate I1..I4 by quadrature and closed form, with the q/r/s vectors.

    Two values agree when they differ by less than ``report.tol`` =
    10^(-digits+10) plus the error estimate of any quadrature among them.
    The sweep integrates I1..I4 to a quarter of it and gives ``report.direct``,
    C(a,b) from the defining integrals.  ``report.closed`` equals
    ``c_closed(m, ctx)``, summed from the s vector.  Raises
    :class:`RouteMismatchError` naming the integral if a closed form and its
    quadrature do not agree.
    """
    ang = derive(m, ctx)
    a, b = ang.a, ang.b
    tol = ctx.pow10(-ctx.digits + 10)
    finite, tail, direct = _sweep(a, b, ctx, tol / 4)
    i_quad = {"I1": tail[0], "I2": finite[0], "I3": tail[1], "I4": finite[1]}
    q, r, s = q_vector(ang, ctx), r_vector(ang, ctx), s_vector(ang, ctx)
    i_closed = closed_integrals(ang, {**q, **r}, ctx)

    residuals = {}
    for name in ("I1", "I2", "I3", "I4"):
        diff = abs(i_closed[name] - i_quad[name].value)
        residuals[name] = round_out(diff, ctx)
        if diff > tol + i_quad[name].error_estimate:
            raise RouteMismatchError(name, i_closed[name], i_quad[name].value,
                                     diff, tol)

    closed = round_out(_c_from_s(ang, s), ctx)
    q, r, s = ({k: (angle, round_out(v, ctx)) for k, (angle, v) in vec.items()}
               for vec in (q, r, s))
    return StepReport(
        angles=ang,
        i_quad=i_quad,
        i_closed={name: round_out(v, ctx) for name, v in i_closed.items()},
        q=q,
        r=r,
        s=s,
        c_from_steps=round_out(16 / (a * b) * (i_closed["I3"] + i_closed["I4"]), ctx),
        closed=closed,
        direct=direct,
        i1_plus_i2_closed=round_out(i_closed["I1"] + i_closed["I2"], ctx),
        i1_plus_i2_quad=round_out(i_quad["I1"].value + i_quad["I2"].value, ctx),
        match_residuals=residuals,
        tol=tol,
    )

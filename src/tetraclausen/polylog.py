"""Clausen function and dilogarithm.

The Clausen function is evaluated from the integrated cotangent expansion

    Cl2(t) = t - t*log(t) + sum_{k>=1} |B_2k| / (2k (2k+1) (2k)!) * t^(2k+1)

after reduction to [0, pi] by oddness and periodicity.  The reduction is
mpmath's ``mod_pi2``, the one behind its sine and cosine: it writes |theta|
as n pi/2 + r on integers and raises its precision until r keeps its
significant bits next to a multiple of pi/2, so the value keeps them next to
its zeros k pi.  Above 2pi/3 the duplication formula
Cl2(pi - x) = Cl2(x) - Cl2(2x)/2 turns the expansion into one about pi with
no logarithm, whose ratio, like the first one's below 2pi/3, stays under
1/7.  Both are summed in fixed point: Python integers scaled by 2^P, with
P = 20 bits beyond the working precision, in the form

    Cl2(t) = t (1 - log t + sum_{k>=1} d_k X^k),   X = (t/2pi)^2,
    Cl2(pi - x) = x (log 2 - sum_{k>=1} d_k (4^k - 1) X^k),   X = (x/2pi)^2,
    d_k = |B_2k| (2pi)^2k / (2k (2k+1) (2k)!) = zeta(2k) / (k (2k+1)).

The (2pi)^2k scaling is what makes fixed point safe.  Unscaled, the
coefficients fall like (2pi)^-2k, so at a fixed binary point they would keep
ever fewer significant bits, while the powers of t grow up to (2pi/3)^2k.
Scaled, every d_k lies in (0, pi^2/18], and every X^k, like every
(4^k - 1) X^k with x < pi/3, is at most 9^-k.  The coefficients are built
from mpmath's Bernoulli numbers (``bernfrac``, which reconstructs each B_2k
from a numerical value by the von Staudt-Clausen theorem) and rounded once
per fixed-point precision into a cached table; the log term and the final
product are single mpf operations.

A second, independent evaluation route, :func:`cl2_series_reference`, sums
the defining series sum sin(n t)/n^2 directly and completes it with the
exact Laplace-transform tail

    sum_{n>M} z^n/n^2 = integral_0^inf  s (z e^-s)^(M+1) / (1 - z e^-s) ds,

evaluated by quadrature.  Every term is 2pi-periodic, so it sums at theta
itself, without reduction; it shares nothing with the primary route past
elementary functions and serves as its cross-check oracle.  Its error is
at most 10^-digits absolute, not relative; too near 2pi k it raises DomainError.

The dilogarithm sums one series on the same table, in w = -log(1-z)
('t Hooft & Veltman, Nucl. Phys. B153 (1979) 365): B_2k w^2k/((2k)! (2k+1))
is -2k d_k Y^k, so

    Li2(z) = w (1 - w/4 - sum_{k>=1} 2k d_k Y^k),   Y = -(w/2pi)^2,

in fixed point at the same P, on two integers for complex w.  w comes from
``log1p``, so a tiny |z| keeps its relative precision.  Arguments with |z| > 1
are inverted and those with |1-z| <= 1/2 reflected to 1-z, whose w is -log z;
then |w| < 1.49 (log 2 after the reflection) and |Y| < 0.057, while
2k d_k = 2 zeta(2k)/(2k+1) falls from 2 zeta(2)/3 < 1.1, so fixed point is as
safe as for Cl2.  Each term is below 0.057 of the one before, so stopping at
the first below 2^-(prec+4) in both parts leaves a tail under 1/16 of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import libmp
from mpmath.libmp import libelefun

from .mpcore import DomainError, PrecisionCtx, get_ctx, round_out
from . import quad

__all__ = [
    "cl2",
    "cl2_series_reference",
    "li2",
    "bernoulli_over_factorial",
]


@lru_cache(maxsize=None)
def bernoulli_over_factorial(m: int) -> Fraction:
    """Exact B_m / m! (with B_1 = -1/2)."""
    return Fraction(*mpmath.bernfrac(m)) / math.factorial(m)


# Clausen coefficients d_k * 2^fixed per fixed-point precision, summed by cl2
# and li2.  A table is a tuple, grown by publishing a longer one in one dict
# assignment: a concurrent reader sees the old table or the new, and two
# threads growing one at once only repeat work that gives identical entries.
_CL2_TABLE: dict = {}


def _cl2_table(fixed: int, n: int):
    """Integers d[k] * 2^fixed, rounded, for k = 1..n (d_k in the module doc)."""
    table = _CL2_TABLE.get(fixed, ())
    if len(table) < n:
        wp = fixed + 20
        two_pi_sq = libmp.mpf_shift(libmp.mpf_mul(libmp.mpf_pi(wp), libmp.mpf_pi(wp), wp), 2)
        more = []
        for k in range(len(table) + 1, n + 1):
            c = abs(bernoulli_over_factorial(2 * k)) / (2 * k * (2 * k + 1))
            num = libmp.mpf_mul(libmp.mpf_pow_int(two_pi_sq, k, wp, "n"),
                                libmp.from_int(c.numerator, wp, "n"), wp, "n")
            d = libmp.mpf_div(num, libmp.from_int(c.denominator, wp, "n"), wp, "n")
            more.append(libmp.to_int(libmp.mpf_shift(d, fixed), "n"))
        table = _CL2_TABLE[fixed] = table + tuple(more)
    return table


# ---------------------------------------------------------------------------
# Clausen function.
# ---------------------------------------------------------------------------

def _cl2_series(t, prec: int, near_pi: bool):
    """Cl2(t) for t in (0, 2pi/3], or Cl2(pi - t) for t in (0, pi/3) when
    ``near_pi``, on the raw mpf t, summed in fixed point (module doc)."""
    fixed = prec + 20
    pi = libmp.pi_fixed(fixed)
    tf = libmp.to_fixed(t, fixed)
    # X = (t/2pi)^2, or 4X near pi, where term k is d_k ((4X)^k - X^k): X^k
    # comes from (4X)^k by a shift, since a power of X carried on its own
    # would lose bits that the weight 4^k then magnifies.
    x = (tf * tf << fixed) // (pi * pi if near_pi else 4 * pi * pi)
    # Stop once a term is below 2^-(prec+4); each term is below 1/7 of the one
    # before, so the rest sum to less than 1/6 of it.
    stop = 1 << (fixed - prec - 4)
    table = _CL2_TABLE.get(fixed, ())
    power = x
    total = 0
    k = 0
    while True:
        if k == len(table):
            table = _cl2_table(fixed, k + 16)
        term = table[k] * (power - (power >> 2 * k + 2) if near_pi else power) >> fixed
        total += term
        if term < stop:
            break
        power = power * x >> fixed
        k += 1
    if near_pi:
        # Cl2(pi - t) = t (log 2 - total); the factor lies in [0.64, log 2].
        u = libmp.from_man_exp(libmp.ln2_fixed(fixed) - total, -fixed)
    else:
        # Cl2(t) = t (1 - log t + total); 1 - log t >= 1 - log(2pi/3) > 1/4.
        u = libmp.mpf_sub(libmp.from_man_exp(total + (1 << fixed), -fixed),
                          libmp.mpf_log(t, fixed, "n"), fixed, "n")
    return libmp.mpf_mul(t, u, prec, "n")


def _cl2(theta, ctx: PrecisionCtx):
    """:func:`cl2` unrounded, at working precision: sums of it round once.

    Reduces |theta| with ``mod_pi2`` and sums the expansion about 0 up to
    2pi/3 and the one about pi beyond it (module doc).
    """
    theta = theta if isinstance(theta, ctx._mp.mpf) else ctx.mpf(theta)
    if not ctx.isfinite(theta):
        raise DomainError("cl2 requires a finite angle")
    sign, man, exp, bc = theta._mpf_
    if not man:
        return ctx._mp.mpf(0)
    prec = ctx.prec_work
    # |theta| = n pi/2 + r on integers scaled by 2^wp.  mod_pi2 raises wp until
    # the distance from |theta| to the nearest multiple of pi/2 keeps prec
    # significant bits, so neither t nor pi - t below loses one.
    r, n, wp = libelefun.mod_pi2(man, exp, exp + bc, prec + 10)
    pi = libmp.pi_fixed(wp)
    t = r + (pi >> 1 if n & 1 else 0)               # |theta| = h pi + t, h = n // 2
    if n & 2:
        t = pi - t                                  # Cl2(h pi + t) = -Cl2(pi - t), h odd
    near_pi = 3 * t > 2 * pi
    value = _cl2_series(libmp.from_man_exp(pi - t if near_pi else t, -wp), prec, near_pi)
    if sign ^ (n >> 1 & 1):
        value = libmp.mpf_neg(value)
    return ctx._mp.make_mpf(value)


def cl2(theta, ctx: PrecisionCtx):
    """Clausen function Cl2(theta) = -int_0^theta log|2 sin(u/2)| du.

    Odd and 2pi-periodic; defined for any finite real angle.  Rounded to ``digits``.
    """
    return round_out(_cl2(theta, ctx), ctx)


def cl2_series_reference(theta, ctx: PrecisionCtx, terms: int = 256):
    """Independent Cl2 evaluation: partial sum of sin(n t)/n^2 plus exact tail.

    The first ``terms`` terms are summed directly (stable three-term sine
    recurrence); the remainder is the imaginary part of the Laplace-transform
    integral of the tail, computed by double-exponential quadrature with its
    own error control.  Intended as a cross-check oracle for :func:`cl2`, to
    10^-digits absolute; theta too near a multiple of 2pi raises DomainError.
    """
    theta = theta if isinstance(theta, ctx._mp.mpf) else ctx.mpf(theta)
    if theta == 0:
        return round_out(ctx.mpf(0), ctx)
    # Every term is 2pi-periodic, so the sum runs at theta itself; hi carries
    # 10 digits more than theta, so (M+1) theta in the tail stays exact.
    hi = get_ctx(ctx.digits + 10, ctx.guard_digits)
    mp = hi._mp
    t = hi.mpf(theta)

    M = max(8, terms)
    cos_t = hi.cos(t)
    sin_t = hi.sin(t)
    two_cos = 2 * cos_t
    s_prev = mp.mpf(0)
    s_cur = sin_t
    partial = sin_t
    for n in range(2, M + 1):
        s_prev, s_cur = s_cur, two_cos * s_cur - s_prev
        partial += s_cur / (n * n)

    tol = hi.pow10(-(ctx.digits + 5))
    try:
        tail = quad.integrate(_cl2_tail_integrand(t, cos_t, sin_t, M, hi), (0, hi.inf), tol, hi)
    except quad.QuadratureError as exc:
        raise DomainError("cl2_series_reference: theta = %s is too close to a multiple "
                          "of 2pi: %s" % (mp.nstr(theta, 8), exc)) from exc
    return round_out(ctx.mpf(partial + tail.value), ctx)


@lru_cache(maxsize=1 << 14)
def _cl2_tail_factors(u, m1: int, prec: int):
    """e = exp(-u/m1), e e and u exp(-u) of :func:`_cl2_tail_integrand`."""
    mul, exp, neg_u = libmp.mpf_mul, libmp.mpf_exp, libmp.mpf_neg(u)
    e = exp(libmp.mpf_div(neg_u, libmp.from_int(m1), prec, "n"), prec, "n")
    return e, mul(e, e, prec, "n"), mul(u, exp(neg_u, prec, "n"), prec, "n")


def _cl2_tail_integrand(t, cos_t, sin_t, M, hi: PrecisionCtx):
    """Integrand of the tail sum_{n>M} sin(n t)/n^2 in cl2_series_reference.

    Tail = Im sum_{n>M} e^{i n t}/n^2 = Im e^{i(M+1)t} int_0^inf
      s e^{-(M+1)s} / (1 - e^{it} e^{-s}) ds.  Substituting s = u/(M+1)
    brings the mass to u ~ 1 where the exp-sinh grid is dense; taking the
    imaginary part analytically keeps the integrand real.

    It computes on raw mpf tuples, each operation rounded to nearest at
    ``hi``'s working precision in the association written here:
      e = exp(-u/(M+1)),  num = sin_mt (1 - e cos_t) + cos_mt (e sin_t),
      den = (1 - two_cos e) + e e,  value = ((u exp(-u)) num) / ((den (M+1)) (M+1)),
    with two_cos = 2 cos_t and mt = (M+1) t.  The angle-free e, e e and u exp(-u)
    at the quadrature's cached nodes u come from :func:`_cl2_tail_factors`, an
    ``lru_cache`` of at most 2^14 entries keyed by (raw u, M+1, working bits).
    """
    mp = hi._mp
    prec = hi.prec_work
    mt = (M + 1) * t
    sin_mt, cos_mt = hi.sin(mt)._mpf_, hi.cos(mt)._mpf_
    cos_r, sin_r, two_cos = cos_t._mpf_, sin_t._mpf_, (2 * cos_t)._mpf_
    mp1 = libmp.from_int(M + 1)
    mul, add, sub, div, one = (libmp.mpf_mul, libmp.mpf_add, libmp.mpf_sub,
                               libmp.mpf_div, libmp.fone)

    def tail_integrand(u):
        e, e_sq, u_exp = _cl2_tail_factors(u._mpf_, M + 1, prec)
        num = add(mul(sin_mt, sub(one, mul(e, cos_r, prec, "n"), prec, "n"), prec, "n"),
                  mul(cos_mt, mul(e, sin_r, prec, "n"), prec, "n"), prec, "n")
        den = add(sub(one, mul(two_cos, e, prec, "n"), prec, "n"), e_sq, prec, "n")
        value = div(mul(u_exp, num, prec, "n"),
                    mul(mul(den, mp1, prec, "n"), mp1, prec, "n"), prec, "n")
        return mp.make_mpf(value)

    return tail_integrand


# ---------------------------------------------------------------------------
# Dilogarithm.
# ---------------------------------------------------------------------------

def _li2_log_series(w, ctx: PrecisionCtx):
    """Li2(z) from w = -log(1-z), |w| < 1.49, summed on the Clausen table (module doc)."""
    mp = ctx._mp
    prec = ctx.prec_work
    fixed = prec + 20
    real = isinstance(w, mp.mpf)
    a, b = (libmp.to_fixed(p, fixed) for p in ((w._mpf_, libmp.fzero) if real else w._mpc_))
    four_pi_sq = 4 * libmp.pi_fixed(fixed) ** 2
    yr, yi = ((b * b - a * a) << fixed) // four_pi_sq, (-2 * a * b << fixed) // four_pi_sq
    stop = 1 << (fixed - prec - 4)
    table = _CL2_TABLE.get(fixed, ())
    pr, pim, sr, si = yr, yi, 0, 0          # Y^(k+1) and the sum so far, two ints each
    k = 0
    while True:
        if k == len(table):
            table = _cl2_table(fixed, k + 16)
        c = 2 * (k + 1) * table[k]
        tr, ti = c * pr >> fixed, c * pim >> fixed
        sr, si = sr + tr, si + ti
        if abs(tr) < stop and abs(ti) < stop:
            break
        pr, pim = (pr * yr - pim * yi) >> fixed, (pr * yi + pim * yr) >> fixed
        k += 1
    # w (1 - w/4 - sum); the factor in parentheses has modulus above 1/2.
    re, im = (libmp.from_man_exp(v, -fixed)
              for v in ((1 << fixed) - (a >> 2) - sr, -(b >> 2) - si))
    if real:
        return mp.make_mpf(libmp.mpf_mul(w._mpf_, re, prec, "n"))
    return mp.make_mpc(libmp.mpc_mul(w._mpc_, (re, im), prec, "n"))


def _li2_main(z, ctx: PrecisionCtx):
    mp = ctx._mp
    if z == 0:
        return mp.mpf(0)
    if z == 1:
        return ctx.pi ** 2 / 6
    if abs(z) > 1:
        # Inversion: Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2/2 (principal
        # branch; real z > 1 arrives as mpc and lands on the standard cut
        # values with Im Li2 = -pi*log z).
        logterm = ctx.log(-z)
        return -_li2_main(1 / z, ctx) - ctx.pi ** 2 / 6 - logterm ** 2 / 2
    if abs(1 - z) <= mp.mpf(1) / 2:
        # Reflection: Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z), where
        # log z = -w, w = -log1p(z-1) being the series variable of 1-z.
        w = -mp.log1p(z - 1)
        return ctx.pi ** 2 / 6 + w * ctx.log(1 - z) - _li2_log_series(w, ctx)
    return _li2_log_series(-mp.log1p(-z), ctx)


def _li2(z, ctx: PrecisionCtx):
    """:func:`li2` unrounded, at working precision: sums of it round once."""
    mp = ctx._mp
    if isinstance(z, (int, float, Fraction)):
        z = ctx.mpf(z)
    if isinstance(z, complex):
        z = ctx.mpc(z.real, z.imag)
    if isinstance(z, mp.mpf) and z > 1:
        z = mp.mpc(z)
    elif isinstance(z, mp.mpc) and z.imag == 0 and z.real <= 1:
        z = z.real
    if not ctx.isfinite(z):
        raise DomainError("li2 requires a finite argument")
    return _li2_main(z, ctx)


def li2(z, ctx: PrecisionCtx):
    """Principal-branch dilogarithm sum z^n/n^2, real or complex argument.

    Real arguments z <= 1 give a real result; real z > 1 lie on the branch
    cut and return the standard complex continuation with
    Im Li2(z) = -pi*log(z).  Rounded to ``digits``.
    """
    return round_out(_li2(z, ctx), ctx)

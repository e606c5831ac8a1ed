"""Independent numeric oracles used by the test suite.

These deliberately share no code with the implementation paths they check:
Catalan's constant comes from Chebyshev-accelerated summation of the
defining alternating series, brute-force series evaluators are written
directly from the definitions, and C(a,b) is summed on mpmath's own Clausen
function.
"""

import mpmath

from tetraclausen.mpcore import PrecisionCtx


def catalan_alternating(ctx: PrecisionCtx):
    """Catalan = sum_{k>=0} (-1)^k/(2k+1)^2 by Chebyshev acceleration.

    Cohen-Rodriguez Villegas-Zagier algorithm 1: for a totally monotone term
    sequence the error after n steps is below (3+sqrt(8))^-n, so n is chosen
    for a tail under 10^-(digits+6).
    """
    mp = ctx._mp
    n = int((ctx.digits + 8) / 0.7645) + 3
    d = (3 + ctx.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b = mp.mpf(-1)
    c = -d
    total = mp.mpf(0)
    for k in range(n):
        c = b - c
        total += c / (2 * k + 1) ** 2
        b = (k + n) * (k - n) * b / ((k + mp.mpf(1) / 2) * (k + 1))
    return total / d


def li2_brute(x, ctx: PrecisionCtx, terms=4000):
    """Defining dilogarithm series, no transformations; needs |x| well below 1."""
    mp = ctx._mp
    total = mp.mpf(0)
    power = mp.mpf(1)
    for n in range(1, terms + 1):
        power *= x
        total += power / (n * n)
    return total


def c_eight_term(a, b, digits):
    """C(a,b) by the eight-term Clausen closed form at ``digits`` + 30 digits,
    in mpmath alone: Cl2 is ``mpmath.clsin(2, .)``, the angles are
    phi = atan(d/p), phi_a = atan(d/a), phi_b = atan(d/b)."""
    mp = mpmath.MPContext()
    mp.dps = digits + 30
    a, b = mp.mpf(a), mp.mpf(b)
    d = mp.sqrt(4 - a * a - b * b)
    ph, pa, pb = mp.atan(d / (a + b + 2)), mp.atan(d / a), mp.atan(d / b)

    def cl(t):
        return mp.clsin(2, t)

    total = (cl(4 * ph) + cl(2 * pa + 2 * pb - 2 * ph) + cl(2 * pa - 2 * ph)
             + cl(2 * pb - 2 * ph) - cl(2 * pa + 2 * pb - 4 * ph)
             - cl(2 * pa) - cl(2 * pb) - cl(2 * ph))
    return 8 / (a * b * d) * total

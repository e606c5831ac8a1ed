"""Integer-relation detection for vectors of high-precision reals.

The classic PSLQ iteration (Ferguson, Bailey & Arno, Math. Comp. 68
(1999) 351-369: Hermite reduction of the lower-trapezoidal H matrix with
gamma = sqrt(4/3) row selection) keeps the integer change-of-basis matrix
exact.  The partial sums, the normalized y and the initial H are formed on
mpf; the iteration then runs on Python ints scaled by 2^P, where P =
prec_work + 30 guard bits + max(mag x) - min(mag x), so the smallest
normalized entry keeps prec_work + 30 bits.  Confirmation, canonical form,
norm test and exclusion bound stay on mpf.  A run terminates in one of
three ways:

* ``found``      -- some normalized residual dropped below the detection
                    threshold 10^(-0.7*digits), and the candidate coefficient
                    vector re-checks at 20 extra digits and has Euclidean
                    norm at most ``max_norm``;
* ``none_found`` -- the iteration certifies that no relation with Euclidean
                    norm below ``max_norm`` exists (exclusion bound
                    1/max|H_jj| exceeded it);
* error          -- precision was exhausted before either verdict, raised as
                    :class:`InsufficientPrecision` (never conflated with a
                    no-relation verdict), also after rejecting a relation
                    above ``max_norm``.

Detection applies to the scale-normalized vector x/|x|, so the verdict and
coefficients are invariant under multiplying every input by one constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import libmp

from .mpcore import PrecisionCtx, get_ctx, round_out

__all__ = [
    "RelationResult",
    "InsufficientPrecision",
    "find_relation",
    "check_relation",
    "read_value_file",
    "DETECTION_EXPONENT",
]

# Threshold exponent: a relation is detected at 10^(-0.7*digits).
DETECTION_EXPONENT = 0.7

# Bits beyond working precision (and the input spread) of the fixed-point scale.
_GUARD_BITS = 30


class InsufficientPrecision(ArithmeticError):
    """Iteration exhausted the working precision without reaching a verdict."""


@dataclass(frozen=True)
class RelationResult:
    """Outcome of an integer-relation search.

    ``found`` results carry canonical coefficients (content 1, first nonzero
    coefficient positive) and the residual |sum coeffs*x|.  ``none_found``
    results carry an exclusion bound: no integer relation with Euclidean norm
    below it exists for the given vector.  ``iterations`` counts main-loop
    iterations (0 when the initial reduction already decides).
    """

    status: str                      # "found" | "none_found"
    coeffs: tuple | None
    residual: object | None
    exclusion_bound: object | None
    iterations: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


def _canonical(coeffs):
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g > 1:
        coeffs = [c // g for c in coeffs]
    for c in coeffs:
        if c:
            if c < 0:
                coeffs = [-c for c in coeffs]
            break
    return tuple(coeffs)


def check_relation(coeffs, xs, ctx: PrecisionCtx):
    """|sum coeffs[i]*xs[i]| at working precision."""
    if len(coeffs) != len(xs):
        raise ValueError("coefficient and value vectors differ in length")
    total = ctx._mp.mpf(0)
    for c, x in zip(coeffs, xs):
        total += int(c) * ctx.mpf(x)
    return round_out(abs(total), ctx)


def find_relation(xs, max_norm, ctx: PrecisionCtx, max_iterations: int | None = None) -> RelationResult:
    """Search for an integer relation among ``xs`` (length >= 2, all nonzero).

    ``max_norm`` (> 0) bounds the Euclidean norm of relations of interest: the
    search reports ``none_found`` once it can certify no relation with norm
    below ``max_norm`` exists, and never reports one above it as ``found``.
    """
    mp = ctx._mp
    n = len(xs)
    if n < 2:
        raise ValueError("need at least 2 values")
    x = [ctx.mpf(v) for v in xs]
    if any(v == 0 for v in x):
        raise ValueError("all values must be nonzero at working precision")
    max_norm = ctx.mpf(max_norm)
    if not max_norm > 0:
        raise ValueError("max_norm must be positive, got %s" % max_norm)

    tol = ctx.pow10(-int(DETECTION_EXPONENT * ctx.digits))
    if max_iterations is None:
        max_iterations = 2000 + 120 * n * n + 20 * n * ctx.digits

    # Initialization (partial sums of squares, normalized y, H matrix).
    s = [mp.mpf(0)] * (n + 1)
    acc = mp.mpf(0)
    for k in range(n, 0, -1):
        acc += x[k - 1] * x[k - 1]
        s[k] = acc
    s = [mp.mpf(0)] + [ctx.sqrt(v) for v in s[1:]]
    t = s[1]
    y = [mp.mpf(0)] + [v / t for v in x]
    s = [mp.mpf(0)] + [v / t for v in s[1:]]

    H = [[mp.mpf(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        if i <= n - 1:
            H[i][i] = s[i + 1] / s[i]
        for j in range(1, i):
            H[i][j] = -y[i] * y[j] / (s[j] * s[j + 1])

    # From here on y, H and the thresholds are integers scaled by 2^P.
    mags = [mp.mag(v) for v in x]
    P = ctx.prec_work + _GUARD_BITS + max(mags) - min(mags)
    y = [libmp.to_fixed(v._mpf_, P) for v in y]
    H = [[libmp.to_fixed(v._mpf_, P) for v in row] for row in H]
    tol_fixed = libmp.to_fixed(tol._mpf_, P)
    noise_floor = libmp.to_fixed(ctx.pow10(-(ctx.work_dps - 3))._mpf_, P)
    gamma = libmp.sqrt_fixed((4 << P) // 3, P)
    g_pows = [None] + [gamma ** i >> P * (i - 1) for i in range(1, n)]

    # Exact integer relations: rel[i] is the integer combination of x whose
    # residual is y[i]*t (rel[0] is unused, like y[0] and H[0]).
    rel = [[int(k == i) for k in range(1, n + 1)] for i in range(n + 1)]

    # Hermite reduction of rows first_row..n over columns <= min(i-1, last_col).
    # H_jj starts positive (s_{j+1}/s_j): a zero means precision ran out.
    def hermite_reduce(first_row, last_col):
        for i in range(first_row, n + 1):
            for j in range(min(i - 1, last_col), 0, -1):
                a, b = H[i][j], H[j][j]
                if b == 0:
                    raise InsufficientPrecision("H developed a zero diagonal")
                q = (2 * a + b) // (2 * b)      # floor(a/b + 1/2) for either sign of b
                if q:
                    y[j] += q * y[i]
                    row_i, row_j = H[i], H[j]
                    for k in range(1, j + 1):
                        row_i[k] -= q * row_j[k]
                    rel[j] = [u + q * v for u, v in zip(rel[j], rel[i])]

    def detect(it):
        """The first relation rel[i] with |y_i| < tol that has norm at
        most max_norm and re-checks at 20 extra digits."""
        y_min = min(abs(y[i]) for i in range(1, n + 1))
        if y_min >= tol_fixed:
            return None
        rejected = []   # norms of candidates above max_norm
        for i in range(1, n + 1):
            if abs(y[i]) >= tol_fixed:
                continue
            vec = _canonical(rel[i])
            if not any(vec):
                continue
            norm = ctx.sqrt(ctx.mpf(sum(c * c for c in vec)))
            if norm > max_norm:
                rejected.append(norm)
                continue
            resid = check_relation(vec, x, get_ctx(ctx.digits + 20, ctx.guard_digits))
            if resid < tol * t:
                return RelationResult("found", vec, round_out(ctx.mpf(resid), ctx), None, it)
        if y_min < noise_floor:
            raise InsufficientPrecision(
                "residual at the noise floor; rejected a relation of norm %s above"
                " max_norm" % mp.nstr(min(rejected), 6) if rejected else
                "residual at the noise floor but candidate failed confirmation")
        return None

    # The full initial reduction may already expose a relation.
    hermite_reduce(2, n)
    res = detect(0)
    if res is not None:
        return res

    for it in range(1, max_iterations + 1):
        # Row selection: maximize gamma^i |H_ii|.
        m_row = 1
        best = 0
        for i in range(1, n):
            size = g_pows[i] * abs(H[i][i])
            if size > best:
                best = size
                m_row = i
        # Swap entries m, m+1.
        for v in (y, H, rel):
            v[m_row], v[m_row + 1] = v[m_row + 1], v[m_row]
        # Corner transformation.
        if m_row <= n - 2:
            h_mm, h_mm1 = H[m_row][m_row], H[m_row][m_row + 1]
            t0 = math.isqrt(h_mm * h_mm + h_mm1 * h_mm1)
            if t0 == 0:
                raise InsufficientPrecision("H developed a zero corner")
            c0, s0 = (h_mm << P) // t0, (h_mm1 << P) // t0
            for row in H[m_row:]:
                a_, b_ = row[m_row], row[m_row + 1]
                row[m_row], row[m_row + 1] = (c0 * a_ + s0 * b_) >> P, (c0 * b_ - s0 * a_) >> P
        hermite_reduce(m_row + 1, m_row + 1)
        res = detect(it)
        if res is not None:
            return res
        # Exclusion bound: every relation has norm >= 1/max|H_jj|.
        h_max = max(abs(H[j][j]) for j in range(1, n))
        if h_max == 0:
            raise InsufficientPrecision("H diagonal vanished")
        bound = mp.mpf(1 << P) / h_max
        if bound > max_norm:
            return RelationResult("none_found", None, None, round_out(bound, ctx), it)

    raise InsufficientPrecision(
        "no verdict after %d iterations at %d digits" % (max_iterations, ctx.digits))


def read_value_file(path, ctx: PrecisionCtx):
    """Read one decimal value per line; '#' starts a comment; blanks ignored."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(ctx.mpf(line))
            except ValueError as exc:
                raise ValueError("%s:%d: not a decimal number: %r" % (path, lineno, line)) from exc
    return values

"""Adaptive double-exponential quadrature.

Finite intervals use the tanh-sinh rule ``x = mid + halfw*tanh(pi/2*sinh t)``,
semi-infinite intervals ``[lo, inf)`` the exp-sinh rule
``x = lo + exp(pi/2*sinh t)``.  Both tolerate integrable endpoint
singularities (logarithmic, or algebraic ``(x-endpoint)^-s`` with ``s < 1``)
because the weights decay double-exponentially toward the endpoints.

Abscissas are strictly interior: nodes are generated from the stable
endpoint-offset form ``1 - |tanh(g)| = 2/(exp(2g)+1)``, so a node's distance
to the nearest endpoint is accurate in relative terms even when it is far
below one ulp of the endpoint itself, and the integrand is never evaluated
exactly at ``lo`` or ``hi``.

Levels halve the mesh and reuse previous abscissas.  Level m >= 2 is
accepted when every component's ``d_m = |S_m - S_(m-1)|`` is below ``tol/2``,
and level m >= 3 already when every component's extrapolated error
``10 d_m^2 / d_(m-1)`` is below ``tol/2`` and ``d_(m-1) <= 1e-10 (1 + |S_m|)``,
so that the sums converge quadratically (Bailey, Jeyabalan & Li, Exp. Math.
14 (2005) 317-329).  The error estimate is that d_m or extrapolation, floored
for rounding at working precision and for the tail cut-off, plus the
rounding of the value to ``digits``.  Both rules share one t grid per level;
each (precision, level) pair's nodes are built once and kept by a bounded
``functools.lru_cache``.

An integrand may return a tuple of reals; its components then share the
nodes and the node loop, and convergence and the tail cut-off wait for the
slowest one.  A scalar integrand is the one-component case of that loop.

The node loops compute on mpmath's raw ``_mpf_`` tuples through
``mpmath.libmp``, every operation rounded to nearest, and wrap each
abscissa into an mpf once and unwrap the integrand's results once per
evaluation.  With ``p = ctx.prec_work``:

* node offsets and weights are computed at ``p + 20`` bits;
* abscissas are computed at ``p``: ``d = halfw*offset``, ``lo + d`` and
  ``hi - d`` on a finite domain, ``lo + r`` on a semi-infinite one;
* weighted contributions ``weight*f(x)``, level sums, and the level
  combination in :func:`integrate` are computed at ``p + 20``;
* endpoint and tail tests are exact comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mpmath.ctx_mp import MPContext
from mpmath.libmp import mpf_abs, mpf_add, mpf_cosh_sinh, mpf_lt, mpf_mul, mpf_sub

from .mpcore import PrecisionCtx, round_out

__all__ = ["QuadratureResult", "QuadratureResults", "QuadratureError", "integrate",
           "MAX_LEVELS"]

# Doublings of the mesh before giving up (~2^12 points per panel at the cap).
MAX_LEVELS = 12

# Consecutive negligible contributions before a level's node loop stops.
_TAIL_RUN = 3

# Early stop on 10 d_m^2/d_(m-1), once d_(m-1) <= 1e-10 (1+|S_m|): quadratic regime.
_EXTRAPOLATION_FACTOR = 10
_QUADRATIC_REGIME = 10 ** -10


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value, absolute error estimate, evaluation count, last level."""

    value: object
    error_estimate: object
    evaluations: int
    levels: int


class QuadratureResults(tuple):
    """One :class:`QuadratureResult` per component of a tuple integrand;
    ``evaluations`` and ``levels`` are the call count and last level they share."""

    @property
    def evaluations(self) -> int:
        return self[0].evaluations

    @property
    def levels(self) -> int:
        return self[0].levels


class QuadratureError(ArithmeticError):
    """Quadrature failure; carries the best available result (or results)
    when one exists."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# ---------------------------------------------------------------------------
# Nodes.  Cached by working precision in bits, so any two contexts at the same
# precision share them; a cached level is a tuple and never mutated.  The
# bounds hold all 13 levels of both rules for nine precisions; an evicted
# entry is rebuilt bit for bit.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _node_ctx(prec: int):
    ctx = MPContext()
    ctx.prec = prec
    return ctx


@lru_cache(maxsize=256)
def _level(prec: int, level: int, node):
    """``node(mp, t, half_pi)`` for each t of one level, on ``prec + 20`` bits.

    Level 0 holds all integer t >= 0 (including the center t = 0); level
    m > 0 holds odd multiples of 2^-m.
    """
    mp = _node_ctx(prec + 20)
    # Weight ~ 2*pi*cosh(t)*exp(-pi*sinh t); run nodes out until the bare
    # weight is far below the tightest admissible tolerance (squared margin
    # so that x^(-1/2)-type singular integrands stay covered).
    decades = 2 * (prec / 3.32 + 8)
    tmax = mp.asinh(decades * mp.log(10) / mp.pi)
    h = mp.mpf(2) ** (-level)
    half_pi = mp.pi / 2
    j, step = (0, 1) if level == 0 else (1, 2)
    nodes = []
    while j * h <= tmax:
        nodes.append(node(mp, j * h, half_pi))
        j += step
    return tuple(nodes)


def _ts_node(mp, t, half_pi):
    ch, sh = map(mp.make_mpf, mpf_cosh_sinh(t._mpf_, mp.prec, "n"))  # mp.cosh, mp.sinh
    g = half_pi * sh
    e2g = mp.exp(2 * g)
    offset = 2 / (e2g + 1)           # 1 - tanh(g), no cancellation
    weight = half_pi * ch * (4 * e2g / (e2g + 1) ** 2)  # (pi/2)cosh(t)/cosh(g)^2
    return offset._mpf_, weight._mpf_, not t


def _es_node(mp, t, half_pi):
    ch, sh = map(mp.make_mpf, mpf_cosh_sinh(t._mpf_, mp.prec, "n"))  # mp.cosh, mp.sinh
    g = half_pi * sh
    r_pos = mp.exp(g)
    w_pos = half_pi * ch * r_pos
    if not t:
        return None, None, r_pos._mpf_, w_pos._mpf_
    r_neg = 1 / r_pos
    w_neg = half_pi * ch * r_neg
    return r_neg._mpf_, w_neg._mpf_, r_pos._mpf_, w_pos._mpf_


def _ts_level(prec: int, level: int):
    """Tanh-sinh nodes for one level: raw (offset, weight, is_center).

    ``offset`` is ``1 - tanh(pi/2*sinh t)`` for t >= 0, the node's distance
    to the transformed endpoint ``u = 1``.
    """
    return _level(prec, level, _ts_node)


def _es_level(prec: int, level: int):
    """Exp-sinh nodes for one level: raw ``(r_neg, w_neg, r_pos, w_pos)``.

    ``x = lo + r`` and the weight already includes dx/dt; the t = 0 node
    appears only at level 0, with its positive half only (r_neg is None).
    """
    return _level(prec, level, _es_node)


# ---------------------------------------------------------------------------
# Level sums of a tuple-valued ``f``, all on raw mpf tuples: ``f`` takes and
# returns them, and the sums are lists with one entry per component, or None
# when no node of the level lies strictly inside the domain.  ``prec`` is the
# abscissa precision; contributions and sums are rounded at ``prec + 20``.
# ---------------------------------------------------------------------------

def _add(u, v, wp):
    return v if u is None else [mpf_add(p, q, wp, "n") for p, q in zip(u, v)]


def _negligible(contrib, tiny):
    return all(mpf_lt(mpf_abs(c), tiny) for c in contrib)


def _sum_level_finite(f, lo, hi, halfw, prec, level, tiny):
    nodes = _ts_level(prec, level)
    wp = prec + 20
    total = None
    run = 0
    for offset, weight, is_center in nodes:
        d = mpf_mul(halfw, offset, prec, "n")
        x_left = mpf_add(lo, d, prec, "n")
        x_right = mpf_sub(hi, d, prec, "n")
        contrib = None
        if mpf_lt(lo, x_left) and mpf_lt(x_left, hi):
            contrib = [mpf_mul(weight, y, wp, "n") for y in f(x_left)]
        if not is_center and mpf_lt(lo, x_right) and mpf_lt(x_right, hi):
            contrib = _add(contrib, [mpf_mul(weight, y, wp, "n") for y in f(x_right)], wp)
        if contrib is None:
            break
        total = _add(total, contrib, wp)
        if _negligible(contrib, tiny):
            run += 1
            if run >= _TAIL_RUN:
                break
        else:
            run = 0
    return total


def _sum_level_semiinf(f, lo, prec, level, tiny):
    nodes = _es_level(prec, level)
    wp = prec + 20
    total = None
    runs = [_TAIL_RUN, _TAIL_RUN]  # separate tail detection for t > 0 and t < 0
    for r_neg, w_neg, r_pos, w_pos in nodes:
        contrib = None
        for side, r, w in ((0, r_pos, w_pos), (1, r_neg, w_neg)):
            if r is None or runs[side] <= 0:
                continue
            x = mpf_add(lo, r, prec, "n")
            if mpf_lt(lo, x):
                c = [mpf_mul(w, y, wp, "n") for y in f(x)]
                contrib = _add(contrib, c, wp)
                runs[side] = runs[side] - 1 if _negligible(c, tiny) else _TAIL_RUN
        if contrib is not None:
            total = _add(total, contrib, wp)
        if max(runs) <= 0:
            break
    return total


# ---------------------------------------------------------------------------
# Public entry point.
# ---------------------------------------------------------------------------

def integrate(f, domain, tol, ctx: PrecisionCtx):
    """Integrate ``f`` over ``domain = (lo, hi)`` to absolute tolerance ``tol``.

    ``hi`` may be ``ctx.inf`` for a semi-infinite domain.  ``f`` receives
    working-precision mpf reals and must return an mpf, or a tuple of them;
    it may diverge integrably at the endpoints but is never called there.

    Returns a :class:`QuadratureResult` whose ``error_estimate`` bounds
    ``|value - true integral|`` and is at most ``tol`` on success: the last
    level difference, or its quadratic extrapolation (module docstring),
    floored for rounding and the tail cut-off, plus the rounding of ``value``
    to ``digits``.  For a tuple integrand, :class:`QuadratureResults` with one
    per component, sharing ``evaluations`` and ``levels`` (an empty domain
    calls nothing and returns one result).  Raises :class:`QuadratureError`
    (carrying the best result) if :data:`MAX_LEVELS` levels do not converge,
    or if the integrand fails at an interior point.
    """
    mp = ctx._mp
    lo, hi = domain
    lo = ctx.mpf(lo)
    semi_infinite = hi == ctx.inf
    if not semi_infinite:
        hi = ctx.mpf(hi)
        if not (lo < hi):
            if lo == hi:
                zero = mp.mpf(0)
                return QuadratureResult(zero, round_out(ctx.pow10(-ctx.digits), ctx), 0, 0)
            raise ValueError("domain must satisfy lo < hi")
    tol = ctx.mpf(tol)
    tol_floor = ctx.pow10(-ctx.digits + 5)
    if tol < tol_floor:
        raise ValueError(
            "tol %s below the admissible floor 1e%d for a %d-digit context"
            % (mp.nstr(tol, 3), -ctx.digits + 5, ctx.digits)
        )

    prec = ctx.prec_work
    tiny = mp.mpf(2) ** (-prec - 10) + tol * mp.mpf(10) ** -8
    evaluations = 0
    is_tuple = False
    halfw = (hi - lo) / 2 if not semi_infinite else None

    make_mpf = mp.make_mpf
    node_mpf = _node_ctx(prec + 20).make_mpf

    def components(x):
        nonlocal evaluations, is_tuple
        evaluations += 1
        y = f(make_mpf(x))
        is_tuple = isinstance(y, tuple)
        return [v._mpf_ for v in y] if is_tuple else [y._mpf_]

    def level_sum(m):
        try:
            if semi_infinite:
                sums = _sum_level_semiinf(components, lo._mpf_, prec, m, tiny._mpf_)
            else:
                sums = _sum_level_finite(components, lo._mpf_, hi._mpf_, halfw._mpf_,
                                         prec, m, tiny._mpf_)
        except QuadratureError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise QuadratureError("integrand evaluation failed: %r" % exc) from exc
        return None if sums is None else [node_mpf(s) for s in sums]

    eps, u_out = mp.mpf(2) ** (-prec + 4), mp.mpf(2) ** -ctx.prec_out

    def results(level, values, errors):
        out = tuple(QuadratureResult(round_out(v, ctx), round_out(
            max(e, eps * (1 + abs(v)), tiny) + abs(v) * u_out, ctx), evaluations, level)
            for v, e in zip(values, errors))
        return QuadratureResults(out) if is_tuple else out[0]

    scale = halfw if not semi_infinite else mp.mpf(1)
    s_prev = d_prev = None
    for m in range(MAX_LEVELS + 1):
        h = mp.mpf(2) ** (-m)
        sums = level_sum(m)
        if sums is None:  # no node of this level lies inside the domain
            sums = [lo * 0] * (len(s_prev) if s_prev else 1)
        partial = [s * h * scale for s in sums]
        if s_prev is None:
            s_m, diffs = partial, [abs(s) for s in partial]
        else:
            s_m = [p / 2 + q for p, q in zip(s_prev, partial)]
            diffs = [abs(p - q) for p, q in zip(s_m, s_prev)]
            if m >= 2 and all(diff < tol / 2 for diff in diffs):
                return results(m, s_m, diffs)
            # A zero d_(m-1) gives ``tol``, which never stops.
            extrapolated = [_EXTRAPOLATION_FACTOR * d * d / dp if dp else tol
                            for d, dp in zip(diffs, d_prev)]
            if m >= 3 and all(e < tol / 2 and dp <= _QUADRATIC_REGIME * (1 + abs(s))
                              for e, dp, s in zip(extrapolated, d_prev, s_m)):
                return results(m, s_m, extrapolated)
        s_prev, d_prev = s_m, diffs

    raise QuadratureError(
        "no convergence to tol=%s after %d levels (best estimate %s)"
        % (mp.nstr(tol, 3), MAX_LEVELS, mp.nstr(max(diffs), 3)),
        result=results(MAX_LEVELS, s_prev, diffs),
    )

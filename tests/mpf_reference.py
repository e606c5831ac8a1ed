"""Reference copies of the quadrature nodes, node loops, integrands and PSLQ on mpf objects.

``tetraclausen.quad``, the feynman panel integrands and the tail integrand
of ``polylog.cl2_series_reference`` compute on raw ``_mpf_`` tuples through
``mpmath.libmp``.  The versions here do the same arithmetic with mpmath's
mpf operators, whose precision comes from the left operand's context: node
weights carry ``prec_work + 20`` bits, so weighted contributions and level
sums are rounded there, and abscissas, whose left operand is ``lo`` or
``hi``, at ``prec_work``.  The tuple versions must return identical bits.
``ts_level`` and ``es_level`` build the nodes with ``mp.cosh`` and
``mp.sinh``, and ``quad``'s cached levels must equal them.

``pslq.find_relation`` runs its iteration on integers scaled by 2^P;
``find_relation_mpf`` runs it on mpf objects at working precision and must
reach the same verdicts, relations, iteration counts and errors.

``polylog.li2`` sums its Bernoulli series in w on integers scaled by 2^P,
with the Clausen coefficients; ``li2_mpf`` sums it on mpf objects from its
own mpf table, and the two must round to the same bits.
"""

from fractions import Fraction

from mpmath.ctx_mp import MPContext

from tetraclausen.mpcore import DomainError, PrecisionCtx, get_ctx, round_out
from tetraclausen.polylog import bernoulli_over_factorial
from tetraclausen.pslq import (DETECTION_EXPONENT, InsufficientPrecision, RelationResult,
                               _canonical, check_relation)
from tetraclausen.quad import (MAX_LEVELS, QuadratureError, QuadratureResult,
                               QuadratureResults, _EXTRAPOLATION_FACTOR, _QUADRATIC_REGIME,
                               _TAIL_RUN, _es_level, _node_ctx, _ts_level)


def _node_levels(prec, level, node):
    """``quad._level``'s t grid, with ``node(mp, t, half_pi)`` on mpf objects."""
    mp = MPContext()
    mp.prec = prec + 20
    tmax = mp.asinh(2 * (prec / 3.32 + 8) * mp.log(10) / mp.pi)
    h = mp.mpf(2) ** (-level)
    j, step = (0, 1) if level == 0 else (1, 2)
    nodes = []
    while j * h <= tmax:
        nodes.append(node(mp, j * h, mp.pi / 2))
        j += step
    return tuple(nodes)


def _ts_node(mp, t, half_pi):
    g = half_pi * mp.sinh(t)
    e2g = mp.exp(2 * g)
    weight = half_pi * mp.cosh(t) * (4 * e2g / (e2g + 1) ** 2)
    return (2 / (e2g + 1))._mpf_, weight._mpf_, not t


def _es_node(mp, t, half_pi):
    ch = mp.cosh(t)
    r_pos = mp.exp(half_pi * mp.sinh(t))
    w_pos = half_pi * ch * r_pos
    if not t:
        return None, None, r_pos._mpf_, w_pos._mpf_
    r_neg = 1 / r_pos
    return r_neg._mpf_, (half_pi * ch * r_neg)._mpf_, r_pos._mpf_, w_pos._mpf_


def ts_level(prec, level):
    """``quad._ts_level`` with cosh t and sinh t from ``mp.cosh`` and ``mp.sinh``."""
    return _node_levels(prec, level, _ts_node)


def es_level(prec, level):
    """``quad._es_level`` with cosh t and sinh t from ``mp.cosh`` and ``mp.sinh``."""
    return _node_levels(prec, level, _es_node)


def _mpf_nodes(nodes, prec):
    make = _node_ctx(prec + 20).make_mpf
    return [tuple(v if v is None or isinstance(v, bool) else make(v) for v in node)
            for node in nodes]


def _add(u, v):
    return v if u is None else [p + q for p, q in zip(u, v)]


def _sum_level_finite(f, lo, hi, halfw, prec, level, tiny):
    total = None
    run = 0
    for offset, weight, is_center in _mpf_nodes(_ts_level(prec, level), prec):
        d = halfw * offset
        x_left = lo + d
        x_right = hi - d
        contrib = None
        if x_left > lo and x_left < hi:
            contrib = [weight * y for y in f(x_left)]
        if not is_center and x_right > lo and x_right < hi:
            contrib = _add(contrib, [weight * y for y in f(x_right)])
        if contrib is None:
            break
        total = _add(total, contrib)
        if max(map(abs, contrib)) < tiny:
            run += 1
            if run >= _TAIL_RUN:
                break
        else:
            run = 0
    return total


def _sum_level_semiinf(f, lo, prec, level, tiny):
    total = None
    run_pos = _TAIL_RUN
    run_neg = _TAIL_RUN
    for r_neg, w_neg, r_pos, w_pos in _mpf_nodes(_es_level(prec, level), prec):
        contrib = None
        if run_pos > 0:
            x = lo + r_pos
            if x > lo:
                c = [w_pos * y for y in f(x)]
                contrib = c
                run_pos = run_pos - 1 if max(map(abs, c)) < tiny else _TAIL_RUN
        if r_neg is not None and run_neg > 0:
            x = lo + r_neg
            if x > lo:
                c = [w_neg * y for y in f(x)]
                contrib = _add(contrib, c)
                run_neg = run_neg - 1 if max(map(abs, c)) < tiny else _TAIL_RUN
        if contrib is not None:
            total = _add(total, contrib)
        if run_pos <= 0 and run_neg <= 0:
            break
    return total


def integrate(f, domain, tol, ctx, max_levels=MAX_LEVELS):
    """``quad.integrate`` with the node loops on mpf objects."""
    mp = ctx._mp
    lo, hi = domain
    lo = ctx.mpf(lo)
    semi_infinite = hi == ctx.inf
    if not semi_infinite:
        hi = ctx.mpf(hi)
    tol = ctx.mpf(tol)
    prec = ctx.prec_work
    tiny = mp.mpf(2) ** (-prec - 10) + tol * mp.mpf(10) ** -8
    evaluations = 0
    is_tuple = False
    halfw = (hi - lo) / 2 if not semi_infinite else None

    def components(x):
        nonlocal evaluations, is_tuple
        evaluations += 1
        y = f(x)
        is_tuple = isinstance(y, tuple)
        return y if is_tuple else (y,)

    def results(level, values, errors):
        out = []
        for v, e in zip(values, errors):
            # Floored for working-precision rounding and the tail cut-off,
            # plus the rounding of the value to ``digits``.
            floor = max(mp.mpf(2) ** (-prec + 4) * (1 + abs(v)), tiny)
            err = max(e, floor) + abs(v) * mp.mpf(2) ** -ctx.prec_out
            out.append(QuadratureResult(round_out(v, ctx), round_out(err, ctx), evaluations,
                                        level))
        return QuadratureResults(out) if is_tuple else out[0]

    scale = halfw if not semi_infinite else mp.mpf(1)
    s_prev = d_prev = None
    for m in range(max_levels + 1):
        h = mp.mpf(2) ** (-m)
        if semi_infinite:
            sums = _sum_level_semiinf(components, lo, prec, m, tiny)
        else:
            sums = _sum_level_finite(components, lo, hi, halfw, prec, m, tiny)
        if sums is None:
            sums = [lo * 0] * (len(s_prev) if s_prev else 1)
        partial = [s * h * scale for s in sums]
        if s_prev is None:
            s_m, diffs = partial, [abs(s) for s in partial]
        else:
            s_m = [p / 2 + q for p, q in zip(s_prev, partial)]
            diffs = [abs(p - q) for p, q in zip(s_m, s_prev)]
            if m >= 2 and all(diff < tol / 2 for diff in diffs):
                return results(m, s_m, diffs)
            extrapolated = [_EXTRAPOLATION_FACTOR * d * d / dp if dp else tol
                            for d, dp in zip(diffs, d_prev)]
            if m >= 3 and all(e < tol / 2 and dp <= _QUADRATIC_REGIME * (1 + abs(s))
                              for e, dp, s in zip(extrapolated, d_prev, s_m)):
                return results(m, s_m, extrapolated)
        s_prev, d_prev = s_m, diffs
    raise QuadratureError("no convergence", result=results(max_levels, s_prev, diffs))


# ---------------------------------------------------------------------------
# The feynman panel integrands.
# ---------------------------------------------------------------------------

def _weighted(atanh_term, w, a, root):
    w_root = w * root
    return (atanh_term / w_root, atanh_term / ((w + a) * root),
            atanh_term / (w_root * (w + a)))


def finite_panel_integrand(a, b, ctx):
    mp = ctx._mp
    bp2 = (b + 2) ** 2

    def f(v):
        w = v + 2
        s_val = v * (v + 4) + b * b
        root = mp.sqrt(s_val)
        big_a = w * root
        big_b = v * (v + 4) - 2 * b
        diff = big_a - big_b
        return _weighted(mp.log(bp2 * v * (v + 4) / (diff * diff)) / 2, w, a, root)

    return f


def tail_panel_integrand(a, b, ctx):
    mp = ctx._mp

    def f(v):
        w = v + 2 + b
        s_val = v * (v + 2 * (2 + b)) + 2 * b * (b + 2)
        root = mp.sqrt(s_val)
        t = b / root
        # 1 + 2t/(1-t) formed exactly, so no bits of the arctanh are lost.
        return _weighted(mp.log(mp.fadd(1, 2 * t / (1 - t), exact=True)) / 2, w, a, root)

    return f


# ---------------------------------------------------------------------------
# The tail integrand of the Cl2 series oracle.
# ---------------------------------------------------------------------------

def cl2_tail_integrand(t, cos_t, sin_t, M, hi):
    mp = hi._mp
    two_cos = 2 * cos_t
    mt = (M + 1) * t
    sin_mt = hi.sin(mt)
    cos_mt = hi.cos(mt)
    mp1 = mp.mpf(M + 1)

    def tail_integrand(u):
        e = mp.exp(-u / mp1)
        num = sin_mt * (1 - e * cos_t) + cos_mt * (e * sin_t)
        den = 1 - two_cos * e + e * e
        return u * mp.exp(-u) * num / (den * mp1 * mp1)

    return tail_integrand


# ---------------------------------------------------------------------------
# PSLQ.
# ---------------------------------------------------------------------------

def find_relation_mpf(xs, max_norm, ctx: PrecisionCtx, max_iterations: int | None = None) -> RelationResult:
    """``pslq.find_relation`` with the iteration on mpf objects."""
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

    gamma = ctx.sqrt(mp.mpf(4) / 3)
    tol = ctx.pow10(-int(DETECTION_EXPONENT * ctx.digits))
    noise_floor = ctx.pow10(-(ctx.work_dps - 3))
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

    # Exact integer relations: rel[i] is the integer combination of x whose
    # residual is y[i]*t (rel[0] is unused, like y[0] and H[0]).
    rel = [[int(k == i) for k in range(1, n + 1)] for i in range(n + 1)]

    # Hermite reduction of rows first_row..n over columns <= min(i-1, last_col).
    # H_jj starts positive (s_{j+1}/s_j): a zero means precision ran out.
    def hermite_reduce(first_row, last_col):
        for i in range(first_row, n + 1):
            for j in range(min(i - 1, last_col), 0, -1):
                if H[j][j] == 0:
                    raise InsufficientPrecision("H developed a zero diagonal")
                q = ctx.nint(H[i][j] / H[j][j])
                if q:
                    y[j] += q * y[i]
                    for k in range(1, j + 1):
                        H[i][k] -= q * H[j][k]
                    rel[j] = [u + q * v for u, v in zip(rel[j], rel[i])]

    def detect(iterations):
        """The first relation rel[i] with |y_i| < tol that has norm at
        most max_norm and re-checks at 20 extra digits."""
        y_min = min(abs(y[i]) for i in range(1, n + 1))
        if y_min >= tol:
            return None
        rejected = []   # norms of candidates above max_norm
        for i in range(1, n + 1):
            if abs(y[i]) >= tol:
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
                return RelationResult("found", vec, round_out(ctx.mpf(resid), ctx), None,
                                      iterations)
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

    for iterations in range(1, max_iterations + 1):
        # Row selection: maximize gamma^i |H_ii|.
        m_row = 1
        best = mp.mpf(0)
        g_pow = mp.mpf(1)
        for i in range(1, n):
            g_pow *= gamma
            size = g_pow * abs(H[i][i])
            if size > best:
                best = size
                m_row = i
        # Swap entries m, m+1.
        for v in (y, H, rel):
            v[m_row], v[m_row + 1] = v[m_row + 1], v[m_row]
        # Corner transformation.
        if m_row <= n - 2:
            h_mm, h_mm1 = H[m_row][m_row], H[m_row][m_row + 1]
            t0 = ctx.sqrt(h_mm * h_mm + h_mm1 * h_mm1)
            if t0 == 0:
                raise InsufficientPrecision("H developed a zero corner")
            c0, s0 = h_mm / t0, h_mm1 / t0
            for i in range(m_row, n + 1):
                a_, b_ = H[i][m_row], H[i][m_row + 1]
                H[i][m_row] = c0 * a_ + s0 * b_
                H[i][m_row + 1] = -s0 * a_ + c0 * b_
        hermite_reduce(m_row + 1, m_row + 1)
        res = detect(iterations)
        if res is not None:
            return res
        # Exclusion bound: every relation has norm >= 1/max|H_jj|.
        h_max = max(abs(H[j][j]) for j in range(1, n))
        if h_max == 0:
            raise InsufficientPrecision("H diagonal vanished")
        bound = 1 / h_max
        if bound > max_norm:
            return RelationResult("none_found", None, None, round_out(bound, ctx), iterations)

    raise InsufficientPrecision(
        "no verdict after %d iterations at %d digits" % (max_iterations, ctx.digits))


# ---------------------------------------------------------------------------
# Dilogarithm.
# ---------------------------------------------------------------------------

_LI2_W_COEFFS: dict = {}


def _grow_coeffs(cache: dict, prec: int, n: int, make):
    coeffs = cache.get(prec, ())
    if len(coeffs) < n:
        coeffs += tuple(make(k) for k in range(len(coeffs) + 1, n + 1))
        cache[prec] = coeffs
    return coeffs


def _li2_w_coeffs(ctx: PrecisionCtx, n: int):
    """mpf coefficients e[k] = B_2k/((2k)! (2k+1)) for k = 1..n."""
    def make(k):
        return ctx.mpf(bernoulli_over_factorial(2 * k) / (2 * k + 1))

    return _grow_coeffs(_LI2_W_COEFFS, ctx.prec_work, n, make)


def _li2_log_series(z, ctx: PrecisionCtx):
    """Li2 via the expansion in w = -log(1-z), valid for |w| < 2pi.

    Li2(z) = sum_{n>=0} B_n/(n! (n+1)) w^(n+1)
           = w - w^2/4 + sum_{k>=1} B_2k/((2k)! (2k+1)) w^(2k+1).
    """
    mp = ctx._mp
    w = -mp.log1p(-z)
    eps = mp.mpf(2) ** (-ctx.prec_work - 4)
    total = 1 - w / 4
    w2 = w * w
    power = w2
    k = 1
    while True:
        coeffs = _li2_w_coeffs(ctx, k + 16)
        while k <= len(coeffs):
            term = coeffs[k - 1] * power
            total += term
            if abs(term) < eps * abs(total):
                return w * total
            power *= w2
            k += 1


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
        # Reflection: Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z).
        return ctx.pi ** 2 / 6 - ctx.log(z) * ctx.log(1 - z) - _li2_log_series(1 - z, ctx)
    return _li2_log_series(z, ctx)


def li2_mpf(z, ctx: PrecisionCtx):
    """``polylog.li2`` with the series summed on mpf objects."""
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
    return round_out(_li2_main(z, ctx), ctx)

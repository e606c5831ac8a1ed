"""The raw-tuple quadrature, panel integrands and oracle tail against their
mpf-object references (``mpf_reference.py``): identical bits, not closeness."""

import random

import pytest

import mpf_reference as ref
from tetraclausen import feynman, polylog
from tetraclausen.mpcore import get_ctx
from tetraclausen.quad import _es_level, _node_ctx, _ts_level, integrate


def raw(results):
    if not isinstance(results, tuple):
        results = (results,)
    return [(r.value._mpf_, r.error_estimate._mpf_, r.evaluations) for r in results]


def mass_pairs(ctx, seed, count):
    """A mass at 1e-5, a pair with 4 - a^2 - b^2 = 1e-8, and seeded pairs."""
    a = ctx.mpf("0.6")
    pairs = [(ctx.mpf("1e-5"), ctx.mpf("0.9")), (a, ctx.sqrt(4 - a * a - ctx.mpf("1e-8")))]
    rng = random.Random(seed)
    for _ in range(count):
        a = rng.uniform(0.05, 1.4)
        pairs.append((ctx.mpf(repr(a)), ctx.mpf(repr(rng.uniform(0.05, (3.9 - a * a) ** 0.5)))))
    return pairs


@pytest.mark.parametrize("digits", [15, 50, 200])
def test_nodes_match_reference(digits):
    prec = get_ctx(digits, 10).prec_work
    for level in range(5):
        assert _ts_level(prec, level) == ref.ts_level(prec, level), level
        assert _es_level(prec, level) == ref.es_level(prec, level), level


@pytest.mark.parametrize("digits,seeded", [(15, 3), (20, 3), (50, 2), (100, 1), (200, 0)])
def test_sweep_matches_reference(monkeypatch, digits, seeded):
    ctx = get_ctx(digits, 10)
    tol = ctx.pow10(-digits + 6)
    pairs = mass_pairs(ctx, digits, seeded)
    fast = [feynman._sweep(a, b, ctx, tol) for a, b in pairs]
    monkeypatch.setattr(feynman, "integrate", ref.integrate)
    monkeypatch.setattr(feynman, "_finite_panel_integrand", ref.finite_panel_integrand)
    monkeypatch.setattr(feynman, "_tail_panel_integrand", ref.tail_panel_integrand)
    slow = [feynman._sweep(a, b, ctx, tol) for a, b in pairs]
    for (a, b), got, want in zip(pairs, fast, slow):
        assert [raw(r) for r in got] == [raw(r) for r in want], (a, b)


@pytest.mark.parametrize("digits", [15, 20, 50, 100, 200])
def test_integrate_matches_reference_off_zero(digits):
    # With lo = 1 the outermost nodes round onto the endpoint and end the
    # level loop, a path the feynman panels (lo = 0) never take.
    ctx = get_ctx(digits, 10)
    prec = ctx.prec_work
    lo, halfw = ctx.mpf(1), ctx.mpf(1) / 2
    make = _node_ctx(prec + 20).make_mpf
    assert all(any(lo + halfw * make(offset) == lo for offset, _, _ in _ts_level(prec, m))
               for m in (2, 3))
    tol = ctx.pow10(-digits + 6)
    for f in (lambda x: ctx.log(x - 1) * ctx.exp(-x),
              lambda x: (ctx.log(x - 1), ctx.log(2 - x) / (1 + x))):
        assert raw(integrate(f, (1, 2), tol, ctx)) == raw(ref.integrate(f, (1, 2), tol, ctx))


@pytest.mark.parametrize("digits", [20, 50, 100])
def test_cl2_oracle_tail_matches_reference(digits):
    hi = get_ctx(digits, 10)
    rng = random.Random(digits)
    tol = hi.pow10(-digits + 6)
    for _ in range(3):
        t = hi.mpf(repr(rng.uniform(1e-3, 3.14)))
        args = (t, hi.cos(t), hi.sin(t), 256, hi)
        fast, slow = polylog._cl2_tail_integrand(*args), ref.cl2_tail_integrand(*args)
        for u in ("1e-30", "0.001", "0.37", "1", "2.5", "40", "300"):
            assert fast(hi.mpf(u))._mpf_ == slow(hi.mpf(u))._mpf_
        got = integrate(fast, (0, hi.inf), tol, hi)
        assert raw(got) == raw(ref.integrate(slow, (0, hi.inf), tol, hi))


def test_cl2_oracle_tail_factor_cache():
    # The cached factors depend on u, M and the precision: one raw u, exact at
    # both precisions, evaluated twice at M = 64 and 256 at 20 then 50 digits,
    # must give the reference's bits on every call, cache hits included.
    polylog._cl2_tail_factors.cache_clear()
    low = get_ctx(20, 10)
    us = [low.mpf(u)._mpf_ for u in ("1e-30", "0.001", "0.37", "2.5", "40")]
    for digits in (20, 50):
        hi = get_ctx(digits, 10)
        t = hi.mpf("1.3")
        for M in (64, 256):
            args = (t, hi.cos(t), hi.sin(t), M, hi)
            fast, slow = polylog._cl2_tail_integrand(*args), ref.cl2_tail_integrand(*args)
            for u in map(hi._mp.make_mpf, us):
                want = slow(u)._mpf_
                assert fast(u)._mpf_ == want, (digits, M, u)
                assert fast(u)._mpf_ == want, (digits, M, u)
    assert polylog._cl2_tail_factors.cache_info().hits >= 4 * len(us)


def li2_arguments(ctx, rng, count):
    """Seeded arguments on every li2 branch: real z in (-4, 1) and on the cut
    (1, 5), complex z with |z| < 5, complex z with |1 - z| <= 1/2, |z| = 10^-k
    up to k = digits + 20, 1 +- 10^-k and complex z with |z| > 1."""
    def unit():
        th = ctx.mpf(rng.uniform(-3.2, 3.2))
        return ctx.mpc(ctx.cos(th), ctx.sin(th))

    families = (
        lambda: ctx.mpf(rng.uniform(-4, 1)),
        lambda: ctx.mpf(rng.uniform(1, 5)),
        lambda: ctx.mpf(rng.uniform(0, 5)) * unit(),
        lambda: 1 + ctx.mpf(rng.uniform(0, 0.5)) * unit(),
        lambda: ctx.pow10(-rng.randint(1, ctx.digits + 20)) * rng.choice((1, -1, unit())),
        lambda: 1 + rng.choice((1, -1)) * ctx.pow10(-rng.randint(1, ctx.digits)),
        lambda: ctx.mpf(rng.uniform(1, 50)) * unit(),
    )
    return [families[i % len(families)]() for i in range(count)]


@pytest.mark.parametrize("digits,count", [(15, 700), (20, 600), (60, 500), (100, 200),
                                          (250, 80), (1000, 14)])
def test_li2_matches_reference(digits, count):
    ctx = get_ctx(digits, 10)
    for z in li2_arguments(ctx, random.Random(digits), count):
        got, want = polylog.li2(z, ctx), ref.li2_mpf(z, ctx)
        assert type(got) is type(want), z
        assert getattr(got, "_mpc_", None) == getattr(want, "_mpc_", None), z
        assert getattr(got, "_mpf_", None) == getattr(want, "_mpf_", None), z

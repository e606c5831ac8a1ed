import random

import pytest

from tetraclausen.quad import MAX_LEVELS, QuadratureError, integrate


TOL = "1e-40"


class TestTrivialIntegrals:
    def test_constant_one(self, ctx50):
        r = integrate(lambda x: x * 0 + 1, (0, 1), ctx50.mpf(TOL), ctx50)
        assert abs(r.value - 1) <= r.error_estimate
        assert 0 < r.error_estimate <= ctx50.mpf(TOL)
        assert r.evaluations > 0

    def test_log_singularity(self, ctx50):
        # log x (antiderivative x log x - x) is singular at the left
        # endpoint, log cos x at the right one
        c = ctx50
        for f, domain, exact in ((c.log, (0, 1), -1),
                                 (lambda x: c.log(c.cos(x)), (0, c.pi / 2), -c.pi / 2 * c.ln2)):
            r = integrate(f, domain, c.mpf(TOL), c)
            assert abs(r.value - exact) <= r.error_estimate <= c.mpf(TOL)

    def test_inverse_sqrt_singularity(self, ctx50):
        r = integrate(lambda x: 1 / ctx50.sqrt(x), (0, 1), ctx50.mpf(TOL), ctx50)
        assert abs(r.value - 2) <= r.error_estimate

    def test_semi_infinite_power_tail(self, ctx50):
        r = integrate(lambda w: 1 / (w * w), (2, ctx50.inf), ctx50.mpf(TOL), ctx50)
        assert abs(r.value - ctx50.mpf(1) / 2) <= r.error_estimate


def test_additivity(ctx50):
    # [a,c] equals [a,b] + [b,c] within combined error estimates, with a
    # logarithmically singular left endpoint.
    f = lambda x: ctx50.log(x) * ctx50.cos(x)
    tol = ctx50.mpf(TOL)
    whole = integrate(f, (0, 2), tol, ctx50)
    left = integrate(f, (0, ctx50.mpf("0.7")), tol, ctx50)
    right = integrate(f, (ctx50.mpf("0.7"), 2), tol, ctx50)
    combined = left.error_estimate + right.error_estimate + whole.error_estimate
    assert abs(whole.value - (left.value + right.value)) <= combined


def test_tolerance_refinement(ctx50):
    f = lambda x: ctx50.exp(-x * x) * ctx50.log(x)
    loose = integrate(f, (0, 3), ctx50.pow10(-20), ctx50)
    tight = integrate(f, (0, 3), ctx50.pow10(-40), ctx50)
    assert abs(loose.value - tight.value) <= loose.error_estimate


def test_semi_infinite_exponential(ctx50):
    rng = random.Random(42)
    for _ in range(6):
        lo = ctx50.mpf(rng.uniform(0, 10))
        r = integrate(lambda x: ctx50.exp(-x), (lo, ctx50.inf), ctx50.mpf(TOL), ctx50)
        assert abs(r.value - ctx50.exp(-lo)) <= ctx50.mpf(TOL)


class TestTupleIntegrand:
    """Components of one tuple integrand against separate scalar integrals."""

    def check(self, ctx, parts, domain):
        tol = ctx.mpf(TOL)
        joint = integrate(lambda x: tuple(g(x) for g in parts), domain, tol, ctx)
        assert isinstance(joint, tuple) and len(joint) == len(parts)
        assert all(r.evaluations == joint.evaluations > 0 for r in joint)
        assert all(r.levels == joint.levels >= 2 for r in joint)
        for g, r in zip(parts, joint):
            single = integrate(g, domain, tol, ctx)
            assert r.error_estimate <= tol
            assert abs(r.value - single.value) <= r.error_estimate + single.error_estimate

    def test_finite_with_log_singularity(self, ctx50):
        c = ctx50
        self.check(c, [lambda x: c.log(x), lambda x: c.exp(x), lambda x: c.log(x) / (1 + x)],
                   (0, 1))

    def test_semi_infinite(self, ctx50):
        c = ctx50
        self.check(c, [lambda w: 1 / (w * w), lambda w: c.exp(-w), lambda w: 1 / (w * (w + 1))],
                   (2, c.inf))


def test_empty_interval(ctx50):
    r = integrate(lambda x: 1 / x, (3, 3), ctx50.mpf(TOL), ctx50)
    assert r.value == 0
    assert r.evaluations == r.levels == 0


def test_nonintegrable_singularity_reports_best(ctx50):
    with pytest.raises(QuadratureError) as err:
        integrate(lambda x: 1 / x, (0, 1), ctx50.mpf(TOL), ctx50)
    assert err.value.result is not None
    assert err.value.result.error_estimate > 0
    assert err.value.result.levels == MAX_LEVELS


def test_tolerance_floor_enforced(ctx50):
    with pytest.raises(ValueError):
        integrate(lambda x: x, (0, 1), ctx50.pow10(-ctx50.digits), ctx50)


def test_reversed_domain_rejected(ctx50):
    with pytest.raises(ValueError):
        integrate(lambda x: x, (1, 0), ctx50.mpf(TOL), ctx50)


def test_interior_integrand_error_is_wrapped(ctx50):
    def bad(x):
        raise ZeroDivisionError("synthetic failure")

    with pytest.raises(QuadratureError, match="ZeroDivisionError.*synthetic failure"):
        integrate(bad, (0, 1), ctx50.mpf(TOL), ctx50)


def test_higher_precision_context(ctx100):
    r = integrate(lambda x: ctx100.log(x), (0, 1), ctx100.pow10(-90), ctx100)
    assert abs(r.value + 1) < ctx100.pow10(-90)

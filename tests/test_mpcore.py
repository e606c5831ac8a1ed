from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tetraclausen.mpcore import (
    DomainError,
    PrecisionCtx,
    from_decimal,
    get_ctx,
    round_out,
    to_decimal,
)


def ulps(x, y, ctx):
    """|x - y| measured in units of the last place at output precision."""
    mp = ctx._mp
    if x == y:
        return 0.0
    scale = max(abs(x), abs(y))
    return float(abs(x - y) / scale * mp.mpf(2) ** ctx.prec_out)


class TestPrecisionCtx:
    def test_defaults(self):
        ctx = PrecisionCtx()
        assert ctx.digits == 50 and ctx.guard_digits == 10
        assert ctx.work_dps == 60

    @pytest.mark.parametrize("digits,guard", [(14, 10), (0, 10), (50, 4), (50, 0)])
    def test_bounds_rejected(self, digits, guard):
        with pytest.raises(ValueError):
            PrecisionCtx(digits, guard)

    def test_equal_fields_bitwise_identical(self):
        a = PrecisionCtx(34, 7)
        b = PrecisionCtx(34, 7)
        chain_a = to_decimal(a.sin(a.exp(a.mpf("0.7531"))) / a.pi, a)
        chain_b = to_decimal(b.sin(b.exp(b.mpf("0.7531"))) / b.pi, b)
        assert chain_a == chain_b
        assert a == b


class TestConstants:
    def test_pi_against_quadruple_arctan(self, ctx50):
        # standard constant, cross-checked by atan(1)*4
        assert ulps(ctx50.pi, 4 * ctx50.atan(1), ctx50) <= 4

    def test_pi_digits(self, ctx50):
        assert to_decimal(round_out(ctx50.pi, ctx50), ctx50).startswith(
            "3.1415926535897932384626433832795028841971693993751")

    def test_log2_consistent_with_elementary_log(self, ctx50):
        assert ulps(ctx50.ln2, ctx50.log(2), ctx50) <= 2


class TestElementary:
    def test_atan_one_is_quarter_pi(self, ctx50):
        assert ulps(ctx50.atan(1), ctx50.pi / 4, ctx50) <= 2

    def test_log_one_is_zero(self, ctx50):
        assert ctx50.log(1) == 0

    @pytest.mark.parametrize("fn,arg", [("log", 0), ("log", -2), ("asin", 2), ("sqrt", -1)])
    def test_domain_violations_are_reported(self, ctx50, fn, arg):
        with pytest.raises(DomainError):
            getattr(ctx50, fn)(ctx50.mpf(arg))

    @pytest.mark.parametrize("fn,arg", [("sqrt", -1), ("sqrt", -1.0), ("sqrt", Fraction(-1, 2)),
                                        ("asin", 2), ("asin", 2.0), ("asin", -2),
                                        ("asin", Fraction(3, 2))])
    def test_python_reals_outside_domain_are_reported(self, fn, arg):
        with pytest.raises(DomainError):
            getattr(get_ctx(20), fn)(arg)

    def test_python_reals_inside_domain_match_mpf(self):
        ctx = get_ctx(20)
        for fn, arg in (("sqrt", 2), ("sqrt", 0.5), ("asin", Fraction(1, 3)), ("asin", -1)):
            got, want = getattr(ctx, fn)(arg), getattr(ctx, fn)(ctx.mpf(arg))
            assert got._mpf_ == want._mpf_, (fn, arg)


_ctx = PrecisionCtx(50)


@given(st.floats(min_value=1e-5, max_value=1e5, allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_exp_log_round_trip(x):
    xm = _ctx.mpf(x)
    assert ulps(_ctx.exp(_ctx.log(xm)), xm, _ctx) <= 10


@given(st.floats(min_value=-20, max_value=20, allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_sin_cos_pythagoras(theta):
    t = _ctx.mpf(theta)
    assert ulps(_ctx.sin(t) ** 2 + _ctx.cos(t) ** 2, _ctx.mpf(1), _ctx) <= 10


@pytest.mark.parametrize("digits", [20, 50])
def test_refinement_convergence(digits):
    # Re-running a derived quantity with 20 more digits moves it by less
    # than 10^(-digits+2) relative: the refinement test downstream
    # acceptance criteria rely on.
    lo = PrecisionCtx(digits)
    hi = PrecisionCtx(digits + 20)
    v_lo = lo.sin(lo.exp(lo.mpf("1.375"))) * lo.pi
    v_hi = hi.sin(hi.exp(hi.mpf("1.375"))) * hi.pi
    assert abs(v_lo - v_hi) / abs(v_hi) < lo.pow10(-digits + 2)


class TestSerialization:
    @pytest.mark.parametrize("text", ["1", "-0.25", "3.25e-7", "12345.678", "1e20"])
    def test_round_trip_exact(self, ctx50, text):
        x = round_out(ctx50.mpf(text), ctx50)
        assert round_out(from_decimal(to_decimal(x, ctx50), ctx50), ctx50) == x

    def test_round_trip_of_computed_value(self, ctx50):
        x = round_out(ctx50.pi / ctx50.exp(ctx50.mpf(3)), ctx50)
        assert round_out(from_decimal(to_decimal(x, ctx50), ctx50), ctx50) == x

    def test_format(self, ctx50):
        s = to_decimal(ctx50.mpf("-0.125"), ctx50)
        assert s.startswith("-0.125")

    def test_bad_string(self, ctx50):
        with pytest.raises(ValueError):
            from_decimal("not-a-number", ctx50)


def test_round_out_shortens_mantissa(ctx50):
    x = ctx50.pi
    r = round_out(x, ctx50)
    assert r != x  # the guard digits were dropped
    assert abs(r - x) < ctx50.pow10(-ctx50.digits + 1)

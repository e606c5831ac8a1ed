import random

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from tetraclausen.mpcore import DomainError, PrecisionCtx, to_decimal
from tetraclausen.polylog import (
    bernoulli_over_factorial,
    cl2,
    cl2_series_reference,
    li2,
)
from oracles import catalan_alternating, li2_brute
from fractions import Fraction


def test_bernoulli_values():
    assert bernoulli_over_factorial(0) == 1
    assert bernoulli_over_factorial(1) == Fraction(-1, 2)
    assert bernoulli_over_factorial(2) == Fraction(1, 12)   # B_2 = 1/6
    assert bernoulli_over_factorial(3) == 0
    assert bernoulli_over_factorial(12) * 479001600 == Fraction(-691, 2730)


def test_bernoulli_matches_exact_recurrence():
    # Oracle: sum_{j<=m} C(m+1, j) B_j = 0 over exact rationals.
    from math import comb, factorial

    b = [Fraction(1)]
    for m in range(1, 101):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    for m, bm in enumerate(b):
        assert bernoulli_over_factorial(m) == bm / factorial(m), m


class TestCl2:
    def test_zero(self, ctx50):
        assert cl2(0, ctx50) == 0

    def test_pi_vanishes(self, ctx50):
        assert abs(cl2(ctx50.pi, ctx50)) < ctx50.pow10(-48)

    def test_third_pi_ratio(self, ctx50):
        res = cl2(ctx50.pi / 3, ctx50) - ctx50.mpf(Fraction(3, 2)) * cl2(2 * ctx50.pi / 3, ctx50)
        assert abs(res) < ctx50.pow10(-48)

    def test_half_pi_is_catalan(self, ctx50):
        oracle = catalan_alternating(ctx50)
        assert abs(cl2(ctx50.pi / 2, ctx50) - oracle) < ctx50.pow10(-45)

    def test_oddness_exact(self, ctx50):
        for text in ("0.31", "1.9", "2.7", "5.1"):
            t = ctx50.mpf(text)
            assert cl2(-t, ctx50) == -cl2(t, ctx50)

    def test_periodicity(self, ctx50):
        t = ctx50.mpf("0.75")
        assert to_decimal(cl2(t + 2 * ctx50.pi, ctx50), ctx50) == \
            to_decimal(cl2(t, ctx50), ctx50)
        assert to_decimal(cl2(t - 6 * ctx50.pi, ctx50), ctx50) == \
            to_decimal(cl2(t, ctx50), ctx50)

    def test_duplication_formula(self, ctx50):
        rng = random.Random(7)
        for _ in range(25):
            x = ctx50.mpf(rng.uniform(-9, 9))
            res = cl2(2 * x, ctx50) - 2 * cl2(x, ctx50) + 2 * cl2(ctx50.pi - x, ctx50)
            assert abs(res) < ctx50.pow10(-45)

    def test_large_angle_reduction(self, ctx50):
        t = ctx50.mpf("1.25")
        big = t + 2 * ctx50.pi * 100000
        assert abs(cl2(big, ctx50) - cl2(t, ctx50)) < ctx50.pow10(-44)

    def test_agrees_with_series_reference(self, ctx50):
        rng = random.Random(21)
        for _ in range(30):
            t = ctx50.mpf(rng.uniform(0.01, 6.27))
            assert abs(cl2(t, ctx50) - cl2_series_reference(t, ctx50)) < ctx50.pow10(-45)

    def test_series_reference_term_count_insensitive(self, ctx50):
        t = ctx50.mpf("2.13")
        a = cl2_series_reference(t, ctx50, terms=64)
        b = cl2_series_reference(t, ctx50, terms=512)
        assert abs(a - b) < ctx50.pow10(-45)

    def test_series_reference_near_multiple_of_two_pi_raises_domain_error(self):
        # The tail denominator 1 - 2 cos(t) e + e^2 rounds to 0 here.
        ctx = PrecisionCtx(20)
        for theta in (ctx.mpf("1e-30"), 2 * ctx.pi - ctx.mpf("1e-30")):
            with pytest.raises(DomainError, match="too close to a multiple of 2pi"):
                cl2_series_reference(theta, ctx)

    def test_non_finite_rejected(self, ctx50):
        with pytest.raises(DomainError):
            cl2(ctx50.inf, ctx50)

    @pytest.mark.parametrize("big", [10 ** 65, -10 ** 65, 10 ** 200],
                             ids=["1e65", "-1e65", "1e200"])
    def test_huge_angle(self, ctx50, big):
        theta = ctx50.mpf(big)
        ref = clsin_reduced(theta, ctx50.digits + 20)
        assert abs(cl2(theta, ctx50) - ref) <= ctx50.pow10(-ctx50.digits) * (1 + abs(ref))

    @pytest.mark.parametrize("num,den", [(-5, 2), (16, 3), (-(7 * 10 ** 8 + 2), 7),
                                         (3 * 10 ** 20 + 1, 3)],
                             ids=["-2.5", "5+1/3", "-(1e8+2/7)", "1e20+1/3"])
    def test_series_reference_outside_one_period(self, ctx50, num, den):
        theta = ctx50.mpf(Fraction(num, den))
        ref = clsin_reduced(theta, ctx50.digits + 20)
        bound = ctx50.pow10(-ctx50.digits) * abs(ref)
        assert abs(cl2_series_reference(theta, ctx50) - ref) <= bound


def clsin_reduced(theta, dps):
    """mpmath's clsin at ``dps`` of theta reduced mod 2pi exactly: theta is
    exact binary data, reduced at a precision covering its integer part."""
    _, _, exp, bc = theta._mpf_
    ref_mp = MPContext()
    ref_mp.prec = exp + bc + 400
    exact = ref_mp.make_mpf(theta._mpf_)
    reduced = exact - 2 * ref_mp.pi * ref_mp.nint(exact / (2 * ref_mp.pi))
    ref_mp.dps = dps
    return ref_mp.clsin(2, +reduced)


@pytest.mark.parametrize("digits", [15, 20, 50, 100, 300, 1000])
def test_cl2_accuracy_against_clsin(digits):
    # Accuracy relative to the value, so near the zeros 0 and k pi too:
    # seeded angles, both sides of the 2pi/3 switch to the series about pi,
    # and offsets 10^-j from 0, just below pi, both sides of 14pi, and both
    # sides of -pi and 3pi at the deepest offset.  A reference at digits+20
    # resolves a value of about 10^-j only for small j; from j = 10 on it
    # runs at about twice the digits.  clsin is slow near odd multiples of
    # pi (0.8 s each at 640 digits, 14 s at 1080), so -pi and 3pi get one
    # offset, and at 1000 digits only 2pi is tried.
    ctx = PrecisionCtx(digits)
    pi = ctx.pi
    far, near = [], []
    if digits == 1000:
        near = [2 * pi + ctx.pow10(-30), 2 * pi - ctx.pow10(-30)]
        near_dps = digits + 80
    else:
        rng = random.Random(1000 + digits)
        far = [ctx.mpf(rng.uniform(-20, 20)) for _ in range(6)]
        for j in sorted({1, 4, digits // 2, digits - 2, rng.randint(2, digits), digits + 10}):
            eps = ctx.pow10(-j)
            far += [2 * pi / 3 + eps, 2 * pi / 3 - eps]
            (far if j < 10 else near).extend([eps, pi - eps, 14 * pi + eps, 14 * pi - eps])
        # At the deepest offset -pi + eps is -(pi - eps), which the loop has.
        eps = ctx.pow10(-digits - 10)
        near += [-pi - eps, 3 * pi + eps, 3 * pi - eps]
        near_dps = 2 * digits + 40
    ref_mp = MPContext()
    bound = ctx.pow10(-digits)
    for angles, dps in ((far, digits + 20), (near, near_dps)):
        ref_mp.dps = dps
        for theta in angles:
            ref = ref_mp.clsin(2, ref_mp.make_mpf(theta._mpf_))
            assert abs(cl2(theta, ctx) - ref) <= bound * abs(ref), to_decimal(theta, ctx)


class TestLi2:
    def test_zero(self, ctx50):
        assert li2(0, ctx50) == 0

    def test_one(self, ctx50):
        # forced by the reflection identity at x=1 with Li2(0)=0
        assert abs(li2(1, ctx50) - ctx50.pi ** 2 / 6) < ctx50.pow10(-48)

    def test_half(self, ctx50):
        expected = ctx50.pi ** 2 / 12 - ctx50.ln2 ** 2 / 2
        assert abs(li2(ctx50.mpf(1) / 2, ctx50) - expected) < ctx50.pow10(-48)

    def test_against_defining_series(self, ctx50):
        for text in ("0.25", "-0.3", "0.45"):
            x = ctx50.mpf(text)
            assert abs(li2(x, ctx50) - li2_brute(x, ctx50)) < ctx50.pow10(-45)

    def test_unit_circle_imaginary_part_is_cl2(self, ctx50):
        rng = random.Random(5)
        for _ in range(12):
            theta = ctx50.mpf(rng.uniform(0.05, 6.2))
            z = ctx50.mpc(ctx50.cos(theta), ctx50.sin(theta))
            assert abs(li2(z, ctx50).imag - cl2(theta, ctx50)) < ctx50.pow10(-45)

    def test_real_input_real_output(self, ctx50):
        assert isinstance(li2(ctx50.mpf("-7.5"), ctx50), ctx50._mp.mpf)
        assert isinstance(li2(ctx50.mpf("0.999"), ctx50), ctx50._mp.mpf)

    def test_branch_cut_above_one(self, ctx50):
        v = li2(ctx50.mpf(2), ctx50)
        assert isinstance(v, ctx50._mp.mpc)
        assert abs(v.imag + ctx50.pi * ctx50.ln2) < ctx50.pow10(-45)

    def test_reflection_identity_random(self, ctx50):
        rng = random.Random(9)
        for _ in range(10):
            x = ctx50.mpf(rng.uniform(0.01, 0.99))
            res = li2(x, ctx50) + li2(1 - x, ctx50) - ctx50.pi ** 2 / 6 \
                + ctx50.log(x) * ctx50.log(1 - x)
            assert abs(res) < ctx50.pow10(-45)

    def test_non_finite_rejected(self, ctx50):
        with pytest.raises(DomainError):
            li2(ctx50.inf, ctx50)

    def test_landen_and_inversion_identities_random(self, ctx50):
        rng = random.Random(41)
        tol = ctx50.pow10(-45)
        for _ in range(8):
            x = ctx50.mpf(rng.uniform(0.01, 0.99))
            assert abs(li2(x, ctx50) + li2(-x, ctx50) - li2(x * x, ctx50) / 2) < tol
            assert abs(li2(x, ctx50) + li2(-x / (1 - x), ctx50)
                       + ctx50.log(1 - x) ** 2 / 2) < tol
            assert abs(li2(1 / (1 + x), ctx50) - li2(-x, ctx50) - ctx50.pi ** 2 / 6
                       + ctx50.log(1 + x) * ctx50.log((1 + x) / (x * x)) / 2) < tol
            y = ctx50.mpf(rng.uniform(0.01, float(1 - x) - 0.005))
            abel = (li2(x / (1 - x) * y / (1 - y), ctx50)
                    - li2(x / (1 - y), ctx50) - li2(y / (1 - x), ctx50)
                    + li2(x, ctx50) + li2(y, ctx50)
                    + ctx50.log(1 - x) * ctx50.log(1 - y))
            assert abs(abel) < tol


@pytest.mark.parametrize("digits", [20, 60, 250])
def test_li2_relative_accuracy_against_polylog(digits):
    # Relative accuracy where the choice of series matters: tiny |z|, real and
    # complex (Li2(z) ~ z, so only a relative bound sees lost digits), z just
    # below 1 (the reflection), the unit circle (|1 - z| <= 2), and the
    # circle |1 - z| = 1/2 where the reflection starts; |w| is largest where
    # the two circles meet.
    ctx = PrecisionCtx(digits)
    rng = random.Random(2000 + digits)
    mp = ctx._mp
    points = [ctx.mpc(ctx.cos(th), ctx.sin(th))
              for th in [ctx.mpf(rng.uniform(-3.1, 3.1)) for _ in range(6)] + [ctx.pi]]
    for k in range(3, 41):
        r = ctx.pow10(-k) * ctx.mpf(rng.uniform(1, 10))
        th = ctx.mpf(rng.uniform(-3.1, 3.1))
        points += [rng.choice((1, -1)) * r, r * ctx.mpc(ctx.cos(th), ctx.sin(th)),
                   1 - ctx.pow10(-k)]
    edge = random.Random(3000 + digits)
    for _ in range(10):
        th = ctx.mpf(edge.uniform(-3.2, 3.2))
        points.append(ctx.mpc(ctx.cos(th), ctx.sin(th)))
        th = ctx.mpf(edge.uniform(-3.2, 3.2))
        points.append(1 + ctx.mpc(ctx.cos(th), ctx.sin(th)) / 2)
    ref_mp = MPContext()
    ref_mp.dps = 2 * digits + 20
    bound = ctx.pow10(-digits)
    for z in points:
        if isinstance(z, mp.mpc):
            ref_z = ref_mp.make_mpc(z._mpc_)
        else:
            ref_z = ref_mp.make_mpf(z._mpf_)
        ref = ref_mp.polylog(2, ref_z)
        assert abs(li2(z, ctx) - ref) <= bound * abs(ref), mp.nstr(z, 8)


_ctx = PrecisionCtx(30)


@given(st.floats(min_value=-40, max_value=40, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_cl2_oddness_property(theta):
    t = _ctx.mpf(theta)
    assert cl2(-t, _ctx) == -cl2(t, _ctx)

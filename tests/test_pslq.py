import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import mpf_reference as ref
from tetraclausen.mpcore import PrecisionCtx
from tetraclausen.feynman import MassPair, derive, r_vector
from tetraclausen.polylog import cl2
from tetraclausen.pslq import (
    InsufficientPrecision,
    check_relation,
    find_relation,
    read_value_file,
)


def random_real(rng, ctx):
    """A full-precision random value in (1, 4); never an exact small rational."""
    digits = "".join(str(rng.randint(0, 9)) for _ in range(ctx.digits + 5))
    return ctx.mpf("0." + digits) + rng.randint(1, 3)


class TestFindRelation:
    def test_one_half(self, ctx100):
        r = find_relation([ctx100.mpf(1), ctx100.mpf(1) / 2], 100, ctx100)
        assert r.found and r.coeffs == (1, -2)
        assert r.residual < ctx100.pow10(-70)

    def test_clausen_third_pi_pair(self, ctx100):
        xs = [cl2(2 * ctx100.pi / 3, ctx100), cl2(ctx100.pi / 3, ctx100)]
        r = find_relation(xs, 1000, ctx100)
        assert r.found and r.coeffs == (3, -2)

    def test_conjecture_vector(self):
        ctx = PrecisionCtx(200)
        al = ctx.atan(1 / ctx.sqrt(2))
        be = ctx.atan(ctx.sqrt(8) + ctx.sqrt(3))
        xs = [cl2(2 * be - 2 * al, ctx), cl2(ctx.pi - 4 * al, ctx),
              cl2(ctx.pi - 2 * be, ctx), cl2(ctx.pi + 2 * al, ctx), cl2(4 * al, ctx)]
        r = find_relation(xs, 10 ** 6, ctx)
        assert r.found
        assert r.coeffs in ((12, -4, 12, 18, -7), (-12, 4, -12, -18, 7))

    def test_r2_r9_pair_at_reciprocal_pi_e(self):
        ctx = PrecisionCtx(200)
        ang = derive(MassPair(1 / ctx.pi, ctx.exp(ctx.mpf(-1))), ctx)
        rv = r_vector(ang, ctx)
        r = find_relation([rv["r2"][1], rv["r9"][1]], 10 ** 6, ctx)
        assert r.found and r.coeffs == (1, -1)

    def test_no_false_positives(self, ctx100):
        rng = random.Random(11)
        xs = [random_real(rng, ctx100) for _ in range(8)]
        r = find_relation(xs, 10 ** 4, ctx100)
        assert r.status == "none_found"
        assert r.exclusion_bound >= 10 ** 4

    def test_scale_invariance(self, ctx100):
        xs = [cl2(2 * ctx100.pi / 3, ctx100), cl2(ctx100.pi / 3, ctx100)]
        scaled = [x * ctx100.mpf("337.25") for x in xs]
        assert find_relation(xs, 1000, ctx100).coeffs == \
            find_relation(scaled, 1000, ctx100).coeffs

    def test_soundness_recheck(self, ctx100):
        xs = [cl2(2 * ctx100.pi / 3, ctx100), cl2(ctx100.pi / 3, ctx100)]
        r = find_relation(xs, 1000, ctx100)
        confirm = PrecisionCtx(ctx100.digits + 20)
        assert check_relation(r.coeffs, xs, confirm) < ctx100.pow10(-70)

    def test_canonical_form(self, ctx100):
        # scaled relation 2x - 2y/... gcd reduced, leading coefficient positive
        x = ctx100.mpf(3) / 7
        r = find_relation([x, ctx100.mpf(1)], 100, ctx100)
        assert r.found and r.coeffs == (7, -3)
        g = 0
        for c in r.coeffs:
            g = math.gcd(g, abs(c))
        assert g == 1
        assert next(c for c in r.coeffs if c) > 0

    def test_insufficient_precision_distinct_from_none_found(self, ctx100):
        # With the iteration budget exhausted before either verdict the search
        # must NOT report none_found.
        rng = random.Random(4)
        xs = [random_real(rng, ctx100) for _ in range(6)]
        with pytest.raises(InsufficientPrecision):
            find_relation(xs, ctx100.pow10(60), ctx100, max_iterations=3)

    def test_low_precision_finds_rational_approximation(self):
        # At 16 digits the detection threshold is 1e-11; continued-fraction
        # convergents of pi sit below it, so a relation is legitimately found
        # and must re-verify at higher precision.
        ctx = PrecisionCtx(16, 5)
        r = find_relation([ctx.mpf(1), ctx.pi], ctx.pow10(40), ctx)
        assert r.found
        confirm = PrecisionCtx(60)
        assert check_relation(r.coeffs, [confirm.mpf(1), confirm.pi], confirm) \
            < confirm.pow10(-11)

    def test_relation_above_max_norm_not_found(self, ctx60):
        # (700, -900, 1100, 1) has norm ~1584: found under max_norm 10^4,
        # never reported as found under 1000.
        xs = [ctx60.pi, ctx60.ln2, ctx60.sqrt(3)]
        xs.append(-(700 * xs[0] - 900 * xs[1] + 1100 * xs[2]))
        assert find_relation(xs, 10 ** 4, ctx60).coeffs == (700, -900, 1100, 1)
        with pytest.raises(InsufficientPrecision, match="above max_norm"):
            find_relation(xs, 1000, ctx60)

    def test_input_validation(self, ctx100):
        with pytest.raises(ValueError):
            find_relation([ctx100.mpf(1)], 100, ctx100)
        with pytest.raises(ValueError):
            find_relation([ctx100.mpf(1), ctx100.mpf(0)], 100, ctx100)
        for bound in (0, -5):
            with pytest.raises(ValueError, match="max_norm must be positive"):
                find_relation([ctx100.pi, ctx100.ln2], bound, ctx100)


_planted_ctx = PrecisionCtx(60)


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_planted_relation_recovery(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    coeffs = data.draw(st.lists(st.integers(min_value=-7, max_value=7),
                                min_size=n, max_size=n))
    if not any(coeffs):
        coeffs[0] = 1
    if coeffs[0] == 0:
        coeffs[0] = 2
    assert sum(c * c for c in coeffs) <= 50 * 50
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10 ** 6)))
    xs = [random_real(rng, _planted_ctx) for _ in range(n)]
    xs[0] = -sum(c * x for c, x in zip(coeffs[1:], xs[1:])) / coeffs[0]
    if xs[0] == 0:
        xs[0] = _planted_ctx.mpf(1)
        coeffs = [0] + coeffs[1:]
        if not any(coeffs):
            return
    found = find_relation(xs, 10 ** 4, _planted_ctx)
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    expected = [c // g for c in coeffs]
    if next(c for c in expected if c) < 0:
        expected = [-c for c in expected]
    assert found.found
    assert found.coeffs == tuple(expected)


def _outcome(search, xs, max_norm, ctx):
    try:
        return search(xs, max_norm, ctx)
    except (InsufficientPrecision, ValueError) as exc:
        return exc


def _differential_cases(digits, count):
    """Seeded vectors at ``digits``, n = 2..12, entries spread by up to
    10^+-30: independent, planted with coefficients up to 9, and planted
    with coefficients up to 3000 under a random max_norm or under 1000."""
    ctx = PrecisionCtx(digits, 5 if digits < 30 else 10)
    rng = random.Random(digits)
    for case in range(count):
        n = rng.randint(2, 12)
        spread = rng.choice((0, 0, 5, 30))
        xs = [random_real(rng, ctx) * ctx.pow10(rng.randint(-spread, spread)) for _ in range(n)]
        max_norm = 10 ** rng.randint(3, 9)
        if case % 4:
            big = 9 if case % 4 == 1 else 3000
            coeffs = [rng.randint(-big, big) for _ in range(n)]
            coeffs[0] = rng.choice((-3, -1, 1, 2))
            xs[0] = -sum(c * x for c, x in zip(coeffs[1:], xs[1:])) / coeffs[0]
            if case % 4 == 3:
                max_norm = 1000
        yield ctx, xs, max_norm


@pytest.mark.parametrize("digits,count", [(16, 16), (25, 16), (60, 12), (100, 8), (200, 6)])
def test_fixed_point_matches_mpf_iteration(digits, count):
    # Same verdict, relation, iteration count and error as the iteration on
    # mpf objects, and exclusion bounds that agree to a third of the digits
    # (past that, both sides carry noise).
    for case, (ctx, xs, max_norm) in enumerate(_differential_cases(digits, count)):
        got = _outcome(find_relation, xs, max_norm, ctx)
        want = _outcome(ref.find_relation_mpf, xs, max_norm, ctx)
        label = (digits, case, len(xs), max_norm)
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want)), label
            continue
        assert (got.status, got.coeffs, got.residual, got.iterations) == \
            (want.status, want.coeffs, want.residual, want.iterations), label
        if not got.found:
            rel_diff = abs(got.exclusion_bound / want.exclusion_bound - 1)
            assert rel_diff < ctx.pow10(-digits // 3), label


def test_fixed_point_scale_covers_magnitude_spread():
    # Entries 10^60 apart: a fixed-point scale of prec_work + guard bits
    # alone leaves the small normalized entry no bits, and H a zero diagonal.
    ctx = PrecisionCtx(25, 5)
    small = [1, ctx.sqrt(2), ctx.exp(1), ctx.pi * ctx.pow10(-60)]
    large = [ctx.pi * ctx.pow10(60), 1, ctx.sqrt(2), ctx.exp(1)]
    assert find_relation(small, 1000, ctx).coeffs == (0, 0, 0, 1)
    assert find_relation(large, 1000, ctx).coeffs == (0, 1, 0, 0)


class TestCheckRelation:
    def test_exact_zero(self, ctx100):
        assert check_relation((1, -2), [ctx100.mpf(1), ctx100.mpf(1) / 2], ctx100) == 0

    def test_clausen_pair(self, ctx100):
        xs = [cl2(2 * ctx100.pi / 3, ctx100), cl2(ctx100.pi / 3, ctx100)]
        assert check_relation((3, -2), xs, ctx100) < ctx100.pow10(-95)

    def test_nonzero(self, ctx100):
        v = check_relation((1, 1), [ctx100.mpf(1), ctx100.pi], ctx100)
        assert abs(v - (1 + ctx100.pi)) < ctx100.pow10(-90)

    def test_length_mismatch(self, ctx100):
        with pytest.raises(ValueError):
            check_relation((1, 2, 3), [ctx100.mpf(1), ctx100.mpf(2)], ctx100)


def test_read_value_file(tmp_path, ctx100):
    path = tmp_path / "values.txt"
    path.write_text("# header comment\n1.5\n-2.25e-3  # trailing comment\n\n0.125\n")
    values = read_value_file(str(path), ctx100)
    assert values == [ctx100.mpf("1.5"), ctx100.mpf("-0.00225"), ctx100.mpf("0.125")]
    bad = tmp_path / "bad.txt"
    bad.write_text("1.5\nnot-a-number\n")
    with pytest.raises(ValueError):
        read_value_file(str(bad), ctx100)

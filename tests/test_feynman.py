import json
import math
import random

import pytest

from tetraclausen import feynman
from tetraclausen.mpcore import DomainError, get_ctx, to_decimal
from tetraclausen.feynman import (
    MassPair,
    Q_RELATIONS,
    R_RELATIONS,
    RS_RELATIONS,
    c_closed,
    c_direct,
    closed_integrals,
    derive,
    q_vector,
    r_vector,
    relation_residual,
    s_vector,
    stepwise,
)
from tetraclausen.cli import main
from tetraclausen.polylog import cl2
from tetraclausen.quad import QuadratureError
from oracles import c_eight_term


def recip_pi_e(ctx):
    return MassPair(1 / ctx.pi, ctx.exp(ctx.mpf(-1)))


class TestDerive:
    def test_unit_masses(self, ctx50):
        ang = derive(MassPair(ctx50.mpf(1), ctx50.mpf(1)), ctx50)
        tol = ctx50.pow10(-48)
        assert abs(ang.c - ctx50.sqrt(3)) < tol
        assert abs(ang.d - ctx50.sqrt(2)) < tol
        assert ang.p == 4
        assert abs(ang.phi - ctx50.atan(ctx50.sqrt(2) / 4)) < tol
        assert abs(ang.phi_a - ang.phi_b) < tol
        assert abs(ang.phi_a - ctx50.atan(ctx50.sqrt(2))) < tol
        # phi = pi/2 - 2*arctan(1/sqrt(2)), phi_a = pi/2 - arctan(1/sqrt(2))
        al = ctx50.atan(1 / ctx50.sqrt(2))
        assert abs(ang.phi - (ctx50.pi / 2 - 2 * al)) < tol
        assert abs(ang.phi_a - (ctx50.pi / 2 - al)) < tol

    def test_small_mass_limit(self, ctx50):
        # as (a,b) -> (0,0): d->2, p->2, phi->pi/4, alpha7->pi/4, phi_a->pi/2
        eps = ctx50.mpf("1e-6")
        ang = derive(MassPair(eps, eps), ctx50)
        assert abs(ang.d - 2) < ctx50.mpf("1e-11")
        assert abs(ang.p - 2) < ctx50.mpf("3e-6")
        assert abs(ang.phi - ctx50.pi / 4) < ctx50.mpf("1e-5")
        assert abs(ang.alpha7 - ctx50.pi / 4) < ctx50.mpf("1e-2")
        assert abs(ang.phi_a - ctx50.pi / 2) < ctx50.mpf("1e-5")

    def test_angle_identities_at_reciprocal_pi_e(self, ctx50):
        from tetraclausen.feynman import angle_identity_residuals

        ang = derive(recip_pi_e(ctx50), ctx50)
        residuals = angle_identity_residuals(ang, ctx50)
        assert len(residuals) == 7
        assert all(abs(v) < ctx50.pow10(-40) for v in residuals.values())

    def test_closure_identity(self, ctx50):
        rng = random.Random(31)
        for _ in range(5):
            a = ctx50.mpf(rng.uniform(0.1, 1.5))
            b = ctx50.mpf(rng.uniform(0.1, 1.2))
            ang = derive(MassPair(a, b), ctx50)
            res = (4 - a * a) * (4 - b * b) - a * a * b * b - 4 * ang.d ** 2
            assert abs(res) < ctx50.pow10(-45)

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.5, 1.5), (0.0, 1.0), (-1.0, 1.0)])
    def test_region_rejected(self, ctx50, a, b):
        with pytest.raises(DomainError):
            mp = MassPair(ctx50.mpf(a), ctx50.mpf(b))
            derive(mp, ctx50)

    def test_ill_conditioned_margin_rejected(self, ctx50):
        with pytest.raises(DomainError):
            derive(MassPair(ctx50.mpf("1e-30"), ctx50.mpf(1)), ctx50)
        close = ctx50.sqrt(4 - ctx50.pow10(-30))
        with pytest.raises(DomainError):
            derive(MassPair(close / ctx50.sqrt(2), close / ctx50.sqrt(2)), ctx50)


class TestVectors:
    def test_q3_equals_q6_exactly(self, ctx50):
        ang = derive(MassPair(ctx50.mpf("0.8"), ctx50.mpf("1.1")), ctx50)
        qv = q_vector(ang, ctx50)
        assert qv["q3"][0] == qv["q6"][0]   # same defining angle 2*alpha2
        assert qv["q3"][1] == qv["q6"][1]

    def test_relation_counts(self):
        assert len(R_RELATIONS) == 6
        assert len(RS_RELATIONS) == 7
        assert len(Q_RELATIONS) == 3

    def test_relations_vanish_at_random_pairs(self, ctx50):
        rng = random.Random(77)
        for _ in range(4):
            a = ctx50.mpf(rng.uniform(0.1, 1.6))
            b = ctx50.mpf(rng.uniform(0.1, 1.6))
            if a * a + b * b >= ctx50.mpf("3.9"):
                continue
            ang = derive(MassPair(a, b), ctx50)
            values = q_vector(ang, ctx50)
            values.update(r_vector(ang, ctx50))
            values.update(s_vector(ang, ctx50))
            for name, combo in Q_RELATIONS + R_RELATIONS + RS_RELATIONS:
                assert abs(relation_residual(values, combo)) < ctx50.pow10(-45), name

    def test_tan_form_of_r5_equals_r11(self, ctx50):
        # the half-angle relation (delta4 - alpha4)/2 = alpha7 - delta8,
        # written through tangents as a rational identity in a, b
        rng = random.Random(123)
        for _ in range(8):
            a = ctx50.mpf(rng.uniform(0.05, 1.5))
            b = ctx50.mpf(rng.uniform(0.05, 1.5))
            c = ctx50.sqrt(4 - b * b)
            d = ctx50.sqrt(4 - a * a - b * b)
            p = a + b + 2
            u = ctx50.sqrt(2 * b * b + 4 * b)
            lhs = d * u / (p * p + d * d + p * u)
            top = (a * b + c * d) / (2 * d + b * c) - (p * c - d * u) / (d * d + a * p)
            bottom = 1 + (a * b + c * d) * (p * c - d * u) / ((2 * d + b * c) * (d * d + a * p))
            assert abs(lhs - top / bottom) < ctx50.pow10(-45)


class TestRoutes:
    def test_c11_against_clausen_conjecture_form(self, ctx50):
        m = MassPair(ctx50.mpf(1), ctx50.mpf(1))
        al = ctx50.asin(ctx50.mpf(1) / 3)
        broadhurst = 4 * ctx50.sqrt(2) * (cl2(4 * al, ctx50) - cl2(2 * al, ctx50))
        assert abs(c_closed(m, ctx50) - broadhurst) < ctx50.pow10(-40)
        direct = c_direct(m, ctx50.pow10(-35), ctx50)
        assert abs(direct.value - broadhurst) < ctx50.pow10(-30)

    @pytest.mark.parametrize("tol", [0, -1])
    def test_direct_tol_must_be_positive(self, ctx50, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            c_direct(MassPair(ctx50.mpf(1), ctx50.mpf(1)), tol, ctx50)

    def test_unreachable_direct_tol_raises(self, ctx50):
        with pytest.raises(QuadratureError) as info:
            c_direct(MassPair(ctx50.mpf(1), ctx50.mpf(1)), ctx50.pow10(-100), ctx50)
        assert info.value.result.error_estimate > ctx50.pow10(-100)

    def test_closed_form_symmetry(self, ctx50):
        a, b = ctx50.mpf("0.4"), ctx50.mpf("1.3")
        assert abs(c_closed(MassPair(a, b), ctx50) - c_closed(MassPair(b, a), ctx50)) \
            < ctx50.pow10(-47)

    def test_direct_symmetry(self, ctx50):
        tol = ctx50.pow10(-30)
        rng = random.Random(2)
        a = ctx50.mpf(rng.uniform(0.2, 1.4))
        b = ctx50.mpf(rng.uniform(0.2, 1.4))
        va = c_direct(MassPair(a, b), tol, ctx50)
        vb = c_direct(MassPair(b, a), tol, ctx50)
        assert abs(va.value - vb.value) < 2 * tol

    def test_stepwise_full_consistency(self, ctx50):
        m = MassPair(ctx50.mpf(1), ctx50.mpf(1))
        report = stepwise(m, ctx50)
        match_tol = ctx50.pow10(-40)
        for name in ("I1", "I2", "I3", "I4"):
            assert report.match_residuals[name] < match_tol, name
        assert abs(report.i1_plus_i2_closed) < ctx50.pow10(-40)
        assert abs(report.i1_plus_i2_quad) < ctx50.pow10(-25)
        direct = c_direct(m, ctx50.pow10(-30), ctx50)
        assert abs(report.c_from_steps - direct.value) < ctx50.pow10(-25)
        assert abs(report.direct.value - direct.value) < ctx50.pow10(-25)
        assert abs(report.c_from_steps - c_closed(m, ctx50)) < ctx50.pow10(-40)
        assert report.closed == c_closed(m, ctx50)

    def test_stepwise_asymmetric_point(self, ctx50):
        report = stepwise(MassPair(ctx50.mpf("0.3"), ctx50.mpf("1.7")), ctx50)
        assert abs(report.c_from_steps - c_closed(MassPair(ctx50.mpf("0.3"),
                                                           ctx50.mpf("1.7")), ctx50)) \
            < ctx50.pow10(-40)

    def test_reciprocal_pi_e_point(self, ctx50):
        m = recip_pi_e(ctx50)
        tol = ctx50.pow10(-30)
        closed = c_closed(m, ctx50)
        direct = c_direct(m, tol, ctx50)
        assert abs(direct.value - closed) < tol
        report = stepwise(m, ctx50)
        assert abs(report.i1_plus_i2_closed) < ctx50.pow10(-40)
        # the eight-term form written as 2d(I3+I4) = s1+s2+s3+s4-s5-s6-s7-s8
        sv = report.s
        s_sum = (sv["s1"][1] + sv["s2"][1] + sv["s3"][1] + sv["s4"][1]
                 - sv["s5"][1] - sv["s6"][1] - sv["s7"][1] - sv["s8"][1])
        lhs = 2 * report.angles.d * (report.i_closed["I3"] + report.i_closed["I4"])
        assert abs(lhs - s_sum) < ctx50.pow10(-40)


def seeded_masses(ctx, rng, per_class):
    """Per class, ``per_class`` pairs: one mass log-uniform in [1e-5, 1e-2],
    4 - a^2 - b^2 log-uniform in [1e-8, 1e-2], and uniform in the region."""
    pairs = []
    for _ in range(per_class):
        small, other = ctx.mpf(10 ** rng.uniform(-5, -2)), ctx.mpf(rng.uniform(0.05, 1.95))
        pairs.append((small, other) if rng.random() < 0.5 else (other, small))
        gap, th = ctx.mpf(10 ** rng.uniform(-8, -2)), rng.uniform(0.15, math.pi / 2 - 0.15)
        a = ctx.sqrt(4 - gap) * ctx.cos(th)
        pairs.append((a, ctx.sqrt(4 - gap - a * a)))
        r, th = math.sqrt(rng.uniform(0, 3.99)), rng.uniform(0, math.pi / 2)
        pairs.append((ctx.mpf(max(r * math.cos(th), 1e-3)), ctx.mpf(max(r * math.sin(th), 1e-3))))
    return pairs


@pytest.mark.parametrize("digits", [20, 50])
def test_all_routes_pass_at_seeded_masses(capsys, digits):
    # Masses near 0 and near a^2 + b^2 = 4 pass every check of
    # ``feynman --method all`` under its tolerance.
    ctx = get_ctx(digits)
    for a, b in seeded_masses(ctx, random.Random(digits), 4):
        argv = ["feynman", "--a", to_decimal(a, ctx), "--b", to_decimal(b, ctx),
                "--digits", str(digits), "--json"]
        assert main(argv) == 0, argv
        results = json.loads(capsys.readouterr().out)["results"]
        assert len(results) == 8 and all(r["status"] == "pass" for r in results), argv


@pytest.mark.parametrize("digits,per_class", [(15, 4), (20, 4), (25, 4), (50, 4), (100, 1)])
def test_closed_forms_meet_the_digits_contract(digits, per_class):
    # Each public value is rounded once, after its Clausen sum, so C(a,b) by
    # the closed form and by the steps is within one unit in the last of
    # ``digits`` significant digits, or the call raises the typed DomainError.
    ctx = get_ctx(digits)
    for a, b in seeded_masses(ctx, random.Random(digits), per_class):
        try:
            report = stepwise(MassPair(a, b), ctx)
        except DomainError:
            continue
        ref = c_eight_term(a, b, digits)
        mp = ref.context
        ulp = mp.mpf(10) ** (mp.floor(mp.log10(abs(ref))) - digits + 1)
        for name in ("closed", "c_from_steps"):
            assert abs(mp.mpf(getattr(report, name)) - ref) <= ulp, (a, b, name)


def closed_panels(a, b, digits):
    """The finite and tail panels' three components from the closed forms
    of I1..I4 at 2*digits + 30 digits (weight 1/(w(w+a)) = (1/w - 1/(w+a))/a)."""
    hi = get_ctx(2 * digits + 30)
    a, b = hi.mpf(a), hi.mpf(b)
    ang = derive(MassPair(a, b), hi)
    i = closed_integrals(ang, {**q_vector(ang, hi), **r_vector(ang, hi)}, hi)
    return ((i["I2"], i["I4"], (i["I2"] - i["I4"]) / a),
            (i["I1"], i["I3"], (i["I1"] - i["I3"]) / a))


class TestQuadratureEstimates:
    @pytest.mark.parametrize("digits,per_class", [(15, 4), (20, 4), (25, 4), (50, 4), (100, 1)])
    def test_panel_values_within_estimates(self, digits, per_class):
        # Each estimate covers the quadrature error and the rounding of the
        # value to ``digits``, at stepwise's sweep tolerance.
        ctx = get_ctx(digits)
        for a, b in seeded_masses(ctx, random.Random(digits), per_class):
            finite, tail, _ = feynman._sweep(a, b, ctx, ctx.pow10(-digits + 10) / 4)
            for panel, want in zip((finite, tail), closed_panels(a, b, digits)):
                for k, (got, ref) in enumerate(zip(panel, want)):
                    assert abs(got.value - ref) <= got.error_estimate, (a, b, k)

    def test_early_stop_at_100_digits(self):
        # Stopping on the extrapolated error saves the finite panel its
        # level 7 (1,310 evaluations before); the tail panel already met
        # |S_6 - S_5| < tol/2, so it keeps its 708 evaluations and 6 levels.
        ctx = get_ctx(100)
        report = stepwise(MassPair(ctx.mpf("0.7"), ctx.mpf("1.1")), ctx)
        finite, tail = report.i_quad["I2"], report.i_quad["I1"]
        assert (finite.evaluations, finite.levels) == (662, 6)
        assert (tail.evaluations, tail.levels) == (708, 6)
        assert (report.direct.evaluations, report.direct.levels) == (1370, 6)

    def test_direct_estimate_before_quadratic_regime(self):
        # Here the level errors run 10^-1.6, 10^-5.2, 10^-7.2: the
        # extrapolation would stop too early without the regime check.
        ctx = get_ctx(20)
        a, b = ctx.mpf("1.16000590504621"), ctx.mpf("0.000406249961977635")
        direct = stepwise(MassPair(a, b), ctx).direct
        hi = get_ctx(70)
        assert abs(direct.value - c_closed(MassPair(hi.mpf(a), hi.mpf(b)), hi)) \
            <= direct.error_estimate

    @pytest.mark.parametrize("v", ["1e-20", "1", "100", "1e10", "1e40"])
    def test_tail_arctanh_keeps_relative_precision(self, v):
        ctx, hi = get_ctx(100), get_ctx(200)
        a, b, v = ctx.mpf("0.935"), ctx.mpf("2.39e-5"), ctx.mpf(v)
        got = feynman._tail_panel_integrand(a, b, ctx)(v)[0]
        w = hi.mpf(v) + 2 + hi.mpf(b)
        root = hi.sqrt(w * w + hi.mpf(b) ** 2 - 4)
        want = hi._mp.atanh(hi.mpf(b) / root) / (w * root)
        assert abs(got - want) <= abs(want) * ctx._mp.mpf(2) ** (-ctx.prec_work + 4)


def test_masspair_invariants():
    with pytest.raises(DomainError):
        MassPair(-1.0, 1.0)
    with pytest.raises(DomainError):
        MassPair(1.9, 1.9)

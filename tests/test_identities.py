import pytest

from tetraclausen.mpcore import PrecisionCtx
from tetraclausen import identities
from tetraclausen.identities import (
    appendix_chain,
    broadhurst_series,
    catalog,
    catalog_names,
    evaluate,
    get_spec,
    verify,
)


class TestCatalog:
    def test_expected_entries(self):
        names = catalog_names()
        assert "theorem-1" in names
        assert "prop-1" in names and "prop-2" in names
        assert "broadhurst-c11" in names and "broadhurst-series" in names
        assert all(("chain-2.%d" % k) in names for k in range(1, 10))

    def test_theorem_1_has_single_t_parameter(self):
        spec = get_spec("theorem-1")
        assert len(spec.parameters) == 1
        assert spec.parameters[0][0] == "t"
        assert "0.01" in spec.parameters[0][1]

    def test_five_lewin_specs(self):
        lewin = [n for n in catalog_names() if n.startswith("lewin-")]
        assert lewin == ["lewin-1.%d" % k for k in range(1, 6)]

    def test_exactly_one_conjectural(self):
        conjectural = [s.name for s in catalog() if s.status == "conjectural"]
        assert conjectural == ["conj-1.4"]

    def test_stable_keys(self):
        assert catalog_names() == catalog_names()
        with pytest.raises(KeyError):
            get_spec("no-such-identity")


class TestVerify:
    def test_theorem_1(self, ctx60):
        rep = verify("theorem-1", 20, 42, ctx60)
        assert rep.passed
        assert rep.samples == 20
        assert rep.max_residual < ctx60.pow10(-50)

    def test_conj_11_single_sample(self, ctx60):
        rep = verify("conj-1.1", 1, 42, ctx60)
        assert rep.passed and rep.samples == 1

    def test_prop_2(self, ctx60):
        rep = verify("prop-2", 20, 42, ctx60)
        assert rep.passed

    def test_deterministic_given_seed(self, ctx60):
        a = verify("prop-1", 8, 1234, ctx60)
        b = verify("prop-1", 8, 1234, ctx60)
        assert a == b

    def test_full_catalog_passes(self, ctx60):
        # Residuals are formed from unrounded values and rounded once, so they
        # sit far below the pass threshold, except where a side is a rounded
        # public value (c_closed, broadhurst_series).
        rounded_sides = ("broadhurst-c11", "broadhurst-series")
        for name in catalog_names():
            rep = verify(name, 5, 42, ctx60)
            assert rep.passed, (name, rep.max_residual)
            if name not in rounded_sides:
                assert rep.max_residual < ctx60.pow10(-ctx60.digits - 5), (name, rep.max_residual)

    def test_conjecture_14_at_60_and_200_digits(self, ctx60):
        rep60 = verify("conj-1.4", 1, 42, ctx60)
        assert rep60.passed and rep60.status == "conjectural"
        ctx200 = PrecisionCtx(200)
        rep200 = verify("conj-1.4", 1, 42, ctx200)
        assert rep200.passed
        assert rep200.max_residual < ctx200.pow10(-190)

    def test_unknown_name(self, ctx60):
        with pytest.raises(KeyError):
            verify("nonexistent", 5, 42, ctx60)

    def test_bad_sample_count(self, ctx60):
        with pytest.raises(ValueError):
            verify("theorem-1", 0, 42, ctx60)


class TestDerivativeChecks:
    """Centered finite differences of the residual functions vanish: the
    identities hold on parameter intervals, not just at sample points."""

    def test_theorem_1_flat(self, ctx60):
        h = ctx60.pow10(-20)
        for t0 in ("0.21", "0.5", "0.83"):
            t = ctx60.mpf(t0)
            f_plus = evaluate("theorem-1", {"t": t + h}, ctx60)
            f_minus = evaluate("theorem-1", {"t": t - h}, ctx60)
            assert abs(f_plus - f_minus) / (2 * h) < ctx60.pow10(-20)

    @pytest.mark.parametrize("name", ["prop-1", "prop-2"])
    def test_propositions_flat(self, ctx60, name):
        h = ctx60.pow10(-20)
        a, b = ctx60.mpf("0.62"), ctx60.mpf("1.17")
        for da, db in ((1, 0), (0, 1), (1, 1)):
            f_plus = evaluate(name, {"a": a + da * h, "b": b + db * h}, ctx60)
            f_minus = evaluate(name, {"a": a - da * h, "b": b - db * h}, ctx60)
            assert abs(f_plus - f_minus) / (2 * h) < ctx60.pow10(-20)


def test_prop_1_at_unit_masses(ctx60):
    # At a = b = 1 the gamma angle satisfies tan(gamma) = sqrt(8)+sqrt(3),
    # which is how conj-1.3 follows; the residual must vanish there too.
    res = evaluate("prop-1", {"a": 1, "b": 1}, ctx60)
    assert res < ctx60.pow10(-50)


def test_alpha_convention_bridge(ctx60):
    # tan(alpha_c) = 1/sqrt(2) and sin(alpha_b) = 1/3 are linked by
    # 2*alpha_c = pi/2 - alpha_b.
    alpha_c = ctx60.atan(1 / ctx60.sqrt(2))
    alpha_b = ctx60.asin(ctx60.mpf(1) / 3)
    assert abs(2 * alpha_c - (ctx60.pi / 2 - alpha_b)) < ctx60.pow10(-58)


class TestBroadhurstSeries:
    def test_leading_term(self, ctx50):
        # n = 0 contributes (1/(1/2))(1/(1/2) - 3 log 2) = 2(2 - 3 log 2)
        one_term = broadhurst_series(ctx50, 1)
        assert abs(one_term.value - 2 * (2 - 3 * ctx50.ln2)) < ctx50.pow10(-48)

    def test_tail_bound_is_geometric(self, ctx50):
        s80 = broadhurst_series(ctx50, 80)
        assert s80.tail_bound < ctx50.pow10(-65)
        assert s80.tail_bound > 0

    def test_80_vs_120_terms(self):
        ctx = PrecisionCtx(90)
        s80 = broadhurst_series(ctx, 80)
        s120 = broadhurst_series(ctx, 120)
        assert abs(s80.value - s120.value) < ctx.pow10(-70)

    def test_equals_clausen_form(self, ctx50):
        from tetraclausen.polylog import cl2

        series = broadhurst_series(ctx50, 120)
        al = ctx50.asin(ctx50.mpf(1) / 3)
        rhs = 4 * ctx50.sqrt(2) * (cl2(4 * al, ctx50) - cl2(2 * al, ctx50))
        assert abs(series.value - rhs) < ctx50.pow10(-40)

    def test_bad_terms(self, ctx50):
        with pytest.raises(ValueError):
            broadhurst_series(ctx50, 0)


class TestAppendixChain:
    def test_all_steps_pass(self, ctx50):
        report = appendix_chain(ctx50)
        assert report.passed
        assert set(report.residuals) >= {"chain-2.%d" % k for k in range(1, 10)}
        for name, res in report.residuals.items():
            assert res < ctx50.pow10(-40), name

    def test_substitution_checks_present(self, ctx50):
        report = appendix_chain(ctx50)
        assert report.residuals["subst-x-over-1mx"] < ctx50.pow10(-45)
        assert report.residuals["u-unit-modulus"] < ctx50.pow10(-45)

    def test_each_dilogarithm_once(self, ctx60, monkeypatch):
        # The nine steps take li2 at 11 arguments, 34 times; conj(z) = -z
        # leaves 10 values, and one table per precision serves the nine
        # entries and appendix_chain.
        calls = []
        real = identities.li2

        def counting(z, ctx):
            calls.append(z)
            return real(z, ctx)

        monkeypatch.setattr(identities, "li2", counting)
        identities._chain.cache_clear()
        names = ["chain-2.%d" % k for k in range(1, 10)]
        entries = {name: verify(name, 1, 42, ctx60).max_residual for name in names}
        assert len(calls) == 10
        report = appendix_chain(ctx60)
        assert len(calls) == 10
        for name in names:
            assert report.residuals[name]._mpf_ == entries[name]._mpf_, name

    def test_steps_individually_cataloged(self, ctx60):
        # a failure would localize to one derivation step
        for k in range(1, 10):
            rep = verify("chain-2.%d" % k, 1, 42, ctx60)
            assert rep.passed, rep


def test_harmonic_closed_form_exercises_complex_branch(ctx60):
    res = identities.evaluate("harmonic-closed-form", {"point": "complex"}, ctx60)
    assert res < ctx60.pow10(-50)
    res_real = identities.evaluate("harmonic-closed-form", {"z": 0.7}, ctx60)
    assert res_real < ctx60.pow10(-50)

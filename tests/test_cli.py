import json
import random
import subprocess
import sys

import jsonschema
import pytest

from tetraclausen import feynman, pslq
from tetraclausen.cli import REPORT_SCHEMA, main, parse_number
from tetraclausen.mpcore import from_decimal, get_ctx
from tetraclausen.polylog import cl2
from tetraclausen.quad import QuadratureError


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "tetraclausen.cli"] + args,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestNumberGrammar:
    @pytest.mark.parametrize("text,expected", [
        ("pi", "pi"), ("2pi/3", "2pi/3"), ("-pi/2", "-pi/2"),
        ("1/3", "1/3"), ("0.25", "0.25"), ("1e-3", "1e-3"), ("7", "7"),
    ])
    def test_accepted(self, ctx50, text, expected):
        value = parse_number(text, ctx50)
        checks = {
            "pi": ctx50.pi, "2pi/3": 2 * ctx50.pi / 3, "-pi/2": -ctx50.pi / 2,
            "1/3": ctx50.mpf(1) / 3, "0.25": ctx50.mpf("0.25"),
            "1e-3": ctx50.mpf("0.001"), "7": ctx50.mpf(7),
        }
        assert abs(value - checks[expected]) < ctx50.pow10(-55)

    def test_named_reciprocals(self, ctx50):
        assert abs(parse_number("1/pi", ctx50) - 1 / ctx50.pi) < ctx50.pow10(-55)
        assert abs(parse_number("1/e", ctx50) - ctx50.exp(ctx50.mpf(-1))) < ctx50.pow10(-55)
        assert abs(parse_number("e", ctx50) - ctx50.exp(ctx50.mpf(1))) < ctx50.pow10(-55)

    @pytest.mark.parametrize("text", ["pie", "two", "1..2", "nan", "inf", "0x12", ""])
    def test_rejected(self, ctx50, text):
        with pytest.raises(Exception):
            parse_number(text, ctx50)


class TestEval:
    def test_cl2_value_matches_library(self, capsys, ctx50):
        assert main(["eval", "cl2", "--theta", "pi/3", "--digits", "50"]) == 0
        printed = capsys.readouterr().out.strip()
        # Cl2(pi/3) = (3/2) Cl2(2pi/3), computed separately
        expected = ctx50.mpf(3) / 2 * cl2(2 * ctx50.pi / 3, ctx50)
        assert abs(from_decimal(printed, ctx50) - expected) < ctx50.pow10(-48)

    def test_li2_real(self, capsys, ctx50):
        assert main(["eval", "li2", "--x", "1/2", "--digits", "50"]) == 0
        printed = capsys.readouterr().out.strip()
        expected = ctx50.pi ** 2 / 12 - ctx50.ln2 ** 2 / 2
        assert abs(from_decimal(printed, ctx50) - expected) < ctx50.pow10(-48)

    def test_json_report_schema(self, capsys):
        assert main(["eval", "cl2", "--theta", "pi/2", "--digits", "30",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["tool"] == "eval" and "cl2" in report["values"]

    def test_missing_argument_exit_2(self):
        code, _, err = run_cli(["eval", "cl2"])
        assert code == 2
        assert err.decode().startswith("error:")

    def test_bad_angle_exit_2(self):
        code, _, err = run_cli(["eval", "cl2", "--theta", "one"])
        assert code == 2
        assert len(err.decode().strip().splitlines()) == 1


class TestFeynmanCommand:
    def test_all_methods_agree_json(self, capsys):
        assert main(["feynman", "--a", "1", "--b", "1", "--method", "all",
                     "--digits", "40", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["tool"] == "feynman"
        names = {r["name"] for r in report["results"]}
        assert {"closed-vs-direct", "closed-vs-stepwise", "direct-vs-stepwise"} <= names
        assert all(r["status"] == "pass" for r in report["results"])
        assert "q1" in report["values"] and "r19.angle" in report["values"]
        assert "c_closed" in report["values"]

    def test_single_method(self, capsys):
        assert main(["feynman", "--a", "0.5", "--b", "0.5",
                     "--method", "closed", "--digits", "30"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("c_closed")

    def test_out_of_region_exit_2(self):
        code, _, err = run_cli(["feynman", "--a", "3", "--b", "3"])
        assert code == 2 and b"error:" in err

    def test_digits_floor_exit_2(self):
        code, _, _ = run_cli(["feynman", "--a", "1", "--b", "1", "--digits", "5"])
        assert code == 2

    def test_all_methods_sweep_each_panel_once(self, capsys, monkeypatch):
        calls = []
        real = feynman.integrate

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(feynman, "integrate", counting)
        assert main(["feynman", "--a", "1", "--b", "1", "--method", "all",
                     "--digits", "30"]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("method,cl2_calls", [("all", 39), ("closed", 8)])
    def test_each_clausen_value_once(self, capsys, monkeypatch, method, cl2_calls):
        counts = {"cl2": 0, "derive": 0}

        def counting(name):
            real = getattr(feynman, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(feynman, name, wrapper)

        counting("cl2")
        counting("derive")
        assert main(["feynman", "--a", "0.7", "--b", "1.1", "--method", method,
                     "--digits", "50"]) == 0
        assert counts == {"cl2": cl2_calls, "derive": 1}

    def test_tol_option_removed_exit_2(self, capsys):
        assert main(["feynman", "--a", "1", "--b", "1", "--tol", "1e-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_inaccurate_closed_form_fails_checks(self, capsys):
        # At a = 1e-30 the eight-term Clausen sum cancels by about 10^30, which
        # the 10 guard digits cannot absorb: c_closed and c_stepwise are 2e-80
        # to 4e-80 off, far beyond the 100-digit tolerance.
        assert main(["feynman", "--a", "1e-30", "--b", "0.5", "--digits", "100",
                     "--method", "all"]) == 1
        out = capsys.readouterr().out
        assert [line.split()[3] for line in out.splitlines() if " vs " in line] == ["FAIL"] * 3

    def test_direct_prints_the_value_of_all(self, capsys):
        values = {}
        for method in ("direct", "all"):
            assert main(["feynman", "--a", "0.7", "--b", "1.1", "--method", method,
                         "--digits", "50", "--json"]) == 0
            values[method] = json.loads(capsys.readouterr().out)["values"]
        for key in ("c_direct", "c_direct.error_estimate"):
            assert values["direct"][key] == values["all"][key]

    def test_quadrature_error_exit_2(self, capsys, monkeypatch):
        def fails(*args, **kwargs):
            raise QuadratureError("no convergence")

        monkeypatch.setattr(feynman, "stepwise", fails)
        assert main(["feynman", "--a", "1", "--b", "1", "--method", "direct",
                     "--digits", "30"]) == 2
        err = capsys.readouterr().err
        assert err == "error: no convergence\n"

    def test_route_mismatch_exit_2(self, capsys, monkeypatch):
        def mismatch(*args, **kwargs):
            raise feynman.RouteMismatchError("I3", 1, 2, 1, 0)

        monkeypatch.setattr(feynman, "stepwise", mismatch)
        assert main(["feynman", "--a", "1", "--b", "1", "--method", "stepwise",
                     "--digits", "30"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: I3:") and len(err.strip().splitlines()) == 1


class TestVerifyCommand:
    def test_subset_passes(self, capsys):
        assert main(["verify", "--suite", "conj-1.1,duplication,lewin-1.5",
                     "--samples", "5", "--seed", "42", "--digits", "50",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert [r["name"] for r in report["results"]] == \
            ["conj-1.1", "duplication", "lewin-1.5"]

    def test_conjectural_status_label(self, capsys):
        assert main(["verify", "--suite", "conj-1.4", "--samples", "1",
                     "--digits", "50", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["status"] == "conjecture-ok"

    def test_unknown_identity_exit_2(self):
        code, _, err = run_cli(["verify", "--suite", "not-an-identity"])
        assert code == 2 and b"unknown identity" in err

    def test_byte_identical_reruns(self):
        args = ["verify", "--suite", "theorem-1,prop-2", "--samples", "4",
                "--seed", "7", "--digits", "40", "--json"]
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestPslqCommand:
    def test_conj14_builtin(self, capsys):
        assert main(["pslq", "--builtin", "conj14", "--digits", "120", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, REPORT_SCHEMA)
        coeffs = [int(report["values"]["conj14.coeff%d" % i]) for i in range(5)]
        assert coeffs in ([12, -4, 12, 18, -7], [-12, 4, -12, -18, 7])

    def test_r19_builtin_finds_six_pairs(self, capsys):
        assert main(["pslq", "--builtin", "r19", "--a", "1/pi", "--b", "1/e",
                     "--digits", "120", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]) == 6
        assert all(r["status"] == "pass" for r in report["results"])
        for r in report["results"]:
            c0 = int(report["values"][r["name"] + ".coeff0"])
            c1 = int(report["values"][r["name"] + ".coeff1"])
            assert (abs(c0), abs(c1)) == (1, 1)

    def test_qs_builtin(self, capsys):
        assert main(["pslq", "--builtin", "qs", "--a", "0.9", "--b", "1.2",
                     "--digits", "80", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["status"] == "pass"

    def test_values_from_file(self, tmp_path, capsys):
        path = tmp_path / "vals.txt"
        path.write_text("# 1 and 1/2\n1.0\n0.5\n")
        assert main(["pslq", "--values-from", str(path), "--digits", "30",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"]["values-from.coeff0"] == "1"
        assert report["values"]["values-from.coeff1"] == "-2"

    def test_values_from_no_relation_still_exit_0(self, tmp_path, capsys):
        path = tmp_path / "vals.txt"
        path.write_text("1.0\n3.14159265358979323846264338327950288419716939937510582097\n")
        assert main(["pslq", "--values-from", str(path), "--digits", "30",
                     "--max-norm", "1e4"]) == 0
        assert "no relation" in capsys.readouterr().out

    def test_exclusion_bound_printed_to_digits_that_hold(self, tmp_path, capsys):
        # Only about 40 digits of the 100-digit bound hold, so two are
        # printed, cut toward zero: still a bound, and still >= --max-norm.
        rng = random.Random(12)
        path = tmp_path / "vals.txt"
        path.write_text("".join("%d.%s\n" % (rng.randint(1, 9), "".join(
            rng.choice("0123456789") for _ in range(310))) for _ in range(12)))
        assert main(["pslq", "--values-from", str(path), "--max-norm", "1e6",
                     "--digits", "100", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)["values"]["values-from.exclusion_bound"]
        mantissa = printed.split("e")[0].replace(".", "").strip("0")
        assert len(mantissa) <= 2, printed
        hi = get_ctx(300)
        bound = pslq.find_relation(pslq.read_value_file(str(path), hi), 10 ** 6, hi)
        assert 10 ** 6 <= hi.mpf(printed) <= bound.exclusion_bound

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_max_norm_not_positive_exit_2(self, capsys, bound):
        assert main(["pslq", "--builtin", "conj14", "--digits", "30", "--max-norm", bound]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --max-norm must be positive")
        assert len(err.strip().splitlines()) == 1

    def test_requires_exactly_one_source(self):
        code, _, _ = run_cli(["pslq", "--digits", "30"])
        assert code == 2
        code, _, _ = run_cli(["pslq", "--builtin", "r19"])  # missing --a/--b
        assert code == 2

    def test_missing_file_exit_2(self):
        code, _, err = run_cli(["pslq", "--values-from", "/nonexistent/file.txt"])
        assert code == 2


def test_no_subcommand_exit_2():
    code, _, _ = run_cli([])
    assert code == 2

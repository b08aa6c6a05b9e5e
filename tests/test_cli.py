import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from jsob.algebra import NotDivisible
from jsob.checks import MismatchWithClosedForm, PoleInGammaRatio
from jsob.cli import EXIT_OUTPUT, PolynomialRecord, main
from jsob.jacobi import JacobiParams, Normalization
from jsob.numeric import MassNotPositiveDefinite
from jsob.operators import NotInWeightedSpace


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("JSOB_"):
            monkeypatch.delenv(key)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# Every subcommand in every format, plus three error exits: argv, exit code,
# stdout and stderr, byte for byte.  One case per line.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


class TestStirlingCommand:
    def test_csv_has_81_entries(self, capsys):
        code, out, _ = run(capsys, "stirling", "--max-n", "8", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "j", "value"]
        assert len(rows) == 81
        values = {(int(n), int(j)): v for n, j, v in rows}
        assert values[(7, 5)] == "1092"
        assert values[(8, 5)] == "25664"
        assert values[(5, 3)] == "52"

    def test_trivial_table_pretty(self, capsys):
        code, out, _ = run(capsys, "stirling", "--max-n", "0")
        assert code == 0 and out.strip() == "1"

    def test_negative_max_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "stirling", "--max-n", "-1")
        assert code == 2
        assert len(err.splitlines()) == 1

    def test_json_and_csv_agree(self, capsys):
        code, js, _ = run(capsys, "stirling", "--max-n", "4", "--format", "json")
        assert code == 0
        code, cs, _ = run(capsys, "stirling", "--max-n", "4", "--format", "csv")
        assert code == 0
        payload = json.loads(js)
        _, rows = parse_csv(cs)
        from_json = {(e["n"], e["j"]): e["value"] for e in payload["entries"]}
        from_csv = {(int(n), int(j)): v for n, j, v in rows}
        assert from_json == from_csv


class TestPolyCommand:
    def test_linear_phi_member(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--n", "1", "--alpha", "-1", "--beta", "-1",
            "--normalization", "phi", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scale_squared"] == "1/3"
        assert payload["coefficients"] == ["0", "1"]

    def test_quadratic_phi_member(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--n", "2", "--alpha", "-1", "--beta", "-1",
            "--normalization", "phi", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scale_squared"] == "6"
        assert payload["coefficients"] == ["-1/4", "0", "1/4"]

    def test_undefined_normalization_exit_code(self, capsys):
        code, _, err = run(
            capsys, "poly", "--n", "0", "--alpha", "-1", "--beta", "-1",
            "--normalization", "l2",
        )
        assert code == 3
        assert "undefined" in err.lower()

    def test_record_round_trip(self):
        record = PolynomialRecord.build(JacobiParams(-1, -1), 5, Normalization.PHI)
        again = PolynomialRecord.from_dict(json.loads(json.dumps(record._asdict())))
        assert again == record
        assert again.to_scaled_polynomial() == record.to_scaled_polynomial()

    def test_json_and_csv_agree(self, capsys):
        args = ["poly", "--n", "3", "--alpha", "-1", "--beta", "-1",
                "--normalization", "phi"]
        code, js, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        code, cs, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        payload = json.loads(js)
        header, rows = parse_csv(cs)
        row = dict(zip(header, rows[0]))
        assert row["scale_squared"] == payload["scale_squared"]
        coeffs = [row[f"c{i}"] for i in range(len(payload["coefficients"]))]
        assert coeffs == payload["coefficients"]


class TestGramCommand:
    def test_sobolev_identity(self, capsys):
        code, out, _ = run(capsys, "gram", "--ip", "phi", "--max-degree", "10")
        assert code == 0
        assert "identity: yes" in out

    def test_left_definite_json(self, capsys):
        code, out, _ = run(
            capsys, "gram", "--ip", "ld", "--ld-n", "2", "--k", "1",
            "--max-degree", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degrees"] == [2, 3, 4]
        diag = {
            (e["row"], e["col"]): (e["coeff"], e["radicand"])
            for e in payload["entries"]
        }
        assert diag[(0, 0)] == ("9", "1")
        assert diag[(1, 1)] == ("49", "1")
        assert diag[(0, 1)] == ("0", "1")

    def test_ld_requires_order(self, capsys):
        code, _, err = run(capsys, "gram", "--ip", "ld", "--max-degree", "4")
        assert code == 2
        assert "ld-n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--ip", "ld", "--ld-n", "1", "--k", "0", "--family", "phi", "--max-degree", "3"),
            ("--ip", "phi", "--family", "reference", "--max-degree", "3"),
        ],
    )
    def test_degenerate_gram_is_undefined_request(self, capsys, argv):
        # a zero Gram diagonal entry: the family is not normalizable under the pairing
        code, out, err = run(capsys, "gram", *argv)
        assert code == 3
        assert out == "" and "undefined request" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--ip", "ld", "--ld-n", "2", "--k", "1"),
            ("--ip", "phi", "--family", "l2"),
            ("--ip", "classical", "--alpha=-1", "--beta=-1"),
        ],
        ids=("ld", "phi-l2", "classical"),
    )
    def test_family_without_members_is_undefined_request(self, capsys, argv):
        # the L2-orthonormal (-1,-1) family starts at degree 2
        for fmt in ("json", "csv", "pretty"):
            code, out, err = run(capsys, "gram", *argv, "--max-degree", "1", "--format", fmt)
            assert (code, out) == (3, "")
            assert err == "undefined request: the l2 family starts at degree 2, above max degree 1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--ip", "classical", "--alpha=-1", "--beta=-1", "--family", "phi"),
             "the phi family does not fit this pairing (classical pairing: argument does "
             "not vanish at x = 1, so it lies outside the weighted space)"),
            (("--ip", "ld", "--ld-n", "1", "--k", "1", "--family", "reference"),
             "the reference family does not fit this pairing (left-definite pairing "
             "(j = 0 term): argument does not vanish at x = 1, so it lies outside the "
             "weighted space)"),
        ],
        ids=("classical-phi", "ld-reference"),
    )
    def test_family_outside_the_weighted_space_is_undefined_request(self, capsys, argv, message):
        # the pairing's weight is singular at +-1 and the family does not vanish there
        for fmt in ("json", "csv", "pretty"):
            code, out, err = run(capsys, "gram", *argv, "--max-degree", "3", "--format", fmt)
            assert (code, out) == (3, "")
            assert err == f"undefined request: {message}\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--ip", "phi", "--alpha", "5"), "--alpha"),
            (("--ip", "phi", "--beta", "1"), "--beta"),
            (("--ip", "phi", "--ld-n", "2"), "--ld-n"),
            (("--ip", "phi", "--k", "1"), "--k"),
            (("--ip", "classical", "--alpha", "1", "--beta", "1", "--k", "2"), "--k"),
            (("--ip", "classical", "--ld-n", "2"), "--ld-n"),
            (("--ip", "ld", "--ld-n", "2", "--alpha", "1"), "--alpha"),
            (("--ip", "ld", "--ld-n", "2", "--beta", "1"), "--beta"),
        ],
    )
    def test_flag_the_pairing_ignores_is_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, "gram", "--max-degree", "3", *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and flag in err


# A valid call of each subcommand, to which the test adds a flag it does not read.
BASE_CALLS = {
    "stirling": ("--max-n", "2"),
    "poly": ("--n", "2", "--alpha=-1", "--beta=-1"),
    "gram": ("--ip", "phi", "--max-degree", "1"),
    "spectrum": ("--operator", "T", "--count", "2"),
    "chel": ("--case", "unit", "--grid", "1000"),
    "verify": ("--suite", "stirling"),
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, "--cache-path") for command in ("stirling", "gram", "spectrum", "chel", "verify")]
    + [(command, "--float-digits") for command in ("stirling", "poly", "gram", "verify")],
)
def test_flag_the_command_does_not_read_is_usage_error(capsys, tmp_path, command, flag):
    value = str(tmp_path / "cache.json") if flag == "--cache-path" else "9"
    assert run(capsys, command, *BASE_CALLS[command])[0] == 0
    code, out, err = run(capsys, command, *BASE_CALLS[command], flag, value)
    assert (code, out) == (2, "")
    assert flag in err
    assert not (tmp_path / "cache.json").exists()


# Each size flag with its cap and a call that sets it.
SIZE_CAPS = [
    (("poly", "--alpha=-1", "--beta=-1", "--format", "csv", "--n"), 400),
    (("chel", "--case", "unit", "--grid"), 100000),
    (("spectrum", "--operator", "A", "--format", "csv", "--count"), 100000),
    (("gram", "--ip", "ld", "--k", "1", "--max-degree", "2", "--format", "csv", "--ld-n"), 16),
    (("spectrum", "--operator", "Bn", "--format", "csv", "--ld-n"), 16),
]


@pytest.mark.parametrize("call, cap", SIZE_CAPS, ids=[f"{c[0]} {c[-1]}" for c, _ in SIZE_CAPS])
def test_size_flag_is_capped(capsys, call, cap):
    assert run(capsys, *call, str(cap))[0] == 0
    code, out, err = run(capsys, *call, str(cap + 1))
    assert (code, out) == (2, "")
    assert f"{call[-1]}: value must be in [" in err and f", {cap}]: {cap + 1}" in err
    assert len(err.splitlines()) == 1


class TestSpectrumCommand:
    def test_sobolev_spectrum(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--operator", "T", "--k", "1", "--count", "5",
            "--format", "csv",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [v for _, v in rows] == ["1", "1", "3", "7", "13"]
        assert [i for i, _ in rows] == ["0", "1", "2", "3", "4"]

    def test_weighted_spectrum_starts_at_two(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--operator", "A", "--k", "0", "--count", "4",
            "--format", "csv",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [["2", "2"], ["3", "6"], ["4", "12"], ["5", "20"]]

    def test_galerkin_comparison(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--operator", "A", "--k", "0", "--count", "4",
            "--galerkin", "12", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        for entry in payload["entries"]:
            assert float(entry["abs_error"]) < 1e-6

    @pytest.mark.parametrize("operator", ["A", "T", "a", "t"])
    def test_order_rejected_unless_bn(self, capsys, operator):
        code, out, err = run(capsys, "spectrum", "--operator", operator, "--ld-n", "3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--ld-n" in err

    def test_galerkin_sobolev_rows_start_at_zero(self, capsys):
        # 1 and x give T the eigenvalue k at indices 0 and 1, beside the bubbles'.
        code, out, err = run(
            capsys, "spectrum", "--operator", "T", "--k", "1", "--count", "5",
            "--galerkin", "10", "--format", "csv",
        )
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [(i, e) for i, e, _, _ in rows] == [
            ("0", "1"), ("1", "1"), ("2", "3"), ("3", "7"), ("4", "13"),
        ]
        assert [float(n) for _, _, n, _ in rows[:2]] == [1.0, 1.0]
        for _, _, _, err_abs in rows:
            assert float(err_abs) < 1e-12


class TestChelCommand:
    def test_unit_case(self, capsys):
        code, out, _ = run(
            capsys, "chel", "--case", "unit", "--grid", "1000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["kmax"]) == pytest.approx(0.5, abs=1e-9)
        assert float(payload["argmax"]) == pytest.approx(0.5, abs=1e-3)

    def test_case_choices_are_the_preset_table(self):
        from jsob import cli, numeric

        sub = next(a for a in cli.build_parser()._actions if a.dest == "cmd")
        case = next(a for a in sub.choices["chel"]._actions if a.dest == "case")
        assert list(case.choices) == list(numeric._PRESETS)


class TestNumericFailureExitCode:
    def test_divergent_chel_maps_to_exit_4(self, capsys, monkeypatch):
        import jsob.cli as cli
        from jsob.numeric import NonFiniteIntegral

        def boom(instance, grid):
            raise NonFiniteIntegral("tail integral diverges")

        monkeypatch.setattr(cli, "chel_K", boom)
        code, _, err = run(capsys, "chel", "--case", "unit", "--grid", "1000")
        assert code == 4
        assert "numeric failure" in err

    def test_indefinite_mass_maps_to_exit_4(self, capsys, monkeypatch):
        import jsob.numeric as numeric

        def boom(blocks, count):
            raise MassNotPositiveDefinite("mass pivot 0.0 is not positive")

        monkeypatch.setattr(numeric, "solve_galerkin", boom)
        code, _, err = run(capsys, "spectrum", "--operator", "A", "--galerkin", "10")
        assert code == 4
        assert "numeric failure" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("operator", ["A", "Bn", "T"])
    @pytest.mark.parametrize("k", ["1e400", "1e308"])
    def test_shift_beyond_float_range_maps_to_exit_4(self, capsys, k, operator, fmt):
        # 1e400 has no float; at 1e308 the stiffness entries overflow.  T converts
        # k to a float for its rows of 1 and x only after assembly, which reports
        # both.  A warning on its way to stderr is raised here instead.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "spectrum", "--operator", operator, "--k", k,
                                 "--galerkin", "10", "--format", fmt)
        assert (code, out) == (4, "")
        assert err.startswith("numeric failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("k", ["1e300", "8.9e307"])
    def test_huge_shift_below_float_range_succeeds(self, capsys, k):
        # Pivot recurrences square off-diagonals of about k and bisection
        # averages brackets near k; neither may overflow.
        code, out, err = run(capsys, "spectrum", "--operator", "A", "--k", k,
                             "--galerkin", "10", "--format", "json")
        assert (code, err) == (0, "")
        for entry in json.loads(out)["entries"]:
            assert math.isfinite(float(entry["numeric"]))
            assert math.isfinite(float(entry["abs_error"]))


class TestInternalFaultExitCode:
    @pytest.mark.parametrize(
        "exc_type",
        [
            NotDivisible,
            PoleInGammaRatio,
            NotInWeightedSpace,
            MismatchWithClosedForm,
        ],
        ids=lambda exc_type: exc_type.__name__,
    )
    def test_arithmetic_fault_maps_to_exit_5(self, capsys, monkeypatch, exc_type):
        import jsob.cli as cli

        def boom(instance, grid):
            raise exc_type("an exact invariant failed")

        monkeypatch.setattr(cli, "chel_K", boom)
        code, out, err = run(capsys, "chel", "--case", "unit", "--grid", "1000")
        assert code == 5
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("internal fault:"), err


CHECK_NAMES = [
    "stirling.table-9x9",
    "stirling.fifth-power-coefficients",
    "stirling.defining-identity",
    "stirling.triangularity-and-diagonal",
    "stirling.zero-shift-column",
    "orthogonality.sobolev-gram-identity",
    "orthogonality.classical-gram-identity",
    "orthogonality.left-definite-gram",
    "orthogonality.normalization-bridge",
    "orthogonality.derivative-weighted",
    "orthogonality.jacobi-moments",
    "eigen.differential-expression",
    "eigen.sobolev-operator-matrix",
    "eigen.weighted-operator-matrix",
    "eigen.spectra",
    "eigen.composite-powers",
    "identities.lagrange-dirichlet",
    "identities.sobolev-decomposition",
    "identities.derivative-identity",
    "identities.endpoint-factorization",
    "identities.lower-bound",
    "identities.first-left-definite-bridge",
    "galerkin.spectrum-recovery",
    "galerkin.t-sobolev",
    "galerkin.bn-left-definite",
    "galerkin.chel-dirichlet",
    "galerkin.chel-w1v1",
    "galerkin.chel-unit",
]
SUITES = ["stirling", "orthogonality", "eigen", "identities", "galerkin"]


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["all", *SUITES])
    def test_suite_passes(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "FAIL" not in out

    def test_check_order_and_suite_slices(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--format", "json")
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == CHECK_NAMES
        for suite in SUITES:
            code, out, _ = run(capsys, "verify", "--suite", suite, "--format", "json")
            assert code == 0
            names = [c["name"] for c in json.loads(out)["checks"]]
            assert names == [n for n in CHECK_NAMES if n.startswith(suite + ".")]

    @pytest.mark.parametrize(
        "target, exc_type, suite, failing",
        [
            ("clear_poles", NotDivisible, "identities", "identities.endpoint-factorization"),
            ("derivative_orthogonality_value", ValueError, "orthogonality",
             "orthogonality.derivative-weighted"),
            ("verify_defining_identity", ZeroDivisionError, "stirling",
             "stirling.defining-identity"),
            ("apply_ell_power", NotDivisible, "eigen", "eigen.composite-powers"),
            ("check_derivative_identity", MassNotPositiveDefinite, "identities",
             "identities.derivative-identity"),
        ],
        ids=["clear_poles", "ValueError", "ZeroDivisionError", "NotDivisible",
             "MassNotPositiveDefinite"],
    )
    def test_raising_check_is_reported_as_fail(
        self, capsys, monkeypatch, target, exc_type, suite, failing
    ):
        import jsob.checks as checks

        def boom(*args):
            raise exc_type("an injected fault")

        monkeypatch.setattr(checks, target, boom)
        code, out, err = run(capsys, "verify", "--suite", suite)
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        expected = [n for n in CHECK_NAMES if n.startswith(suite + ".")]
        assert [line.split()[1] for line in lines[:-1]] == expected
        assert f"FAIL {failing}  ({exc_type.__name__}: an injected fault)" in lines
        assert sum(line.startswith("PASS ") for line in lines) == len(expected) - 1
        assert lines[-1] == f"suite '{suite}': {len(expected) - 1} passed, 1 failed"

    def test_raising_check_does_not_shift_later_inputs(self, capsys, monkeypatch):
        import jsob.checks as checks

        drawn = []
        decompose_w = checks.decompose_w
        monkeypatch.setattr(checks, "decompose_w", lambda f: drawn.append(f) or decompose_w(f))
        run(capsys, "verify", "--suite", "identities")
        clean = list(drawn)
        drawn.clear()

        def boom(*args):
            raise ValueError("an injected fault")

        # raises on the first of its draws, before the check has drawn the rest
        monkeypatch.setattr(checks, "verify_lagrange_identity", boom)
        code, out, _ = run(capsys, "verify", "--suite", "identities")
        assert code == 1
        assert "FAIL identities.lagrange-dirichlet  (ValueError: an injected fault)" in out
        assert len(clean) == 50 and drawn == clean

    def test_derivative_weighted_compares_with_closed_form(self, capsys, monkeypatch):
        # derivative_orthogonality_value checks every value against the closed
        # form itself, so a wrong closed form fails the check.
        import jsob.checks as checks

        right = checks.derivative_coefficient_squared
        monkeypatch.setattr(checks, "derivative_coefficient_squared",
                            lambda n, j, params: right(n, j, params) + 1)
        code, out, err = run(capsys, "verify", "--suite", "orthogonality")
        assert code == 1 and err == ""
        failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert len(failed) == 1
        assert failed[0].startswith(
            "FAIL orthogonality.derivative-weighted  (MismatchWithClosedForm: "
        )

    def test_json_report_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "eigen", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert all(c["passed"] for c in payload["checks"])


class TestConfigPrecedence:
    def test_config_file_sets_format(self, capsys, tmp_path):
        cfg = tmp_path / "jsob.conf"
        cfg.write_text("output_format = csv\n")
        code, out, _ = run(
            capsys, "spectrum", "--operator", "A", "--k", "0", "--count", "2",
            "--config", str(cfg),
        )
        assert code == 0
        assert out.splitlines()[0] == "index,value"

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "jsob.conf"
        cfg.write_text("output_format = csv\n")
        code, out, _ = run(
            capsys, "spectrum", "--operator", "A", "--k", "0", "--count", "2",
            "--config", str(cfg), "--format", "json",
        )
        assert code == 0
        json.loads(out)

    def test_env_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("JSOB_OUTPUT_FORMAT", "csv")
        code, out, _ = run(
            capsys, "spectrum", "--operator", "A", "--k", "0", "--count", "2",
            "--format", "json",
        )
        assert code == 0
        assert out.splitlines()[0] == "index,value"

    def test_default_k_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "jsob.conf"
        cfg.write_text("default_k = 2\noutput_format = csv\n")
        code, out, _ = run(
            capsys, "spectrum", "--operator", "A", "--count", "3",
            "--config", str(cfg),
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [v for _, v in rows] == ["4", "8", "14"]

    @pytest.mark.parametrize(
        "value, message",
        [("abc", "error: not a rational number: 'abc'\n"),
         ("-1", "error: the shift k must be nonnegative\n")],
        ids=("not-rational", "negative"),
    )
    def test_bad_k_flag_names_the_flag_value(self, capsys, value, message):
        # --k is parsed once, by the command, not folded into default_k
        for cmd in (("spectrum", "--operator", "A"), ("gram", "--ip", "ld", "--ld-n", "1",
                                                      "--max-degree", "3")):
            code, out, err = run(capsys, *cmd, f"--k={value}")
            assert (code, out, err) == (2, "", message)

    def test_k_flag_wins_over_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("JSOB_DEFAULT_K", "2")
        code, out, _ = run(capsys, "spectrum", "--operator", "A", "--k", "1", "--count", "2")
        assert code == 0
        assert out.splitlines()[0] == "operator A, k = 1"

    def test_bad_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "jsob.conf"
        cfg.write_text("float_digits = 99\n")
        code, _, err = run(
            capsys, "stirling", "--max-n", "2", "--config", str(cfg)
        )
        assert code == 2
        assert "float_digits" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "jsob.conf"
        cfg.write_text("not a key value pair\n")
        code, _, err = run(
            capsys, "stirling", "--max-n", "2", "--config", str(cfg)
        )
        assert code == 2


class TestPolynomialCache:
    ARGS = ["poly", "--n", "6", "--alpha", "-1", "--beta", "-1",
            "--normalization", "phi", "--format", "json"]

    def test_cache_does_not_change_output(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        code, cold, _ = run(capsys, *self.ARGS, "--cache-path", str(cache))
        assert code == 0 and cache.exists()
        code, warm, _ = run(capsys, *self.ARGS, "--cache-path", str(cache))
        assert code == 0
        code, plain, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert cold == warm == plain

    def test_corrupt_cache_is_discarded_with_warning(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        code, out, err = run(capsys, *self.ARGS, "--cache-path", str(cache))
        assert code == 0
        assert "warning" in err.lower()
        payload = json.loads(out)
        assert payload["n"] == 6

    def test_cache_keyed_by_request(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        run(capsys, *self.ARGS, "--cache-path", str(cache))
        stored = json.loads(cache.read_text())
        assert "(-1,-1,6,phi)" in stored

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    @pytest.mark.parametrize(
        "field,value",
        [
            ("coefficients", ["abc"]),
            ("coefficients", ["1/0"]),
            ("coefficients", "1/2"),
            ("scale_squared", "0"),
            ("scale_squared", "x"),
            ("n", 7),
            ("normalization", "l2"),
        ],
    )
    def test_malformed_record_is_recomputed(self, capsys, tmp_path, fmt, field, value):
        cache = tmp_path / "cache.json"
        args = [*self.ARGS[:-1], fmt]
        code, plain, _ = run(capsys, *args)
        run(capsys, *args, "--cache-path", str(cache))
        stored = json.loads(cache.read_text())
        stored["(-1,-1,6,phi)"][field] = value
        cache.write_text(json.dumps(stored))
        code, out, err = run(capsys, *args, "--cache-path", str(cache))
        assert code == 0
        assert "malformed cache entry" in err
        assert out == plain

    def test_failed_write_keeps_previous_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache.json"
        run(capsys, *self.ARGS, "--cache-path", str(cache))
        before = cache.read_bytes()

        def full_disk(obj, fh, **kwargs):
            fh.write("{\n")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", full_disk)
        args = [*self.ARGS[:2], "7", *self.ARGS[3:]]  # a miss: the cache is rewritten
        code, out, err = run(capsys, *args, "--cache-path", str(cache))
        assert code == 0 and json.loads(out)["n"] == 7
        assert "could not write cache" in err
        assert cache.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_cached_values_print_in_canonical_form(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        code, plain, _ = run(capsys, *self.ARGS)
        run(capsys, *self.ARGS, "--cache-path", str(cache))
        stored = json.loads(cache.read_text())
        record = stored["(-1,-1,6,phi)"]
        record["scale_squared"] = "44/50"  # 22/25 written unreduced
        cache.write_text(json.dumps(stored))
        code, out, _ = run(capsys, *self.ARGS, "--cache-path", str(cache))
        assert code == 0 and out == plain


class TestSubprocessEntry:
    def test_module_invocation(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "jsob", "spectrum", "--operator", "T",
             "--k", "1", "--count", "5", "--format", "csv"],
            capture_output=True, text=True, env=src_env,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1:] == ["0,1", "1,1", "2,3", "3,7", "4,13"]

    def test_warm_process_prints_what_a_fresh_one_does(self, capsys, src_env):
        # Moment tables are built per pairing, so earlier pairings in the same
        # process, at other weights and lengths, leave nothing behind.
        for argv in (["gram", "--ip", "phi", "--max-degree", "30"],
                     ["gram", "--ip", "ld", "--ld-n", "16", "--k", "7/3", "--max-degree", "20"],
                     ["gram", "--ip", "classical", "--alpha", "2", "--beta", "0",
                      "--max-degree", "5"],
                     ["verify", "--suite", "orthogonality"]):
            assert run(capsys, *argv)[0] == 0
        for argv in (["gram", "--ip", "classical", "--alpha", "0", "--beta", "2",
                      "--max-degree", "12"],
                     ["gram", "--ip", "ld", "--ld-n", "3", "--k", "1", "--max-degree", "12"]):
            code, warm, _ = run(capsys, *argv)
            fresh = subprocess.run([sys.executable, "-m", "jsob", *argv],
                                   capture_output=True, text=True, env=src_env)
            assert fresh.returncode == code == 0 and warm == fresh.stdout

    def test_exact_commands_do_not_import_numpy(self, src_env):
        code = (
            "import sys, jsob.cli as cli\n"
            "cli.build_parser()\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "cli.main(['stirling', '--max-n', '6', '--format', 'csv'])\n"
            "assert 'numpy' not in sys.modules, 'stirling'\n"
            "cli.main(['chel', '--case', 'unit', '--grid', '1000'])\n"
            "assert 'numpy' not in sys.modules, 'chel'\n"
            "cli.main(['spectrum', '--operator', 'A', '--galerkin', '64'])\n"
            "assert 'numpy' not in sys.modules, 'spectrum A'\n"
            "cli.main(['spectrum', '--operator', 'Bn', '--ld-n', '2', '--galerkin', '12'])\n"
            "assert 'numpy' not in sys.modules, 'spectrum Bn'\n"
            "cli.main(['verify', '--suite', 'all'])\n"
            "assert 'numpy' not in sys.modules, 'verify'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env)
        assert proc.returncode == 0, proc.stderr

    def test_start_up_skips_dataclasses_json_and_csv(self, src_env):
        # Only chel needs dataclasses (and with it inspect) and array; json and
        # csv load only to render those formats or to read and write the cache.
        src_env.pop("PYTHONDONTWRITEBYTECODE", None)  # else every jsob import recompiles
        code = (
            "import sys\n"
            "bare = set(sys.modules)\n"
            "added = lambda: {'dataclasses', 'inspect', 'json', 'csv', 'array'} & (set(sys.modules) - bare)\n"
            "import jsob.cli as cli\n"
            "cli.build_parser()\n"
            "assert not added(), ('import', added())\n"
            "assert cli.main(['stirling', '--max-n', '2', '--format', 'pretty']) == 0\n"
            "assert not added(), ('stirling', added())\n"
            "assert cli.main(['chel', '--case', 'unit', '--grid', '1000']) == 0\n"
            "assert 'dataclasses' in added(), 'chel'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env)
        assert proc.returncode == 0, proc.stderr

    def test_start_up_skips_typing(self, src_env):
        # Every record is an algebra.Frozen, so no module of jsob needs typing;
        # -S keeps site (which may import it) out of the interpreter.
        code = "import sys, jsob.cli\nassert 'typing' not in sys.modules, 'typing'\n"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=src_env)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr

    def test_every_command_runs_without_numpy(self, src_env):
        # A None entry in sys.modules makes every import of numpy fail.
        commands = [
            ["stirling", "--max-n", "6"],
            ["poly", "--n", "3", "--alpha=1/2", "--beta=-1/3"],
            ["gram", "--ip", "ld", "--ld-n", "2", "--k", "1", "--max-degree", "4"],
            ["spectrum", "--operator", "A", "--k", "1", "--count", "4", "--galerkin", "12"],
            ["spectrum", "--operator", "Bn", "--ld-n", "2", "--galerkin", "12"],
            ["chel", "--case", "dirichlet", "--grid", "1000"],
            ["verify", "--suite", "all"],
        ]
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from jsob.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr

    def test_benchmark_tracer_runs_the_cli(self, tmp_path, src_env):
        # perfbench/tracer.py wraps jsob functions by name and reads the
        # jacobi_family cache; a rename in src/ that breaks it fails here.
        tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        trace = tmp_path / "trace.json"

        def run_traced(*argv, cache=False):
            """Run argv under the tracer and plainly, each with its own cache file
            when ``cache``; both must print the same, and the trace is returned."""
            runs = []
            for name, head in (("traced", [str(tracer), str(trace)]), ("plain", ["-m", "jsob"])):
                tail = ["--cache-path", str(tmp_path / f"{name}-cache.json")] if cache else []
                runs.append(subprocess.run([sys.executable, *head, *argv, *tail],
                                           capture_output=True, text=True, env=src_env))
            traced, plain = runs
            assert (traced.returncode, traced.stderr) == (0, ""), traced.stderr
            assert (traced.stdout, traced.stderr) == (plain.stdout, plain.stderr)
            return json.loads(trace.read_text())

        data = run_traced("poly", "--n", "6", "--alpha=-1", "--beta=-1",
                          "--normalization", "phi", cache=True)
        counters, spans = data["counters"], data["spans"]
        assert counters["jacobi.family.misses"] >= 1 and "jacobi.family.hits" in counters
        assert spans["algebra.mul"][0] >= 1
        assert (counters["cli.cache.lookups"], counters["cli.cache.writes"]) == (1, 1)
        assert counters["cli.cache.bytes"] == (tmp_path / "traced-cache.json").stat().st_size
        assert {"cli.cache.lookup", "cli.cache.read", "cli.cache.write"} <= spans.keys()

        # The Galerkin spans keep their names; the per-shift pivot count, which
        # runs thousands of times, stays private and so untraced.
        argv = ["spectrum", "--operator", "A", "--galerkin", "12", "--format", "csv"]
        spans = run_traced(*argv)["spans"]
        assert spans["numeric.galerkin.assemble"][0] == 1
        assert spans["numeric.galerkin.solve"][0] == 1
        assert not any(name.startswith("numeric._") for name in spans)

        # The tracer rebuilds each chel preset with counted integrands.
        data = run_traced("chel", "--case", "dirichlet", "--grid", "2000")
        assert data["counters"]["numeric.chel.integrand_evals"] > 0

        # The tracer times every Surd construction through Surd.__post_init__.
        data = run_traced("gram", "--ip", "phi", "--max-degree", "3", "--format", "json")
        assert data["spans"]["algebra.surd"][0] >= 1

        # Each member is requested through jacobi_family alone, so the span
        # counts every call once: 6 members, 6 calls.
        data = run_traced("gram", "--ip", "classical", "--alpha", "1", "--beta", "1",
                          "--max-degree", "5", "--format", "json")
        counters = data["counters"]
        family_calls = counters["jacobi.family.hits"] + counters["jacobi.family.misses"]
        assert data["spans"]["jacobi.family"][0] == family_calls == 6

        # The Stirling spans keep their names: the stirling command builds its
        # table once, and a left-definite Gram reads c_j(n, k).
        assert run_traced("stirling", "--max-n", "8")["spans"]["stirling.table"][0] == 1
        data = run_traced("gram", "--ip", "ld", "--ld-n", "2", "--k", "1", "--max-degree", "4")
        assert data["spans"]["stirling.composite"][0] >= 1

    def test_closed_pipe_ends_quietly(self, src_env):
        # About 350 kB of JSON: far more than a pipe buffer holds, so the
        # command is still writing when the reader goes away.
        proc = subprocess.Popen(
            [sys.executable, "-m", "jsob", "stirling", "--max-n", "64", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env,
        )
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in err and "Error" not in err, err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_unwritable_stdout_exits_6_on_one_line(self, src_env):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "jsob", "stirling", "--max-n", "64", "--format", "json"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=src_env,
            )
        assert proc.returncode == EXIT_OUTPUT == 6, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("output not written: "), line
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        "stirling --max-n 2 --format csv",
        "poly --n 3 --alpha=-1 --beta=-1 --cache-path \"$1\"",
    ])
    def test_closed_stdout_exits_6_on_one_line(self, tmp_path, argv, src_env):
        # Started with stdout closed (``>&-``), the interpreter sets sys.stdout
        # to None; a file the command opens may take descriptor 1.
        cache = tmp_path / "cache.json"
        proc = subprocess.run(
            ["sh", "-c", f'"$0" -m jsob {argv} >&-', sys.executable, str(cache)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env,
        )
        assert proc.returncode == EXIT_OUTPUT, proc.stderr
        assert (proc.stdout, proc.stderr) == ("", "output not written: stdout is closed\n")
        if "--cache-path" in argv:
            assert list(json.loads(cache.read_text())) == ["(-1,-1,3,reference)"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("argv, code", [
        (["stirling", "--max-n", "99"], 2),
        (["poly", "--n", "1", "--alpha=-1", "--beta=-1", "--normalization", "l2"], 3),
        (["spectrum", "--operator", "A", "--k", "1e400", "--galerkin", "10"], 4),
        (["stirling", "--max-n", "3"], EXIT_OUTPUT),  # stdout unwritable as well
    ])
    def test_unwritable_stderr_keeps_the_exit_code(self, argv, code, src_env):
        with open("/dev/full", "w") as full:
            stdout = full if code == EXIT_OUTPUT else subprocess.PIPE
            proc = subprocess.run([sys.executable, "-m", "jsob", *argv],
                                  stdout=stdout, stderr=full, env=src_env)
        assert proc.returncode == code and not proc.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_cache_warning_on_unwritable_stderr_keeps_the_output(self, tmp_path, src_env):
        cache = tmp_path / "cache.json"
        cache.write_text("{ not json")
        argv = ["poly", "--n", "2", "--alpha=-1", "--beta=-1"]
        plain = subprocess.run([sys.executable, "-m", "jsob", *argv],
                               capture_output=True, text=True, env=src_env)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "jsob", *argv, "--cache-path", str(cache)],
                                  stdout=subprocess.PIPE, stderr=full, text=True, env=src_env)
        assert (proc.returncode, proc.stdout) == (0, plain.stdout)

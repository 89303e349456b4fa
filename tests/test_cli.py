"""Exit codes, output formats, and determinism of the command-line surface."""

import json

import pytest

import cclab.analysis
import cclab.cli as cli
from cclab.factcheck import CheckResult
from cclab.parsing import parse_system
from cclab.polynomials import Poly2


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- analyze -----------------------------------------------------------------


def test_analyze_text_output(capsys):
    code, out, err = run(capsys, "analyze", "s1")
    assert code == 0
    assert "cycle" in out.lower()
    assert err == ""


def test_analyze_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "analyze", "center", "--json")
    code2, out2, _ = run(capsys, "analyze", "center", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    parsed = json.loads(out1)
    assert parsed["assertions"]["assertion_B_count"] == 1


def test_analyze_accepts_a_definition_file(capsys, tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("vars: x y\ndx = -y + x*(x^2 + y^2 - 1)\n"
                    "dy = x + y*(x^2 + y^2 - 1)\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "1" in out


def test_unknown_system_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "nope")
    assert code == 2
    assert "input error" in err
    assert "s1" in err  # the message lists the known keys


def test_bad_definition_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("vars: x y\ndx = -y + $\ndy = x\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "byte" in err


@pytest.mark.parametrize("scan_args", [("--scan", "1"), ("--r-range", "0", "4")])
def test_invalid_scan_arguments_exit_2(capsys, monkeypatch, scan_args):
    """Bad scan arguments are input errors, caught before any exact work."""
    def unreachable(*args):
        raise AssertionError("the exact pipeline ran")

    monkeypatch.setattr(cclab.analysis, "scalar_curvature", unreachable)
    code, out, err = run(capsys, "analyze", "center", *scan_args)
    assert code == 2
    assert "input error" in err
    assert out == ""


# --- curvature ------------------------------------------------------------------


def test_curvature_structure_and_value(capsys):
    code, out, _ = run(capsys, "curvature", "s1", "--at", "0", "0")
    assert code == 0
    assert "numerator =" in out
    assert "denominator structure: 2 * g11^" in out
    assert "R(0, 0) = -1" in out


def test_curvature_reports_singular_evaluation(capsys):
    code, out, _ = run(capsys, "curvature", "center", "--at", "0", "-1")
    assert code == 0
    assert "R(0, -1) is singular" in out


def test_degenerate_metric_exits_2(capsys, tmp_path):
    path = tmp_path / "flat.txt"
    path.write_text("vars: x y\ndx = y^2\ndy = 1 - y\n")
    code, out, err = run(capsys, "curvature", str(path))
    assert code == 2
    assert "degenerate" in err


# --- singularities -----------------------------------------------------------------


def test_singularities_empty_locus(capsys):
    code, out, _ = run(capsys, "singularities", "s1")
    assert code == 0
    assert "empty certified" in out
    assert "certified divergence count: 0" in out


def test_singularities_center_point(capsys):
    code, out, _ = run(capsys, "singularities", "center")
    assert code == 0
    assert "(0, -1)" in out
    assert "|R| diverges" in out
    assert "certified divergence count: 1" in out


# --- cycles ----------------------------------------------------------------------


def test_cycles_exact_and_numeric(capsys):
    code, out, _ = run(capsys, "cycles", "s1a")
    assert code == 0
    assert "exact radial analysis: 2 cycle(s)" in out
    assert "numeric scan: 2 cycle(s)" in out
    assert "stable" in out and "unstable" in out


def test_cycles_without_rotational_form(capsys):
    code, out, _ = run(capsys, "cycles", "s2")
    assert code == 0
    assert "not applicable" in out
    assert "numeric scan: 1 cycle(s)" in out


# --- transform ---------------------------------------------------------------------


def test_transform_reproduces_the_catalogue_image(capsys, catalogue):
    code, out, _ = run(capsys, "transform", "s1",
                       "--map", "1", "0", "1", "1/2")
    assert code == 0
    image = parse_system(out)
    target = catalogue["s2"].system
    # output keeps the source variable names; compare raw coefficients
    assert image.P.terms == target.P.terms
    assert image.Q.terms == target.Q.terms


def test_transform_round_trips_through_the_inverse(capsys):
    code, out, _ = run(capsys, "transform", "s2",
                       "--map", "1", "0", "-2", "2")
    assert code == 0
    image = parse_system(out)
    s1 = parse_system("vars: u v\ndu = -v + u*(u^2 + v^2 - 1)\n"
                      "dv = u + v*(u^2 + v^2 - 1)\n")
    assert image.P.terms == s1.P.terms
    assert image.Q.terms == s1.Q.terms


def test_transform_rejects_singular_matrix(capsys):
    code, out, err = run(capsys, "transform", "s1",
                         "--map", "1", "2", "2", "4")
    assert code == 2
    assert "singular" in err


# --- hilbert --------------------------------------------------------------------------


def test_hilbert_threshold(capsys):
    code, out, _ = run(capsys, "hilbert", "--threshold")
    assert code == 0
    assert out.strip() == "35"


def test_hilbert_table(capsys):
    code, out, _ = run(capsys, "hilbert", "--table", "36")
    assert code == 0
    lines = out.splitlines()
    assert "exceeds" in lines[0]
    assert any(line.endswith("yes") for line in lines)


def test_hilbert_crossover(capsys):
    code, out, _ = run(capsys, "hilbert", "--crossover", "8", "0", "0")
    assert code == 0
    assert "crossover n = 65490" in out
    assert "(certified by interval arithmetic)" in out


def test_hilbert_flags_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hilbert", "--threshold", "--table", "10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["hilbert"])
    assert exc.value.code == 2


# --- paper-check -----------------------------------------------------------------------


def test_paper_check_passes_on_a_fresh_tree(capsys):
    code, out, _ = run(capsys, "paper-check")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].endswith("0 failed")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_paper_check_exit_1_on_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_paper_check",
        lambda: (CheckResult("synthetic", False, "forced failure"),))
    code, out, _ = run(capsys, "paper-check")
    assert code == 1
    assert "FAIL" in out


def test_paper_check_json(capsys):
    code, out, _ = run(capsys, "paper-check", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert all(check["passed"] for check in parsed["checks"])


# --- integration failures surface as exit 1 -----------------------------------------


def test_integration_failure_exit_1(capsys, monkeypatch):
    # a blow-up that escapes the scan's own classification reaches main
    from cclab.dynamics import DivergenceError

    def explode(*args, **kwargs):
        raise DivergenceError(0.5, (1e9, 1e9))

    monkeypatch.setattr(cli, "find_cycles_numeric", explode)
    code, out, err = run(capsys, "cycles", "s1")
    assert code == 1
    assert "analysis failure" in err
    assert "DivergenceError" in err

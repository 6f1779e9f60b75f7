"""Command-line front end, driven through main()."""

import hashlib
import json
import random
import re
import shlex
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

import rdtm.cli
import rdtm.engine
import rdtm.expr
import rdtm.separable
from rdtm.cli import main
from rdtm.analysis import evaluate_series, export_figure_data, figure_cells, fraction_str
from rdtm.errors import PrecisionInsufficientError
from rdtm.models import DEFAULT_TABLE_ORDER, ModelId, builtin_model
from rdtm.packed import Packing
from rdtm.parsing import MAX_DERIVATIVE_ORDER, MAX_GRID_POINTS, MAX_ORDER, parse_expr
from rdtm.precision import MAX_DECIMAL_DIGITS, PrecisionContext, eval_precise

EX3_TEXT = """
pde "ex3" {
  vars: x;
  equation: D(u,t,2) = x^2*(D(u,x,2)^2 + D(u,x,1)*D(u,x,3)) - x^2*D(u,x,2)^2 - u;
  init: 0;  init_t: x^2;  exact: x^2*sin(t);
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_text(capsys):
    code, out, err = run(capsys, "solve", "ex3", "--order", "10", "--format", "text")
    assert code == 0 and not err
    lines = out.splitlines()
    assert "V_1 = x^2" in lines
    assert "V_3 = -1/6*x^2" in lines
    assert lines[-1].startswith("series = t*x^2 - 1/6*t^3*x^2 + 1/120*t^5*x^2")


def test_solve_emitted_series_reparses_and_evaluates(capsys, solved):
    code, out, _ = run(capsys, "solve", "ex2", "--order", "8")
    series_text = out.splitlines()[-1].split(" = ", 1)[1]
    reparsed = parse_expr(series_text, ["x"])
    _, sol = solved(ModelId.EX2, 8)
    ctx = PrecisionContext(50)
    for point in ({"x": F(1, 3), "t": F(1, 2)}, {"x": F(9, 10), "t": F(1)}):
        direct = evaluate_series(sol, point, ctx)
        via_text = eval_precise(reparsed, point, ctx)
        assert abs(direct - via_text) < abs(direct) * 10**-45


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "ex3", "--order", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["order"] == 4
    assert payload["spectra"] == ["0", "x^2", "0", "-1/6*x^2"]


def test_solve_csv_and_latex(capsys):
    code, out, _ = run(capsys, "solve", "ex3", "--order", "4", "--format", "csv")
    assert out.splitlines()[0] == "k,spectrum"
    code, out, _ = run(capsys, "solve", "ex3", "--order", "4", "--format", "latex")
    assert r"\frac{1}{6}" in out


def test_table_default_reproduces_reference_cell(capsys):
    code, out, err = run(capsys, "table", "ex1")
    assert code == 0 and not err
    row = next(line for line in out.splitlines() if line.split()[0] == "0.5")
    assert "1.3095E-7" in row.split()


def test_table_csv_quotes_tied_header(capsys):
    code, out, _ = run(capsys, "table", "ex1", "--format", "csv", "--order", "4",
                       "--grid", "t=1/2:1/2:1;x,y=1/2:1/2:1")
    assert out.splitlines()[0] == '"t/x,y",0.5'


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "ex3", "--format", "json")
    payload = json.loads(out)
    assert payload["order"] == 20
    assert payload["row_axis"]["values"] == ["0.2", "0.4", "0.6", "0.8", "1"]
    assert payload["values"][4][4] == "1.9534E-20"


def test_figure_default_shape(capsys):
    code, out, _ = run(capsys, "figure", "ex1")
    lines = out.splitlines()
    assert lines[0] == "x,t,series,exact,abs_error"
    assert len(lines) == 1 + 121
    assert run(capsys, "figure", "ex1", "--format", "csv") == (code, out, "")


TEXT_FORMATS = "--format {text,latex,csv,json}"


@pytest.mark.parametrize("command, options", [
    ("solve", ["--order", TEXT_FORMATS, "--out"]),
    ("table", ["--order", "--grid", "--precision", TEXT_FORMATS, "--sig-digits", "--out"]),
    ("figure", ["--order", "--slice", "--sweep", "--precision", "--format {csv,json}", "--sig-digits", "--out"]),
    ("check", ["--order", "--out"]),
    ("demo", ["--precision", "--out"]),
])
def test_help_lists_the_options_the_command_reads(capsys, command, options):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert re.findall(r"^  (--[a-z-]+(?: \{[a-z,]+\})?)", capsys.readouterr().out, re.M) == options


def test_check_builtins_exit_zero(capsys):
    for model in ("ex1", "ex2", "ex3"):
        code, out, err = run(capsys, "check", model, "--order", "8")
        assert code == 0, (model, out, err)
        assert "residual vanishes" in out


def test_check_reports_failure_for_wrong_exact(tmp_path, capsys):
    bad = EX3_TEXT.replace("x^2*sin(t)", "x^2*cos(t)")
    path = tmp_path / "bad.pde"
    path.write_text(bad)
    code, out, _ = run(capsys, "check", str(path), "--order", "6")
    assert code == 1
    assert "FAIL" in out


FACTORED_TEXT = """pde "factored" {
  vars: x;
  equation: D(u,t,2) = -u;
  init: x*(1 + x);
  init_t: x*(1 - x);
  exact: x*(1 + x)*cos(t) + x*(1 - x)*sin(t);
}
"""


def test_factored_initial_data_are_expanded_spectra(tmp_path, capsys):
    """V_0 and V_1 come out of the solve expanded like every later spectrum,
    so the closed-form check and the series need no expand of their own."""
    path = tmp_path / "factored.pde"
    path.write_text(FACTORED_TEXT)
    code, out, _ = run(capsys, "check", str(path), "--order", "6")
    assert code == 0, out
    code, out, _ = run(capsys, "solve", str(path), "--order", "5")
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["V_0 = x + x^2", "V_1 = x - x^2"]
    assert lines[-1] == (
        "series = x + t*x + x^2 - t*x^2 - 1/2*t^2*x - 1/2*t^2*x^2"
        " - 1/6*t^3*x + 1/6*t^3*x^2 + 1/24*t^4*x + 1/24*t^4*x^2"
    )


GROWING_PDE = Path(__file__).resolve().parent.parent / "perfbench" / "problems" / "growing.pde"
# SHA-256 of `rdtm solve perfbench/problems/growing.pde --order N` stdout.  The
# problem has no closed form, so the digest guards every byte of its spectra
# and their printing; order 14 is the benchmark's, order 18 its scale point.
GROWING_SOLVE_DIGESTS = {
    14: "641d354eedf8bd1beacc80ea166d3ab71f21ab5bdbf3c54f559a1c55092e6090",
    18: "0fa3c7e65e14289d7cce10d79d490026fadda30ebdbc7114f1b022b793f9132e",
}


@pytest.mark.parametrize("order", sorted(GROWING_SOLVE_DIGESTS))
def test_growing_solve_output_digest(capsys, order):
    code, out, err = run(capsys, "solve", str(GROWING_PDE), "--order", str(order))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GROWING_SOLVE_DIGESTS[order]


@pytest.mark.parametrize("fmt", ["text", "latex", "json", "csv"])
def test_solve_prints_from_packed_spectra(monkeypatch, capsys, fmt):
    """No spectrum or series becomes a tree on the way to the printed text."""
    calls = []
    original = Packing.to_expr

    def converting(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(Packing, "to_expr", converting)
    code, out, err = run(capsys, "solve", str(GROWING_PDE), "--order", "10", "--format", fmt)
    assert (code, err) == (0, "") and out
    assert calls == []


def test_check_builds_one_packing(monkeypatch, capsys):
    """The residual check reads the spectra the solve packed."""
    made = []
    original = Packing.__init__

    def counting(self, inputs):
        made.append(inputs)
        original(self, inputs)

    monkeypatch.setattr(Packing, "__init__", counting)
    code, out, _ = run(capsys, "check", str(GROWING_PDE), "--order", "10")
    assert code == 0 and out.startswith("residual vanishes through t^7")
    assert len(made) == 1


def test_demo_makes_one_packing_per_model(monkeypatch, capsys):
    """demo checks a prefix of each model's solve, which shares the
    solve's Packing."""
    made = []
    original = Packing.__init__

    def counting(self, inputs):
        made.append(inputs)
        original(self, inputs)

    monkeypatch.setattr(Packing, "__init__", counting)
    code, _, err = run(capsys, "demo")
    assert code == 0, err
    assert len(made) == len(ModelId) == 3


def test_demo_builds_each_spectrum_tree_once(monkeypatch, capsys):
    """The checked prefix of each solve takes the trees that the solve's
    V_0..V_3 lines built, one per spectrum of the three solves."""
    calls = [0]
    original = Packing.to_expr

    def counting(self, p):
        calls[0] += 1
        return original(self, p)

    monkeypatch.setattr(Packing, "to_expr", counting)
    code, _, err = run(capsys, "demo")
    assert code == 0, err
    assert calls[0] == sum(DEFAULT_TABLE_ORDER.values()) == 44


def test_demo_checks_print_the_lines_of_check(capsys):
    """Each model's check lines in demo are those of `rdtm check` at the
    order demo checks, indented."""
    _, out, _ = run(capsys, "demo")
    blocks = re.split(r"^== ", out, flags=re.M)[1:]
    assert len(blocks) == len(ModelId)
    for model, block in zip(ModelId, blocks):
        order = min(DEFAULT_TABLE_ORDER[model], 10)
        code, check_out, err = run(capsys, "check", model.value, "--order", str(order))
        assert code == 0, err
        expected = ["   " + line for line in check_out.splitlines()]
        lines = block.splitlines()
        assert lines[0] == f"{model.value}: order {DEFAULT_TABLE_ORDER[model]}"
        assert lines[5:5 + len(expected)] == expected
        assert lines[5 + len(expected)].startswith("   max |series - exact|")


def test_check_takes_one_derivative_per_order(monkeypatch, solved):
    """Closed-form agreement differentiates the exact solution once per
    order, not k times for V_k."""
    _, sol = solved(ModelId.EX3, 20)
    calls = [0]
    original = rdtm.expr.differentiate

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(rdtm.expr, "differentiate", counting)
    lines, ok = rdtm.cli._check_report(sol)
    assert ok and lines[1] == "spectra match the exact solution's Taylor coefficients for k<20"
    assert calls[0] == 19


def test_spec_file_solve_matches_builtin(tmp_path, capsys):
    path = tmp_path / "ex3.pde"
    path.write_text(EX3_TEXT)
    _, out_file, _ = run(capsys, "solve", str(path), "--order", "10")
    _, out_builtin, _ = run(capsys, "solve", "ex3", "--order", "10")
    assert out_file == out_builtin


def test_byte_identical_reruns(capsys):
    _, a, _ = run(capsys, "table", "ex3", "--format", "csv")
    _, b, _ = run(capsys, "table", "ex3", "--format", "csv")
    assert a == b


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "solve", "ex3", "--order", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert "V_1 = x^2" in target.read_text()


def test_missing_file_is_a_clean_error(capsys):
    code, out, err = run(capsys, "solve", "no-such-file.pde")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("rhs, factor", [
    ("sin(t)*D(u,x,2)", "sin(t)"),
    ("sin(t)^2*u", "sin(t)^2"),
    ("exp(x*t)*u + cos(t)*D(u,x,1)", "exp(t*x)"),
])
def test_an_atom_of_t_in_the_equation_is_a_clean_error(tmp_path, capsys, rhs, factor):
    path = tmp_path / "bad.pde"
    path.write_text(f'pde "bad" {{\n  vars: x;\n  equation: D(u,t,2) = {rhs};\n  init: x;  init_t: 0;\n}}\n')
    error = f"error: coefficients may depend on t only through integer powers t^n, found {factor}\n"
    assert run(capsys, "solve", str(path)) == (1, "", error)


def test_invalid_order_is_a_clean_error(capsys):
    code, _, err = run(capsys, "solve", "ex3", "--order", "1")
    assert code == 1 and "order" in err


def test_demo_summary(capsys):
    code, out, err = run(capsys, "demo")
    assert code == 0, err
    assert "reproduction summary: all checks passed" in out


@pytest.mark.parametrize("argv, solves", [(("demo",), 3), (("check", "ex3", "--order", "8"), 1)], ids=["demo", "check"])
def test_each_command_solves_each_model_once(monkeypatch, capsys, argv, solves):
    """demo checks the first spectra of its one solve per model, as they
    are those of a solve at the check's order."""
    calls = []

    def counting(spec, order):
        calls.append((spec.name, order))
        return rdtm.engine.solve_series(spec, order)

    monkeypatch.setattr(rdtm.cli, "solve_series", counting)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert len(calls) == solves, calls


def test_order_zero_is_not_replaced_by_the_default(capsys):
    for command in ("solve", "table", "figure", "check"):
        code, out, err = run(capsys, command, "ex3", "--order", "0")
        assert code == 1 and out == "", command
        assert err.startswith("error:") and "order" in err, command


def test_sig_digits_out_of_range_is_a_clean_error(capsys):
    code, out, err = run(capsys, "table", "ex3", "--sig-digits", "9")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--sig-digits" in err


def test_precision_below_floor_is_a_clean_error(capsys):
    code, out, err = run(capsys, "table", "ex3", "--precision", "10")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--precision" in err


@pytest.mark.parametrize("command", ["table", "figure", "demo"])
def test_precision_above_ceiling_is_refused_before_any_work(capsys, monkeypatch, command):
    """200000 digits ran for more than 20 s before the ceiling existed."""
    monkeypatch.setattr(rdtm.cli, "solve_series", None)
    argv = [command] + (["ex3"] if command != "demo" else [])
    code, out, err = run(capsys, *argv, "--precision", str(MAX_DECIMAL_DIGITS + 1))
    assert code == 1 and out == ""
    assert err == f"error: --precision must be at most {MAX_DECIMAL_DIGITS} digits, got {MAX_DECIMAL_DIGITS + 1}\n"


def test_precision_at_ceiling_is_accepted(capsys):
    code, out, err = run(capsys, "table", "ex3", "--order", "4", "--grid", "t=1/2:1:1/2;x=1:1:1",
                         "--precision", str(MAX_DECIMAL_DIGITS))
    assert code == 0, err
    assert out.splitlines()[0].split() == ["t/x", "1"]


def test_reserved_variable_in_problem_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "reserved.pde"
    path.write_text('pde "r" {\n  vars: x, t;\n  equation: D(u,t,2) = u;\n  init: 1;  init_t: 0;\n}\n')
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: line 2, col 12:") and "reserved" in err


def test_non_utf8_problem_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "latin1.pde"
    path.write_bytes('pde "caf\u00e9" { vars: x; }'.encode("latin-1"))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "UTF-8" in err


def test_derivative_order_beyond_the_limit_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "high.pde"
    n = MAX_DERIVATIVE_ORDER
    path.write_text(f'pde "high" {{\n  vars: x;\n  equation: D(u,t,2) = D(u,x,{n + 1});\n  init: x;  init_t: 0;\n}}\n')
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: line 3, col 30:") and f"exceeds {n}" in err
    path.write_text(path.read_text().replace(str(n + 1), str(n)))
    code, out, err = run(capsys, "solve", str(path), "--order", "3")
    assert code == 0, err


def test_check_reports_a_residual_vanishing_past_the_order(tmp_path, capsys):
    """u_tt = x*t^5 from zero data: at order 4 the series is zero and the
    residual's first nonzero coefficient is t^5, above the order."""
    path = tmp_path / "past.pde"
    path.write_text('pde "past" { vars: x; equation: D(u,t,2) = x*t^5; init: 0; init_t: 0; }\n')
    code, out, err = run(capsys, "check", str(path), "--order", "4")
    assert code == 0, err
    assert out.splitlines()[0] == "residual vanishes through t^4 (order 4 needs t^1)"


def test_check_at_order_2_says_the_residual_check_is_vacuous(capsys):
    """Order N needs the residual to vanish through t^(N-3); at N = 2 that
    is no coefficient, so there is nothing to report but that."""
    code, out, err = run(capsys, "check", "ex1", "--order", "2")
    assert code == 0, err
    assert out.splitlines() == [
        "residual check is vacuous at order 2: no coefficient must vanish",
        "spectra match the exact solution's Taylor coefficients for k<2",
    ]


def test_model_id_is_case_insensitive(capsys):
    upper = run(capsys, "solve", "EX3", "--order", "4")
    assert upper == run(capsys, "solve", "ex3", "--order", "4")
    assert upper[0] == 0 and "V_1 = x^2" in upper[1]


def test_unknown_model_is_a_clean_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no file named ex4 here
    code, out, err = run(capsys, "solve", "ex4")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "ex4" in err


def test_malformed_ranges_are_clean_errors(capsys):
    """--grid axes and --sweep ranges are read by one grammar and checked
    by one function, so each fault has one message on both paths."""
    cases = [
        (("table", "ex3", "--grid", "t=0:1;x=0:1:1/2"), "error: --grid: line 1, col 6: expected ':', found ';'"),
        (("figure", "ex3", "--sweep", "t=0:1"), "error: --sweep: line 1, col 6: expected ':', found 'end of input'"),
        (("table", "ex3", "--grid", "t=0:1:1/2;x=0:q:1/2"), "error: --grid: line 1, col 15: expected a number, found 'q'"),
        (("figure", "ex3", "--sweep", "t=0:q:1/2"), "error: --sweep: line 1, col 5: expected a number, found 'q'"),
        (("table", "ex3", "--grid", "t=0:1:0;x=0:1:1/2"), "error: sweep step for 't' must be positive"),
        (("figure", "ex3", "--sweep", "t=0:1:-1/2"), "error: sweep step for 't' must be positive"),
        (("figure", "ex3", "--sweep", "t0:1:1/2"), "error: --sweep: line 1, col 3: expected '=', found ':'"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", message + "\n"), argv


class WorkStarted(Exception):
    """Raised by the stubs below the moment a command would start computing."""


def _refuse_work(monkeypatch):
    """Make the solver, and the range enumeration, raise WorkStarted, so a
    size test never starts a run or builds an axis of the size it checks."""

    def refuse(*args):
        raise WorkStarted

    monkeypatch.setattr(rdtm.cli, "solve_series", refuse)
    monkeypatch.setattr(rdtm.cli, "rational_range", refuse)


@pytest.mark.parametrize("grid, message", [
    # the tied column would override the row's t in every cell
    ("t=1/5:1/5:1/5;t,x=1/5:2/5:1/5", "duplicate sweep variable"),
    ("t=1/5:1/5:1/5;z=1/5:2/5:1/5", "unknown variables ['z']"),
])
def test_table_grid_bindings_are_checked(monkeypatch, capsys, grid, message):
    """Binding errors come before the solve and before any axis is built."""
    _refuse_work(monkeypatch)
    code, out, err = run(capsys, "table", "ex3", "--order", "6", "--grid", grid)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_figure_bindings_are_checked_before_the_solve(monkeypatch, capsys):
    _refuse_work(monkeypatch)
    code, out, err = run(capsys, "figure", "ex3", "--order", "6", "--slice", "x=1/2", "--sweep", "x=0:1:1/2")
    assert (code, out, err) == (1, "", "error: slice and sweep bind the same variable (over-constrained)\n")


@pytest.mark.parametrize("argv, message", [
    (("table", "ex1", "--grid", "t=1:1:1;z=1:1:1"), "unknown variables ['z']"),
    (("figure", "ex3", "--slice", "x=1/2", "--sweep", "x=0:1:1/2"),
     "slice and sweep bind the same variable (over-constrained)"),
])
def test_a_binding_error_comes_before_the_order_limit(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--order", str(MAX_ORDER + 1))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_a_variable_bound_twice_in_a_slice_is_a_clean_error(monkeypatch, capsys):
    """The second binding used to replace the first without a word."""
    _refuse_work(monkeypatch)
    argv = ("figure", "ex1", "--slice", "y=1/2;y=1/3", "--sweep", "x=0:1:1/2", "--sweep", "t=0:1:1/2")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: slice binds 'y' twice\n")


# (rows, cols) and sweep lengths with exactly MAX_GRID_POINTS and one more
# point; 100001 = 11 * 9091.
AT_LIMIT = (100, MAX_GRID_POINTS // 100)
OVER_LIMIT = (11, (MAX_GRID_POINTS + 1) // 11)
assert AT_LIMIT[0] * AT_LIMIT[1] == MAX_GRID_POINTS
assert OVER_LIMIT[0] * OVER_LIMIT[1] == MAX_GRID_POINTS + 1


def _grid(rows, cols):
    return f"t=1:{rows}:1;x=1/{cols}:1:1/{cols}"


def _sweeps(rows, cols):
    return ("--sweep", f"t=1:{rows}:1", "--sweep", f"x=1/{cols}:1:1/{cols}")


@pytest.mark.parametrize("argv", [
    ("table", "ex3", "--grid", _grid(*AT_LIMIT)),
    ("figure", "ex1", "--slice", "y=0", *_sweeps(*AT_LIMIT)),
])
def test_grid_at_the_size_limit_is_accepted(monkeypatch, argv):
    _refuse_work(monkeypatch)
    with pytest.raises(WorkStarted):
        main(list(argv))


@pytest.mark.parametrize("argv", [
    ("table", "ex3", "--grid", _grid(*OVER_LIMIT)),
    ("figure", "ex1", "--slice", "y=0", *_sweeps(*OVER_LIMIT)),
])
def test_grid_over_the_size_limit_is_a_clean_error(monkeypatch, capsys, argv):
    _refuse_work(monkeypatch)
    code, out, err = run(capsys, *argv)
    message = f"error: grid has {MAX_GRID_POINTS + 1} points, more than the limit of {MAX_GRID_POINTS}\n"
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("argv", [
    ("table", "ex3", "--grid", f"t=1:0:1;x=1/{MAX_GRID_POINTS + 1}:1:1/{MAX_GRID_POINTS + 1}"),
    ("figure", "ex1", "--slice", "y=0", "--sweep", "t=1:0:1",
     "--sweep", f"x=1/{MAX_GRID_POINTS + 1}:1:1/{MAX_GRID_POINTS + 1}"),
])
def test_an_empty_axis_does_not_admit_an_oversized_one(monkeypatch, capsys, argv):
    """The grid has no points, but the other axis would still be built."""
    _refuse_work(monkeypatch)
    code, out, err = run(capsys, *argv)
    message = f"error: an axis has {MAX_GRID_POINTS + 1} points, more than the limit of {MAX_GRID_POINTS}\n"
    assert (code, out, err) == (1, "", message)


def test_a_tiny_sweep_step_is_refused_before_the_solve(monkeypatch, capsys):
    _refuse_work(monkeypatch)
    code, out, err = run(capsys, "figure", "ex3", "--slice", "x=1/2", "--sweep", "t=0:1:1/10000000")
    assert code == 1 and out == ""
    assert err == f"error: grid has 10000001 points, more than the limit of {MAX_GRID_POINTS}\n"


@pytest.mark.parametrize("command, option", [("table", "--grid"), ("figure", "--slice")])
def test_an_empty_value_is_not_a_missing_option(monkeypatch, capsys, command, option):
    """An empty --grid used to print the reference table, and an empty
    --slice the default figure."""
    _refuse_work(monkeypatch)
    code, out, err = run(capsys, command, "ex3", "--order", "6", option, "")
    assert (code, out, err) == (1, "", f"error: {option}: line 1, col 1: expected a variable name, found 'end of input'\n")


@pytest.mark.parametrize("argv, message", [
    (("table", "ex1", "--grid", "t,x=0:1:1/2;y=0:1:1/2"), "the row axis must be a single variable"),
    (("table", "ex3", "--grid", "t=0:1:1/2"), "grid must have a row part and a column part separated by ';'"),
    (("table", "ex3", "--grid", "t=0:1:1/2;x=0:1:1/2;x=0:1:1/2"),
     "grid must have a row part and a column part separated by ';'"),
    (("figure", "ex1", "--slice", "t=1/2", "--sweep", "x,y=0:1:1/2"), "--sweep binds one variable at a time, got 'x,y'"),
    (("figure", "ex1", "--slice", "x,y=1/2", "--sweep", "t=0:1:1/2"), "--slice binds one variable at a time, got 'x,y'"),
    (("figure", "ex1", "--slice", "y=1/2", "--sweep", "x=0:1:1/2;t=0:1:1/2"),
     "--sweep takes one range; repeat --sweep for another"),
], ids=["tied-row", "one-range-grid", "three-range-grid", "tied-sweep", "tied-slice", "two-ranges-in-one-sweep"])
def test_values_of_the_wrong_shape_are_clean_errors(monkeypatch, capsys, argv, message):
    _refuse_work(monkeypatch)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("table", "ex3", "--grid", "t=1e-1:2e-1:1e-1;x=3/10:1:1/2"), "--grid: line 1, col 4: expected ':', found 'e'"),
    (("table", "ex3", "--grid", "t=1/10:1:1/2;x=٣/10:1:1/2"), "--grid: line 1, col 16: unexpected character '٣'"),
    (("figure", "ex3", "--slice", "x=1_0e-1", "--sweep", "t=0:1:1/2"), "--slice: line 1, col 4: unexpected trailing '_0e'"),
    (("figure", "ex3", "--slice", "x=+1/2", "--sweep", "t=0:1:1/2"), "--slice: line 1, col 3: expected a number, found '+'"),
    (("figure", "ex3", "--slice", "=1/2", "--sweep", "t=0:1:1/2"), "--slice: line 1, col 1: expected a variable name, found '='"),
    (("figure", "ex3", "--slice", "x,=1/2", "--sweep", "t=0:1:1/2"),
     "--slice: line 1, col 3: expected a variable name, found '='"),
    (("figure", "ex3", "--slice", "x=1/2;", "--sweep", "t=0:1:1/2"),
     "--slice: line 1, col 7: expected a variable name, found 'end of input'"),
], ids=["exponent", "arabic-indic-digit", "underscore", "leading-plus", "no-name", "empty-name", "trailing-semicolon"])
def test_numbers_outside_the_lexicon_are_clean_errors(monkeypatch, capsys, argv, message):
    """The first four used to be read by Python's own number syntax, and the
    last three ended in a misleading error or none."""
    _refuse_work(monkeypatch)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("solve", "ex3", "--precision", "20"),
    ("solve", "ex3", "--sig-digits", "3"),
    ("check", "ex3", "--format", "json"),
    ("check", "ex3", "--precision", "80"),
    ("check", "ex3", "--sig-digits", "3"),
    ("demo", "--order", "5"),
    ("demo", "--format", "csv"),
    ("demo", "--sig-digits", "3"),
    ("table", "ex3", "--format", "plain"),
    ("figure", "ex1", "--format", "latex"),
    ("table", "ex1", "--format", "xml"),
    ("solve", "ex3", "--order", "ten"),
    (),
])
def test_usage_errors_are_clean_errors(monkeypatch, capsys, argv):
    """An option the command does not read, a value outside its choices, or
    a malformed command line ends like any other bad input, before any work."""
    _refuse_work(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "table", "figure", "check"])
def test_order_over_the_limit_is_refused_before_compiling(monkeypatch, capsys, command):
    def refuse(*args):
        raise WorkStarted

    monkeypatch.setattr(rdtm.engine, "compile_recurrence", refuse)
    monkeypatch.setattr(rdtm.engine.RecurrenceState, "advance", refuse)
    code, out, err = run(capsys, command, "ex3", "--order", str(MAX_ORDER + 1))
    message = f"error: truncation order {MAX_ORDER + 1} is more than the limit of {MAX_ORDER}\n"
    assert (code, out, err) == (1, "", message)


def _problem(rhs, init="0"):
    return f'pde "p" {{\n  vars: x;\n  equation: D(u,t,2) = {rhs};\n  init: {init};  init_t: x;\n}}\n'


DIGITS = "1" * 5000


@pytest.mark.parametrize("rhs, col, message", [
    ("x*2²", 27, "unexpected character '²'"),
    ("u^²", 26, "unexpected character '²'"),
    ("٣*x", 24, "unexpected character '٣'"),
    ("α*x", 24, "unexpected character 'α'"),
    (f"{DIGITS}*x", 24, "number has more than 4300 digits"),
    (f"x^{DIGITS}", 26, "number has more than 4300 digits"),
    (f"D(u,x,{DIGITS})", 30, "number has more than 4300 digits"),
], ids=["superscript-digit", "superscript-exponent", "arabic-indic-digit", "greek-letter",
        "long-literal", "long-exponent", "long-derivative-order"])
def test_text_outside_the_lexicon_is_a_clean_error(tmp_path, capsys, rhs, col, message):
    path = tmp_path / "p.pde"
    path.write_text(_problem(rhs), encoding="utf-8")
    assert run(capsys, "solve", str(path)) == (1, "", f"error: line 3, col {col}: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json", "latex", "csv"])
def test_a_coefficient_past_the_digit_limit_is_a_clean_error(tmp_path, capsys, fmt):
    """A numerator or a denominator past the limit ends the solve before its
    first line: exit 1, nothing on stdout, and no --out file."""
    message = "error: a coefficient or exponent has more than 4300 digits, the limit for converting an integer to text\n"
    target = tmp_path / "out.txt"
    for init in ("10^5000", "1/10^5000"):
        path = tmp_path / "big.pde"
        path.write_text(_problem("0", init=init))
        assert run(capsys, "solve", str(path), "--format", fmt) == (1, "", message)
        assert run(capsys, "solve", str(path), "--format", fmt, "--out", str(target)) == (1, "", message)
        assert not target.exists()


@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_solve_out_writes_the_stdout_bytes(tmp_path, capsys, fmt):
    """`solve --out` writes the lines that stdout gets, byte for byte."""
    argv = ("solve", str(GROWING_PDE), "--order", "14", "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.count("\n") == 15
    target = tmp_path / "solve.txt"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_figure_json_holds_the_csv_cells(capsys):
    code, csv_out, _ = run(capsys, "figure", "ex1")
    assert code == 0
    code, json_out, _ = run(capsys, "figure", "ex1", "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    header, *rows = csv_out.splitlines()
    assert payload["columns"] == header.split(",") == ["x", "t", "series", "exact", "abs_error"]
    assert payload["order"] == 6
    assert payload["rows"] == [row.split(",") for row in rows]


# (model, swept variables): one and two sweeps, and slices that bind t
FIGURE_SHAPES = [
    (ModelId.EX3, ("t",)),
    (ModelId.EX3, ("x",)),
    (ModelId.EX3, ("x", "t")),
    (ModelId.EX1, ("x", "t")),
    (ModelId.EX1, ("t", "y")),
    (ModelId.EX1, ("y",)),
]


def _random_rational(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 5))


@pytest.mark.parametrize("seed", range(12))
def test_figure_csv_is_that_of_the_figure_data(tmp_path, capsys, seed):
    """The CSV that `rdtm figure` writes row by row is the text of
    ``FigureData.to_csv``, and its JSON rows are the cells of the same raw
    rows, on stdout and in an --out file alike."""
    rng = random.Random(seed)
    model, swept = FIGURE_SHAPES[seed % len(FIGURE_SHAPES)]
    sig_digits = seed // 2 + 1
    spec = builtin_model(model)
    order = rng.randint(2, 8)
    fixed = {name: _random_rational(rng) for name in (*spec.spatial_vars, "t") if name not in swept}
    sweeps = []
    for name in swept:
        start, step = _random_rational(rng), F(1, rng.randint(1, 6))
        sweeps.append((name, start, start + step * rng.randint(0, 4), step))
    argv = ["figure", model.value, "--order", str(order), "--sig-digits", str(sig_digits)]
    argv += ["--slice", ";".join(f"{name}={fraction_str(v)}" for name, v in fixed.items())] if fixed else []
    for name, *bounds in sweeps:
        argv += ["--sweep", f"{name}=" + ":".join(map(fraction_str, bounds))]
    data = export_figure_data(rdtm.engine.solve_series(spec, order), spec.exact, fixed, sweeps)
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "csv":
            assert out == data.to_csv(sig_digits)
        else:
            payload = json.loads(out)
            assert payload["columns"] == list(data.columns)
            assert payload["rows"] == [figure_cells(row, sig_digits) for row in data.raw_rows]
        target = tmp_path / f"figure.{fmt}"
        assert run(capsys, *argv, "--format", fmt, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_a_figure_whose_first_cell_fails_writes_nothing(monkeypatch, tmp_path, capsys, to_file):
    def fail(self, index):
        raise PrecisionInsufficientError("the first cell failed")

    monkeypatch.setattr(rdtm.separable.SeriesEvaluator, "at", fail)
    target = tmp_path / "figure.csv"
    argv = ("figure", "ex3", "--order", "4", "--slice", "x=1/2", "--sweep", "t=0:1:1/2")
    argv += ("--out", str(target)) if to_file else ()
    assert run(capsys, *argv) == (1, "", "error: the first cell failed\n")
    assert not target.exists()


def test_an_empty_figure_sweep_prints_the_header_alone(tmp_path, capsys):
    argv = ("figure", "ex1", "--order", "4", "--slice", "y=1/2", "--sweep", "x=1:0:1/2", "--sweep", "t=0:1:1/2")
    header = "x,t,series,exact,abs_error\n"
    assert run(capsys, *argv) == (0, header, "")
    target = tmp_path / "figure.csv"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == header


class _Discard:
    """A stdout that drops its text."""

    def write(self, text):
        return len(text)

    def writelines(self, lines):
        for _ in lines:
            pass


def test_a_figure_memory_does_not_grow_with_its_rows(monkeypatch):
    """`rdtm figure` writes each CSV line as its row is computed: with the
    text discarded, a 101x101 figure peaks less than 1 MB above an 11x11
    one.  Holding every row and the whole text costs about 7 MB more."""

    def figure_peak(n):
        tracemalloc.start()
        try:
            code = main(["figure", "ex1", "--order", "4", "--slice", "y=1/2",
                         "--sweep", f"x=1/{n}:1:1/{n}", "--sweep", f"t=1/{n}:1:1/{n}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    monkeypatch.setattr(sys, "stdout", _Discard())
    figure_peak(2)  # loads the modules a figure reads
    assert figure_peak(101) - figure_peak(11) < 10**6


def test_check_report_names_the_first_nonvanishing_residual_coefficient(solved):
    spec, sol = solved(ModelId.EX3, 8)
    spectra = list(sol.spectra)
    spectra[4] = parse_expr("x", ["x"])
    lines, ok = rdtm.cli._check_report(rdtm.engine.SeriesSolution(spec, tuple(spectra), 8))
    assert not ok
    assert lines == [
        "FAIL: residual coefficient at t^2 does not vanish (order 8 requires vanishing through t^5)",
        "FAIL: spectrum V_4 differs from the exact solution's Taylor coefficient",
    ]


def _readme_commands():
    """The `rdtm ...` lines of README's "Command line" block, but the one
    that needs a problem file of the reader's own."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("rdtm ")]
    return [shlex.split(line, comments=True)[1:] for line in lines if "my_problem.pde" not in line]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_run(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 0, err

"""Command-line front end, driven through main()."""

import json
import re
from fractions import Fraction as F

import pytest

import rdtm.cli
import rdtm.engine
from rdtm.cli import main
from rdtm.analysis import evaluate_series
from rdtm.models import ModelId
from rdtm.parsing import MAX_DERIVATIVE_ORDER, MAX_GRID_POINTS, MAX_ORDER, parse_expr
from rdtm.precision import PrecisionContext, eval_precise

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
    """--grid axes and --sweep ranges share the start:stop:step split."""
    cases = [
        (("table", "ex3", "--grid", "t=0:1;x=0:1:1/2"), "error: expected start:stop:step, got '0:1'"),
        (("figure", "ex3", "--sweep", "t=0:1"), "error: expected start:stop:step, got '0:1'"),
        (("table", "ex3", "--grid", "t=0:1:1/2;x=0:q:1/2"), "error: not an exact rational: 'q'"),
        (("figure", "ex3", "--sweep", "t=0:q:1/2"), "error: not an exact rational: 'q'"),
        (("table", "ex3", "--grid", "t=0:1:0;x=0:1:1/2"), "error: step must be positive"),
        (("figure", "ex3", "--sweep", "t=0:1:-1/2"), "error: sweep step for 't' must be positive"),
        (("figure", "ex3", "--sweep", "t0:1:1/2"), "error: expected name=start:stop:step, got 't0:1:1/2'"),
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
    monkeypatch.setattr(rdtm.engine.RecurrenceState, "step", refuse)
    code, out, err = run(capsys, command, "ex3", "--order", str(MAX_ORDER + 1))
    message = f"error: truncation order {MAX_ORDER + 1} is more than the limit of {MAX_ORDER}\n"
    assert (code, out, err) == (1, "", message)

"""Series evaluation, error grids, residual checks, rendering, figure data."""

import itertools
import random
import re
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

import rdtm.analysis
import rdtm.expr
import rdtm.precision
import rdtm.separable
from rdtm.analysis import (
    Grid2D,
    GridAxis,
    absolute_error_grid,
    check_grid_size,
    check_sweeps,
    evaluate_series,
    export_figure_data,
    figure_rows,
    format_scientific,
    fraction_str,
    range_length,
    rational_range,
    render_table,
    residual_order_check,
    taylor_coefficient,
    taylor_coefficients,
)
from rdtm.engine import PdeSpec, SeriesSolution, solve_series
from rdtm.errors import (
    GridError,
    PrecisionInsufficientError,
    UnboundVariableError,
    UnsupportedExpressionError,
    UnsupportedStructureError,
)
from rdtm.expr import ZERO, Product, Sum, Var, deriv_sym, rational, simplify, subtrees, to_text
from rdtm.models import DEFAULT_TABLE_GRID, ModelId
from rdtm.packed import Packing
from rdtm.parsing import MAX_GRID_POINTS, parse_expr
from rdtm.precision import PrecisionContext, eval_number, eval_precise, fraction_to_mpf
from rdtm.specfile import parse_spec_file

from oracles import (
    first_nonvanishing_degree,
    full_expansion_residual,
    lone_series_value,
    nstr_scientific,
    sin_oracle,
    sin_partial_sum,
)

CTX = PrecisionContext(50)


def default_grid(model):
    t_values, col_values, tie = DEFAULT_TABLE_GRID[model]
    return Grid2D(GridAxis("t", t_values), GridAxis(tie[0], col_values), tie)


class TestEvaluateSeries:
    def test_zero_time(self, solved):
        _, sol = solved(ModelId.EX3, 10)
        assert evaluate_series(sol, {"x": F(7, 3), "t": 0}, CTX) == 0

    def test_ex2_partial_exponential_sum(self, solved):
        # sum over k < 10 of 1/k! = 98641/36288, evaluated in high precision
        _, sol = solved(ModelId.EX2, 10)
        got = evaluate_series(sol, {"x": 0, "t": 1}, CTX)
        with mpmath.workdps(60):
            want = fraction_to_mpf(F(98641, 36288))
        assert abs(got - want) < mpmath.mpf(10) ** -55
        assert mpmath.nstr(got, 17) == "2.7182815255731922"

    def test_ex1_alternating_rational_sum(self, solved):
        # 1 + 1 - 1/2 - 1/6 + 1/24 + 1/120 - 1/720 - 1/5040 = 6964/5040 = 1741/1260
        _, sol = solved(ModelId.EX1, 8)
        got = evaluate_series(sol, {"x": 0, "y": 0, "t": 1}, CTX)
        with mpmath.workdps(60):
            want = fraction_to_mpf(F(1741, 1260))
        assert abs(got - want) < mpmath.mpf(10) ** -55

    def test_t_must_be_bound(self, solved):
        _, sol = solved(ModelId.EX3, 10)
        with pytest.raises(UnboundVariableError):
            evaluate_series(sol, {"x": 1}, CTX)

    def test_floats_rejected(self, solved):
        _, sol = solved(ModelId.EX3, 10)
        with pytest.raises(TypeError):
            evaluate_series(sol, {"x": 1, "t": 0.1}, CTX)

    def test_unknown_variables_are_refused(self, solved):
        """A variable the problem does not have is refused, as the figure
        and table paths refuse it, rather than silently ignored."""
        _, sol = solved(ModelId.EX1, 8)
        with pytest.raises(GridError, match=r"unknown variables \['z'\]"):
            evaluate_series(sol, {"t": F(1, 2), "x": 1, "y": 1, "z": 5}, CTX)
        with pytest.raises(UnboundVariableError):
            evaluate_series(sol, {"t": F(1, 2), "x": 1}, CTX)

    def test_spectra_are_evaluated_as_given(self, monkeypatch, solved):
        """Spectra are kernel results and already canonical, so evaluating
        the series must not simplify them again in every cell."""
        _, sol = solved(ModelId.EX2, 20)
        calls = [0]
        original = rdtm.expr.simplify

        def counting(e):
            calls[0] += 1
            return original(e)

        monkeypatch.setattr(rdtm.expr, "simplify", counting)
        for i in range(1, 6):
            evaluate_series(sol, {"t": F(i, 5), "x": F(1, i)}, CTX)
        assert calls[0] == 0


class TestErrorGrid:
    def test_zero_error_at_t_zero(self, solved):
        spec, sol = solved(ModelId.EX1, 8)
        grid = Grid2D(
            GridAxis("t", (F(0), F(1, 2))), GridAxis("x", (F(1, 2), F(1))), ("x", "y")
        )
        table = absolute_error_grid(sol, spec.exact, grid, CTX)
        assert table.values[0] == (0, 0)

    def test_exact_is_simplified_once_per_grid(self, monkeypatch, solved):
        """The exact solution is canonicalized once per table or figure, not
        in every cell: on a 10x10 ex1 grid, simplify sees it once, not 100
        times."""
        spec, sol = solved(ModelId.EX1, 8)
        tenths = [F(i, 10) for i in range(1, 11)]
        grid = Grid2D(GridAxis("t", tenths), GridAxis("x", tenths), ("x", "y"))
        calls = [0]
        original = rdtm.expr.simplify

        def counting(e):
            calls[0] += e == spec.exact
            return original(e)

        monkeypatch.setattr(rdtm.expr, "simplify", counting)
        absolute_error_grid(sol, spec.exact, grid, CTX)
        assert calls[0] == 1
        calls[0] = 0
        sweeps = [("t", F(1, 10), 1, F(1, 10)), ("x", F(1, 10), 1, F(1, 10))]
        export_figure_data(sol, spec.exact, {"y": F(1, 2)}, sweeps, CTX)
        assert calls[0] == 1

    def test_spectra_and_atoms_are_evaluated_once_per_value(self, monkeypatch, solved):
        """On a 10x10 ex1 table and a 10x10 figure there are 10 distinct
        spatial points, so the 8 spectra are evaluated 80 times, not once per
        cell (800), and no atom is computed twice for the same argument (the
        per-cell path recomputed exp(x*y) in every spectrum of every cell)."""
        spec, sol = solved(ModelId.EX1, 8)
        spectra = {id(v) for v in sol.spectra}
        evaluations = [0]
        atom_calls = []
        original = rdtm.precision.eval_number

        def counting(e, point, prec, atoms=None):
            evaluations[0] += id(e) in spectra
            return original(e, point, prec, atoms)

        def recording(kind, fn):
            return lambda argument, *args: atom_calls.append((kind, argument, *args)) or fn(argument, *args)

        monkeypatch.setattr(rdtm.precision, "eval_number", counting)
        libmp = rdtm.precision.load_libmp()  # where evaluation looks its atoms up
        for kind in ("exp", "sin", "cos"):
            name = "mpf_" + kind
            monkeypatch.setattr(libmp, name, recording(kind, getattr(libmp, name)))
        tenths = [F(i, 10) for i in range(1, 11)]
        grid = Grid2D(GridAxis("t", tenths), GridAxis("x", tenths), ("x", "y"))
        sweeps = [("x", F(1, 10), 1, F(1, 10)), ("t", F(1, 10), 1, F(1, 10))]
        for run in (
            lambda: absolute_error_grid(sol, spec.exact, grid, CTX),
            lambda: export_figure_data(sol, spec.exact, {"y": F(1, 2)}, sweeps, CTX),
        ):
            evaluations[0] = 0
            atom_calls.clear()
            run()
            assert evaluations[0] == 10 * 8
            assert 0 < len(atom_calls) <= len(set(atom_calls))

    def test_exact_solution_is_evaluated_once_per_axis_value(self, monkeypatch, solved):
        """ex1's exact solution is exp(x*y)*(sin(t) + cos(t)).  On a 10x10
        table and figure, exp(x*y) reads only the x (or tied x,y) axis and
        sin(t) + cos(t) only the t axis, so each is evaluated once per axis
        value (10 times), not once per cell (100 times)."""
        spec, sol = solved(ModelId.EX1, 8)
        targets = {
            parse_expr("exp(x*y)", ("x", "y")): "space",
            parse_expr("sin(t) + cos(t)", ("x", "y")): "time",
        }
        subtree_ids = {}
        counts = {}
        simplify_original = rdtm.expr.simplify
        eval_original = rdtm.precision._eval

        def capturing(e):
            result = simplify_original(e)
            if e == spec.exact:
                subtree_ids.update((id(node), targets[node]) for node in subtrees(result) if node in targets)
            return result

        def counting(e, *args):
            label = subtree_ids.get(id(e))
            if label is not None:
                counts[label] = counts.get(label, 0) + 1
            return eval_original(e, *args)

        monkeypatch.setattr(rdtm.expr, "simplify", capturing)
        monkeypatch.setattr(rdtm.precision, "_eval", counting)
        tenths = [F(i, 10) for i in range(1, 11)]
        grid = Grid2D(GridAxis("t", tenths), GridAxis("x", tenths), ("x", "y"))
        sweeps = [("x", F(1, 10), 1, F(1, 10)), ("t", F(1, 10), 1, F(1, 10))]
        for run in (
            lambda: absolute_error_grid(sol, spec.exact, grid, CTX),
            lambda: export_figure_data(sol, spec.exact, {"y": F(1, 2)}, sweeps, CTX),
        ):
            subtree_ids.clear()
            counts.clear()
            run()
            assert set(subtree_ids.values()) == {"space", "time"}
            assert not {id(node) for v in sol.spectra for node in subtrees(v)} & set(subtree_ids)
            assert counts == {"space": 10, "time": 10}

    def test_values_are_kept_only_where_they_recur(self, monkeypatch, solved):
        """With t fixed no spatial point comes back, and with only t swept no
        t comes back, so those values are not kept: such a memo would grow
        with the sweep and serve nothing."""
        spec, sol = solved(ModelId.EX1, 8)
        evaluators = []
        original = rdtm.separable.SeriesEvaluator

        def recording(*args):
            evaluators.append(original(*args))
            return evaluators[-1]

        monkeypatch.setattr(rdtm.separable, "SeriesEvaluator", recording)
        tenths = (F(1, 10), 1, F(1, 10))
        cases = [
            ({"t": F(1, 2)}, [("x", *tenths), ("y", *tenths)], (0, 1)),
            ({"x": F(1, 2), "y": F(1, 3)}, [("t", *tenths)], (1, 0)),
            ({"y": F(1, 2)}, [("x", *tenths), ("t", *tenths)], (10, 10)),
        ]
        for fixed, sweeps, kept in cases:
            export_figure_data(sol, spec.exact, fixed, sweeps, CTX)
            assert (len(evaluators[-1]._terms), len(evaluators[-1]._powers)) == kept, sweeps
        tenths = rational_range(*tenths)
        absolute_error_grid(sol, spec.exact, Grid2D(GridAxis("t", tenths), GridAxis("x", tenths), ("x", "y")), CTX)
        assert (len(evaluators[-1]._terms), len(evaluators[-1]._powers)) == (10, 10)

    def test_floor_error_names_the_same_cell_on_a_dense_grid(self, solved):
        """ex3 at order 20 on a dense 40x40 grid at 50 digits: the first cell,
        scanning rows in order, whose error is below the floor is named."""
        spec, sol = solved(ModelId.EX3, 20)
        grid = Grid2D(
            GridAxis("t", rational_range(F(9, 470), F(399, 470), F(1, 47))),
            GridAxis("x", rational_range(F(4, 235), F(199, 235), F(1, 47))),
        )
        with pytest.raises(PrecisionInsufficientError) as err:
            absolute_error_grid(sol, spec.exact, grid, CTX)
        assert str(err.value) == (
            "cell (9/470, 4/235): error is below the certifiable floor 1e-46; "
            "raise the working precision"
        )

    def test_floor_error_is_raised_in_row_major_order(self, solved):
        """Rows t = 1/20, 1/2 and columns x = 0, 1/1000: the error is zero at
        x = 0 and below the floor at (1/20, 1/1000), which row-major order
        reaches before (1/2, 0); every cell of the first row is checked
        before any of the second."""
        spec, sol = solved(ModelId.EX3, 20)
        grid = Grid2D(GridAxis("t", (F(1, 20), F(1, 2))), GridAxis("x", (F(0), F(1, 1000))))
        with pytest.raises(PrecisionInsufficientError) as err:
            absolute_error_grid(sol, spec.exact, grid, CTX)
        assert str(err.value).startswith("cell (0.05, 0.001):")

    def test_grid_must_increase(self):
        with pytest.raises(GridError):
            GridAxis("t", (F(1), F(1)))
        with pytest.raises(GridError):
            GridAxis("t", ())

    def test_float_grid_rejected(self):
        with pytest.raises(GridError):
            GridAxis("t", (0.1, 0.2))

    @pytest.mark.parametrize("col, tie, message", [
        # the tied column would override the row's t in every cell
        ("t", ("t", "x"), "duplicate sweep variable"),
        ("z", (), r"unknown variables \['z'\]"),
        ("x", ("x", "x"), "duplicate sweep variable"),
    ])
    def test_grid_bindings_are_checked_as_figure_sweeps_are(self, monkeypatch, solved, col, tie, message):
        spec, sol = solved(ModelId.EX3, 6)
        monkeypatch.setattr(rdtm.precision, "eval_number", None)  # no cell is evaluated
        grid = Grid2D(GridAxis("t", (F(1, 5),)), GridAxis(col, (F(1, 5), F(2, 5))), tie)
        with pytest.raises(GridError, match=message):
            absolute_error_grid(sol, spec.exact, grid, CTX)

    def test_precision_floor_raises(self, solved):
        spec, sol = solved(ModelId.EX3, 20)
        with pytest.raises(PrecisionInsufficientError) as err:
            absolute_error_grid(sol, spec.exact, default_grid(ModelId.EX3), PrecisionContext(30))
        assert "cell" in str(err.value)

    def test_minimum_precision_enforced(self, solved):
        spec, sol = solved(ModelId.EX3, 10)
        with pytest.raises(PrecisionInsufficientError):
            absolute_error_grid(sol, spec.exact, default_grid(ModelId.EX3), PrecisionContext(20))

    def test_monotone_truncation_improvement(self, solved):
        spec, sol10 = solved(ModelId.EX3, 10)
        _, sol12 = solved(ModelId.EX3, 12)
        grid = default_grid(ModelId.EX3)
        t10 = absolute_error_grid(sol10, spec.exact, grid, CTX)
        t12 = absolute_error_grid(sol12, spec.exact, grid, CTX)
        for row10, row12 in zip(t10.values, t12.values):
            for a, b in zip(row10, row12):
                assert b < a

    def test_remainder_oracle_agreement(self, solved):
        # errors equal x^2 * |sin t - ten-term partial sum| to 6 significant digits
        spec, sol = solved(ModelId.EX3, 20)
        grid = default_grid(ModelId.EX3)
        table = absolute_error_grid(sol, spec.exact, grid, CTX)
        with mpmath.workdps(70):
            for tv, row in zip(grid.row.values, table.values):
                remainder = abs(sin_oracle(tv, 70) - sin_partial_sum(tv, 10))
                for xv, got in zip(grid.col.values, row):
                    want = fraction_to_mpf(xv * xv * F(remainder))
                    assert abs(got - want) <= want * mpmath.mpf("1e-6")

    def test_precision_stability(self, solved):
        # ten more digits change no reported significant digit
        spec, sol = solved(ModelId.EX3, 20)
        grid = default_grid(ModelId.EX3)
        a = absolute_error_grid(sol, spec.exact, grid, PrecisionContext(50))
        b = absolute_error_grid(sol, spec.exact, grid, PrecisionContext(60))
        for row_a, row_b in zip(a.values, b.values):
            for va, vb in zip(row_a, row_b):
                assert format_scientific(va, 6) == format_scientific(vb, 6)


MIXED_PDE = """
pde "mixed" {
  vars: x;
  equation: D(u,t,2) = -u;
  init: x^2;  init_t: exp(x);  exact: x^2*cos(t) + exp(x)*sin(t);
}
"""


def lone_cell(sol, exact, point, ctx):
    """(series, exact, |series - exact|) at one point evaluated alone: the
    public per-point entry points, with the series also checked against the
    oracle that reuses nothing."""
    series = evaluate_series(sol, point, ctx)
    assert series == lone_series_value(sol, point, ctx)
    value = eval_precise(exact, point, ctx)
    return series, value, abs(series - value)


def assert_table_is_bit_identical(sol, exact, grid, ctx):
    table = absolute_error_grid(sol, exact, grid, ctx)
    exact = simplify(exact)
    for rv, row in zip(grid.row.values, table.values):
        for cv, got in zip(grid.col.values, row):
            assert got == lone_cell(sol, exact, grid.point(rv, cv), ctx)[2], (rv, cv)
    return table


def assert_figure_is_bit_identical(sol, exact, slice_bindings, sweeps, ctx):
    data = export_figure_data(sol, exact, slice_bindings, sweeps, ctx)
    exact = simplify(exact)
    names = data.columns[:-3]
    assert data.rows
    for row in data.rows:
        point = dict(slice_bindings)
        point.update(zip(names, row[:-3]))
        assert row[-3:] == lone_cell(sol, exact, point, ctx), point
    return data


class TestSeparableEvaluation:
    """Grids and figures reuse spectrum, t-power and atom values across
    cells; every cell must still equal (mpf ==) the value of its point
    evaluated alone."""

    @pytest.mark.parametrize("model", list(ModelId))
    def test_reference_grids(self, model, solved):
        spec, sol = solved(model, {ModelId.EX1: 8, ModelId.EX2: 16, ModelId.EX3: 20}[model])
        assert_table_is_bit_identical(sol, spec.exact, default_grid(model), CTX)

    def test_seeded_grid(self, solved):
        rng = random.Random(12)
        spec, sol = solved(ModelId.EX1, 8)
        rows, cols = (tuple(F(i, 200) for i in sorted(rng.sample(range(10, 201), 12))) for _ in range(2))
        grid = Grid2D(GridAxis("t", rows), GridAxis("x", cols), ("x", "y"))
        assert_table_is_bit_identical(sol, spec.exact, grid, CTX)

    def test_transposed_grid(self, solved):
        spec, sol = solved(ModelId.EX3, 10)
        grid = Grid2D(GridAxis("x", rational_range(F(1, 4), 2, F(1, 4))), GridAxis("t", rational_range(F(1, 5), 1, F(1, 5))))
        assert_table_is_bit_identical(sol, spec.exact, grid, CTX)

    def test_two_variable_sweep(self, solved):
        spec, sol = solved(ModelId.EX1, 6)
        sweeps = [("x", 0, 1, F(1, 10)), ("t", 0, 1, F(1, 10))]
        assert_figure_is_bit_identical(sol, spec.exact, {"y": F(1, 2)}, sweeps, CTX)

    def test_spectra_mixing_exact_and_rounded_values(self):
        spec = parse_spec_file(MIXED_PDE)
        sol = solve_series(spec, 8)
        kinds = {type(eval_number(v, {"x": F(1, 3)}, CTX.prec)) for v in sol.spectra}
        assert kinds == {F, tuple}  # exact Fractions and raw mpf values
        grid = Grid2D(GridAxis("t", rational_range(F(1, 10), 1, F(1, 10))), GridAxis("x", rational_range(-1, 1, F(1, 4))))
        assert_table_is_bit_identical(sol, spec.exact, grid, CTX)
        sweeps = [("t", 0, 1, F(1, 5)), ("x", -1, 1, F(1, 3))]
        assert_figure_is_bit_identical(sol, spec.exact, {}, sweeps, CTX)

    def test_cell_path_reads_no_ambient_state(self, monkeypatch, solved):
        """The precision is an argument of every evaluation: with mpmath's
        global context at 2 digits and ``workdps`` unusable, tables,
        figures, series values and exact values are unchanged."""
        spec, sol = solved(ModelId.EX1, 8)
        exact = simplify(spec.exact)
        point = {"t": F(7, 10), "x": F(1, 3), "y": F(1, 2)}
        sweeps = [("x", F(1, 10), 1, F(1, 10)), ("t", F(1, 10), 1, F(1, 5))]

        def run():
            return (
                absolute_error_grid(sol, spec.exact, default_grid(ModelId.EX1), CTX),
                export_figure_data(sol, spec.exact, {"y": F(1, 2)}, sweeps, CTX),
                evaluate_series(sol, point, CTX),
                eval_precise(exact, point, CTX),
            )

        want = run()

        def refuse(*args, **kwargs):
            raise AssertionError("the evaluation entered mpmath.workdps")

        monkeypatch.setattr(mpmath, "workdps", refuse)
        monkeypatch.setattr(mpmath.mp, "dps", 2)
        assert run() == want

    def test_same_grid_at_two_precisions(self, solved):
        """Atom values at one precision must not serve another: run at 50
        digits, then at 80, and compare each with its own lone cells."""
        spec, sol = solved(ModelId.EX3, 20)
        sweeps = [("t", 0, 1, F(1, 10))]
        figures = []
        for digits in (50, 80):
            ctx = PrecisionContext(digits)
            assert_table_is_bit_identical(sol, spec.exact, default_grid(ModelId.EX3), ctx)
            figures.append(assert_figure_is_bit_identical(sol, spec.exact, {"x": F(1, 2)}, sweeps, ctx))
        assert any(a[2] != b[2] for a, b in zip(*(f.rows for f in figures)))


    @pytest.mark.parametrize("exact", [
        "exp(t + x)",  # ex2's closed form: an atom that reads both axes
        "exp(x*t)",
        "(x + t)^2",
        "x^2*t^3*sin(t)",  # exact factors from both axes beside a rounded one
        "x^2 + sin(t) + x*t + t*exp(x)*cos(t)",
        "exp(x)*sin(t)*cos(x)*cos(t) + sin(x) + cos(x)*t + exp(t)",  # rounded parts folded in order
        "3/7",
    ])
    def test_exact_solutions_that_read_both_axes(self, exact):
        """Subtrees that read one axis are evaluated once per axis value,
        and the others in every cell; either way every cell equals its
        point evaluated alone, in tables, transposed tables and figures."""
        spec = parse_spec_file(MIXED_PDE.replace("x^2*cos(t) + exp(x)*sin(t)", exact))
        assert spec.exact == parse_expr(exact, ("x",))
        sol = solve_series(spec, 8)
        ts, xs = rational_range(F(1, 10), 1, F(1, 5)), rational_range(-1, 1, F(1, 4))
        assert_table_is_bit_identical(sol, spec.exact, Grid2D(GridAxis("t", ts), GridAxis("x", xs)), CTX)
        assert_table_is_bit_identical(sol, spec.exact, Grid2D(GridAxis("x", xs), GridAxis("t", ts)), CTX)
        assert_figure_is_bit_identical(sol, spec.exact, {}, [("x", -1, 1, F(1, 3)), ("t", 0, 1, F(1, 4))], CTX)

    def test_exact_part_with_wide_numerators(self, solved):
        """ex3 at order 20 and 50 digits, with t = p/470: the series' exact
        part has numerators and denominators wider than the working
        precision, so it must be normalized before it is converted."""
        spec, sol = solved(ModelId.EX3, 20)
        sweeps = [("t", F(9, 470), 1, F(37, 470)), ("x", F(4, 235), 1, F(43, 235))]
        assert_figure_is_bit_identical(sol, spec.exact, {}, sweeps, CTX)

    def test_ex2_closed_form(self, solved):
        spec, sol = solved(ModelId.EX2, 12)
        assert to_text(spec.exact) == "exp(t + x)"
        sweeps = [("t", -1, 1, F(1, 4)), ("x", -1, 1, F(1, 3))]
        assert_figure_is_bit_identical(sol, spec.exact, {}, sweeps, CTX)

    def test_figure_with_t_fixed(self, solved):
        spec, sol = solved(ModelId.EX1, 8)
        sweeps = [("x", 0, 1, F(1, 5)), ("y", 0, 1, F(1, 4))]
        assert_figure_is_bit_identical(sol, spec.exact, {"t": F(1, 2)}, sweeps, CTX)

    @pytest.mark.parametrize("model", list(ModelId))
    def test_one_column_grid(self, model, solved):
        spec, sol = solved(model, 8)
        tie = ("x", "y") if model is ModelId.EX1 else ()
        grid = Grid2D(GridAxis("t", rational_range(F(1, 10), 1, F(1, 10))), GridAxis("x", (F(1, 2),)), tie)
        assert_table_is_bit_identical(sol, spec.exact, grid, CTX)


class TestGridSize:
    def test_range_length_matches_enumeration(self):
        rng = random.Random(3)
        for _ in range(200):
            start, stop = (F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2))
            step = F(rng.randint(1, 9), rng.randint(1, 9))
            assert range_length(start, stop, step) == len(rational_range(start, stop, step))

    @pytest.mark.parametrize("function", [rational_range, range_length])
    @pytest.mark.parametrize("start, stop, step", [(0, 1, 0), (0, 1, F(-1, 2)), (1, 0, 0), (1, 0, -1)])
    def test_a_non_positive_step_is_refused(self, function, start, stop, step):
        """Whatever the bounds; unchecked, rational_range(0, 1, 0) would
        never end and range_length(0, 1, 0) would divide by zero."""
        with pytest.raises(GridError, match="range step must be positive"):
            function(start, stop, step)

    def test_limit(self):
        check_grid_size([MAX_GRID_POINTS])
        check_grid_size([100, MAX_GRID_POINTS // 100])
        for lengths in (
            [MAX_GRID_POINTS + 1],
            [11, (MAX_GRID_POINTS + 1) // 11],
            [10**9, 10**9],
            [0, MAX_GRID_POINTS + 1],
            [MAX_GRID_POINTS + 1, 0],
        ):
            with pytest.raises(GridError, match="more than the limit"):
                check_grid_size(lengths)

    def test_oversized_sweep_is_refused_before_enumeration(self, monkeypatch, solved):
        spec, sol = solved(ModelId.EX3, 10)

        def refuse(*args):
            raise AssertionError("a range of the rejected size was enumerated")

        monkeypatch.setattr(rdtm.analysis, "rational_range", refuse)
        with pytest.raises(GridError, match="10000001 points"):
            export_figure_data(sol, spec.exact, {"x": F(1, 2)}, [("t", 0, 1, F(1, 10**7))], CTX)

    def test_empty_sweep_does_not_admit_an_oversized_one(self, monkeypatch, solved):
        spec, sol = solved(ModelId.EX3, 10)

        def refuse(*args):
            raise AssertionError("a range of the rejected size was enumerated")

        monkeypatch.setattr(rdtm.analysis, "rational_range", refuse)
        sweeps = [("t", 1, 0, 1), ("x", 0, 1, F(1, 10**10))]
        with pytest.raises(GridError, match="an axis has 10000000001 points"):
            export_figure_data(sol, spec.exact, {}, sweeps, CTX)

    def test_oversized_table_is_refused_before_evaluation(self, monkeypatch, solved):
        spec, sol = solved(ModelId.EX3, 10)

        def refuse(*args):
            raise AssertionError("a cell of the rejected grid was evaluated")

        monkeypatch.setattr(rdtm.precision, "eval_number", refuse)
        rows = rational_range(1, 11, 1)
        cols = rational_range(1, (MAX_GRID_POINTS + 1) // 11, 1)
        with pytest.raises(GridError, match=f"{MAX_GRID_POINTS + 1} points"):
            absolute_error_grid(sol, spec.exact, Grid2D(GridAxis("t", rows), GridAxis("x", cols)), CTX)


class TestResidualOrder:
    def test_contract_instances(self, solved):
        spec3, sol3 = solved(ModelId.EX3, 10)
        assert residual_order_check(spec3, sol3) >= 7
        spec2, sol2 = solved(ModelId.EX2, 6)
        assert residual_order_check(spec2, sol2) >= 3

    def test_corrupted_spectrum_detected_at_order_zero(self, solved):
        # adding d to V_2 makes the residual's t^0 coefficient 2*d
        spec, sol = solved(ModelId.EX3, 10)
        spectra = list(sol.spectra)
        spectra[2] = simplify(spectra[2] + 1)
        corrupted = SeriesSolution(spec, tuple(spectra), 10)
        assert residual_order_check(spec, corrupted) == 0


GROWING_PDE = Path(__file__).resolve().parent.parent / "perfbench" / "problems" / "growing.pde"
# The series is zero until order 8 reaches the source's t^7 spectrum, so below
# order 8 the residual's first nonzero coefficient (t^5) can lie at or above
# the truncation order.
PAST_ORDER_PDE = 'pde "past" { vars: x; equation: D(u,t,2) = x*t^5; init: 0; init_t: 0; }'
# From order 3 on the series -t^2/2 is exact and the residual is zero.
CONSTANT_PDE = 'pde "constant" { vars: x; equation: D(u,t,2) = -1; init: 0; init_t: 0; }'
# The right-hand side keeps (t + t^2)^3 a power of a sum through compilation,
# and below order 7 the series is 0, so the residual check falls back to the
# residual's t-degree, which it reads through that power.
POWER_OF_SUM_PDE = 'pde "power" { vars: x; equation: D(u,t,2) = x*(t + t^2)^3; init: 0; init_t: 0; }'
# The residual's first nonzero coefficient is at t^20000.
HIGH_POWER_PDE = 'pde "tp" { vars: x; equation: D(u,t,2) = t^20000*u + x; init: x; init_t: 0; }'
# exp(x) is an atom factor of the compiled term's spatial coefficient.
ATOM_COEFFICIENT_PDE = 'pde "atom" { vars: x; equation: D(u,t,2) = exp(x)*u; init: 1; init_t: 0; }'


def assert_matches_full_expansion(spec, sol):
    want = first_nonvanishing_degree(full_expansion_residual(spec, sol), sol.order)
    assert residual_order_check(spec, sol) == want, (spec.name, sol.order)


def _random_spec(rng, name):
    """u_tt = sum of c * x^a * t^n * (product of 0-3 factors among u, u_x,
    u_xx), with initial data drawn from polynomials and atoms in x."""
    x, t = Var("x"), Var("t")
    factors = [deriv_sym({}), deriv_sym({"x": 1}), deriv_sym({"x": 2})]
    terms = []
    for _ in range(rng.randint(1, 3)):
        coefficient = rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        chosen = [rng.choice(factors) for _ in range(rng.randint(0, 3))]
        terms.append(Product((coefficient, x ** rng.randint(0, 2), t ** rng.randint(0, 2), *chosen)))
    data = ["0", "1", "1 + x", "x^2 - 2*x", "exp(x)", "sin(x)", "1/2*x*exp(x)"]
    init_u, init_ut = (parse_expr(rng.choice(data), ("x",)) for _ in range(2))
    return PdeSpec(name, ("x",), Sum(tuple(terms)), init_u, init_ut)


class TestTruncatedResidual:
    """residual_order_check forms coefficients only below the truncation
    order; it must return what the full expansion returns."""

    @pytest.mark.parametrize("model", list(ModelId))
    def test_builtin_models_match_full_expansion(self, model, solved):
        for order in range(2, 11):
            assert_matches_full_expansion(*solved(model, order))

    def test_growing_problem_matches_full_expansion(self):
        spec = parse_spec_file(GROWING_PDE.read_text())
        for order in range(4, 9):
            assert_matches_full_expansion(spec, solve_series(spec, order))

    def test_mutated_spectra_match_full_expansion(self, solved):
        problems = [solved(model, 6) for model in ModelId]
        growing = parse_spec_file(GROWING_PDE.read_text())
        problems.append((growing, solve_series(growing, 6)))
        for spec, sol in problems:
            for k in range(6):
                spectra = list(sol.spectra)
                spectra[k] = simplify(spectra[k] + 1)
                assert_matches_full_expansion(spec, SeriesSolution(spec, tuple(spectra), 6))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_problems_match_full_expansion(self, seed):
        rng = random.Random(seed)
        spec = _random_spec(rng, f"random{seed}")
        assert_matches_full_expansion(spec, solve_series(spec, rng.randint(3, 7)))

    def test_the_residual_of_another_equation_matches_full_expansion(self, solved):
        """The check walks the equation of the spec it is given, whose
        variables and atoms the solution's own Packing may not have."""
        _, sol = solved(ModelId.EX3, 6)
        other = parse_spec_file('pde "other" { vars: x, y; equation: D(u,t,2) = y*sin(y)*u - x^2*u; '
                                'init: 0; init_t: x^2; }')
        assert_matches_full_expansion(other, sol)

    @pytest.mark.parametrize("order, vanish", [(3, 5), (4, 5), (6, 5), (8, 8)])
    def test_residual_vanishing_past_the_order_is_found(self, order, vanish):
        """Every coefficient below the truncation order vanishes here, so the
        check must look past it; a truncate-only check would return the order."""
        spec = parse_spec_file(PAST_ORDER_PDE)
        sol = solve_series(spec, order)
        assert residual_order_check(spec, sol) == vanish
        assert first_nonvanishing_degree(full_expansion_residual(spec, sol), order) == vanish

    @pytest.mark.parametrize("order", range(2, 7))
    def test_power_of_a_sum_matches_full_expansion(self, order):
        spec = parse_spec_file(POWER_OF_SUM_PDE)
        assert_matches_full_expansion(spec, solve_series(spec, order))

    def test_atom_coefficient_matches_full_expansion(self):
        spec = parse_spec_file(ATOM_COEFFICIENT_PDE)
        sol = solve_series(spec, 6)
        assert to_text(sol.spectra[2]) == "1/2*exp(x)"
        assert_matches_full_expansion(spec, sol)

    @pytest.mark.parametrize("order", [2, 3, 4, 8])
    def test_exact_series_matches_full_expansion(self, order):
        spec = parse_spec_file(CONSTANT_PDE)
        assert_matches_full_expansion(spec, solve_series(spec, order))

    @pytest.mark.parametrize("problem, order, vanish, bounds", [
        (CONSTANT_PDE, 5, 5, {5}),
        # the series is 0 and the residual -x*t^5, of t-degree 5, so the one
        # more walk has the bound 6 whatever the order
        (PAST_ORDER_PDE, 3, 5, {3, 6}),
        (PAST_ORDER_PDE, 2, 5, {2, 6}),
    ], ids=["constant", "past-order3", "past-order2"])
    def test_fallback_walks_once_to_the_t_degree(self, monkeypatch, problem, order, vanish, bounds):
        """When every coefficient below the order vanishes, the residual is
        walked once more, with the bound its t-degree + 1, and only if that
        degree reaches the order; no walk is unbounded."""
        spec = parse_spec_file(problem)
        sol = solve_series(spec, order)
        assert first_nonvanishing_degree(full_expansion_residual(spec, sol), order) == vanish
        seen = []
        original = rdtm.analysis._t_graded

        def recording(packing, e, bound, *args):
            seen.append(bound)
            return original(packing, e, bound, *args)

        monkeypatch.setattr(rdtm.analysis, "_t_graded", recording)
        assert residual_order_check(spec, sol) == vanish
        assert seen and set(seen) == bounds

    def test_products_stop_at_the_truncation_order(self, monkeypatch):
        """Monomial pairs multiplied during the check of growing.pde at order
        8: 2658 with truncation (the d/dt scalings of u_tt included), 25008
        when the residual is expanded to its whole t-degree."""
        spec = parse_spec_file(GROWING_PDE.read_text())
        sol = solve_series(spec, 8)
        pairs = [0]
        original = Packing.mul_into

        def counting(self, out, a, b):
            pairs[0] += sum(len(ga) * len(gb) for ga in a.groups.values() for gb in b.groups.values())
            return original(self, out, a, b)

        monkeypatch.setattr(Packing, "mul_into", counting)
        assert residual_order_check(spec, sol) == 6
        assert 0 < pairs[0] < 10000, pairs[0]

    @pytest.mark.parametrize("order, vanish", [(14, 12), (18, 16)])
    def test_growing_problem_at_scale(self, order, vanish):
        spec = parse_spec_file(GROWING_PDE.read_text())
        assert residual_order_check(spec, solve_series(spec, order)) == vanish

    def test_spectrum_that_contains_t_is_walked_by_degree(self, solved):
        """Moving V_3 t^3 into V_2 as -1/6*x^2*t would leave the series as
        it was, but a spectrum is t-free: the solution is refused before any
        check can walk it."""
        spec, sol = solved(ModelId.EX3, 6)
        assert residual_order_check(spec, sol) == 5
        spectra = list(sol.spectra)
        assert (to_text(spectra[2]), to_text(spectra[3])) == ("0", "-1/6*x^2")
        spectra[2], spectra[3] = parse_expr("-1/6*x^2*t", ("x",)), ZERO
        with pytest.raises(UnsupportedStructureError, match="V_2 contains t"):
            SeriesSolution(spec, tuple(spectra), 6)

    def test_a_power_of_t_is_one_degree(self, monkeypatch):
        """t^20000 is one degree of the graded residual, so the check that
        finds the residual's first nonzero coefficient at t^20000 makes 9
        polynomial products; one entry per degree would make tens of
        thousands."""
        spec = parse_spec_file(HIGH_POWER_PDE)
        sol = solve_series(spec, 10)
        calls = [0]
        original = Packing.mul_into

        def counting(self, *args):
            calls[0] += 1
            return original(self, *args)

        monkeypatch.setattr(Packing, "mul_into", counting)
        assert residual_order_check(spec, sol) == 20000
        assert 0 < calls[0] < 20, calls[0]

    @pytest.mark.parametrize("text", ["x^2*sin(t)", "exp(x*t)"])
    def test_an_atom_of_t_is_refused(self, solved, text):
        spec, sol = solved(ModelId.EX3, 6)
        spectra = list(sol.spectra)
        spectra[1] = parse_expr(text, ("x",))
        with pytest.raises(UnsupportedStructureError, match="V_1 contains t"):
            SeriesSolution(spec, tuple(spectra), 6)

    def test_an_unexpanded_spectrum_is_refused(self, solved):
        """Spectra are packed term by term when the solution is made, so a
        factor that is a sum is an error there, never a KeyError."""
        spec, sol = solved(ModelId.EX3, 6)
        spectra = (parse_expr("x*(1 + x)", ("x",)), *sol.spectra[1:])
        with pytest.raises(UnsupportedExpressionError, match=r"cannot pack 1 \+ x"):
            SeriesSolution(spec, spectra, 6)
        with pytest.raises(UnsupportedExpressionError, match=r"cannot pack 1 \+ x"):
            residual_order_check(spec, SeriesSolution(spec, spectra, 6))

    def test_leaves_are_split_without_re_expansion(self, monkeypatch, solved):
        """The residual is packed from its canonical leaves as they stand, so
        the check of ex1 at order 6 calls simplify not at all; walking the
        residual tree made 356 calls, and 1373 when every leaf went through
        collect_powers."""
        spec, sol = solved(ModelId.EX1, 6)
        calls = [0]
        original = rdtm.expr.simplify

        def counting(e):
            calls[0] += 1
            return original(e)

        monkeypatch.setattr(rdtm.expr, "simplify", counting)
        assert residual_order_check(spec, sol) == 4
        assert calls[0] == 0, calls[0]


class TestTaylorCoefficient:
    def test_sine_coefficients(self, solved):
        spec, _ = solved(ModelId.EX3, 2)
        assert taylor_coefficient(spec.exact, 0) == ZERO
        assert to_text(taylor_coefficient(spec.exact, 3)) == "-1/6*x^2"

    @pytest.mark.parametrize("model", list(ModelId))
    def test_one_derivative_per_order_gives_the_same_trees(self, solved, model):
        spec, _ = solved(model, 2)
        got = list(itertools.islice(taylor_coefficients(spec.exact), 40))
        assert got == [taylor_coefficient(spec.exact, k) for k in range(40)]


class TestRendering:
    def test_single_zero_cell(self, solved):
        spec, sol = solved(ModelId.EX3, 10)
        grid = Grid2D(GridAxis("t", (F(0),)), GridAxis("x", (F(1),)))
        table = absolute_error_grid(sol, spec.exact, grid, CTX)
        rendered = render_table(table, "plain")
        assert rendered.splitlines()[1].split() == ["0", "0"]

    def test_format_scientific(self):
        assert format_scientific(mpmath.mpf("1.95343e-20"), 6) == "1.95343E-20"
        assert format_scientific(mpmath.mpf("1.95343e-20"), 3) == "1.95E-20"
        assert format_scientific(0, 5) == "0"
        assert format_scientific(mpmath.mpf("9.99999e-5"), 3) == "1.00E-4"
        assert format_scientific(mpmath.mpf("737.4"), 2) == "7.4E+2"
        with pytest.raises(ValueError):
            format_scientific(mpmath.mpf(1), 7)

    def test_results_do_not_depend_on_the_ambient_precision(self, solved):
        """Errors are formed and values rounded for printing at 53 bits,
        whatever mpmath.mp is set to; at 2 digits the table cell printed
        3.21965E-13 and the figure's series value 1.09570E+0."""
        spec, sol = solved(ModelId.EX1, 8)
        grid = Grid2D(GridAxis("t", (F(1, 10), F(1, 2))), GridAxis("x", (F(1, 2), F(1))), ("x", "y"))
        sweeps = [("x", 0, 1, F(1, 2)), ("t", F(1, 10), F(1, 10), 1)]
        results = []
        for dps in (2, 15, 100):
            with mpmath.workdps(dps):
                table = absolute_error_grid(sol, spec.exact, grid, CTX)
                figure = export_figure_data(sol, spec.exact, {"y": F(1, 2)}, sweeps, CTX)
                results.append((table.values, render_table(table, "csv", 6), figure.to_csv()))
        assert results[0] == results[1] == results[2]
        _, rendered, csv = results[0]
        assert rendered.splitlines()[1].startswith("0.1,3.21961E-13,")
        assert csv.splitlines()[1].startswith("0,0.1,1.09484E+0,")

    def test_fraction_str(self):
        assert fraction_str(F(3, 10)) == "0.3"
        assert fraction_str(F(1)) == "1"
        assert fraction_str(F(-1, 8)) == "-0.125"
        assert fraction_str(F(1, 3)) == "1/3"

    @pytest.mark.parametrize("value", ["0.3", 0.3])
    def test_fraction_str_takes_only_exact_rationals(self, value):
        with pytest.raises(TypeError, match=f"is a {type(value).__name__}, not an exact rational"):
            fraction_str(value)

    def test_csv_layout_and_quoting(self, solved):
        spec, sol = solved(ModelId.EX1, 8)
        grid = Grid2D(GridAxis("t", (F(1, 2),)), GridAxis("x", (F(1, 2),)), ("x", "y"))
        table = absolute_error_grid(sol, spec.exact, grid, CTX)
        out = render_table(table, "csv")
        lines = out.splitlines()
        assert lines[0] == '"t/x,y",0.5'
        assert lines[1] == "0.5,1.3095E-7"

    def test_latex_smoke(self, solved):
        spec, sol = solved(ModelId.EX3, 10)
        table = absolute_error_grid(sol, spec.exact, default_grid(ModelId.EX3), CTX)
        out = render_table(table, "latex")
        assert out.startswith(r"\begin{tabular}") and out.rstrip().endswith(r"\end{tabular}")

    def test_deterministic_bytes(self, solved):
        spec, sol = solved(ModelId.EX3, 10)
        grid = default_grid(ModelId.EX3)
        a = render_table(absolute_error_grid(sol, spec.exact, grid, CTX), "csv")
        b = render_table(absolute_error_grid(sol, spec.exact, grid, CTX), "csv")
        assert a == b

    def test_unknown_style(self, solved):
        spec, sol = solved(ModelId.EX3, 10)
        grid = Grid2D(GridAxis("t", (F(1),)), GridAxis("x", (F(1),)))
        table = absolute_error_grid(sol, spec.exact, grid, CTX)
        with pytest.raises(ValueError):
            render_table(table, "markdown")

    @pytest.mark.parametrize("value, name", [(mpmath.inf, "+inf"), (-mpmath.inf, "-inf"), (mpmath.nan, "nan")])
    def test_infinities_and_nan_are_refused(self, value, name):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} has no scientific notation"):
            format_scientific(value, 3)
        with pytest.raises(ValueError, match=f"^{re.escape(name)} has no scientific notation"):
            format_scientific(value._mpf_, 3)


def random_render_values(rng, count):
    """Values for ``format_scientific``, as mpf: 53-bit values with binary
    exponents inside +-300 and beyond +-3500 (``to_digits_exp`` scales
    those by a power of ten first), exact decimal ties at one to six
    digits, decimal strings with runs of 9s or digits near a tie of the
    second rounding, and values of 100 to 400 bits that are rounded to 53
    first.  Exponents stay within the range of ``decimal``'s default
    context, which the oracle uses."""
    libmp = rdtm.precision.load_libmp()
    make = mpmath.mp.make_mpf
    values = []
    for _ in range(count):
        kind = rng.randrange(6)
        if kind in (0, 1, 5):
            bits = 53 if kind < 5 else rng.randint(100, 400)
            man = rng.getrandbits(bits) | 1 << (bits - 1)
            top = rng.randint(-300, 300) if kind != 1 else rng.choice((-1, 1)) * rng.randint(3501, 100000)
            values.append(make(libmp.normalize(0, man, top - bits, bits, bits, "n")))
        elif kind == 2:
            # d.dd...5 x 10^e, an integer below 2^53: a tie at the digits before the 5
            tie = (rng.randint(1, 10 ** rng.randint(1, 6) - 1) * 10 + 5) * 10 ** rng.randint(0, 6)
            values.append(make(libmp.from_int(tie)))
        elif kind == 3:
            # odd/2^j ends in 5 at its j-th decimal place
            values.append(make(libmp.from_rational(rng.randrange(1, 10**6, 2), 2 ** rng.randint(1, 12), 53, "n")))
        else:
            head = rng.choice(["9" * rng.randint(1, 15), str(rng.randint(1, 10 ** rng.randint(1, 6)))])
            tail = rng.choice(["", "9" * rng.randint(1, 16), "4" + "9" * rng.randint(6, 12), "5", "50000000001",
                               "49999999", "9" * rng.randint(1, 8) + "5", "4" + "9" * 7 + "5", "4" + "9" * 7 + "51"])
            text = f"{head}{tail}e{rng.randint(-40, 40)}"
            values.append(make(libmp.from_str(text, 53, "n")))
    return values


@pytest.mark.parametrize("seed", range(4))
def test_format_scientific_prints_what_nstr_and_decimal_print(seed):
    """One ``to_digits_exp`` and integer rounding reproduce the rendering
    oracle byte for byte, at 1 to 6 digits and for both signs."""
    mismatches = []
    for value in random_render_values(random.Random(seed), 1500):
        for signed in (value, -value):
            for sig_digits in range(1, 7):
                want = nstr_scientific(signed, sig_digits)
                for given in (signed, signed._mpf_):
                    got = format_scientific(given, sig_digits)
                    if got != want:
                        mismatches.append((signed, sig_digits, got, want))
    assert not mismatches, mismatches[:5]


class TestFigureData:
    def test_ex1_two_variable_sweep(self, solved):
        spec, sol = solved(ModelId.EX1, 6)
        data = export_figure_data(
            sol,
            spec.exact,
            {"y": F(1, 2)},
            [("x", 0, 1, F(1, 10)), ("t", 0, 1, F(1, 10))],
            CTX,
        )
        assert data.columns == ("x", "t", "series", "exact", "abs_error")
        assert len(data.rows) == 121

    def test_ex3_errors_match_remainder_oracle(self, solved):
        spec, sol = solved(ModelId.EX3, 10)
        data = export_figure_data(sol, spec.exact, {"x": F(1, 2)}, [("t", 0, 1, F(1, 5))], CTX)
        with mpmath.workdps(70):
            for row in data.rows:
                tv = row[0]
                want = fraction_to_mpf(F(1, 4) * abs(sin_oracle(tv, 70) - sin_partial_sum(tv, 5)))
                assert abs(row[-1] - want) <= (want + mpmath.mpf("1e-40")) * mpmath.mpf("1e-6")

    def test_empty_sweep_gives_header_only(self, solved):
        spec, sol = solved(ModelId.EX3, 10)
        data = export_figure_data(sol, spec.exact, {"x": F(1, 2)}, [("t", 1, 0, F(1, 10))], CTX)
        assert data.rows == ()
        assert data.to_csv() == "t,series,exact,abs_error\n"

    def test_over_and_under_constrained(self, solved):
        spec, sol = solved(ModelId.EX3, 10)
        with pytest.raises(GridError):
            export_figure_data(sol, spec.exact, {"x": 1}, [("x", 0, 1, F(1, 2))], CTX)
        with pytest.raises(GridError):
            export_figure_data(sol, spec.exact, {}, [("t", 0, 1, F(1, 2))], CTX)
        with pytest.raises(GridError):
            export_figure_data(
                sol, spec.exact, {"x": 1, "t": 0}, [("t", 0, 1, F(1, 2))], CTX
            )

    @pytest.mark.parametrize("fixed, sweeps", [
        ({"x": 1}, [("x", 0, 1, F(1, 2))]),
        ({}, [("t", 0, 1, F(1, 2))]),
        ({"x": F(1, 2), "z": 1}, [("t", 0, 1, F(1, 2))]),
        ({"x": F(1, 2)}, [("t", 0, 1, 0)]),
        ({"x": F(1, 2)}, [("t", 0, 1, F(1, 10**7))]),
        ({"x": 0.5}, [("t", 0, 1, F(1, 2))]),
        ({}, [(("x", "t"), 0, 1, F(1, 2))]),
    ], ids=["over", "under", "unknown", "zero-step", "too-many-points", "float", "tied"])
    def test_figure_rows_checks_before_returning(self, solved, fixed, sweeps):
        """figure_rows raises the errors of export_figure_data when it is
        called, not when its first row is read."""
        spec, sol = solved(ModelId.EX3, 4)
        with pytest.raises(GridError) as from_rows:
            figure_rows(sol, spec.exact, fixed, sweeps, CTX)
        with pytest.raises(GridError) as from_data:
            export_figure_data(sol, spec.exact, fixed, sweeps, CTX)
        assert str(from_rows.value) == str(from_data.value)

    def test_figure_rows_computes_each_row_when_it_is_read(self, monkeypatch, solved):
        spec, sol = solved(ModelId.EX1, 4)
        sweeps = [("x", 0, 1, F(1, 2)), ("t", 0, 1, F(1, 3))]
        calls = []
        original = rdtm.separable.SeriesEvaluator.at

        def counting(self, index):
            calls.append(index)
            return original(self, index)

        monkeypatch.setattr(rdtm.separable.SeriesEvaluator, "at", counting)
        columns, rows = figure_rows(sol, spec.exact, {"y": F(1, 2)}, sweeps, CTX)
        assert calls == []
        first = next(rows)
        assert calls == [(0, 0)]
        data = export_figure_data(sol, spec.exact, {"y": F(1, 2)}, sweeps, CTX)
        assert (columns, (first, *rows)) == (data.columns, data.raw_rows)

    @pytest.mark.parametrize("fixed", [{"z": 1}, {}], ids=["unknown-slice", "no-slice"])
    def test_tied_sweep_names_rejected(self, solved, fixed):
        """A table column may tie variables; a figure sweep varies one."""
        spec, sol = solved(ModelId.EX1, 4)
        with pytest.raises(GridError, match=r"a figure sweep varies one variable, not \('x', 'y'\)"):
            export_figure_data(sol, spec.exact, fixed, [(("x", "y"), 0, 1, F(1, 2))], CTX)

    @pytest.mark.parametrize("fixed, sweep", [
        # read as binary fractions, this sweep stops short of 3/10: 3 rows, not 4
        ({"x": 0.5}, ("t", 0, 0.3, 0.1)),
        ({"x": 0.5}, ("t", 0, F(3, 10), F(1, 10))),
        ({"x": F(1, 2)}, ("t", 0.0, F(3, 10), F(1, 10))),
        ({"x": F(1, 2)}, ("t", 0, 0.3, F(1, 10))),
        ({"x": F(1, 2)}, ("t", 0, F(3, 10), 0.1)),
    ])
    def test_floats_rejected(self, solved, fixed, sweep):
        spec, sol = solved(ModelId.EX3, 10)
        with pytest.raises(GridError, match="is a float"):
            export_figure_data(sol, spec.exact, fixed, [sweep], CTX)

    def test_csv_round_trip_shape(self, solved):
        spec, sol = solved(ModelId.EX3, 10)
        data = export_figure_data(sol, spec.exact, {"x": F(1, 2)}, [("t", 0, 1, F(1, 2))], CTX)
        lines = data.to_csv().splitlines()
        assert lines[0] == "t,series,exact,abs_error"
        assert len(lines) == 1 + 3


class TestExactInput:
    """Library entry points take an int or a Fraction; a numeral string is
    refused like a float, so the DSL's lexicon is the only number syntax."""

    @pytest.mark.parametrize("call", [
        lambda: rational_range("٠", "1e0", "1_0e-1"),
        lambda: rational_range(0, 1, "1/2"),
        lambda: range_length("0", 1, F(1, 2)),
        lambda: GridAxis("t", (F(1, 5), "2/5")),
        lambda: check_sweeps([("t", 0, "1", F(1, 2))]),
    ], ids=["rational_range-unicode", "rational_range", "range_length", "GridAxis", "check_sweeps"])
    def test_grid_values(self, call):
        with pytest.raises(GridError, match="is a str, not an exact rational"):
            call()

    def test_slice_values(self, solved):
        spec, sol = solved(ModelId.EX3, 6)
        with pytest.raises(GridError, match="is a str, not an exact rational"):
            export_figure_data(sol, spec.exact, {"x": "1/2"}, [("t", 0, 1, F(1, 2))], CTX)

    @pytest.mark.parametrize("point", [
        {"t": "٣/10", "x": "1_0e-1"},
        {"t": F(3, 10), "x": "1/2"},
    ], ids=["t", "x"])
    def test_evaluation_points(self, solved, point):
        _, sol = solved(ModelId.EX3, 6)
        with pytest.raises(TypeError, match="is a str, not an exact rational"):
            evaluate_series(sol, point, CTX)

    def test_a_step_of_zero_has_one_message_for_one_name_or_several(self):
        with pytest.raises(GridError, match="^sweep step for 't' must be positive$"):
            check_sweeps([("t", 0, 1, 0)])
        with pytest.raises(GridError, match="^sweep step for 'x,y' must be positive$"):
            check_sweeps([(("x", "y"), 0, 1, F(-1, 2))])

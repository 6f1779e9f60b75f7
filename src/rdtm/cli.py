"""Command-line front end.

    rdtm solve  ex3 --order 10
    rdtm table  ex1                        # reproduces the ex1 reference grid
    rdtm figure ex1 --out fig1.csv
    rdtm check  ex2 --order 8
    rdtm demo

The positional problem argument is a built-in model id (ex1, ex2, ex3) or a
path to a problem file in the DSL of rdtm.specfile.  All output is
deterministic: identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import expr as ex
from .analysis import (
    MAX_SIG_DIGITS,
    Grid2D,
    GridAxis,
    absolute_error_grid,
    check_bindings,
    check_grid_size,
    check_sweeps,
    export_figure_data,
    format_scientific,
    fraction_str,
    range_length,
    rational_range,
    render_table,
    residual_order_check,
    taylor_coefficient,
)
from .engine import SeriesSolution, solve_series
from .errors import GridError, InvalidOptionError, ParseError, RdtmError
from .models import (
    DEFAULT_FIGURE,
    DEFAULT_TABLE_GRID,
    DEFAULT_TABLE_ORDER,
    ModelId,
    builtin_model,
)
from .precision import MIN_DECIMAL_DIGITS, PrecisionContext
from .specfile import parse_spec_file

DEFAULT_SOLVE_ORDER = 10


def _load_problem(source):
    """Problem from a built-in id or a DSL file path; returns (spec, model id)."""
    try:
        model = ModelId(source.lower())
    except ValueError:
        model = None
    if model is not None:
        return builtin_model(model), model
    with open(source, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise ParseError(f"{source}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    return parse_spec_file(text), None


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise GridError(f"not an exact rational: {text!r}") from None


def _range_bounds(spec: str):
    """'start:stop:step' -> (start, stop, step) as exact rationals."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise GridError(f"expected start:stop:step, got {spec!r}")
    return tuple(_fraction(p) for p in parts)


def _parse_grid(text: str) -> list:
    """Grid syntax: 't=1/10:1:1/10;x=1/5:1:1/5' (or 'x,y=...' to tie several
    spatial variables to the column axis).  Returns [(variables, bounds)] for
    the row and the column axis, without enumerating either."""
    parts = text.split(";")
    if len(parts) != 2:
        raise GridError("grid must have a row part and a column part separated by ';'")
    axes = []
    for part in parts:
        names, eq, range_spec = part.partition("=")
        if not eq:
            raise GridError(f"expected name=start:stop:step, got {part!r}")
        bounds = _range_bounds(range_spec)
        if bounds[2] <= 0:
            raise GridError("step must be positive")
        axes.append((tuple(n.strip() for n in names.split(",")), bounds))
    check_grid_size([range_length(*bounds) for _, bounds in axes])
    if len(axes[0][0]) != 1:
        raise GridError("the row axis must be a single variable")
    return axes


def _parse_bindings(text: str) -> dict:
    out = {}
    for part in text.split(";"):
        if not part.strip():
            continue
        name, eq, value = part.partition("=")
        if not eq:
            raise GridError(f"expected name=value, got {part!r}")
        name = name.strip()
        if name in out:
            raise GridError(f"slice binds {name!r} twice")
        out[name] = _fraction(value)
    return out


def _parse_sweep(text: str):
    name, eq, range_spec = text.partition("=")
    if not eq:
        raise GridError(f"expected name=start:stop:step, got {text!r}")
    return (name.strip(), *_range_bounds(range_spec))


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args) -> int:
    spec, _ = _load_problem(args.problem)
    order = DEFAULT_SOLVE_ORDER if args.order is None else args.order
    sol = solve_series(spec, order)
    if args.format == "csv":
        lines = ["k,spectrum"]
        for k, v in enumerate(sol.spectra):
            text = ex.to_text(v)
            if "," in text:
                text = '"' + text + '"'
            lines.append(f"{k},{text}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    series = sol.to_expr()
    if args.format == "json":
        payload = {
            "name": spec.name,
            "order": sol.order,
            "spectra": [ex.to_text(v) for v in sol.spectra],
            "series": ex.to_text(series),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    render = ex.to_latex if args.format == "latex" else ex.to_text
    lines = [f"V_{k} = {render(v)}" for k, v in enumerate(sol.spectra)]
    lines.append(f"series = {render(series)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_table(args) -> int:
    spec, model = _load_problem(args.problem)
    if spec.exact is None:
        raise RdtmError("table requires an exact solution ('exact:' field)")
    order = DEFAULT_TABLE_ORDER.get(model, DEFAULT_SOLVE_ORDER) if args.order is None else args.order
    if args.grid:
        (row, row_bounds), (cols, col_bounds) = _parse_grid(args.grid)
        check_bindings(spec.spatial_vars, row + cols)
        row_values, col_values = rational_range(*row_bounds), rational_range(*col_bounds)
        grid = Grid2D(GridAxis(row[0], row_values), GridAxis(cols[0], col_values), cols)
    elif model is not None:
        t_values, col_values, tie = DEFAULT_TABLE_GRID[model]
        grid = Grid2D(GridAxis("t", t_values), GridAxis(tie[0], col_values), tie)
    else:
        raise GridError("custom problems need an explicit --grid")
    ctx = PrecisionContext(args.precision)
    sol = solve_series(spec, order)
    table = absolute_error_grid(sol, spec.exact, grid, ctx)
    if args.format == "json":
        payload = {
            "name": spec.name,
            "order": table.truncation_order,
            "precision": table.precision,
            "row_axis": {"name": grid.row.name, "values": [fraction_str(v) for v in grid.row.values]},
            "col_axis": {"name": grid.col.name, "values": [fraction_str(v) for v in grid.col.values]},
            "tie": list(grid.col_vars),
            "values": [[format_scientific(v, args.sig_digits) for v in row] for row in table.values],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    style = "plain" if args.format == "text" else args.format
    _emit(render_table(table, style, args.sig_digits), args.out)
    return 0


def _cmd_figure(args) -> int:
    spec, model = _load_problem(args.problem)
    if spec.exact is None:
        raise RdtmError("figure requires an exact solution ('exact:' field)")
    slice_bindings = {}
    sweeps = []
    order = args.order
    if model is not None and not (args.slice or args.sweep):
        slice_bindings, sweeps, default_order = DEFAULT_FIGURE[model]
        order = default_order if order is None else order
    if args.slice:
        slice_bindings = _parse_bindings(args.slice)
    if args.sweep:
        sweeps = check_sweeps([_parse_sweep(s) for s in args.sweep])
    if not sweeps:
        raise GridError("no sweep given (use --sweep var=start:stop:step)")
    check_bindings(spec.spatial_vars, [name for name, *_ in sweeps], slice_bindings)
    order = DEFAULT_SOLVE_ORDER if order is None else order
    ctx = PrecisionContext(args.precision)
    sol = solve_series(spec, order)
    data = export_figure_data(sol, spec.exact, slice_bindings, sweeps, ctx)
    if args.format == "json":
        payload = {
            "name": spec.name,
            "order": sol.order,
            "columns": list(data.columns),
            "rows": [
                [
                    fraction_str(v) if isinstance(v, Fraction) else format_scientific(v, args.sig_digits)
                    for v in row
                ]
                for row in data.rows
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    _emit(data.to_csv(args.sig_digits), args.out)
    return 0


def _check_report(sol):
    """Run the verification pair on a solution: residual order and
    closed-form agreement.  Returns (list of report lines, ok flag)."""
    spec, order = sol.spec, sol.order
    lines = []
    ok = True
    vanish = residual_order_check(spec, sol)
    if vanish >= order - 2:
        lines.append(f"residual vanishes through t^{vanish - 1} (order {order} needs t^{order - 3})")
    else:
        ok = False
        lines.append(
            f"FAIL: residual coefficient at t^{vanish} does not vanish "
            f"(order {order} requires vanishing through t^{order - 3})"
        )
    if spec.exact is not None:
        mismatch = None
        for k, v in enumerate(sol.spectra):
            expected = taylor_coefficient(spec.exact, k)
            if ex.expand(expected) != v:
                mismatch = k
                break
        if mismatch is None:
            lines.append(f"spectra match the exact solution's Taylor coefficients for k<{order}")
        else:
            ok = False
            lines.append(f"FAIL: spectrum V_{mismatch} differs from the exact solution's Taylor coefficient")
    else:
        lines.append("no exact solution declared; closed-form agreement skipped")
    return lines, ok


def _cmd_check(args) -> int:
    spec, _ = _load_problem(args.problem)
    order = DEFAULT_SOLVE_ORDER if args.order is None else args.order
    lines, ok = _check_report(solve_series(spec, order))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _cmd_demo(args) -> int:
    ctx = PrecisionContext(args.precision)
    out_lines = []
    all_ok = True
    for model in ModelId:
        spec = builtin_model(model)
        order = DEFAULT_TABLE_ORDER[model]
        out_lines.append(f"== {model.value}: order {order}")
        sol = solve_series(spec, order)
        for k in (0, 1, 2, 3):
            out_lines.append(f"   V_{k} = {ex.to_text(sol.spectra[k])}")
        # the first n spectra of a solve are those of a solve at order n
        n = min(order, 10)
        check_lines, ok = _check_report(SeriesSolution(spec, sol.spectra[:n], n))
        all_ok = all_ok and ok
        out_lines.extend("   " + line for line in check_lines)
        t_values, col_values, tie = DEFAULT_TABLE_GRID[model]
        grid = Grid2D(GridAxis("t", t_values), GridAxis(tie[0], col_values), tie)
        table = absolute_error_grid(sol, spec.exact, grid, ctx)
        worst = max(v for row in table.values for v in row)
        out_lines.append(
            f"   max |series - exact| on the {len(grid.row.values)}x{len(grid.col.values)} "
            f"reference grid: {format_scientific(worst, 5)}"
        )
    out_lines.append("reproduction summary: " + ("all checks passed" if all_ok else "FAILURES (see above)"))
    _emit("\n".join(out_lines) + "\n", args.out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as InvalidOptionError, so they end like any other
    bad input: one 'error:' line and exit status 1."""

    def error(self, message):
        raise InvalidOptionError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rdtm",
        description="Spectral series solver for second-order-in-time wave-like PDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "problem": {"help": "built-in model id (ex1, ex2, ex3) or problem-file path"},
        "--order": {"type": int, "help": "number of spectra to compute"},
        "--grid": {"help": "grid as 't=start:stop:step;x=start:stop:step' (tie variables with 'x,y=...')"},
        "--slice": {"help": "fixed bindings, e.g. 'y=1/2'"},
        "--sweep": {"action": "append", "help": "sweep as var=start:stop:step (repeatable)"},
        "--precision": {"type": int, "default": 50, "help": "working precision in decimal digits"},
        "--sig-digits": {
            "type": int, "default": 5, "help": f"significant digits in numeric output (1-{MAX_SIG_DIGITS})"
        },
        "--out": {"help": "write output to this path instead of stdout"},
    }
    text_formats = ("text", "latex", "csv", "json")
    # Each subcommand declares only the options its handler reads; a tuple
    # stands for --format with those choices, the first being the default.
    for name, func, help_text, flags in (
        ("solve", _cmd_solve, "print the spectra and the truncated series",
         ("problem", "--order", text_formats, "--out")),
        ("table", _cmd_table, "absolute-error table against the exact solution",
         ("problem", "--order", "--grid", "--precision", text_formats, "--sig-digits", "--out")),
        ("figure", _cmd_figure, "columnar sweep data for plotting",
         ("problem", "--order", "--slice", "--sweep", "--precision", ("csv", "json"), "--sig-digits", "--out")),
        ("check", _cmd_check, "residual and closed-form verification; nonzero exit on failure",
         ("problem", "--order", "--out")),
        ("demo", _cmd_demo, "run all built-in models end to end", ("--precision", "--out")),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            if isinstance(flag, tuple):
                p.add_argument("--format", default=flag[0], choices=flag, help="output format")
            else:
                p.add_argument(flag, **options[flag])
        p.set_defaults(func=func)
    return parser


def _check_options(args):
    """Reject out-of-range numeric options before any work starts."""
    given = vars(args)
    if "sig_digits" in given and not 1 <= args.sig_digits <= MAX_SIG_DIGITS:
        raise InvalidOptionError(f"--sig-digits must be between 1 and {MAX_SIG_DIGITS}, got {args.sig_digits}")
    if "precision" in given and args.precision < MIN_DECIMAL_DIGITS:
        raise InvalidOptionError(f"--precision must be at least {MIN_DECIMAL_DIGITS} digits, got {args.precision}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_options(args)
        return args.func(args)
    except (RdtmError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

    rdtm solve  ex3 --order 10
    rdtm table  ex1                        # reproduces the ex1 reference grid
    rdtm figure ex1 --out fig1.csv
    rdtm check  ex2 --order 8
    rdtm demo

The positional problem argument is a built-in model id (ex1, ex2, ex3) or a
path to a problem file in the DSL of rdtm.specfile.  --grid, --slice and
--sweep values are assignments such as 't=1/10:1:1/10;x,y=-0.5:0.5:1/4',
read over the DSL's tokens by rdtm.parsing.parse_assignments.  All output is
deterministic: identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from . import expr as ex
from .analysis import (
    MAX_SIG_DIGITS,
    Grid2D,
    GridAxis,
    _csv_line,
    absolute_error_grid,
    check_bindings,
    check_sweeps,
    figure_cells,
    figure_csv_lines,
    figure_rows,
    format_scientific,
    fraction_str,
    rational_range,
    render_table,
    residual_order_check,
    taylor_coefficients,
)
from .engine import solve_series
from .errors import GridError, InvalidOptionError, ParseError, RdtmError
from .models import (
    DEFAULT_FIGURE,
    DEFAULT_TABLE_GRID,
    DEFAULT_TABLE_ORDER,
    ModelId,
    builtin_model,
)
from .parsing import parse_assignments
from .precision import MAX_DECIMAL_DIGITS, MIN_DECIMAL_DIGITS, PrecisionContext, load_libmp
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


def _table_grid(text, spec, model) -> Grid2D:
    """The grid of a --grid value, checked before either axis is built, or
    else a built-in model's reference grid."""
    if text is not None:
        axes = parse_assignments(text, "--grid", 3)
        if len(axes) != 2:
            raise GridError("grid must have a row part and a column part separated by ';'")
        (rows, *row_bounds), (tie, *col_bounds) = check_sweeps(axes)
        if len(rows) != 1:
            raise GridError("the row axis must be a single variable")
        check_bindings(spec.spatial_vars, rows + tie)
        row, row_values, col_values = rows[0], rational_range(*row_bounds), rational_range(*col_bounds)
    elif model is not None:
        row, (row_values, col_values, tie) = "t", DEFAULT_TABLE_GRID[model]
    else:
        raise GridError("custom problems need an explicit --grid")
    return Grid2D(GridAxis(row, row_values), GridAxis(tie[0], col_values), tie)


def _one_variable_each(text, option, arity) -> list:
    """[(name, value, ...)] of a --slice or --sweep value, whose
    assignments bind one variable each."""
    assignments = parse_assignments(text, option, arity)
    for names, *_ in assignments:
        if len(names) != 1:
            raise GridError(f"{option} binds one variable at a time, got {','.join(names)!r}")
    return [(names[0], *values) for names, *values in assignments]


def _emit(pieces, out_path):
    """Write the texts of ``pieces`` in turn to the file ``out_path``, or
    to stdout without one.  The file is opened once the first piece is
    ready, so an error raised before it leaves no file.  A reader that
    closes stdout early, as ``head`` does, is not an error: the pieces left
    are not made, and stdout is pointed at the null device, so that the
    interpreter's flush at exit does not fail either."""
    pieces = iter(pieces)
    first = next(pieces, "")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(first)
            handle.writelines(pieces)
        return
    try:
        sys.stdout.write(first)
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(payload, out_path):
    """``_emit`` the text of ``json.dumps(payload, indent=2)`` and a newline,
    as the encoder yields its chunks: no copy of the whole document is made."""
    import json  # only --format json needs it

    _emit(itertools.chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"]), out_path)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args) -> int:
    spec, _ = _load_problem(args.problem)
    order = DEFAULT_SOLVE_ORDER if args.order is None else args.order
    sol = solve_series(spec, order)
    spectra, series = sol.render(ex.LATEX if args.format == "latex" else ex.TEXT, series=args.format != "csv")
    if args.format == "csv":
        rows = [("k", "spectrum"), *enumerate(spectra)]
        _emit((_csv_line(row) + "\n" for row in rows), args.out)
        return 0
    if args.format == "json":
        payload = {"name": spec.name, "order": sol.order, "spectra": spectra, "series": series}
        _emit_json(payload, args.out)
        return 0
    names = [*(f"V_{k}" for k in range(sol.order)), "series"]
    _emit((f"{name} = {text}\n" for name, text in zip(names, [*spectra, series])), args.out)
    return 0


def _cmd_table(args) -> int:
    spec, model = _load_problem(args.problem)
    if spec.exact is None:
        raise RdtmError("table requires an exact solution ('exact:' field)")
    order = DEFAULT_TABLE_ORDER.get(model, DEFAULT_SOLVE_ORDER) if args.order is None else args.order
    grid = _table_grid(args.grid, spec, model)
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
            "values": [[format_scientific(v, args.sig_digits) for v in row] for row in table.raw_values],
        }
        _emit_json(payload, args.out)
        return 0
    style = "plain" if args.format == "text" else args.format
    _emit([render_table(table, style, args.sig_digits)], args.out)
    return 0


def _cmd_figure(args) -> int:
    spec, model = _load_problem(args.problem)
    if spec.exact is None:
        raise RdtmError("figure requires an exact solution ('exact:' field)")
    slice_bindings, sweeps, order = {}, [], args.order
    if model is not None and args.slice is None and args.sweep is None:
        slice_bindings, sweeps, default_order = DEFAULT_FIGURE[model]
        order = default_order if order is None else order
    if args.slice is not None:
        for name, value in _one_variable_each(args.slice, "--slice", 1):
            if name in slice_bindings:
                raise GridError(f"slice binds {name!r} twice")
            slice_bindings[name] = value
    if args.sweep is not None:
        sweeps = [r for text in args.sweep for r in _one_variable_each(text, "--sweep", 3)]
        if len(sweeps) != len(args.sweep):
            raise GridError("--sweep takes one range; repeat --sweep for another")
        sweeps = check_sweeps(sweeps)
    if not sweeps:
        raise GridError("no sweep given (use --sweep var=start:stop:step)")
    check_bindings(spec.spatial_vars, [name for name, *_ in sweeps], slice_bindings)
    order = DEFAULT_SOLVE_ORDER if order is None else order
    ctx = PrecisionContext(args.precision)
    sol = solve_series(spec, order)
    columns, rows = figure_rows(sol, spec.exact, slice_bindings, sweeps, ctx)
    if args.format == "json":
        payload = {
            "name": spec.name,
            "order": sol.order,
            "columns": list(columns),
            "rows": [figure_cells(row, args.sig_digits) for row in rows],
        }
        _emit_json(payload, args.out)
        return 0
    _emit(figure_csv_lines(columns, rows, args.sig_digits), args.out)
    return 0


def _check_report(sol):
    """Run the verification pair on a solution: residual order and
    closed-form agreement.  Returns (list of report lines, ok flag)."""
    spec, order = sol.spec, sol.order
    lines = []
    ok = True
    # order N needs the residual to vanish through t^(N-3): nothing at N = 2
    vanish = residual_order_check(spec, sol) if order >= 3 else None
    if vanish is None:
        lines.append(f"residual check is vacuous at order {order}: no coefficient must vanish")
    elif vanish >= order - 2:
        lines.append(f"residual vanishes through t^{vanish - 1} (order {order} needs t^{order - 3})")
    else:
        ok = False
        lines.append(
            f"FAIL: residual coefficient at t^{vanish} does not vanish "
            f"(order {order} requires vanishing through t^{order - 3})"
        )
    if spec.exact is not None:
        mismatch = None
        for k, (v, expected) in enumerate(zip(sol.spectra, taylor_coefficients(spec.exact))):
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
    _emit(["\n".join(lines) + "\n"], args.out)
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
        check_lines, ok = _check_report(sol.truncated(min(order, 10)))
        all_ok = all_ok and ok
        out_lines.extend("   " + line for line in check_lines)
        grid = _table_grid(None, spec, model)
        table = absolute_error_grid(sol, spec.exact, grid, ctx)
        worst = max((v for row in table.raw_values for v in row), key=functools.cmp_to_key(load_libmp().mpf_cmp))
        out_lines.append(
            f"   max |series - exact| on the {len(grid.row.values)}x{len(grid.col.values)} "
            f"reference grid: {format_scientific(worst, 5)}"
        )
    out_lines.append("reproduction summary: " + ("all checks passed" if all_ok else "FAILURES (see above)"))
    _emit(["\n".join(out_lines) + "\n"], args.out)
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
    if "precision" in given and args.precision > MAX_DECIMAL_DIGITS:
        raise InvalidOptionError(f"--precision must be at most {MAX_DECIMAL_DIGITS} digits, got {args.precision}")


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

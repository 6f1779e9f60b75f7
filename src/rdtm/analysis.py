"""Series evaluation, absolute-error grids, residual checks and table rendering.

Grid coordinates are exact rationals (3/10, never a binary float 0.3), so the
only rounding in a reported error is the final transcendental evaluation at
the working precision.  Cells are independent pure computations; assembling
them in any order gives the same table.

Errors are computed, tested against the precision floor and rendered on raw
``libmp`` values, so a command that prints them never imports the
``mpmath`` package; ``ErrorTable`` and ``FigureData`` keep those raw values
and give them to library callers as ``mpf``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from . import expr as ex
from .engine import SeriesSolution
from .errors import GridError, PrecisionInsufficientError
from .packed import Poly
from .parsing import MAX_GRID_POINTS, TIME_VAR
from .precision import PrecisionContext, load_libmp, mpmath
from .record import Record

__all__ = [
    "GridAxis",
    "Grid2D",
    "ErrorTable",
    "FigureData",
    "evaluate_series",
    "absolute_error_grid",
    "residual_order_check",
    "taylor_coefficient",
    "taylor_coefficients",
    "render_table",
    "export_figure_data",
    "figure_rows",
    "figure_csv_lines",
    "format_scientific",
    "fraction_str",
    "MAX_SIG_DIGITS",
]

MAX_SIG_DIGITS = 6
# Errors are formed, and every printed value rounded, to nearest at this many
# bits (mpmath's default precision), whatever the working precision.
REPORT_PREC = 53


def _range_bounds(start, stop, step) -> tuple:
    """(start, stop, step) as Fractions, once step is positive."""
    start, stop, step = _as_fractions((start, stop, step))
    if step <= 0:
        raise GridError(f"range step must be positive, got {step}")
    return start, stop, step


def rational_range(start, stop, step) -> tuple:
    """Exact rationals start, start + step, ... through stop (none if stop <
    start); step must be positive."""
    value, stop, step = _range_bounds(start, stop, step)
    values = []
    while value <= stop:
        values.append(value)
        value += step
    return tuple(values)


def range_length(start, stop, step) -> int:
    """How many values rational_range(start, stop, step) yields, counted
    from the bounds alone; step must be positive."""
    start, stop, step = _range_bounds(start, stop, step)
    return max(0, math.floor((stop - start) / step) + 1)


def check_grid_size(lengths) -> None:
    """Reject a cartesian grid whose axes have these lengths when it, or any
    one axis, has more than MAX_GRID_POINTS points, before any of them is
    enumerated.  The axis test matters when another axis is empty: the grid
    then has no points, but the long axis would still be enumerated."""
    size = math.prod(lengths)
    if size > MAX_GRID_POINTS:
        raise GridError(f"grid has {size} points, more than the limit of {MAX_GRID_POINTS}")
    longest = max(lengths, default=0)
    if longest > MAX_GRID_POINTS:
        raise GridError(f"an axis has {longest} points, more than the limit of {MAX_GRID_POINTS}")


def check_sweeps(sweeps) -> list:
    """[(variables, start, stop, step)] with exact rational bounds, once every
    step is positive and the cartesian sweep is within MAX_GRID_POINTS;
    ``variables`` is one name or a tuple of names that share the range."""
    specs = []
    for names, *bounds in sweeps:
        start, stop, step = _as_fractions(bounds)
        if step <= 0:
            label = names if isinstance(names, str) else ",".join(names)
            raise GridError(f"sweep step for {label!r} must be positive")
        specs.append((names, start, stop, step))
    check_grid_size([range_length(start, stop, step) for _, start, stop, step in specs])
    return specs


def check_bindings(spatial_vars, swept, fixed=()) -> None:
    """Reject points that bind a variable twice, bind one the problem does
    not have, or leave t or a spatial variable unbound.  ``swept`` names the
    variables that vary across the points and ``fixed`` those held at one
    value."""
    swept, fixed = list(swept), set(fixed)
    if len(set(swept)) != len(swept):
        raise GridError("duplicate sweep variable")
    if fixed & set(swept):
        raise GridError("slice and sweep bind the same variable (over-constrained)")
    needed = set(spatial_vars) | {TIME_VAR}
    bound = fixed | set(swept)
    _check_known(spatial_vars, bound)
    if needed - bound:
        raise GridError(f"unbound variables {sorted(needed - bound)} (under-constrained)")


def _check_known(spatial_vars, names) -> None:
    unknown = set(names) - set(spatial_vars) - {TIME_VAR}
    if unknown:
        raise GridError(f"unknown variables {sorted(unknown)}")


def _as_fractions(values) -> tuple:
    try:
        return tuple(map(ex.as_fraction, values))
    except TypeError as err:
        raise GridError(f"grid value {err}") from None


class GridAxis(Record):
    __slots__ = ("name", "values")

    def __init__(self, name: str, values):
        values = _as_fractions(values)
        if not values:
            raise GridError(f"axis {name!r} is empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise GridError(f"axis {name!r} values must be strictly increasing")
        self._assign(name=name, values=values)


class Grid2D(Record):
    """Rows sweep the row axis (time, in the reference tables); every spatial
    variable in ``tie`` is bound to the column value, so one column axis can
    drive several variables (x = y = column value)."""

    __slots__ = ("row", "col", "tie")

    def __init__(self, row: GridAxis, col: GridAxis, tie=()):
        self._assign(row=row, col=col, tie=tuple(tie))

    @property
    def col_vars(self) -> tuple:
        return self.tie or (self.col.name,)

    @property
    def corner_label(self) -> str:
        return f"{self.row.name}/{','.join(self.col_vars)}"

    def point(self, row_value, col_value) -> dict:
        bindings = {self.row.name: row_value}
        for name in self.col_vars:
            bindings[name] = col_value
        return bindings


class ErrorTable(Record):
    """|series - exact| on a grid.  ``values`` are rows matching the grid,
    each value an mpf, a raw ``libmp`` value or a number; the
    table keeps them raw in ``raw_values`` (rounded to REPORT_PREC bits
    when computed), and ``values`` gives them back as mpf."""

    __slots__ = ("grid", "raw_values", "truncation_order", "precision")

    def __init__(self, grid: Grid2D, values: tuple, truncation_order: int, precision: int):
        raw_values = tuple(tuple(map(_raw, row)) for row in values)
        self._assign(grid=grid, raw_values=raw_values, truncation_order=truncation_order, precision=precision)

    @property
    def values(self) -> tuple:
        make_mpf = mpmath.mp.make_mpf
        return tuple(tuple(map(make_mpf, row)) for row in self.raw_values)


class FigureData(Record):
    """Columnar sweep data: sweep coordinates, series value, exact value,
    absolute error; ready for external plotting.  A row's coordinates are
    Fractions and its other values are kept raw in ``raw_rows``, as in
    ``ErrorTable``; ``rows`` gives those as mpf.  It holds every row of
    the sweep at once; ``figure_rows`` yields them one at a time, and
    ``figure_csv_lines`` writes either as CSV."""

    __slots__ = ("columns", "raw_rows")

    def __init__(self, columns: tuple, rows: tuple):
        raw_rows = tuple(tuple(v if isinstance(v, Fraction) else _raw(v) for v in row) for row in rows)
        self._assign(columns=columns, raw_rows=raw_rows)

    @property
    def rows(self) -> tuple:
        make_mpf = mpmath.mp.make_mpf
        return tuple(tuple(v if isinstance(v, Fraction) else make_mpf(v) for v in row) for row in self.raw_rows)

    def to_csv(self, sig_digits: int = 6) -> str:
        return "".join(figure_csv_lines(self.columns, self.raw_rows, sig_digits))


def _raw(value):
    """A value of a public result as a raw ``libmp`` value: a raw value as
    it is, an mpf's own, an int, a Fraction or a float rounded to nearest at
    REPORT_PREC bits."""
    if isinstance(value, tuple):
        return value
    raw = getattr(value, "_mpf_", None)
    if raw is not None:
        return raw
    libmp = load_libmp()
    if isinstance(value, float):
        return libmp.from_float(value, REPORT_PREC, "n")
    value = ex.as_fraction(value)
    return libmp.from_rational(value.numerator, value.denominator, REPORT_PREC, "n")


def evaluate_series(sol: SeriesSolution, point, ctx: PrecisionContext = PrecisionContext()):
    """Truncated series value sum(V_k(point) * t^k) with exact rational
    t-powers, accumulated in high precision.  The point must bind t and
    every spatial variable, and nothing else."""
    _check_known(sol.spec.spatial_vars, point)
    # The cell kernel loads at the first evaluation; solve and check never need it.
    from . import separable

    return mpmath.mp.make_mpf(separable.SeriesEvaluator(sol, (), point, ctx.prec).at(()))


def absolute_error_grid(
    sol: SeriesSolution,
    exact: ex.Expr,
    grid: Grid2D,
    ctx: PrecisionContext = PrecisionContext(),
) -> ErrorTable:
    """Grid of |series - exact|.  Requires at least 30 working digits; a cell
    whose nonzero error falls below 10^-(digits-4) cannot carry significant
    digits and raises rather than reporting noise.  Spectra, t-powers and
    atoms are evaluated once per distinct value for the whole grid."""
    if ctx.decimal_digits < 30:
        raise PrecisionInsufficientError(
            f"error grids need >= 30 working digits, got {ctx.decimal_digits}"
        )
    check_grid_size((len(grid.row.values), len(grid.col.values)))
    check_bindings(sol.spec.spatial_vars, (grid.row.name, *grid.col_vars))
    from . import separable

    libmp = load_libmp()
    floor = libmp.mpf_pow_int(libmp.from_int(10), 4 - ctx.decimal_digits, REPORT_PREC, "n")
    axes = [((grid.row.name,), grid.row.values), (grid.col_vars, grid.col.values)]
    errors = []
    for (tv, cv), series_value, exact_value in separable.cells(sol, exact, axes, {}, ctx):
        err = _abs_error(series_value, exact_value)
        if err != libmp.fzero and libmp.mpf_lt(err, floor):
            raise PrecisionInsufficientError(
                f"cell ({fraction_str(tv)}, {fraction_str(cv)}): error is below "
                f"the certifiable floor 1e-{ctx.decimal_digits - 4}; "
                "raise the working precision"
            )
        errors.append(err)
    width = len(grid.col.values)
    rows = tuple(tuple(errors[i:i + width]) for i in range(0, len(errors), width))
    return ErrorTable(grid, rows, sol.order, ctx.decimal_digits)


def _abs_error(series_value, exact_value):
    """|series - exact| of two raw values, rounded to REPORT_PREC bits, raw."""
    libmp = load_libmp()
    return libmp.mpf_abs(libmp.mpf_sub(series_value, exact_value, REPORT_PREC, "n"))


def residual_order_check(spec, sol: SeriesSolution) -> int:
    """Vanishing order of the residual u_tt - rhs at the truncated series.

    Returns the index of the first t-Maclaurin coefficient of the residual
    that does not vanish, exactly.  A solution of order N must yield at
    least N-2 (so always >= N-3); returns sol.order when the residual is
    identically zero through its whole t-degree.

    The series and the residual are graded, one packed polynomial per
    nonzero t-degree (``_t_graded``): V_k, as the solution holds it packed
    (``SeriesSolution.packed``), sits at degree k, and each derivative image
    of the series is one derivative of a memoized image of one order less,
    d/dt taking degree d to d - 1 times d.  Products keep only the degree
    pairs below N = sol.order, so those of the right-hand side cost O(N^2)
    polynomial products.  Only when every coefficient below
    t^N vanishes, and the residual's t-degree D reaches N, is it formed once
    more with the bound D + 1, so the first nonzero coefficient above t^N is
    still found.  The return value is the same as that of a full expansion in
    every case, and for a spec other than the solution's it is that of the
    spec's equation at the same series.
    """
    if spec != sol.spec:
        # the solution's Packing has fields for its own equation only
        sol = SeriesSolution(spec, sol.spectra, sol.order)
    packing = sol.packing
    series = {k: p for k, p in enumerate(sol.packed) if p.groups}
    images = {(): (series, max(series, default=0))}

    def image(orders):
        if orders not in images:
            *rest, (var, n) = orders
            lower, _ = image((*rest, (var, n - 1)) if n > 1 else tuple(rest))
            if var == TIME_VAR:
                graded = {d - 1: packing.mul(p, Poly(1, {0: {0: d}})) for d, p in lower.items() if d}
            else:
                graded = {d: q for d, p in lower.items() if (q := packing.diff(p, ((var, 1),))).groups}
            images[orders] = graded, max(graded, default=0)
        return images[orders]

    residual = ex.Sum((ex.deriv_sym({TIME_VAR: 2}), ex.Product((ex.rational(-1), spec.rhs))))
    terms, top = _t_graded(packing, residual, sol.order, image)
    if not terms and top >= sol.order:
        terms, _ = _t_graded(packing, residual, top + 1, image)
    return min(terms, default=sol.order)


def _graded_sum(packing, pairs) -> dict:
    """{t-degree: the sum of the Polys paired with it}, without zero Polys."""
    out = defaultdict(Poly)
    for d, p in pairs:
        packing.add_into(out[d], p)
    return {d: s for d, p in out.items() if (s := packing.settled(p)).groups}


def _t_graded(packing, e, bound, image) -> tuple:
    """(graded, top): the nonzero t-Maclaurin coefficients of the canonical
    tree e below ``bound``, packed, {t-degree: Poly}, and a bound on the
    t-degree of e: a sum's largest, a product's total, n for t^n, 0 for any
    other leaf.  A derivative symbol is ``image(orders)``, a (graded, degree)
    pair, and a product is a Cauchy product over the degree pairs below
    ``bound``."""
    t = ex.Var(TIME_VAR)

    def walk(node):
        if isinstance(node, ex.Sum):
            walked = [walk(term) for term in node.terms]
            pairs = [pair for graded, _ in walked for pair in graded.items()]
            return _graded_sum(packing, pairs), max(d for _, d in walked)
        if node == t or isinstance(node, ex.Power) and node.base == t:
            n = node.exponent if isinstance(node, ex.Power) else 1
            return ({n: Poly(1, {0: {0: 1}})} if n < bound else {}), n
        if isinstance(node, ex.Power) and node.base not in packing.index:
            node = ex.Product((node.base,) * node.exponent)
        if isinstance(node, ex.Product):
            graded, top = walk(node.factors[0])
            for other, d in map(walk, node.factors[1:]):
                out = defaultdict(Poly)
                for i, p in graded.items():
                    for j, q in other.items():
                        if i + j < bound:
                            packing.mul_into(out[i + j], p, q)
                graded, top = {n: s for n, p in out.items() if (s := packing.settled(p)).groups}, top + d
            return graded, top
        if isinstance(node, ex.DerivSym):
            graded, top = image(node.orders)
            return {d: p for d, p in graded.items() if d < bound}, top
        p = packing.from_expr(node)
        return ({0: p} if p.groups else {}), 0

    return walk(e)


def taylor_coefficient(e, k: int) -> ex.Expr:
    """k-th Taylor coefficient of e around t = 0: the k-fold derivative at
    zero divided by k! (the transform applied to a closed-form expression)."""
    return _at_zero(ex.differentiate(e, TIME_VAR, k), k)


def taylor_coefficients(e):
    """The Taylor coefficients of e around t = 0, k = 0, 1, ..., each the
    same tree as ``taylor_coefficient(e, k)``: the k-fold derivative is one
    derivative of the (k-1)-fold one, so n coefficients cost n derivatives."""
    d = ex.simplify(e)
    k = 0
    while True:
        yield _at_zero(d, k)
        k += 1
        d = ex.differentiate(d, TIME_VAR)


def _at_zero(d, k: int) -> ex.Expr:
    """d at t = 0, divided by k!."""
    return ex.simplify(ex.Product((ex.rational(1, math.factorial(k)), ex.substitute(d, {TIME_VAR: 0}))))


# ---------------------------------------------------------------------------
# Rendering

# Digits beyond sig_digits that format_scientific's first rounding keeps.
_NSTR_EXTRA_DIGITS = 8


def fraction_str(value: Fraction) -> str:
    """Exact decimal string when the denominator divides a power of ten
    (3/10 -> '0.3'), plain fraction otherwise."""
    value = ex.as_fraction(value)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return str(value)
    shift = max(twos, fives)
    scaled = value * 10**shift
    digits = str(abs(int(scaled))).rjust(shift + 1, "0")
    sign = "-" if value < 0 else ""
    if shift == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def format_scientific(value, sig_digits: int = 5) -> str:
    """Normalized scientific notation, mantissa in [1, 10): '1.95343E-20'.
    Zero renders as '0'; an infinity or a nan is a ValueError.

    The value (an mpf, a raw ``libmp`` value or a number) is rounded to
    nearest at REPORT_PREC bits, and its decimal digits, truncated by one
    ``libmp.to_digits_exp``, are rounded twice as integers: to
    sig_digits + 8 digits on the first digit dropped, as ``mpmath.nstr``
    rounds, then to sig_digits, half to even.
    """
    if not 1 <= sig_digits <= MAX_SIG_DIGITS:
        raise ValueError(f"significant digits must be between 1 and {MAX_SIG_DIGITS}")
    libmp = load_libmp()
    raw = libmp.mpf_pos(_raw(value), REPORT_PREC, "n")
    if not raw[1]:
        if raw == libmp.fzero:
            return "0"
        raise ValueError(f"{libmp.to_str(raw, 1)} has no scientific notation")
    kept = sig_digits + _NSTR_EXTRA_DIGITS
    sign, digits, exponent = libmp.to_digits_exp(raw, kept + 3)
    mantissa = int(digits[:kept]) + (digits[kept:kept + 1] >= "5")
    mantissa, rest = divmod(mantissa, 10**_NSTR_EXTRA_DIGITS)
    half = 5 * 10 ** (_NSTR_EXTRA_DIGITS - 1)
    if rest > half or rest == half and mantissa % 2:
        mantissa += 1
    if mantissa == 10**sig_digits:
        mantissa //= 10
        exponent += 1
    digits = str(mantissa)
    point = "." if sig_digits > 1 else ""
    return f"{sign}{digits[0]}{point}{digits[1:]}E{exponent:+d}"


def _csv_line(cells) -> str:
    quoted = []
    for cell in cells:
        text = str(cell)
        if any(ch in text for ch in ',"\n'):
            text = '"' + text.replace('"', '""') + '"'
        quoted.append(text)
    return ",".join(quoted)


def render_table(tbl: ErrorTable, style: str = "plain", sig_digits: int = 5) -> str:
    """Row-major table: first column the row-axis values, header row the
    column-axis values.  Deterministic byte output."""
    header = [tbl.grid.corner_label] + [fraction_str(v) for v in tbl.grid.col.values]
    body = [
        [fraction_str(tv)] + [format_scientific(v, sig_digits) for v in row]
        for tv, row in zip(tbl.grid.row.values, tbl.raw_values)
    ]
    if style == "csv":
        return "\n".join(_csv_line(r) for r in [header] + body) + "\n"
    if style == "latex":
        lines = [
            r"\begin{tabular}{" + "r" * len(header) + "}",
            " & ".join(header) + r" \\",
            r"\hline",
        ]
        lines += [" & ".join(row) + r" \\" for row in body]
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"
    if style == "plain":
        widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in [header] + body
        ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table style {style!r}")


# ---------------------------------------------------------------------------
# Figure data


def export_figure_data(
    sol: SeriesSolution,
    exact: ex.Expr,
    slice_bindings,
    sweeps,
    ctx: PrecisionContext = PrecisionContext(),
) -> FigureData:
    """Columnar dataset over a cartesian sweep with the remaining variables
    fixed by the slice: (sweep values..., series, exact, abs error).

    The columns and every row of ``figure_rows``, held in one FigureData;
    its arguments, and the errors it raises, are those of ``figure_rows``.
    """
    columns, rows = figure_rows(sol, exact, slice_bindings, sweeps, ctx)
    return FigureData(columns, tuple(rows))


def figure_rows(
    sol: SeriesSolution,
    exact: ex.Expr,
    slice_bindings,
    sweeps,
    ctx: PrecisionContext = PrecisionContext(),
) -> tuple:
    """(columns, rows) of a cartesian sweep with the remaining variables
    fixed by the slice: the column names (sweep variables..., "series",
    "exact", "abs_error") and a lazy iterator of the rows, row-major, each
    (sweep values as Fractions..., series, exact, abs error as raw
    ``libmp`` values).  A row is computed when it is read, so a caller that
    consumes them one at a time holds one row, not the sweep.

    ``sweeps`` is a sequence of (variable, start, stop, step) with one
    variable name each (a tuple of tied names is a GridError) and exact
    rational bounds, and slice values are exact rationals too (a float is a
    GridError); after applying the slice, exactly the sweep variables must
    remain unbound.  Every one of these checks is made before this returns.
    As in ``absolute_error_grid``, spectra, t-powers and atoms are evaluated
    once per distinct value for the whole sweep.
    """
    slice_bindings = dict(slice_bindings)
    fixed = dict(zip(slice_bindings, _as_fractions(slice_bindings.values())))
    sweep_specs = check_sweeps(sweeps)
    sweep_names = [name for name, *_ in sweep_specs]
    for name in sweep_names:
        if not isinstance(name, str):
            raise GridError(f"a figure sweep varies one variable, not {name!r}")
    check_bindings(sol.spec.spatial_vars, sweep_names, fixed)
    from . import separable

    axes = [((name,), rational_range(start, stop, step)) for name, start, stop, step in sweep_specs]
    rows = (
        (*coords, series_value, exact_value, _abs_error(series_value, exact_value))
        for coords, series_value, exact_value in separable.cells(sol, exact, axes, fixed, ctx)
    )
    return (*sweep_names, "series", "exact", "abs_error"), rows


def figure_csv_lines(columns, raw_rows, sig_digits: int):
    """The CSV text of a figure's header and rows, one row's line at a
    time, each ending in a newline: coordinates by ``fraction_str``, the
    other values by ``format_scientific``.  Each line is formed as its row
    is read, so rows from ``figure_rows`` stream through.  The header comes
    with the first row, so nothing comes before the first cell is
    computed; an empty sweep gives the header alone."""
    header = _csv_line(columns) + "\n"
    for row in raw_rows:
        yield header + _csv_line(figure_cells(row, sig_digits)) + "\n"
        header = ""
    if header:
        yield header


def figure_cells(row, sig_digits: int) -> list:
    """The texts of one figure row's cells, as CSV and JSON print them."""
    return [fraction_str(v) if isinstance(v, Fraction) else format_scientific(v, sig_digits) for v in row]

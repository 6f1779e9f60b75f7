"""Series evaluation, absolute-error grids, residual checks and table rendering.

Grid coordinates are exact rationals (3/10, never a binary float 0.3), so the
only rounding in a reported error is the final transcendental evaluation at
the working precision.  Cells are independent pure computations; assembling
them in any order gives the same table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Context as DecimalContext
from fractions import Fraction

import mpmath

from . import expr as ex
from .engine import SeriesSolution, substitute_derivatives
from .errors import GridError, PrecisionInsufficientError, UnboundVariableError
from .parsing import MAX_GRID_POINTS, TIME_VAR
from .precision import PrecisionContext, eval_canonical, eval_number, fraction_to_mpf

__all__ = [
    "GridAxis",
    "Grid2D",
    "ErrorTable",
    "FigureData",
    "evaluate_series",
    "absolute_error_grid",
    "residual_order_check",
    "taylor_coefficient",
    "render_table",
    "export_figure_data",
    "format_scientific",
    "fraction_str",
    "MAX_SIG_DIGITS",
]

MAX_SIG_DIGITS = 6


def rational_range(start, stop, step) -> tuple:
    """Exact rationals start, start + step, ... through stop (none if stop < start)."""
    value, stop, step = Fraction(start), Fraction(stop), Fraction(step)
    values = []
    while value <= stop:
        values.append(value)
        value += step
    return tuple(values)


def range_length(start, stop, step) -> int:
    """How many values rational_range(start, stop, step) yields, counted
    from the bounds alone; step must be positive."""
    start, stop, step = Fraction(start), Fraction(stop), Fraction(step)
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
    """[(variable, start, stop, step)] with exact rational bounds, once every
    step is positive and the cartesian sweep is within MAX_GRID_POINTS."""
    specs = []
    for name, start, stop, step in sweeps:
        start, stop, step = _as_fractions((start, stop, step))
        if step <= 0:
            raise GridError(f"sweep step for {name!r} must be positive")
        specs.append((name, start, stop, step))
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
    if bound - needed:
        raise GridError(f"unknown variables {sorted(bound - needed)}")
    if needed - bound:
        raise GridError(f"unbound variables {sorted(needed - bound)} (under-constrained)")


def _as_fractions(values):
    out = []
    for v in values:
        if isinstance(v, float):
            raise GridError(f"grid value {v!r} is a float; pass an exact rational")
        out.append(v if isinstance(v, Fraction) else Fraction(v))
    return tuple(out)


@dataclass(frozen=True)
class GridAxis:
    name: str
    values: tuple

    def __post_init__(self):
        values = _as_fractions(self.values)
        if not values:
            raise GridError(f"axis {self.name!r} is empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise GridError(f"axis {self.name!r} values must be strictly increasing")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Grid2D:
    """Rows sweep the row axis (time, in the reference tables); every spatial
    variable in ``tie`` is bound to the column value, so one column axis can
    drive several variables (x = y = column value)."""

    row: GridAxis
    col: GridAxis
    tie: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tie", tuple(self.tie))

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


@dataclass(frozen=True)
class ErrorTable:
    grid: Grid2D
    values: tuple  # rows of mpf, matching the grid
    truncation_order: int
    precision: int


@dataclass(frozen=True)
class FigureData:
    """Columnar sweep data: sweep coordinates, series value, exact value,
    absolute error; ready for external plotting."""

    columns: tuple
    rows: tuple

    def to_csv(self, sig_digits: int = 6) -> str:
        lines = [_csv_line(self.columns)]
        for row in self.rows:
            cells = [fraction_str(v) if isinstance(v, Fraction) else format_scientific(v, sig_digits) for v in row]
            lines.append(_csv_line(cells))
        return "\n".join(lines) + "\n"


class _SeriesEvaluator:
    """Truncated series sum(V_k(point) * t^k) of one solution at many points.

    V_k depends only on the spatial point, so its values can be computed
    once per distinct spatial binding (the point minus t), and the powers of
    each distinct t once, as exact Fractions together with their mpf
    conversions.  Atom values are memoized per (kind, argument, precision)
    in ``atoms``, which the caller shares with its evaluations of the exact
    solution.  A cell then sums the rounded terms in increasing k, as a lone
    evaluation does, and the exact terms in any order, since their sum is
    exact; so every result is bit-identical to evaluating its point alone.

    ``axes`` gives (variables, length) for each axis of the cartesian grid
    the caller walks.  Spectrum values are kept only when an axis of t alone
    repeats every spatial point, and t-powers only when an axis without t
    repeats every t; a memo whose key never recurs would only hold memory.
    The memos live as long as the evaluator: one grid, one figure or one
    ``evaluate_series`` call.
    """

    def __init__(self, sol: SeriesSolution, ctx: PrecisionContext, axes=()):
        self.spectra = sol.spectra
        self.ctx = ctx
        self.atoms = {}
        self._terms = {}
        self._powers = {}
        varying = [set(names) for names, length in axes if length > 1]
        self._keep_terms = {TIME_VAR} in varying
        self._keep_powers = any(TIME_VAR not in names for names in varying)

    def series(self, point):
        bindings = dict(point)
        if TIME_VAR not in bindings:
            raise UnboundVariableError("the evaluation point must bind t")
        t = bindings.pop(TIME_VAR)
        if isinstance(t, float):
            raise TypeError("t must be an exact rational, not a float")
        t = t if isinstance(t, Fraction) else Fraction(t)
        with mpmath.workdps(self.ctx.working_dps):
            exact_terms, rounded_terms = self._terms_at(bindings)
            powers, powers_mpf = self._t_powers(t)
            exact_part = sum((value * powers[k] for k, value in exact_terms), Fraction(0))
            rounded_part = mpmath.mpf(0)
            for k, value in rounded_terms:
                rounded_part += value * powers_mpf[k]
            return +(rounded_part + fraction_to_mpf(exact_part))

    def _terms_at(self, bindings):
        """([(k, V_k) exact and nonzero], [(k, V_k) rounded]) at a spatial point."""
        key = tuple(sorted(bindings.items()))
        terms = self._terms.get(key)
        if terms is None:
            exact_terms, rounded_terms = [], []
            for k, v in enumerate(self.spectra):
                value = eval_number(v, bindings, self.atoms)
                if not isinstance(value, Fraction):
                    rounded_terms.append((k, value))
                elif value:
                    exact_terms.append((k, value))
            terms = (exact_terms, rounded_terms)
            if self._keep_terms:
                self._terms[key] = terms
        return terms

    def _t_powers(self, t):
        """([t^k], [t^k as mpf]) for k below the order."""
        powers = self._powers.get(t)
        if powers is None:
            exact_powers = [Fraction(1)]
            for _ in self.spectra[1:]:
                exact_powers.append(exact_powers[-1] * t)
            powers = (exact_powers, [fraction_to_mpf(p) for p in exact_powers])
            if self._keep_powers:
                self._powers[t] = powers
        return powers


def evaluate_series(sol: SeriesSolution, point, ctx: PrecisionContext = PrecisionContext()):
    """Truncated series value sum(V_k(point) * t^k) with exact rational
    t-powers, accumulated in high precision."""
    return _SeriesEvaluator(sol, ctx).series(point)


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
    floor = mpmath.mpf(10) ** -(ctx.decimal_digits - 4)
    axes = [((grid.row.name,), grid.row.values), (grid.col_vars, grid.col.values)]
    errors = []
    for (tv, cv), series_value, exact_value in _cells(sol, exact, axes, {}, ctx):
        err = abs(series_value - exact_value)
        if 0 < err < floor:
            raise PrecisionInsufficientError(
                f"cell ({fraction_str(tv)}, {fraction_str(cv)}): error is below "
                f"the certifiable floor 1e-{ctx.decimal_digits - 4}; "
                "raise the working precision"
            )
        errors.append(err)
    width = len(grid.col.values)
    rows = tuple(tuple(errors[i:i + width]) for i in range(0, len(errors), width))
    return ErrorTable(grid, rows, sol.order, ctx.decimal_digits)


def _cells(sol: SeriesSolution, exact: ex.Expr, axes, fixed, ctx: PrecisionContext):
    """(coordinates, series value, exact value) at every cell of the
    cartesian product of ``axes``, row-major.  ``axes`` is a sequence of
    (variables, values): a coordinate binds every variable of its axis, and
    ``fixed`` binds the others.  One simplified ``exact`` and one
    _SeriesEvaluator serve every cell."""
    exact = ex.simplify(exact)
    evaluator = _SeriesEvaluator(sol, ctx, [(names, len(values)) for names, values in axes])
    for coords in itertools.product(*(values for _, values in axes)):
        point = dict(fixed)
        for (names, _), value in zip(axes, coords):
            point.update(dict.fromkeys(names, value))
        series_value = evaluator.series(point)
        yield coords, series_value, eval_canonical(exact, point, ctx, evaluator.atoms)


def residual_order_check(spec, sol: SeriesSolution) -> int:
    """Vanishing order of the residual u_tt - rhs at the truncated series.

    Returns the index of the first t-Maclaurin coefficient of the residual
    that does not vanish, exactly.  A solution of order N must yield at
    least N-2 (so always >= N-3); returns sol.order when the residual is
    identically zero through its whole t-degree.

    The residual's coefficients are formed in t-truncated arithmetic: a
    product of series never forms a coefficient of t^N or higher, where N is
    sol.order, so the whole-series products of the right-hand side cost
    O(N^2) coefficient products instead of running out to their full
    t-degree.  Only when every coefficient below t^N vanishes, and the
    residual's t-degree D reaches N, is it formed once more with the bound
    D + 1, so the first nonzero coefficient above t^N is still found.  The
    return value is the same as that of a full expansion in every case.
    """
    series = sol.to_expr()
    u_tt = ex.differentiate(series, TIME_VAR, 2)
    residual = ex.Sum((u_tt, ex.Product((ex.rational(-1), substitute_derivatives(spec.rhs, series)))))
    degree = min(_t_coefficients(residual, sol.order), default=None)
    if degree is None:
        top = _t_degree(residual)
        if top >= sol.order:
            degree = min(_t_coefficients(residual, top + 1), default=None)
    return sol.order if degree is None else degree


_T = ex.Var(TIME_VAR)


def _t_coefficients(e, bound) -> dict:
    """{degree: nonzero expanded coefficient} of e as a power series in t,
    for the degrees below bound.

    Sums add, and products and powers of sums multiply coefficient by
    coefficient.  Every other node is a canonical leaf, already expanded
    and split by _t_leaf.  Degrees are never negative, so a product skips
    each pair of coefficients whose degrees reach bound.
    """
    if isinstance(e, ex.Sum):
        return _merge_by_degree(
            (degree, c) for term in e.terms for degree, c in _t_coefficients(term, bound).items()
        )
    if isinstance(e, ex.Product):
        factors = [_t_coefficients(f, bound) for f in e.factors]
    elif isinstance(e, ex.Power) and isinstance(e.base, ex.Sum):
        factors = [_t_coefficients(e.base, bound)] * e.exponent
    else:
        if e == ex.ZERO:
            return {}
        degree, coefficient = _t_leaf(e)
        return {degree: coefficient} if degree < bound else {}
    result = factors[0]
    for factor in factors[1:]:
        result = _merge_by_degree(
            (da + db, ex.mul_expanded(ca, cb))
            for da, ca in result.items()
            for db, cb in factor.items()
            if da + db < bound
        )
    return result


def _t_degree(e) -> int:
    """Highest t-degree a term of e can reach, by the rules of _t_coefficients."""
    if isinstance(e, ex.Sum):
        return max(_t_degree(term) for term in e.terms)
    if isinstance(e, ex.Product):
        return sum(_t_degree(f) for f in e.factors)
    if isinstance(e, ex.Power) and isinstance(e.base, ex.Sum):
        return _t_degree(e.base) * e.exponent
    return _t_leaf(e)[0]


def _t_leaf(e) -> tuple:
    """(degree, coefficient) of a canonical leaf: t and t^n carry their
    degree, and any other leaf (t inside an atom argument included) is a
    degree-0 coefficient, as collect_powers would split it."""
    if e == _T:
        return 1, ex.ONE
    if isinstance(e, ex.Power) and e.base == _T:
        return e.exponent, ex.ONE
    return 0, e


def _merge_by_degree(pairs) -> dict:
    parts = {}
    for degree, c in pairs:
        parts.setdefault(degree, []).append(c)
    merged = {degree: ex.add_expanded(cs) for degree, cs in parts.items()}
    return {degree: c for degree, c in merged.items() if c != ex.ZERO}


def taylor_coefficient(e, k: int) -> ex.Expr:
    """k-th Taylor coefficient of e around t = 0: the k-fold derivative at
    zero divided by k! (the transform applied to a closed-form expression)."""
    d = ex.differentiate(e, TIME_VAR, k)
    return ex.simplify(
        ex.Product((ex.rational(1, math.factorial(k)), ex.substitute(d, {TIME_VAR: 0})))
    )


# ---------------------------------------------------------------------------
# Rendering


def fraction_str(value: Fraction) -> str:
    """Exact decimal string when the denominator divides a power of ten
    (3/10 -> '0.3'), plain fraction otherwise."""
    value = value if isinstance(value, Fraction) else Fraction(value)
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
    Zero renders as '0'."""
    if not 1 <= sig_digits <= MAX_SIG_DIGITS:
        raise ValueError(f"significant digits must be between 1 and {MAX_SIG_DIGITS}")
    if value == 0:
        return "0"
    raw = mpmath.nstr(mpmath.mpf(value), sig_digits + 8, strip_zeros=False)
    d = DecimalContext(prec=sig_digits).create_decimal(raw)
    mantissa, _, exponent = f"{d:E}".partition("E")
    sign = exponent[0]
    magnitude = exponent[1:].lstrip("0") or "0"
    return f"{mantissa}E{sign}{magnitude}"


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
        for tv, row in zip(tbl.grid.row.values, tbl.values)
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

    ``sweeps`` is a sequence of (variable, start, stop, step) with exact
    rational bounds, and slice values are exact rationals too (a float is a
    GridError); after applying the slice, exactly the sweep variables must
    remain unbound.  As in ``absolute_error_grid``, spectra, t-powers
    and atoms are evaluated once per distinct value for the whole sweep.
    """
    slice_bindings = dict(slice_bindings)
    fixed = dict(zip(slice_bindings, _as_fractions(slice_bindings.values())))
    sweep_specs = check_sweeps(sweeps)
    sweep_names = [name for name, *_ in sweep_specs]
    check_bindings(sol.spec.spatial_vars, sweep_names, fixed)
    axes = [((name,), rational_range(start, stop, step)) for name, start, stop, step in sweep_specs]
    rows = tuple(
        (*coords, series_value, exact_value, abs(series_value - exact_value))
        for coords, series_value, exact_value in _cells(sol, exact, axes, fixed, ctx)
    )
    return FigureData((*sweep_names, "series", "exact", "abs_error"), rows)

"""The cell kernel of error tables and figure data.

``cells`` is the one place where a cell is computed: it yields the series
value, the exact value and their absolute error at every cell of a
cartesian grid.  The two values are functions of a cell's axis indices,
``series_at`` and ``_exact_at``, and one rule, ``_per_axes``, decides what
is kept: a value that reads only some axes is computed once per distinct
index on those axes, and kept only when an axis it does not read varies,
so that its key recurs: the spectra per spatial point, the powers of t
per t, each subtree of the exact solution per index on the axes it reads.
Every value is bit-identical to evaluating its point alone.  The kernel
works on raw ``libmp`` values at the one precision in bits that its caller
passes, with the ``libmp`` that ``precision.load_libmp`` loads, and never
touches mpmath's global context.

Only ``table``, ``figure`` and ``demo`` evaluate cells, so ``analysis``
imports this module at the first evaluation, and the other commands do
not load it.  ``precision.eval_number`` is looked up at each call, so that
whoever rebinds it (a test, a tracer) sees every evaluation, however late
this module is imported.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import partial

from . import expr as ex
from . import precision
from .engine import SeriesSolution
from .errors import UnboundVariableError
from .parsing import TIME_VAR
from .precision import REPORT_PREC, PrecisionContext, is_exact, load_libmp, to_raw

__all__ = ["cells", "series_at"]

libmp = load_libmp()


def cells(sol: SeriesSolution, exact: ex.Expr, axes, fixed, ctx: PrecisionContext):
    """(coordinates, series value, exact value, absolute error) at every
    cell of the cartesian product of ``axes``, row-major.  ``axes`` is a
    sequence of (variables, values): a coordinate binds every variable of
    its axis, and ``fixed`` binds the others.  One ``series_at`` function
    and one simplified ``exact``, split once by ``_exact_at``, serve every
    cell and share one atom memo.  The values are raw mpf tuples at
    ``ctx.prec`` bits, the series as ``analysis.evaluate_series`` and the
    exact value as ``precision.eval_precise`` compute them at the cell's
    point; the error is |series - exact| rounded to REPORT_PREC bits."""
    prec = ctx.prec
    atoms = {}
    series = series_at(sol, axes, fixed, prec, atoms)
    exact_at = _exact_at(ex.simplify(exact), axes, fixed, prec, atoms)
    values = [values for _, values in axes]
    indices = [range(len(v)) for v in values]
    # A tuple built from an iterator is allocated long and shrunk, and once
    # freed it lands in the interpreter's free list of short tuples; one per
    # cell fills that list and raised peak memory on dense grids.
    for coords, index in zip(itertools.product(*values), itertools.product(*indices)):
        series_value, exact_value = series(index), to_raw(exact_at(index), prec)
        yield coords, series_value, exact_value, _abs_error(series_value, exact_value)


def _abs_error(series_value, exact_value):
    """|series - exact| of two raw values, rounded to REPORT_PREC bits, raw."""
    return libmp.mpf_abs(libmp.mpf_sub(series_value, exact_value, REPORT_PREC, "n"))


def _per_axes(axes, read, compute):
    """``compute``, a function of a cell's axis indices that reads only the
    axes in ``read``, memoized by their indices when an axis outside
    ``read`` varies; otherwise ``compute`` itself, since a memo whose key
    never recurs would only hold memory.  A memo lives as long as the
    function returned.  The functions are partials of module functions,
    so they refer to no object that refers back to them and are freed with
    the last cell, not by the cycle collector."""
    if not any(len(values) > 1 for a, (_, values) in enumerate(axes) if a not in read):
        return compute
    # One index, or a tuple of several; no tuple is built from an iterator
    # per cell (see cells).
    key = operator.itemgetter(*read) if read else _no_key
    return partial(_memoized, {}, key, compute)


def _memoized(memo, key, compute, index):
    k = key(index)
    value = memo.get(k)
    if value is None:
        value = memo[k] = compute(index)
    return value


def _no_key(index):
    return None


def _point(axes, fixed, read, index):
    """The bindings of the cell at ``index`` that a value reading the axes
    in ``read`` needs: ``fixed``, and every variable of those axes."""
    point = dict(fixed)
    for a in read:
        names, values = axes[a]
        point.update(dict.fromkeys(names, values[index[a]]))
    return point


def _reading(axes, names) -> list:
    """The indices, in order, of the axes that bind any of ``names``."""
    return [a for a, (bound, _) in enumerate(axes) if not names.isdisjoint(bound)]


def _exact_at(node, axes, fixed, prec, atoms):
    """A function of a cell's axis indices that returns
    ``eval_number(node, point, prec, atoms)`` at the cell's point.  A
    Product or Sum that reads several axes folds its children's values at
    the cell with ``precision.combine``, the rule ``eval_number`` itself
    applies to such a node, so every cell is bit-identical to
    ``eval_number`` of the whole tree.  Every subtree is kept by
    ``_per_axes``: ex1's exp(x*y), for one, once per (x, y) when t is swept
    too; ex2's exp(t + x), which reads both axes of its table, in no cell.
    """
    read = _reading(axes, ex.free_vars(node))
    if len(read) > 1 and isinstance(node, (ex.Product, ex.Sum)):
        children = node.factors if isinstance(node, ex.Product) else node.terms
        parts = [_exact_at(child, axes, fixed, prec, atoms) for child in children]
        return _per_axes(axes, read, partial(_combined, node, parts, prec))
    return _per_axes(axes, read, partial(_evaluated, node, axes, fixed, read, prec, atoms))


def _combined(node, parts, prec, index):
    return precision.combine(node, [part(index) for part in parts], prec)


def _evaluated(node, axes, fixed, read, prec, atoms, index):
    return precision.eval_number(node, _point(axes, fixed, read, index), prec, atoms)


def series_at(sol: SeriesSolution, axes, fixed, prec: int, atoms):
    """The truncated series sum(V_k(point) * t^k) of one solution as a
    function of a cell's axis indices (``axes`` and ``fixed`` as in
    ``cells``), which returns a raw mpf at ``prec`` bits.

    V_k depends only on the spatial point (the cell minus t), and t^k only
    on t, so each is computed per index on the axes it reads and kept by
    ``_per_axes``:

    - per spatial point, the spectra that ``eval_number`` returns exactly
      (the atom-free ones) as integer numerators over one common
      denominator L, and the others as raw mpf values;
    - per t = p/q, the integer weights p^k * q^(n-k) and q^n, where n is the
      highest exact k, and the powers t^k of the rounded spectra, converted
      by ``precision.to_raw``.

    A cell's exact part is then one integer dot product over L * q^n: the
    Fraction sum(V_k * t^k), converted by ``to_raw``.  Its rounded terms are
    summed in increasing k, and the two parts added and rounded once, with
    the libmp calls that mpf arithmetic makes, rounded to nearest at
    ``prec``.  So every result is bit-identical to evaluating its point
    alone (``tests/oracles.py::lone_series_value``).  Atom values are
    memoized per (kind, argument, prec) in ``atoms``, which ``cells``
    shares with the exact solution.  The memos live as long as the function
    returned: one grid, one figure or one ``analysis.evaluate_series`` call.
    """
    fixed = dict(fixed)
    timed = _reading(axes, {TIME_VAR})
    if not timed and TIME_VAR not in fixed:
        raise UnboundVariableError("the evaluation point must bind t")
    exact = [is_exact(v) for v in sol.spectra]
    exact_ks = [k for k, flag in enumerate(exact) if flag]
    rounded_ks = [k for k, flag in enumerate(exact) if not flag]
    spatial = [a for a, (names, _) in enumerate(axes) if set(names) - {TIME_VAR}]
    spectra = partial(_spectra_at, sol.spectra, exact_ks, rounded_ks, axes, fixed, spatial, prec, atoms)
    powers = partial(_t_powers, exact_ks, rounded_ks, axes, fixed, timed, prec)
    return partial(_series, _per_axes(axes, spatial, spectra), _per_axes(axes, timed, powers), prec)


def _series(terms_at, powers_at, prec, index):
    numerators, denominator, rounded = terms_at(index)
    weights, scale, powers = powers_at(index)
    mpf_add, mpf_mul = libmp.mpf_add, libmp.mpf_mul
    rounded_part = libmp.fzero
    for value, power in zip(rounded, powers):
        rounded_part = mpf_add(rounded_part, mpf_mul(value, power, prec, "n"), prec, "n")
    exact_part = Fraction(sum(map(operator.mul, numerators, weights)), denominator * scale)
    return mpf_add(rounded_part, to_raw(exact_part, prec), prec, "n")


def _spectra_at(spectra, exact_ks, rounded_ks, axes, fixed, read, prec, atoms, index):
    """(exact V_k numerators, their common denominator L, rounded V_k as raw
    mpf values) at the cell's spatial point."""
    point = _point(axes, fixed, read, index)
    values = [precision.eval_number(v, point, prec, atoms) for v in spectra]
    exact = [values[k] for k in exact_ks]
    denominator = math.lcm(*(value.denominator for value in exact))
    numerators = [value.numerator * (denominator // value.denominator) for value in exact]
    return numerators, denominator, [values[k] for k in rounded_ks]


def _t_powers(exact_ks, rounded_ks, axes, fixed, read, prec, index):
    """(the exact spectra's weights p^k * q^(n-k), q^n, the rounded
    spectra's t^k as raw mpf values) at the cell's t = p/q."""
    t = ex.as_fraction(_point(axes, fixed, read, index)[TIME_VAR])
    p, q, n = t.numerator, t.denominator, max(exact_ks, default=0)
    rounded = [to_raw(t**k, prec) for k in rounded_ks]
    return [p**k * q ** (n - k) for k in exact_ks], q**n, rounded

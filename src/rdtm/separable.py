"""The cell kernel of error tables and figure data.

``cells`` yields the series value and the exact value at every cell of a
cartesian grid.  Both are separable: ``SeriesEvaluator`` evaluates each
spectrum once per spatial point and each power of t once per t, and
``ExactSplit`` evaluates each subtree of the exact solution once per value
of the one axis it reads.  Every value is bit-identical to evaluating its
point alone.  The kernel works on raw ``libmp`` values at the one precision
in bits that its caller passes, with the ``libmp`` that
``precision.load_libmp`` loads, and never touches mpmath's global context.

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

from . import expr as ex
from . import precision
from .engine import SeriesSolution
from .errors import UnboundVariableError
from .parsing import TIME_VAR
from .precision import PrecisionContext, is_exact, load_libmp, to_raw

__all__ = ["SeriesEvaluator", "ExactSplit", "cells"]

libmp = load_libmp()


def cells(sol: SeriesSolution, exact: ex.Expr, axes, fixed, ctx: PrecisionContext):
    """(coordinates, series value, exact value) at every cell of the
    cartesian product of ``axes``, row-major.  ``axes`` is a sequence of
    (variables, values): a coordinate binds every variable of its axis, and
    ``fixed`` binds the others.  One simplified ``exact``, split once by
    ``ExactSplit``, and one SeriesEvaluator serve every cell.  Both values
    are raw mpf tuples at ``ctx.prec`` bits, the series as
    ``analysis.evaluate_series`` and the exact value as
    ``precision.eval_precise`` compute them at the cell's point."""
    prec = ctx.prec
    exact = ex.simplify(exact)
    evaluator = SeriesEvaluator(sol, axes, fixed, prec)
    exact_at = ExactSplit(axes, fixed, prec, evaluator.atoms).split(exact)
    values = [values for _, values in axes]
    indices = [range(len(v)) for v in values]
    # A tuple built from an iterator is allocated long and shrunk, and once
    # freed it lands in the interpreter's free list of short tuples; one per
    # cell fills that list and raised peak memory on dense grids.
    for coords, index in zip(itertools.product(*values), itertools.product(*indices)):
        yield coords, evaluator.at(index), to_raw(exact_at(index), prec)


class ExactSplit:
    """The exact solution at the cells of ``cells``: ``split(exact)`` is a
    function of a cell's axis indices that returns
    ``eval_number(exact, point, prec)`` there.

    The canonical tree is split once, by the axes its subtrees read.  A
    subtree whose free variables all lie in one axis, or in ``fixed``, is
    evaluated by ``eval_number`` once per value of that axis (once, for none).
    A Product or Sum that reads several axes splits each of its children
    and folds their values at the cell with ``precision.combine``, the rule
    ``eval_number`` itself applies to such a node.  Any other node that
    reads several axes, such as exp(x*t), is evaluated in every cell.  So
    each value is the one that ``eval_number`` returns for its subtree at
    the cell's point, with ``eval_number``'s operations in its order, and
    every cell is bit-identical to ``eval_number`` of the whole tree.  A
    value is kept only when another axis varies, so that its key recurs.

    The functions that ``split`` returns refer to no function that refers
    back to them, so the memos are freed with the last cell, not by the
    cycle collector.
    """

    def __init__(self, axes, fixed, prec, atoms):
        self.axes, self.fixed, self.prec, self.atoms = axes, fixed, prec, atoms
        self.owner = {name: a for a, (names, _) in enumerate(axes) for name in names}
        self.lengths = [len(values) for _, values in axes]

    def split(self, node):
        read = sorted({self.owner[name] for name in ex.free_vars(node) if name in self.owner})
        axes, fixed, prec, atoms = self.axes, self.fixed, self.prec, self.atoms
        if len(read) > 1 and isinstance(node, (ex.Product, ex.Sum)):
            children = node.factors if isinstance(node, ex.Product) else node.terms
            parts = [self.split(child) for child in children]
            return lambda index: precision.combine(node, [part(index) for part in parts], prec)

        def evaluate(index):
            point = dict(fixed)
            for a in read:
                names, values = axes[a]
                point.update(dict.fromkeys(names, values[index[a]]))
            return precision.eval_number(node, point, prec, atoms)

        axis = read[0] if read else None
        if len(read) > 1 or not any(n > 1 for a, n in enumerate(self.lengths) if a != axis):
            return evaluate
        memo = {}

        def memoized(index):
            key = None if axis is None else index[axis]
            value = memo.get(key)
            if value is None:
                value = memo[key] = evaluate(index)
            return value

        return memoized


class SeriesEvaluator:
    """Truncated series sum(V_k(point) * t^k) of one solution at the cells
    of a cartesian grid, as raw mpf values at ``prec`` bits.

    ``axes`` is a sequence of (variables, values), as in ``cells``, and
    ``fixed`` binds every other variable; ``at(index)`` is the series at the
    cell whose coordinate on axis a is values[index[a]].  V_k depends only
    on the spatial point (the cell minus t), and t^k only on t, so each is
    computed once per distinct value:

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
    memoized per (kind, argument, prec) in ``atoms``, which the caller
    shares with the exact solution.

    Spectrum values are kept only when an axis of t alone varies, so that
    it revisits every spatial point, and t values only when an axis without
    t varies; a memo whose key never recurs would only hold memory.  The
    memos are keyed by axis index and live as long as the evaluator: one
    grid, one figure or one ``analysis.evaluate_series`` call.
    """

    def __init__(self, sol: SeriesSolution, axes, fixed, prec: int):
        fixed = dict(fixed)
        self.spectra = sol.spectra
        self.prec = prec
        self.atoms = {}
        self._terms = {}
        self._powers = {}
        self._axes = axes
        self._fixed = {name: value for name, value in fixed.items() if name != TIME_VAR}
        exact = [is_exact(v) for v in sol.spectra]
        self._exact = [k for k, flag in enumerate(exact) if flag]
        self._rounded = [k for k, flag in enumerate(exact) if not flag]
        self._top = max(self._exact, default=0)
        self._t_axis = next((a for a, (names, _) in enumerate(axes) if TIME_VAR in names), None)
        if self._t_axis is None:
            if TIME_VAR not in fixed:
                raise UnboundVariableError("the evaluation point must bind t")
            self._t = ex.as_fraction(fixed[TIME_VAR])
        self._spatial_axes = [a for a, (names, _) in enumerate(axes) if set(names) - {TIME_VAR}]
        # The index on the one spatial axis, or a tuple of those on several;
        # no tuple is built from an iterator per cell (see cells).
        self._spatial_key = operator.itemgetter(*self._spatial_axes) if self._spatial_axes else _no_key
        varying = [set(names) for names, values in axes if len(values) > 1]
        self._keep_terms = {TIME_VAR} in varying
        self._keep_powers = any(TIME_VAR not in names for names in varying)

    def at(self, index):
        numerators, denominator, rounded = self._terms_at(index)
        weights, scale, powers = self._powers_at(index)
        prec = self.prec
        mpf_add, mpf_mul = libmp.mpf_add, libmp.mpf_mul
        rounded_part = libmp.fzero
        for value, power in zip(rounded, powers):
            rounded_part = mpf_add(rounded_part, mpf_mul(value, power, prec, "n"), prec, "n")
        exact_part = Fraction(sum(map(operator.mul, numerators, weights)), denominator * scale)
        return mpf_add(rounded_part, to_raw(exact_part, prec), prec, "n")

    def _terms_at(self, index):
        """(exact V_k numerators, their common denominator L, rounded V_k
        as raw mpf values) at the cell's spatial point."""
        key = self._spatial_key(index)
        terms = self._terms.get(key)
        if terms is None:
            point = dict(self._fixed)
            for a in self._spatial_axes:
                names, values = self._axes[a]
                point.update((name, values[index[a]]) for name in names if name != TIME_VAR)
            values = [precision.eval_number(v, point, self.prec, self.atoms) for v in self.spectra]
            exact = [values[k] for k in self._exact]
            denominator = math.lcm(*(value.denominator for value in exact))
            numerators = [value.numerator * (denominator // value.denominator) for value in exact]
            terms = (numerators, denominator, [values[k] for k in self._rounded])
            if self._keep_terms:
                self._terms[key] = terms
        return terms

    def _powers_at(self, index):
        """(the exact spectra's weights p^k * q^(n-k), q^n, the rounded
        spectra's t^k as raw mpf values) at the cell's t = p/q."""
        key = None if self._t_axis is None else index[self._t_axis]
        powers = self._powers.get(key)
        if powers is None:
            t = self._t if key is None else self._axes[self._t_axis][1][key]
            p, q, n = t.numerator, t.denominator, self._top
            rounded = [to_raw(t**k, self.prec) for k in self._rounded]
            powers = ([p**k * q ** (n - k) for k in self._exact], q**n, rounded)
            if self._keep_powers:
                self._powers[key] = powers
        return powers


def _no_key(index):
    return None

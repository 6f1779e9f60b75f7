"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: series oracles sum exact
rational Taylor terms instead of calling mpmath, the convolution oracle
walks every composition with nested loops instead of folding pairwise, the
residual oracle expands the whole residual instead of truncating it, the
series oracle multiplies out and merges every V_k * t^k instead of sorting
distinct terms once, the per-point series oracle evaluates every
spectrum afresh at every point, and the rendering oracle prints through
``mpmath.nstr`` and ``decimal`` instead of rounding a digit string as an
integer.
"""

from __future__ import annotations

from decimal import Context as DecimalContext
from fractions import Fraction

import mpmath

from rdtm import expr as ex
from rdtm.precision import PrecisionContext, eval_number


def exp_oracle(x: Fraction, digits: int = 60) -> Fraction:
    """exp(x) as a rational with error below 10**-digits (series summation)."""
    x = Fraction(x)
    bound = Fraction(1, 10**digits)
    total = Fraction(0)
    term = Fraction(1)
    n = 0
    while True:
        total += term
        n += 1
        term *= x / n
        if abs(term) < bound and n > abs(x) * 2 + 4:
            return total


def sin_oracle(x: Fraction, digits: int = 60) -> Fraction:
    x = Fraction(x)
    bound = Fraction(1, 10**digits)
    total = Fraction(0)
    term = x
    n = 1
    while abs(term) >= bound:
        total += term
        term *= -x * x / ((n + 1) * (n + 2))
        n += 2
    return total


def cos_oracle(x: Fraction, digits: int = 60) -> Fraction:
    x = Fraction(x)
    bound = Fraction(1, 10**digits)
    total = Fraction(0)
    term = Fraction(1)
    n = 0
    while abs(term) >= bound:
        total += term
        term *= -x * x / ((n + 1) * (n + 2))
        n += 2
    return total


def sin_partial_sum(t: Fraction, nonzero_terms: int) -> Fraction:
    """Truncated Maclaurin sine: sum of the first `nonzero_terms` odd terms."""
    t = Fraction(t)
    total = Fraction(0)
    term = t
    n = 1
    for _ in range(nonzero_terms):
        total += term
        term *= -t * t / ((n + 1) * (n + 2))
        n += 2
    return total


def exp_partial_sum(t: Fraction, terms: int) -> Fraction:
    t = Fraction(t)
    total = Fraction(0)
    term = Fraction(1)
    for n in range(terms):
        total += term
        term *= t / (n + 1)
    return total


def nested_convolution(sequences, k: int):
    """Brute-force nested-sum convolution over all compositions of k.

    Works on anything with * and +; exponential in the number of sequences,
    which is the point: it is the independent check for the pairwise fold.
    """

    def recurse(depth, remaining, partial):
        if depth == len(sequences) - 1:
            return partial * sequences[depth][remaining]
        total = None
        for r in range(remaining + 1):
            value = recurse(depth + 1, remaining - r, partial * sequences[depth][r])
            total = value if total is None else total + value
        return total

    return recurse(0, k, Fraction(1))


def series_fold(sol):
    """Reference for ``SeriesSolution.to_expr``: every spectrum multiplied
    by its power of t with ``mul_expanded``, and the products merged with
    ``add_expanded``."""
    t = ex.Var("t")
    return ex.add_expanded(
        ex.mul_expanded(v, ex.simplify(ex.Power(t, k))) for k, v in enumerate(sol.spectra)
    )


def substitute_derivatives(e, source):
    """e with every derivative symbol replaced by that derivative of source,
    each taken once by ``expr.differentiate`` on the tree."""
    images = {}

    def walk(node):
        if isinstance(node, ex.DerivSym):
            if node.orders not in images:
                value = source
                for var, order in node.orders:
                    value = ex.differentiate(value, var, order)
                images[node.orders] = value
            return images[node.orders]
        if isinstance(node, ex.Power):
            return ex.Power(walk(node.base), node.exponent)
        if isinstance(node, ex.Product):
            return ex.Product(tuple(map(walk, node.factors)))
        if isinstance(node, ex.Sum):
            return ex.Sum(tuple(map(walk, node.terms)))
        return node

    return ex.simplify(walk(ex.simplify(e)))


def full_expansion_residual(spec, sol) -> dict:
    """Reference residual for ``analysis.residual_order_check``: u_tt - rhs at
    the truncated series, expanded out to its whole t-degree, as
    {degree: coefficient}."""
    series = sol.to_expr()
    u_tt = ex.differentiate(series, "t", 2)
    residual = ex.Sum((u_tt, ex.Product((ex.rational(-1), substitute_derivatives(spec.rhs, series)))))
    return ex.collect_powers(residual, "t")


def first_nonvanishing_degree(coefficients, order) -> int:
    """The vanishing order that ``residual_order_check`` must report for these
    residual coefficients: the lowest degree whose coefficient is nonzero,
    else the series order."""
    for degree in sorted(coefficients):
        if coefficients[degree] != ex.ZERO:
            return degree
    return order


def lone_series_value(sol, point, ctx=PrecisionContext()):
    """Reference for the separable evaluation in ``analysis``: the truncated
    series at one point with nothing reused from another point.  Every
    spectrum and every t-power is computed here; rounded terms are added in
    increasing k and the exact ones summed as Fractions, then the two parts
    are added and rounded once, which fixes the result bits."""
    bindings = dict(point)
    t = Fraction(bindings.pop("t"))
    with mpmath.workdps(ctx.working_dps):
        exact_part = Fraction(0)
        rounded_part = mpmath.mpf(0)
        for k, v in enumerate(sol.spectra):
            value = eval_number(v, bindings, mpmath.mp.prec)
            if isinstance(value, Fraction):
                exact_part += value * t**k
            else:
                rounded_part += mpmath.mp.make_mpf(value) * _mpf(t**k)
        return +(rounded_part + _mpf(exact_part))


def _mpf(value: Fraction):
    """mpf(numerator) / mpf(denominator) at the current precision, by
    mpmath's own operations rather than rdtm's conversion."""
    return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)


def nstr_scientific(value, sig_digits: int) -> str:
    """Reference for ``analysis.format_scientific``: the value rounded to
    nearest at 53 bits, printed by ``mpmath.nstr`` with eight digits more
    than asked, and that string rounded to ``sig_digits`` by ``decimal``
    (half to even)."""
    if value == 0:
        return "0"
    raw = mpmath.nstr(mpmath.mpf(value, prec=53, rounding="n"), sig_digits + 8, strip_zeros=False)
    d = DecimalContext(prec=sig_digits).create_decimal(raw)
    mantissa, _, exponent = f"{d:E}".partition("E")
    sign = exponent[0]
    magnitude = exponent[1:].lstrip("0") or "0"
    return f"{mantissa}E{sign}{magnitude}"

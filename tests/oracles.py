"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: series oracles sum exact
rational Taylor terms instead of calling mpmath, the convolution oracle
walks every composition with nested loops instead of folding pairwise, the
residual oracle expands the whole residual instead of truncating it, the
series oracles multiply out and merge every V_k * t^k, or insert t^k into
tree terms, instead of sorting packed keys once, the packed-to-tree oracle
sorts tree factors and terms by their node keys instead of by packed keys of
ints, the residual coefficients are read off the expanded residual tree by
their power of t, the per-point series oracle evaluates every
spectrum afresh at every point, and the rendering oracle prints through
``mpmath.nstr`` and ``decimal`` instead of rounding a digit string as an
integer.
"""

from __future__ import annotations

import bisect
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


def monomial(coeff, powers):
    """Canonical term coeff * prod(base^n) from nonzero coeff and (base, n)
    pairs of distinct canonical bases with n >= 1, exp only with n = 1: the
    factors sorted by their node keys."""
    factors = [base if n == 1 else ex.Power(base, n) for base, n in powers]
    factors.sort(key=ex._factor_key)
    return ex.build_term(coeff, tuple(factors))


def distinct_sum(terms):
    """Canonical sum of canonical terms (nonzero, no Sum among them) whose
    monomials are pairwise distinct: one sort by the canonical term order of
    their node keys and no merging.  ``add_expanded`` of the same terms
    gives the same tree."""
    ordered = sorted(terms, key=lambda term: ex._term_key(ex.split_term(term)[1]))
    if not ordered:
        return ex.ZERO
    return ordered[0] if len(ordered) == 1 else ex.Sum(tuple(ordered))


def times_new_factor(term, factor):
    """Canonical term times a canonical factor (not exp, and not a Rational)
    whose base none of the term's factors has: the factor is inserted at its
    canonical position, and nothing is merged or sorted again.  A term that
    has the base already is a ValueError."""
    coeff, factors = ex.split_term(term)
    key = ex._factor_key(factor)
    at = bisect.bisect(factors, key, key=ex._factor_key)
    # factors of one base would sort next to each other
    if any(ex._factor_key(f)[0] == key[0] for f in factors[max(at - 1, 0):at + 1]):
        raise ValueError(f"{ex.to_text(term)} already has a factor of the base of {ex.to_text(factor)}")
    return ex.build_term(coeff, (*factors[:at], factor, *factors[at:]))


def packed_to_expr(packing, p):
    """Reference for ``Packing.to_expr``: each term of the packed
    polynomial p built with ``monomial`` from its fields' powers and its exp
    factor, and the terms summed with ``distinct_sum``."""
    terms = []
    for i, group in p.groups.items():
        exp_factor = [(ex.Atom("exp", packing.exp_args[i]), 1)] if i else []
        for key, c in group.items():
            powers = [(base, n) for base, shift, mask in packing.fields if (n := (key >> shift) & mask)]
            terms.append(monomial(Fraction(c, p.den), powers + exp_factor))
    return distinct_sum(terms)


def series_insert(sol):
    """Reference for ``SeriesSolution.to_expr`` that sorts trees: t^k put
    into every term of V_k with ``times_new_factor``, and all the terms
    summed with ``distinct_sum``."""
    t = ex.Var("t")
    terms = ex.addends(sol.spectra[0])
    for k, v in enumerate(sol.spectra[1:], 1):
        power = t if k == 1 else ex.Power(t, k)
        terms.extend(times_new_factor(term, power) for term in ex.addends(v))
    return distinct_sum(terms)


def collect_powers(e, var) -> dict:
    """Expanded e grouped by the power of var: {degree: coefficient Expr}.
    Occurrences of var inside atom arguments are not collected; callers that
    need a clean split must keep var out of atom arguments."""
    name = var if isinstance(var, str) else var.name
    grouped = {}
    for term in ex.addends(ex.expand(e)):
        coeff, factors = ex.split_term(term)
        degree = 0
        rest = []
        for f in factors:
            if isinstance(f, ex.Var) and f.name == name:
                degree = 1
            elif isinstance(f, ex.Power) and isinstance(f.base, ex.Var) and f.base.name == name:
                degree = f.exponent
            else:
                rest.append(f)
        grouped.setdefault(degree, []).append(ex.build_term(coeff, tuple(rest)))
    return {degree: ex.add_expanded(parts) for degree, parts in sorted(grouped.items())}


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
    series = series_insert(sol)
    u_tt = ex.differentiate(series, "t", 2)
    residual = ex.Sum((u_tt, ex.Product((ex.rational(-1), substitute_derivatives(spec.rhs, series)))))
    return collect_powers(residual, "t")


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

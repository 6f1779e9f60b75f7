"""Packed sparse polynomials: the arithmetic of the recurrence and of the
residual check.

A canonical expanded expression is a sum of monomials, each a rational
coefficient times powers of variables and of sin/cos atoms, times at most one
exp atom (a product merges exp factors into exp of the summed argument).  Its
packed form is a ``Poly``: integer numerators ``{exp id: {packed exponent
int: numerator}}`` over one positive denominator ``den``, the content and
primitive part of Geddes, Czapor & Labahn, *Algorithms for Computer Algebra*
(1992), ch. 2.  The packed int holds the power of every variable and of every
sin/cos atom, one bit field each, so the product of two monomials is one
integer addition (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007), and the exp id
stands for the argument of the exp factor, 0 for none.

Every result is primitive: ``settled`` leaves no zero numerator and no empty
exp group, and divides den and the numerators by their gcd, so equal
polynomials are equal Polys.  An accumulator is brought to the lcm of its
denominator and that of what is added into it, after which products and sums
are of plain ints; it is made primitive once, when it is settled.  Fractions
appear only at the boundary with trees: ``from_expr`` packs a canonical
tree, reading each coefficient's numerator and denominator, and ``tree``
builds one, one Fraction per term.  ``terms`` reads a packed polynomial's
terms back as int numerators over its ``den``, which is all a printer
needs.

The canonical term order is computed from the packed keys.  Every base a
term can have (the fields, the exp arguments so far, and t) is ranked once
in canonical factor order (``expr.factor_order``), and a term's sort key is
a flat tuple of ints: its degree, then (rank, exponent) per factor.  So
``to_expr`` sorts the terms once and builds each term with its factors
already in order, and a caller that puts t^k into the terms of several
polynomials, as the series does, sorts all of them by the same keys.

A Packing fixes the fields for one computation, from its inputs: one per
variable other than t, and one per sin and one per cos of every atom
argument.  Products and derivatives never create a new sin/cos argument, so
these fields serve throughout; exp arguments, which products add up, get ids
as they appear.  Every field is wide enough for 2^15 times the largest
exponent in the inputs, and its top bit is a guard that no stored exponent
sets: adding two keys then never carries into the next field, and a result
that sets a guard bit is refused.  t gets no field, only a rank in the term
order: a caller that needs powers of t, as the residual check does, keeps
one Poly per t-degree.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import expr as ex
from .errors import UnsupportedExpressionError
from .parsing import TIME_VAR

__all__ = ["Packing", "Poly"]

# Bits a field has beyond those of the largest exponent in the inputs; the
# last of them is the guard bit.
HEADROOM_BITS = 16

_PARTNER = {"sin": ("cos", 1), "cos": ("sin", -1)}  # d sin(a) = cos(a) da, d cos(a) = -sin(a) da


class Poly:
    """sum(groups[i][key] * (monomial of key) * exp(argument i)) / den, with
    int numerators and den > 0; primitive once ``Packing.settled``."""

    __slots__ = ("den", "groups")

    def __init__(self, den=1, groups=None):
        self.den = den
        self.groups = {} if groups is None else groups

    def __eq__(self, other):
        return isinstance(other, Poly) and self.den == other.den and self.groups == other.groups

    __hash__ = None

    def __repr__(self):
        return f"Poly({self.den!r}, {self.groups!r})"


def _rescale(p, den) -> None:
    """Bring p to the denominator den, a multiple of p.den, in place."""
    if den != p.den:
        factor = den // p.den
        for group in p.groups.values():
            for key in group:
                group[key] *= factor
        p.den = den


class Packing:
    """Fields, exp-argument ids and derivative tables for polynomials built
    from ``inputs`` (canonical trees)."""

    def __init__(self, inputs):
        inputs = tuple(inputs)
        nodes = [node for e in inputs for node in ex.subtrees(e)]
        largest = max((node.exponent for node in nodes if isinstance(node, ex.Power)), default=1)
        names = sorted({node.name for node in nodes if isinstance(node, ex.Var)} - {TIME_VAR})
        bases = [ex.Var(name) for name in names]
        for node in nodes:
            if isinstance(node, ex.Atom) and node.kind in _PARTNER and ex.Atom("sin", node.argument) not in bases:
                bases += [ex.Atom("sin", node.argument), ex.Atom("cos", node.argument)]
        self.width = width = largest.bit_length() + HEADROOM_BITS
        self.guard = sum(1 << (width * f + width - 1) for f in range(len(bases)))
        self.fields = [(base, width * f, (1 << width) - 1) for f, base in enumerate(bases)]
        self.index = {base: (shift, mask) for base, shift, mask in self.fields}
        self.exp_args = [ex.ZERO]
        self.exp_ids = {ex.ZERO: 0}
        self.exp_sums = {}
        self.chains = {}
        self.argument_derivatives = {}
        self.ranked = None
        self.made_factors = {}

    # -- boundary -----------------------------------------------------------

    def from_expr(self, e) -> Poly:
        """The canonical expanded tree e packed, in one pass over its terms:
        each factor adds its power to the term's key or names its exp
        argument, and the coefficients are put over one denominator."""
        terms = []
        for term in ex.addends(e):
            coeff, factors = ex.split_term(term)
            key = i = 0
            for f in factors:
                if isinstance(f, ex.Atom) and f.kind == "exp":
                    i = self._exp_id(f.argument)
                    continue
                base, n = (f.base, f.exponent) if isinstance(f, ex.Power) else (f, 1)
                field = self.index.get(base)
                if field is None:
                    raise UnsupportedExpressionError(f"cannot pack {ex.to_text(f)}: expected an expanded tree")
                key += n << field[0]
            terms.append((i, key, coeff))
        den = math.lcm(*(coeff.denominator for *_, coeff in terms))
        groups = {}
        for i, key, coeff in terms:
            group = groups.setdefault(i, {})
            group[key] = group.get(key, 0) + coeff.numerator * (den // coeff.denominator)
        return self.settled(Poly(den, groups))

    def terms(self, p, k=0):
        """(key, numerator) of every term of p * t^k, in no fixed order.

        The numerator is an int over ``p.den``.  The key is a flat tuple of
        ints: the term's degree in the variables, t included, then a (rank,
        exponent) pair per factor in canonical factor order, a base's rank
        being its place in that order (``factors`` gives the factors back).
        Sorting by the keys is the canonical term order of ``expr``, and so
        is sorting by the keys of the terms of several polynomials, each
        times its own power of t: that is the order of a series."""
        _, fields, exp_ranks, t_rank = self._ranking()
        if k:
            fields = [*fields, (t_rank, 0, 0, k, True)]
        for i, group in p.groups.items():
            layout = sorted([*fields, (exp_ranks[i], 0, 0, 1, False)] if i else fields)
            for key, c in group.items():
                flat = [0]
                for rank, shift, mask, fixed, is_var in layout:
                    if n := fixed or key >> shift & mask:
                        flat += rank, n
                        if is_var:
                            flat[0] += n
                yield tuple(flat), c

    def factors(self, key) -> list:
        """The factors of a ``terms`` key, in key order, one per (rank,
        exponent) pair."""
        return [self.factor(pair) for pair in zip(key[1::2], key[2::2])]

    def factor(self, pair) -> ex.Expr:
        """The factor of one (rank, exponent) pair of a ``terms`` key, made
        once per ranking."""
        bases = self._ranking()[0]
        factor = self.made_factors.get(pair)
        if factor is None:
            rank, n = pair
            factor = self.made_factors[pair] = bases[rank] if n == 1 else ex.Power(bases[rank], n)
        return factor

    def to_expr(self, p) -> ex.Expr:
        """The canonical expanded tree of p."""
        return self.tree([(p, 0)])

    def tree(self, powers) -> ex.Expr:
        """The canonical sum of p * t^k over the (p, k) pairs of ``powers``,
        whose terms have distinct keys: the terms in the order of their
        keys, each built with its factors in key order."""
        terms = sorted((key, c, p.den) for p, k in powers for key, c in self.terms(p, k))
        built = [ex.build_term(Fraction(c, den), tuple(self.factors(key))) for key, c, den in terms]
        if len(built) == 1:
            return built[0]
        return ex.Sum(tuple(built)) if built else ex.ZERO

    def _ranking(self) -> tuple:
        """(bases by rank, a (rank, shift, mask, 0, is a variable) entry per
        field, the rank of each exp id, the rank of t): the canonical factor
        order of every base a term can have, ranked once for the exp ids so
        far; ``factors`` makes its factors again for a new ranking."""
        if self.ranked is None or len(self.ranked[2]) != len(self.exp_args):
            exps = [ex.Atom("exp", argument) for argument in self.exp_args[1:]]
            bases = [base for base, *_ in self.fields] + exps + [ex.Var(TIME_VAR)]
            order = ex.factor_order(bases)
            rank = {index: r for r, index in enumerate(order)}
            fields = [
                (rank[f], shift, mask, 0, isinstance(base, ex.Var))
                for f, (base, shift, mask) in enumerate(self.fields)
            ]
            exp_ranks = [None] + [rank[len(self.fields) + j] for j in range(len(exps))]
            self.ranked = [bases[index] for index in order], fields, exp_ranks, rank[len(bases) - 1]
            self.made_factors = {}
        return self.ranked

    # -- arithmetic ---------------------------------------------------------

    def add_into(self, out, p) -> None:
        """out += p, leaving zero numerators for ``settled`` to drop."""
        den = math.lcm(out.den, p.den)
        _rescale(out, den)
        factor = den // p.den
        for i, group in p.groups.items():
            dest = out.groups.setdefault(i, {})
            for key, c in group.items():
                c *= factor
                dest[key] = dest[key] + c if key in dest else c

    def mul_into(self, out, a, b) -> None:
        """out += a*b, leaving zero numerators for ``settled``."""
        den = math.lcm(out.den, a.den * b.den)
        _rescale(out, den)
        factor = den // (a.den * b.den)
        for i, group_a in a.groups.items():
            for j, group_b in b.groups.items():
                dest = out.groups.setdefault(self._exp_sum(i, j), {})
                for ka, ca in group_a.items():
                    ca *= factor
                    for kb, cb in group_b.items():
                        key = ka + kb
                        dest[key] = dest[key] + ca * cb if key in dest else ca * cb

    def mul(self, a, b) -> Poly:
        out = Poly()
        self.mul_into(out, a, b)
        return self.settled(out)

    def diff(self, p, orders) -> Poly:
        """p differentiated by an order map ((var, order), ...)."""
        for var, order in orders:
            for _ in range(order):
                p = self._diff1(p, var)
        return p

    def _diff1(self, p, var) -> Poly:
        """p differentiated by var, over den * scale: scale is the lcm of the
        denominators of the argument derivatives that can occur."""
        chain = self._chain(var)
        dexps = {i: self._argument_derivative(self.exp_args[i], var) for i in p.groups if i}
        scale = math.lcm(*(den for *_, den, _ in chain), *(den for den, _ in dexps.values()))
        chain = [
            (shift, mask, step, [(k, d * sign * (scale // den)) for k, d in darg.items()])
            for shift, mask, step, sign, den, darg in chain
        ]
        groups = {}
        for i, group in p.groups.items():
            dest = groups[i] = self._power_rule(group, var, scale)
            den, darg = dexps.get(i, (1, {}))
            dexp = [(k, d * (scale // den)) for k, d in darg.items()]
            for key, c in group.items():
                terms = [(key + k, c * d) for k, d in dexp]
                for shift, mask, step, dnums in chain:
                    if n := (key >> shift) & mask:
                        terms.extend((key + step + k, c * n * d) for k, d in dnums)
                for k, d in terms:
                    dest[k] = dest[k] + d if k in dest else d
        return self.settled(Poly(p.den * scale, groups))

    def _power_rule(self, group, var, scale=1) -> dict:
        """{key: numerator} of the derivative of group's powers of var, with
        every atom held constant, times scale."""
        if ex.Var(var) not in self.index:
            return {}
        shift, mask = self.index[ex.Var(var)]
        unit = 1 << shift
        return {key - unit: c * n * scale for key, c in group.items() if (n := (key >> shift) & mask)}

    def settled(self, p) -> Poly:
        """p in primitive form: no zero numerator, no empty exp group, and
        den and the numerators divided by their gcd.  An exponent that
        reached its field's guard bit is refused."""
        groups = {}
        for i, group in p.groups.items():
            kept = {key: c for key, c in group.items() if c}
            if kept:
                groups[i] = kept
        content = math.gcd(p.den, *(c for group in groups.values() for c in group.values()))
        if content != 1:
            groups = {i: {key: c // content for key, c in group.items()} for i, group in groups.items()}
        for group in groups.values():
            for key in group:
                if key & self.guard:
                    top = 1 << (self.width - 1)
                    base = next(base for base, shift, mask in self.fields if (key >> shift) & mask >= top)
                    raise UnsupportedExpressionError(
                        f"an exponent of {ex.to_text(base)} reached {top}, "
                        "the limit of the packed form for these inputs"
                    )
        return Poly(p.den // content, groups)

    # -- exp arguments and derivative tables --------------------------------

    def _exp_id(self, argument) -> int:
        if argument not in self.exp_ids:
            self.exp_ids[argument] = len(self.exp_args)
            self.exp_args.append(argument)
        return self.exp_ids[argument]

    def _exp_sum(self, i, j) -> int:
        """Id of exp(a_i) * exp(a_j) = exp(a_i + a_j)."""
        if not i or not j:
            return i or j
        pair = (i, j) if i < j else (j, i)
        if pair not in self.exp_sums:
            self.exp_sums[pair] = self._exp_id(ex.add_expanded((self.exp_args[i], self.exp_args[j])))
        return self.exp_sums[pair]

    def _argument_derivative(self, argument, var) -> tuple:
        """(den, {key: numerator}) of the derivative of an atom argument,
        which is a polynomial, in primitive form."""
        if (argument, var) not in self.argument_derivatives:
            packed = self.from_expr(argument)
            d = self.settled(Poly(packed.den, {0: self._power_rule(packed.groups.get(0, {}), var)}))
            self.argument_derivatives[argument, var] = d.den, d.groups.get(0, {})
        return self.argument_derivatives[argument, var]

    def _chain(self, var) -> list:
        """(shift, mask, key step, sign, den, argument derivative numerators)
        for every sin/cos field whose argument depends on var: the derivative
        of atom^n is sign * n * atom^(n-1) * partner * d(argument)."""
        if var not in self.chains:
            self.chains[var] = []
            for base, shift, mask in self.fields:
                if isinstance(base, ex.Atom):
                    kind, sign = _PARTNER[base.kind]
                    den, darg = self._argument_derivative(base.argument, var)
                    if darg:
                        step = (1 << self.index[ex.Atom(kind, base.argument)][0]) - (1 << shift)
                        self.chains[var].append((shift, mask, step, sign, den, darg))
        return self.chains[var]

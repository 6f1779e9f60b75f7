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
appear only at the boundary: ``from_expr`` packs a canonical tree, reading
each coefficient's numerator and denominator, and ``to_expr`` builds the
canonical expanded tree of a packed polynomial, one Fraction per term.

A Packing fixes the fields for one computation, from its inputs: one per
variable other than t, and one per sin and one per cos of every atom
argument.  Products and derivatives never create a new sin/cos argument, so
these fields serve throughout; exp arguments, which products add up, get ids
as they appear.  Every field is wide enough for 2^15 times the largest
exponent in the inputs, and its top bit is a guard that no stored exponent
sets: adding two keys then never carries into the next field, and a result
that sets a guard bit is refused.  t gets no field: a caller that needs
powers of t, as the residual check does, keeps one Poly per t-degree.
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

    def to_expr(self, p) -> ex.Expr:
        """The canonical expanded tree of p."""
        terms = []
        for i, group in p.groups.items():
            exp_factor = [(ex.Atom("exp", self.exp_args[i]), 1)] if i else []
            for key, c in group.items():
                powers = [(base, n) for base, shift, mask in self.fields if (n := (key >> shift) & mask)]
                terms.append(ex.monomial(Fraction(c, p.den), powers + exp_factor))
        return ex.distinct_sum(terms)

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

"""Packed sparse polynomials: the arithmetic of the recurrence and of the
residual check.

A canonical expanded expression is a sum of monomials, each a rational
coefficient times powers of variables and of sin/cos atoms, times at most one
exp atom (a product merges exp factors into exp of the summed argument).  Its
packed form is a dict ``{exp id: {packed exponent int: Fraction}}``: the int
holds the power of every variable and of every sin/cos atom, one bit field
each, so the product of two monomials is one integer addition (Monagan &
Pearce, "Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007), and the exp id stands for the argument of the exp
factor, 0 for none.  ``Expr`` trees appear only at the boundary:
``from_expr`` packs a canonical tree and ``to_expr`` builds the canonical
expanded tree of a packed polynomial.

A Packing fixes the fields for one computation, from its inputs: one per
variable, one per sin and one per cos of every atom argument, and t in the
highest field.  Products and derivatives never create a new sin/cos
argument, so these fields serve throughout; exp arguments, which products
add up, get ids as they appear.  Every field below t's is wide enough for
2^15 times the largest exponent in the inputs, and its top bit is a guard
that no stored exponent sets: adding two keys then never carries into the
next field, and a result that sets a guard bit is refused.  t's field is the
highest, so it is unbounded, a key's t-degree is ``key >> t_shift``, and a
product truncated below t^n keeps the pairs whose key sum is below
``n << t_shift``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import expr as ex
from .errors import UnsupportedExpressionError
from .parsing import TIME_VAR

__all__ = ["Packing"]

# Bits a field has beyond those of the largest exponent in the inputs; the
# last of them is the guard bit.
HEADROOM_BITS = 16

_PARTNER = {"sin": ("cos", 1), "cos": ("sin", -1)}  # d sin(a) = cos(a) da, d cos(a) = -sin(a) da


class Packing:
    """Fields, exp-argument ids and derivative tables for polynomials built
    from ``inputs`` (canonical trees)."""

    def __init__(self, inputs):
        inputs = tuple(inputs)
        nodes = [node for e in inputs for node in ex.subtrees(e)]
        largest = max((node.exponent for node in nodes if isinstance(node, ex.Power)), default=1)
        names = sorted(set().union(*map(ex.free_vars, inputs)) - {TIME_VAR})
        bases = [ex.Var(name) for name in names]
        for node in nodes:
            if isinstance(node, ex.Atom) and node.kind in _PARTNER:
                for kind in ("sin", "cos"):
                    atom = ex.Atom(kind, node.argument)
                    if atom not in bases:
                        bases.append(atom)
        bases.append(ex.Var(TIME_VAR))
        self.width = width = largest.bit_length() + HEADROOM_BITS
        self.t_shift = width * (len(bases) - 1)
        self.guard = sum(1 << (width * f + width - 1) for f in range(len(bases) - 1))
        # (base, shift, mask) per field; t's mask keeps every bit above its shift
        self.fields = [(base, width * f, (1 << width) - 1) for f, base in enumerate(bases[:-1])]
        self.fields.append((bases[-1], self.t_shift, -1))
        self.index = {base: (shift, mask) for base, shift, mask in self.fields}
        self.exp_args = [ex.ZERO]
        self.exp_ids = {ex.ZERO: 0}
        self.exp_sums = {}
        self.chains = {}
        self.argument_derivatives = {}

    # -- boundary -----------------------------------------------------------

    def from_expr(self, e, below=None, images=None):
        """(p, degree): the canonical tree e packed, without its terms of
        t-degree ``below`` or more, and an upper bound on the t-degree of
        the whole of e.  A derivative symbol becomes ``images(orders)``.

        Sums add and products and powers multiply, skipping every pair of
        terms whose t-degrees reach ``below``.  The degree is counted by the
        same rules: the largest of a sum's, the total of a product's, the
        t-degree of a leaf or an image as it stands."""
        limit = math.inf if below is None else below << self.t_shift
        t_shift = self.t_shift

        def walk(node):
            if isinstance(node, ex.Sum):
                out, degree = {}, 0
                for term in node.terms:
                    p, d = walk(term)
                    self.add_into(out, p)
                    degree = max(degree, d)
                return self.settled(out), degree
            if isinstance(node, ex.Product):
                p, degree = walk(node.factors[0])
                for factor in node.factors[1:]:
                    q, d = walk(factor)
                    p, degree = self.mul(p, q, below), degree + d
                return p, degree
            if isinstance(node, ex.Power) and node.base not in self.index:
                q, d = walk(node.base)
                p = q
                for _ in range(node.exponent - 1):
                    p = self.mul(p, q, below)
                return p, d * node.exponent
            if isinstance(node, ex.DerivSym):
                p = images(node.orders)
                kept = {i: {k: c for k, c in group.items() if k < limit} for i, group in p.items()}
                return self.settled(kept), max(self.t_degrees(p), default=0)
            if isinstance(node, ex.Rational):
                return ({0: {0: node.value}} if node.value else {}), 0
            if isinstance(node, ex.Atom) and node.kind == "exp":
                return {self._exp_id(node.argument): {0: Fraction(1)}}, 0
            base, n = (node.base, node.exponent) if isinstance(node, ex.Power) else (node, 1)
            key = n << self.index[base][0]
            return ({0: {key: Fraction(1)}} if key < limit else {}), key >> t_shift

        return walk(e)

    def to_expr(self, p) -> ex.Expr:
        """The canonical expanded tree of p."""
        terms = []
        for i, group in p.items():
            exp_factor = [(ex.Atom("exp", self.exp_args[i]), 1)] if i else []
            for key, c in group.items():
                powers = [(base, n) for base, shift, mask in self.fields if (n := (key >> shift) & mask)]
                terms.append(ex.monomial(c, powers + exp_factor))
        return ex.add_expanded(terms)

    def t_degrees(self, p) -> set:
        return {key >> self.t_shift for group in p.values() for key in group}

    # -- arithmetic ---------------------------------------------------------

    def add_into(self, out, p) -> None:
        """out += p, leaving zero coefficients for ``settled`` to drop."""
        for i, group in p.items():
            dest = out.setdefault(i, {})
            for key, c in group.items():
                dest[key] = dest[key] + c if key in dest else c

    def mul_into(self, out, a, b, below=None) -> None:
        """out += a*b, skipping every pair of terms whose t-degrees add up to
        ``below`` or more; zero coefficients are left for ``settled``."""
        limit = math.inf if below is None else below << self.t_shift
        for i, group_a in a.items():
            for j, group_b in b.items():
                dest = out.setdefault(self._exp_sum(i, j), {})
                for ka, ca in group_a.items():
                    for kb, cb in group_b.items():
                        key = ka + kb
                        if key < limit:
                            dest[key] = dest[key] + ca * cb if key in dest else ca * cb

    def mul(self, a, b, below=None) -> dict:
        out = {}
        self.mul_into(out, a, b, below)
        return self.settled(out)

    def diff(self, p, orders) -> dict:
        """p differentiated by an order map ((var, order), ...)."""
        for var, order in orders:
            for _ in range(order):
                p = self._diff1(p, var)
        return p

    def _diff1(self, p, var) -> dict:
        chain = self._chain(var)
        out = {}
        for i, group in p.items():
            dest = out[i] = self._power_rule(group, var)
            dexp = self._argument_derivative(self.exp_args[i], var) if i else {}
            for key, c in group.items():
                terms = [(key + k, c * d) for k, d in dexp.items()]
                for shift, mask, step, sign, darg in chain:
                    if n := (key >> shift) & mask:
                        terms.extend((key + step + k, c * n * sign * d) for k, d in darg.items())
                for k, d in terms:
                    dest[k] = dest[k] + d if k in dest else d
        return self.settled(out)

    def _power_rule(self, group, var) -> dict:
        """{key: coefficient} of the derivative of group's powers of var,
        with every atom held constant."""
        if ex.Var(var) not in self.index:
            return {}
        shift, mask = self.index[ex.Var(var)]
        unit = 1 << shift
        return {key - unit: c * n for key, c in group.items() if (n := (key >> shift) & mask)}

    def settled(self, p) -> dict:
        """p without zero coefficients or empty exp groups; an exponent that
        reached its field's guard bit is refused."""
        out = {}
        for i, group in p.items():
            kept = {key: c for key, c in group.items() if c}
            if kept:
                out[i] = kept
        for group in out.values():
            for key in group:
                if key & self.guard:
                    top = 1 << (self.width - 1)
                    base = next(base for base, shift, mask in self.fields if (key >> shift) & mask >= top)
                    raise UnsupportedExpressionError(
                        f"an exponent of {ex.to_text(base)} reached {top}, "
                        "the limit of the packed form for these inputs"
                    )
        return out

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

    def _argument_derivative(self, argument, var) -> dict:
        """{key: coefficient} of the derivative of an atom argument, which
        is a polynomial."""
        if (argument, var) not in self.argument_derivatives:
            packed = self.from_expr(argument)[0].get(0, {})
            self.argument_derivatives[argument, var] = self._power_rule(packed, var)
        return self.argument_derivatives[argument, var]

    def _chain(self, var) -> list:
        """(shift, mask, key step, sign, argument derivative) for every
        sin/cos field whose argument depends on var: the derivative of
        atom^n is sign * n * atom^(n-1) * partner * d(argument)."""
        if var not in self.chains:
            self.chains[var] = []
            for base, shift, mask in self.fields:
                if isinstance(base, ex.Atom):
                    kind, sign = _PARTNER[base.kind]
                    darg = self._argument_derivative(base.argument, var)
                    if darg:
                        step = (1 << self.index[ex.Atom(kind, base.argument)][0]) - (1 << shift)
                        self.chains[var].append((shift, mask, step, sign, darg))
        return self.chains[var]

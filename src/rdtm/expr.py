"""Deterministic expression kernel with exact rational coefficients.

The supported class is deliberately small: polynomials over declared
variables, times exp/sin/cos atoms whose arguments are again polynomials,
plus formal derivative symbols of one unknown function ``u`` (these appear
only inside PDE right-hand sides).  The class is closed under addition,
multiplication, integer powers, differentiation and substitution, which is
exactly what the time-spectrum recurrences need.

Every node is immutable and hashable; all operations are pure functions, so
expressions can be shared freely across threads.  ``simplify`` produces a
canonical form (flattened, merged, totally ordered) in which equal
rearrangements of the same terms become structurally identical; ``expand``
additionally distributes products over sums, yielding a canonical
sum-of-monomials form in which cancellation is complete.

Canonical form is decided here.  Every kernel function returns a canonical
tree, and no caller re-canonicalizes one.  ``simplify`` runs only where a raw
tree comes in: the parser, ``PdeSpec``, ``RecurrenceTerm`` and the public
entry points (``simplify``, ``expand``, ``differentiate``, ``substitute``,
``precision.eval_precise``).  ``mul_expanded``, ``add_expanded``,
``build_term`` and ``precision.eval_number`` require canonical input.

The recurrence and the residual check do not multiply trees: they work on
packed sparse polynomials (``rdtm.packed``, integer numerators over one
denominator), which read canonical trees term by term with ``split_term``.
A packed polynomial is already in canonical order once its terms are sorted
by a key of ints that ``factor_order`` gives the ranks of, so it builds its
tree term by term with ``build_term``, merging and sorting nothing again, and
``engine.SeriesSolution.render`` prints its terms, int numerators over one
denominator, by the one sum rule of ``Printer`` that ``to_text`` (``TEXT``)
and ``to_latex`` (``LATEX``) apply to a tree.  Trees are the form of the
parser, the printers, the evaluator and the reference fold
``engine.cauchy_product``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import UnsupportedExpressionError, UnsupportedNonlinearityError
from .record import Record, fast_fields

__all__ = [
    "Expr",
    "Rational",
    "Var",
    "Sum",
    "Product",
    "Power",
    "Atom",
    "DerivSym",
    "ZERO",
    "ONE",
    "rational",
    "deriv_sym",
    "simplify",
    "expand",
    "mul_expanded",
    "add_expanded",
    "differentiate",
    "substitute",
    "addends",
    "split_term",
    "build_term",
    "factor_order",
    "subtrees",
    "free_vars",
    "contains_derivsym",
    "to_text",
    "to_latex",
    "Printer",
    "TEXT",
    "LATEX",
]

ATOM_KINDS = ("exp", "sin", "cos")

_set = object.__setattr__


def as_fraction(value) -> Fraction:
    """An int or a Fraction as a Fraction; a float or a str is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{value!r} is a {type(value).__name__}, not an exact rational")


class Expr(Record):
    """Base class; arithmetic operators return canonical (simplified) results."""

    __slots__ = ()

    def __add__(self, other):
        return simplify(Sum((self, _coerce(other))))

    __radd__ = __add__

    def __sub__(self, other):
        return simplify(Sum((self, Product((Rational(Fraction(-1)), _coerce(other))))))

    def __rsub__(self, other):
        return simplify(Sum((_coerce(other), Product((Rational(Fraction(-1)), self)))))

    def __mul__(self, other):
        return simplify(Product((self, _coerce(other))))

    __rmul__ = __mul__

    def __neg__(self):
        return simplify(Product((Rational(Fraction(-1)), self)))

    def __pow__(self, exponent):
        return simplify(Power(self, exponent))

    def __truediv__(self, other):
        other = simplify(_coerce(other))
        if not isinstance(other, Rational) or other.value == 0:
            raise UnsupportedExpressionError(
                f"division only by nonzero rational constants, got {to_text(other)}"
            )
        return self * Rational(1 / other.value)

    def __str__(self):
        return to_text(self)


@fast_fields
class Rational(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        _set(self, "value", as_fraction(value))


@fast_fields
class Var(Expr):
    __slots__ = ("name",)


@fast_fields
class Sum(Expr):
    __slots__ = ("terms",)


@fast_fields
class Product(Expr):
    __slots__ = ("factors",)


@fast_fields
class Power(Expr):
    __slots__ = ("base", "exponent")  # an Expr, an int


@fast_fields
class Atom(Expr):
    __slots__ = ("kind", "argument")  # one of ATOM_KINDS, an Expr


@fast_fields
class DerivSym(Expr):
    __slots__ = ("orders",)  # sorted ((var, order), ...); the empty tuple is u itself


ZERO = Rational(Fraction(0))
ONE = Rational(Fraction(1))
_MINUS_ONE = Rational(Fraction(-1))


def rational(numerator, denominator=1) -> Rational:
    return Rational(Fraction(numerator, denominator))


def deriv_sym(orders) -> DerivSym:
    """Derivative symbol from a {var: order} mapping (zero orders dropped)."""
    return _canon_deriv(tuple(dict(orders).items()))


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Rational(value)
    raise TypeError(f"cannot treat {value!r} as an expression")


# ---------------------------------------------------------------------------
# Canonical ordering


_KIND_RANK = {"exp": 0, "sin": 1, "cos": 2}


def _node_key(e):
    if isinstance(e, Rational):
        return (0, e.value)
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, Atom):
        return (2, _KIND_RANK[e.kind], _node_key(e.argument))
    if isinstance(e, DerivSym):
        return (3, e.orders)
    if isinstance(e, Power):
        return (4, _node_key(e.base), e.exponent)
    if isinstance(e, Product):
        return (5, tuple(_node_key(f) for f in e.factors))
    return (6, tuple(_node_key(t) for t in e.terms))


def _factor_key(f):
    if isinstance(f, Power):
        return (_node_key(f.base), f.exponent)
    return (_node_key(f), 1)


def _factor_grade(f) -> int:
    if isinstance(f, Var):
        return 1
    if isinstance(f, Power) and isinstance(f.base, Var):
        return f.exponent
    return 0


def _term_key(monomial):
    return (sum(_factor_grade(f) for f in monomial), tuple(_factor_key(f) for f in monomial))


def factor_order(bases) -> list:
    """The indices of distinct canonical bases in the canonical order of
    factors with those bases.  A term's factors sort by base, and its sort
    key is its degree in the variables, then (base, exponent) factor by
    factor; so with each base replaced by its place in this order, the key
    becomes a flat tuple of ints (as ``rdtm.packed`` makes it)."""
    return sorted(range(len(bases)), key=lambda i: _node_key(bases[i]))


# ---------------------------------------------------------------------------
# Canonicalization (flatten, fold, merge, sort; no distribution over sums)


def simplify(e) -> Expr:
    """Canonical form: nested sums/products flattened, numeric factors folded
    into one leading rational, like terms merged, fixed total order.
    Idempotent; does not distribute products over sums."""
    return _canon(_coerce(e))


def _canon(e) -> Expr:
    if isinstance(e, (Rational, Var)):
        return e
    if isinstance(e, Atom):
        return _canon_atom(e.kind, e.argument)
    if isinstance(e, DerivSym):
        return _canon_deriv(e.orders)
    if isinstance(e, Power):
        return _canon_power(_canon(e.base), e.exponent)
    if isinstance(e, Product):
        return _canon_product([_canon(f) for f in e.factors])
    if isinstance(e, Sum):
        return _canon_sum([_canon(t) for t in e.terms])
    raise TypeError(f"not an expression node: {e!r}")


def _first_unsupported(e):
    """First Atom or DerivSym node inside e, or None if e is polynomial."""
    return next((node for node in subtrees(e) if isinstance(node, (Atom, DerivSym))), None)


def _canon_atom(kind, argument) -> Expr:
    if kind not in ATOM_KINDS:
        raise ValueError(f"unknown atom kind {kind!r}")
    arg = expand(argument)
    offender = _first_unsupported(arg)
    if offender is not None:
        if contains_derivsym(offender):
            raise UnsupportedNonlinearityError(
                f"{kind}() applied to the unknown function: {kind}({to_text(arg)})"
            )
        raise UnsupportedExpressionError(
            f"transcendental atom with non-polynomial argument: {kind}({to_text(arg)})"
        )
    if arg == ZERO:
        return ZERO if kind == "sin" else ONE
    return Atom(kind, arg)


def _canon_deriv(orders) -> DerivSym:
    merged = {}
    for var, order in orders:
        if not isinstance(order, int) or order < 0:
            raise ValueError(f"derivative order must be a nonnegative integer, got {order!r}")
        if order:
            merged[var] = merged.get(var, 0) + order
    return DerivSym(tuple(sorted(merged.items())))


def _canon_power(base, exponent) -> Expr:
    if isinstance(exponent, bool) or not isinstance(exponent, int):
        raise UnsupportedExpressionError(f"non-integer exponent {exponent!r}")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Rational):
        if base.value == 0 and exponent < 0:
            raise UnsupportedExpressionError("zero raised to a negative power")
        return Rational(base.value**exponent)
    if isinstance(base, Product):
        return _canon_product([_canon_power(f, exponent) for f in base.factors])
    if isinstance(base, Power):
        return _canon_power(base.base, base.exponent * exponent)
    if isinstance(base, Atom) and base.kind == "exp":
        # exp powers fold into the argument, so exp never sits under Power
        return _canon_atom("exp", Product((Rational(Fraction(exponent)), base.argument)))
    if exponent < 0:
        raise UnsupportedExpressionError(
            f"negative exponent over possibly vanishing base {to_text(base)}"
        )
    return Power(base, exponent)


def _canon_product(factors) -> Expr:
    coeff = Fraction(1)
    exp_args = []
    powers = {}
    stack = list(reversed(factors))
    while stack:
        f = stack.pop()
        if isinstance(f, Product):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Rational):
            coeff *= f.value
        elif isinstance(f, Atom) and f.kind == "exp":
            exp_args.append(f.argument)
        elif isinstance(f, Power):
            powers[f.base] = powers.get(f.base, 0) + f.exponent
        else:
            powers[f] = powers.get(f, 0) + 1
    if coeff == 0:
        return ZERO
    if exp_args:
        merged = _canon_sum(exp_args) if len(exp_args) > 1 else exp_args[0]
        if merged != ZERO:
            powers[Atom("exp", merged)] = 1
    out = []
    for base, k in powers.items():
        if k == 0:
            continue
        out.append(base if k == 1 else _canon_power(base, k))
    out.sort(key=_factor_key)
    if not out:
        return Rational(coeff)
    if coeff == 1:
        return out[0] if len(out) == 1 else Product(tuple(out))
    return Product((Rational(coeff), *out))


def split_term(t):
    """Canonical term -> (rational coefficient, tuple of its other factors)."""
    if isinstance(t, Rational):
        return t.value, ()
    if isinstance(t, Product):
        if isinstance(t.factors[0], Rational):
            return t.factors[0].value, t.factors[1:]
        return Fraction(1), t.factors
    return Fraction(1), (t,)


def build_term(coeff, monomial) -> Expr:
    """Canonical term coeff * monomial from a nonzero coefficient and a
    tuple of canonical factors of distinct bases in canonical order."""
    if not monomial:
        return Rational(coeff)
    if coeff == 1:
        return monomial[0] if len(monomial) == 1 else Product(monomial)
    return Product((Rational(coeff), *monomial))


def _canon_sum(terms) -> Expr:
    merged = {}
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack.extend(reversed(t.terms))
            continue
        coeff, monomial = split_term(t)
        if coeff == 0:
            continue
        total = merged.get(monomial, Fraction(0)) + coeff
        if total == 0:
            merged.pop(monomial, None)
        else:
            merged[monomial] = total
    if not merged:
        return ZERO
    ordered = sorted(merged.items(), key=lambda item: _term_key(item[0]))
    out = [build_term(coeff, monomial) for monomial, coeff in ordered]
    return out[0] if len(out) == 1 else Sum(tuple(out))


# ---------------------------------------------------------------------------
# Expansion (distribute products over sums; canonical sum of monomials)


def expand(e) -> Expr:
    """Fully distributed canonical form; cancellation across terms is complete."""
    return _expand_canon(simplify(e))


def addends(e) -> list:
    """Terms of a canonical expression viewed as a sum (empty for zero)."""
    if isinstance(e, Sum):
        return list(e.terms)
    if e == ZERO:
        return []
    return [e]


def _expand_canon(e) -> Expr:
    if isinstance(e, Sum):
        return _canon_sum([_expand_canon(t) for t in e.terms])
    if isinstance(e, Product):
        result = ONE
        for f in e.factors:
            result = mul_expanded(result, _expand_canon(f))
        return result
    if isinstance(e, Power) and isinstance(e.base, Sum):
        return _pow_expanded(_expand_canon(e.base), e.exponent)
    return e


def mul_expanded(a, b) -> Expr:
    """Product of two canonical expanded expressions, expanded and merged."""
    if a == ONE:
        return b
    if b == ONE:
        return a
    return _canon_sum([_canon_product([ta, tb]) for ta in addends(a) for tb in addends(b)])


def add_expanded(parts) -> Expr:
    """Sum of canonical expanded expressions, expanded and merged."""
    return _canon_sum(list(parts))


def _pow_expanded(base, exponent) -> Expr:
    result = ONE
    power = base
    n = exponent
    while n:
        if n & 1:
            result = mul_expanded(result, power)
        n >>= 1
        if n:
            power = mul_expanded(power, power)
    return result


# ---------------------------------------------------------------------------
# Calculus


def differentiate(e, var, order=1) -> Expr:
    """Exact symbolic derivative, canonicalized.  Derivative symbols are
    differentiated formally (the var's order is incremented), which is how
    compact operator forms of a right-hand side get expanded."""
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {order!r}")
    name = var if isinstance(var, str) else var.name
    result = simplify(e)
    for _ in range(order):
        result = _d1(result, name)
    return result


def _d1(e, v) -> Expr:
    if isinstance(e, Rational):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Atom):
        darg = _d1(e.argument, v)
        if e.kind == "exp":
            return _canon_product([darg, e])
        if e.kind == "sin":
            return _canon_product([darg, Atom("cos", e.argument)])
        return _canon_product([_MINUS_ONE, darg, Atom("sin", e.argument)])
    if isinstance(e, DerivSym):
        return _canon_deriv(e.orders + ((v, 1),))
    if isinstance(e, Power):
        return _canon_product(
            [Rational(Fraction(e.exponent)), _canon_power(e.base, e.exponent - 1), _d1(e.base, v)]
        )
    if isinstance(e, Product):
        parts = []
        for i, f in enumerate(e.factors):
            parts.append(_canon_product([*e.factors[:i], _d1(f, v), *e.factors[i + 1 :]]))
        return _canon_sum(parts)
    return _canon_sum([_d1(t, v) for t in e.terms])


def substitute(e, bindings) -> Expr:
    """Simultaneous substitution of variables by expressions, then simplify."""
    table = {name: _coerce(value) for name, value in bindings.items()}
    return simplify(_sub(_coerce(e), table))


def _sub(e, table) -> Expr:
    if isinstance(e, Var):
        return table.get(e.name, e)
    if isinstance(e, Atom):
        return Atom(e.kind, _sub(e.argument, table))
    if isinstance(e, Power):
        return Power(_sub(e.base, table), e.exponent)
    if isinstance(e, Product):
        return Product(tuple(_sub(f, table) for f in e.factors))
    if isinstance(e, Sum):
        return Sum(tuple(_sub(t, table) for t in e.terms))
    return e


# ---------------------------------------------------------------------------
# Structure queries


def subtrees(e):
    """Every node of e, atom arguments included, in a fixed pre-order: a
    node comes before its children, and the last child is visited first."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Atom):
            stack.append(node.argument)
        elif isinstance(node, Power):
            stack.append(node.base)
        elif isinstance(node, Product):
            stack.extend(node.factors)
        elif isinstance(node, Sum):
            stack.extend(node.terms)


def free_vars(e) -> frozenset:
    """Names of variables occurring in e (inside atom arguments included)."""
    return frozenset(node.name for node in subtrees(e) if isinstance(node, Var))


def contains_derivsym(e) -> bool:
    return any(isinstance(node, DerivSym) for node in subtrees(e))


# ---------------------------------------------------------------------------
# Printing (the text form is re-parseable; see rdtm.parsing)


def to_text(e) -> str:
    """Render in the same grammar the parser accepts (a printing fixed point)."""
    return _text(_coerce(e))


def _digits(value) -> str:
    """Decimal text of a coefficient or an exponent, or an error naming the
    interpreter's limit on the digits of an int converted to text."""
    try:
        return str(value)
    except ValueError:
        raise UnsupportedExpressionError(
            f"a coefficient or exponent has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for converting an integer to text"
        ) from None


def _text(e) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Atom):
        return f"{e.kind}({_text(e.argument)})"
    if isinstance(e, DerivSym):
        if not e.orders:
            return "u"
        inner = ",".join(f"{v},{k}" for v, k in e.orders)
        return f"D(u,{inner})"
    if isinstance(e, Power):
        base = _text(e.base)
        if isinstance(e.base, (Sum, Product, Rational)):
            base = f"({base})"
        exponent = _digits(e.exponent) if e.exponent >= 0 else f"({_digits(e.exponent)})"
        return f"{base}^{exponent}"
    return TEXT.compound(e)


def to_latex(e) -> str:
    """LaTeX rendering of a canonical expression."""
    return _latex(_coerce(e))


def _latex(e) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Atom):
        arg = _latex(e.argument)
        if e.kind == "exp":
            return rf"e^{{{arg}}}"
        return rf"\{e.kind}\left({arg}\right)"
    if isinstance(e, DerivSym):
        if not e.orders:
            return "u"
        ops = "".join(
            rf"\partial_{{{v}}}" if k == 1 else rf"\partial_{{{v}}}^{{{k}}}" for v, k in e.orders
        )
        return ops + " u"
    if isinstance(e, Power):
        base = _latex(e.base)
        if isinstance(e.base, (Sum, Product, Rational, DerivSym)):
            base = rf"\left({base}\right)"
        return rf"{base}^{{{_digits(e.exponent)}}}"
    return LATEX.compound(e)


class Printer:
    """The rules by which one printer renders a Rational, a Product and a Sum.

    ``node`` renders any tree, ``fraction`` formats the texts of a
    numerator and a denominator, ``separator`` joins a monomial's factors
    and a coefficient to them, and ``group`` encloses a factor that is a Sum.

    A sum has one rule: ``coefficient`` takes a term's sign once, from its
    numerator, and reduces its magnitude by one gcd; ``term`` puts the sign,
    the magnitude and the monomial's text together; ``sum`` joins the terms.
    Trees go through it (``compound``; a Rational is a sum of one term with
    no monomial), and so do the packed spectra, whose terms
    ``engine.SeriesSolution.render`` holds as int numerators over the
    spectrum's denominator, with no Fraction.
    """

    __slots__ = ("node", "fraction", "separator", "group")

    def __init__(self, node, fraction, separator, group):
        self.node, self.fraction, self.separator, self.group = node, fraction, separator, group

    def monomial(self, factors) -> str:
        """The text of a monomial's factors, in the order given."""
        return self.separator.join(self.group.format(self.node(f)) if isinstance(f, Sum) else self.node(f)
                                   for f in factors)

    def coefficient(self, n, d) -> tuple:
        """(sign, magnitude) of the coefficient n/d, d > 0: " - " or " + ",
        and the text of |n/d| in lowest terms, "" for 1."""
        sign = " + "
        if n < 0:
            sign, n = " - ", -n
        g = math.gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if n == d:
            return sign, ""
        return sign, _digits(n) if d == 1 else self.fraction.format(_digits(n), _digits(d))

    def term(self, sign, magnitude, body) -> str:
        """A term as it follows another in a sum: its ``coefficient`` sign
        and magnitude times a monomial whose factors render as body ("" for
        none)."""
        if not body:
            return sign + (magnitude or "1")
        if not magnitude:
            return sign + body
        return f"{sign}{magnitude}{self.separator}{body}"

    def sum(self, terms) -> str:
        """A sum of ``term`` texts in canonical order: the first one without
        its " + " and with its " - " as "-"; "0" for none."""
        parts = list(terms)
        if not parts:
            return "0"
        first = parts[0]
        parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(parts)

    def compound(self, e) -> str:
        """A Rational, a Product or a Sum."""
        parts = []
        for coeff, monomial in map(split_term, e.terms if isinstance(e, Sum) else (e,)):
            sign, magnitude = self.coefficient(coeff.numerator, coeff.denominator)
            parts.append(self.term(sign, magnitude, self.monomial(monomial)))
        return self.sum(parts)


TEXT = Printer(_text, "{}/{}", "*", "({})")
LATEX = Printer(_latex, r"\frac{{{}}}{{{}}}", r" \, ", r"\left({}\right)")

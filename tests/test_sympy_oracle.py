"""Differential tests of the expression kernel against sympy.

sympy is an independent computer algebra system, so it checks expand,
differentiate, substitute and taylor_coefficient without sharing any code
with them.  Each test draws seeded random trees (polynomials in the
variables times exp/sin/cos of polynomial arguments, with squared sums),
runs the kernel operation and the sympy one, and asserts that sympy expands
their difference to 0.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from rdtm import expr as ex  # noqa: E402
from rdtm.analysis import taylor_coefficient  # noqa: E402

TREES = 50
_ATOMS = {"exp": sympy.exp, "sin": sympy.sin, "cos": sympy.cos}


def to_sympy(e):
    if isinstance(e, ex.Rational):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, ex.Var):
        return sympy.Symbol(e.name)
    if isinstance(e, ex.Sum):
        return sympy.Add(*(to_sympy(t) for t in e.terms))
    if isinstance(e, ex.Product):
        return sympy.Mul(*(to_sympy(f) for f in e.factors))
    if isinstance(e, ex.Power):
        return to_sympy(e.base) ** e.exponent
    if isinstance(e, ex.Atom):
        return _ATOMS[e.kind](to_sympy(e.argument))
    raise TypeError(f"no sympy form for {e!r}")


def _coefficient(rng):
    return ex.rational(rng.randint(-4, 4), rng.randint(1, 3))


def _polynomial(rng, names, terms, degree):
    monomials = [
        ex.Product((_coefficient(rng), *(ex.Power(ex.Var(n), rng.randint(0, degree)) for n in names)))
        for _ in range(rng.randint(1, terms))
    ]
    return ex.Sum(tuple(monomials))


def random_tree(rng, names):
    """A sum of 1-3 products: a polynomial, 0-2 atoms of linear polynomial
    arguments, and sometimes the square of a short polynomial."""
    products = []
    for _ in range(rng.randint(1, 3)):
        factors = [_polynomial(rng, names, 3, 2)]
        for _ in range(rng.randint(0, 2)):
            factors.append(ex.Atom(rng.choice(sorted(_ATOMS)), _polynomial(rng, names, 2, 1)))
        if rng.random() < 0.3:
            factors.append(ex.Power(_polynomial(rng, names, 2, 1), 2))
        products.append(ex.Product(tuple(factors)))
    return ex.Sum(tuple(products))


def trees(seed, names=("x", "y")):
    rng = random.Random(seed)
    return [(rng, random_tree(rng, names)) for _ in range(TREES)]


def assert_same(got, want, tree):
    assert sympy.expand(to_sympy(got) - want) == 0, ex.to_text(tree)


def test_expand():
    for _, tree in trees(1):
        assert_same(ex.expand(tree), to_sympy(tree), tree)


def test_differentiate():
    for rng, tree in trees(2):
        var, order = rng.choice("xy"), rng.randint(1, 2)
        want = sympy.diff(to_sympy(tree), sympy.Symbol(var), order)
        assert_same(ex.differentiate(tree, var, order), want, tree)


def test_substitute():
    """Simultaneous substitution: x by a polynomial in y, y by a rational."""
    x, y = sympy.Symbol("x"), sympy.Symbol("y")
    for rng, tree in trees(3):
        x_value = _polynomial(rng, ("y",), 2, 2)
        y_value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        got = ex.substitute(tree, {"x": x_value, "y": y_value})
        want = to_sympy(tree).subs({x: to_sympy(x_value), y: sympy.Rational(y_value)}, simultaneous=True)
        assert_same(got, want, tree)


def test_taylor_coefficient():
    t = sympy.Symbol("t")
    for rng, tree in trees(4, ("x", "t")):
        k = rng.randint(0, 3)
        want = sympy.diff(to_sympy(tree), t, k).subs(t, 0) / sympy.factorial(k)
        assert_same(taylor_coefficient(tree, k), want, tree)

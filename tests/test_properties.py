"""Randomized properties of the kernel and the convolution machinery."""

from fractions import Fraction as F

import mpmath
from hypothesis import given, seed, settings, strategies as st

from rdtm import expr as ex
from rdtm.engine import cauchy_product
from rdtm.parsing import parse_expr
from rdtm.precision import PrecisionContext, eval_precise, fraction_to_mpf

from oracles import distinct_sum, nested_convolution, times_new_factor

settings.register_profile("kernel", deadline=None, max_examples=60)
settings.load_profile("kernel")

VARS = (ex.Var("x"), ex.Var("y"))

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _sum(terms):
    return ex.Sum(tuple(terms))


def _product(factors):
    return ex.Product(tuple(factors))


poly_exprs = st.recursive(
    st.one_of(st.builds(ex.Rational, rationals), st.sampled_from(VARS)),
    lambda inner: st.one_of(
        st.builds(_sum, st.lists(inner, min_size=1, max_size=3)),
        st.builds(_product, st.lists(inner, min_size=1, max_size=3)),
        st.builds(ex.Power, inner, st.integers(min_value=2, max_value=3)),
    ),
    max_leaves=6,
)

atom_exprs = st.builds(ex.Atom, st.sampled_from(["exp", "sin", "cos"]), poly_exprs)

full_exprs = st.recursive(
    st.one_of(st.builds(ex.Rational, rationals), st.sampled_from(VARS), atom_exprs),
    lambda inner: st.one_of(
        st.builds(_sum, st.lists(inner, min_size=1, max_size=3)),
        st.builds(_product, st.lists(inner, min_size=1, max_size=3)),
        st.builds(ex.Power, inner, st.integers(min_value=2, max_value=2)),
    ),
    max_leaves=6,
)


def rearrange(e, rng):
    """Random structural permutation of sum terms and product factors."""
    if isinstance(e, ex.Sum):
        terms = [rearrange(t, rng) for t in e.terms]
        rng.shuffle(terms)
        return ex.Sum(tuple(terms))
    if isinstance(e, ex.Product):
        factors = [rearrange(f, rng) for f in e.factors]
        rng.shuffle(factors)
        return ex.Product(tuple(factors))
    if isinstance(e, ex.Power):
        return ex.Power(rearrange(e.base, rng), e.exponent)
    if isinstance(e, ex.Atom):
        return ex.Atom(e.kind, rearrange(e.argument, rng))
    return e


@seed(20613)
@given(poly_exprs)
def test_sin_is_odd_and_cos_is_even(a):
    """For a polynomial argument a, sin(-a) and -sin(a) simplify to one
    tree, and so do cos(-a) and cos(a)."""
    minus_a = _product([ex.rational(-1), a])
    assert ex.simplify(ex.Atom("sin", minus_a)) == ex.simplify(_product([ex.rational(-1), ex.Atom("sin", a)]))
    assert ex.simplify(ex.Atom("cos", minus_a)) == ex.simplify(ex.Atom("cos", a))


@given(full_exprs, st.randoms(use_true_random=False))
def test_canonical_form_is_permutation_invariant(e, rng):
    assert ex.simplify(e) == ex.simplify(rearrange(e, rng))


@given(full_exprs)
def test_simplify_idempotent(e):
    s = ex.simplify(e)
    assert ex.simplify(s) == s


@given(full_exprs)
def test_expand_idempotent_and_reachable_from_simplify(e):
    x = ex.expand(e)
    assert ex.expand(x) == x
    assert ex.expand(ex.simplify(e)) == x


@given(full_exprs)
def test_print_parse_round_trip(e):
    canonical = ex.simplify(e)
    assert parse_expr(ex.to_text(canonical), ["x", "y"]) == canonical


@given(full_exprs, small_rationals, small_rationals)
def test_differentiate_is_linear(e1, a, b):
    e2 = ex.Atom("exp", ex.Product((ex.Var("x"), ex.Var("y"))))
    combined = ex.simplify(
        ex.Sum((ex.Product((ex.Rational(a), e1)), ex.Product((ex.Rational(b), e2))))
    )
    left = ex.differentiate(combined, "x")
    right = ex.simplify(
        ex.Sum(
            (
                ex.Product((ex.Rational(a), ex.differentiate(e1, "x"))),
                ex.Product((ex.Rational(b), ex.differentiate(e2, "x"))),
            )
        )
    )
    assert ex.expand(left) == ex.expand(right)


@given(full_exprs, small_rationals, small_rationals)
def test_eval_agrees_across_simplify_and_expand(e, px, py):
    ctx = PrecisionContext(30)
    point = {"x": px, "y": py}
    reference = eval_precise(ex.simplify(e), point, ctx)
    for variant in (e, ex.expand(e)):
        value = eval_precise(variant, point, ctx)
        assert abs(value - reference) <= (abs(reference) + 1) * mpmath.mpf(10) ** -25


@given(poly_exprs, st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_derivative_matches_central_difference(e, x0):
    # |f(x+h) - f(x-h)| / 2h - f'(x)| <= C h^2 with C from the third derivative
    ctx = PrecisionContext(50)
    h = F(1, 10**6)
    e = ex.simplify(e)
    d1 = ex.differentiate(e, "x")
    d3 = ex.differentiate(e, "x", 3)
    up = eval_precise(ex.substitute(e, {"x": x0 + h}), {"y": F(1, 3)}, ctx)
    down = eval_precise(ex.substitute(e, {"x": x0 - h}), {"y": F(1, 3)}, ctx)
    exact = eval_precise(d1, {"x": x0, "y": F(1, 3)}, ctx)
    third = eval_precise(d3, {"x": x0, "y": F(1, 3)}, ctx)
    # compare at the context's precision: at mpmath's default 53 bits the
    # rounding of the quotient alone exceeds the bound once |f'| nears 10^4
    with mpmath.workdps(ctx.working_dps):
        fd = (up - down) / (2 * fraction_to_mpf(h))
        bound = (abs(third) + 1) * mpmath.mpf(10) ** -12
        assert abs(fd - exact) <= bound


@given(
    st.lists(st.lists(st.builds(ex.Rational, rationals), min_size=5, max_size=5), min_size=2, max_size=2),
    st.integers(min_value=0, max_value=4),
)
def test_convolution_commutes(seqs, k):
    u, v = seqs
    assert cauchy_product([u, v], k) == cauchy_product([v, u], k)


@given(
    st.lists(
        st.lists(st.builds(ex.Rational, rationals), min_size=4, max_size=4),
        min_size=2,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=3),
)
def test_convolution_fold_matches_nested_oracle(seqs, k):
    folded = cauchy_product(seqs, k)
    nested = nested_convolution([[q.value for q in s] for s in seqs], k)
    assert folded == ex.Rational(nested)


@given(poly_exprs, poly_exprs)
def test_product_rule(a, b):
    product = ex.simplify(ex.Product((a, b)))
    left = ex.expand(ex.differentiate(product, "x"))
    right = ex.expand(
        ex.Sum(
            (
                ex.Product((ex.differentiate(a, "x"), b)),
                ex.Product((a, ex.differentiate(b, "x"))),
            )
        )
    )
    assert left == right


@given(full_exprs, small_rationals)
def test_substitution_commutes_with_evaluation(e, value):
    ctx = PrecisionContext(30)
    substituted = ex.substitute(e, {"x": value})
    direct = eval_precise(e, {"x": value, "y": F(2, 5)}, ctx)
    via_subst = eval_precise(substituted, {"y": F(2, 5)}, ctx)
    assert abs(direct - via_subst) <= (abs(direct) + 1) * mpmath.mpf(10) ** -25


@given(st.lists(full_exprs, max_size=4))
def test_add_expanded_matches_simplified_sum(exprs):
    parts = [ex.expand(e) for e in exprs]
    assert ex.add_expanded(parts) == ex.simplify(ex.Sum(tuple(parts)))



def _monomial(term):
    """The factors of a canonical term without its rational coefficient."""
    if isinstance(term, ex.Rational):
        return ()
    if isinstance(term, ex.Product):
        return term.factors[1:] if isinstance(term.factors[0], ex.Rational) else term.factors
    return (term,)


@given(st.lists(full_exprs, max_size=4), st.randoms(use_true_random=False))
def test_distinct_sum_matches_add_expanded_on_distinct_monomials(exprs, rng):
    """Terms of several expanded expressions, one per monomial, in any
    order: the one-sort sum is the merged sum."""
    terms = {}
    for e in exprs:
        for term in ex.addends(ex.expand(e)):
            terms.setdefault(_monomial(term), term)
    terms = list(terms.values())
    rng.shuffle(terms)
    assert distinct_sum(terms) == ex.add_expanded(terms)


@given(full_exprs, st.integers(min_value=1, max_value=4))
def test_times_new_factor_matches_the_expanded_product(e, k):
    """A term of a t-free expansion times t^k, with the factor inserted, is
    the product that mul_expanded forms."""
    power = ex.simplify(ex.Power(ex.Var("t"), k))
    for term in ex.addends(ex.expand(e)):
        assert times_new_factor(term, power) == ex.mul_expanded(term, power)

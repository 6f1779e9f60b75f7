"""Expression kernel: canonical forms, calculus, structure queries."""

from fractions import Fraction as F

import pytest

from rdtm.errors import UnsupportedExpressionError, UnsupportedNonlinearityError
from rdtm.expr import (
    Atom,
    DerivSym,
    Power,
    Product,
    Sum,
    Var,
    ZERO,
    ONE,
    contains_derivsym,
    deriv_sym,
    differentiate,
    expand,
    free_vars,
    mul_expanded,
    rational,
    simplify,
    substitute,
    to_latex,
    to_text,
)

from rdtm.parsing import parse_expr

from oracles import collect_powers

x, y, t = Var("x"), Var("y"), Var("t")
e_xy = Atom("exp", Product((x, y)))


class TestSimplify:
    def test_annihilator(self):
        assert simplify(Product((Power(x, 2), ZERO))) == ZERO

    def test_like_atom_terms_merge(self):
        assert simplify(Sum((e_xy, e_xy))) == simplify(Product((rational(2), e_xy)))

    def test_exact_rational_sum(self):
        got = simplify(Sum((Product((rational(1, 2), Power(x, 2))),
                            Product((rational(1, 3), Power(x, 2))))))
        assert got == simplify(Product((rational(5, 6), Power(x, 2))))

    def test_idempotent(self):
        e = Sum((Product((x, y, x)), Product((rational(3), y, Power(x, 2))), e_xy))
        assert simplify(simplify(e)) == simplify(e)

    def test_numeric_factors_fold_to_leading_rational(self):
        e = simplify(Product((rational(2), x, rational(3), y)))
        assert e == Product((rational(6), x, y))

    def test_rearrangements_identical(self):
        a = simplify(Sum((Product((x, y)), Product((rational(2), y, x)), Power(x, 2))))
        b = simplify(Sum((Power(x, 2), Product((y, x)), Product((y, rational(2), x)))))
        assert a == b

    def test_cancellation(self):
        e = simplify(Sum((Product((x, y)), Product((rational(-1), y, x)))))
        assert e == ZERO

    def test_exp_products_merge_arguments(self):
        assert simplify(Product((e_xy, e_xy))) == Atom("exp", Product((rational(2), x, y)))
        assert simplify(Product((Atom("exp", x), Atom("exp", t)))) == Atom("exp", Sum((t, x)))

    def test_exp_power_folds(self):
        assert simplify(Power(Atom("exp", x), 5)) == Atom("exp", Product((rational(5), x)))
        assert simplify(Power(Atom("exp", x), -1)) == Atom("exp", Product((rational(-1), x)))

    def test_sin_cos_powers_kept(self):
        e = simplify(Power(Atom("sin", t), 2))
        assert e == Power(Atom("sin", t), 2)

    def test_atom_of_zero(self):
        assert simplify(Atom("sin", ZERO)) == ZERO
        assert simplify(Atom("cos", ZERO)) == ONE
        assert simplify(Atom("exp", Sum((x, Product((rational(-1), x)))))) == ONE

    @pytest.mark.parametrize("text, want", [
        ("sin(-x)", "-sin(x)"),
        ("cos(-x)", "cos(x)"),
        ("2*sin(-x)", "-2*sin(x)"),
        ("sin(-x)^3*y", "-y*sin(x)^3"),
        ("cos(-x-y)*sin(-2*x)", "-sin(2*x)*cos(x + y)"),
        ("sin(-1)", "-sin(1)"),
        ("exp(-x)", "exp(-x)"),
        # the first term in canonical order chooses, and 1 comes before x
        ("sin(1 - x)", "sin(1 - x)"),
    ])
    def test_sin_and_cos_take_an_argument_whose_first_term_is_positive(self, text, want):
        assert to_text(simplify(parse_expr(text, ["x", "y"]))) == want

    def test_parity_cancels_equal_sin_and_cos_terms(self):
        assert simplify(parse_expr("sin(x) + sin(-x) + cos(x) - cos(-x)", ["x"])) == ZERO

    def test_products_of_sums_not_distributed(self):
        e = simplify(Product((Power(x, 2), Sum((x, ONE)))))
        assert isinstance(e, Product)
        assert any(isinstance(f, Sum) for f in e.factors)

    def test_like_grouped_factors_merge(self):
        s = Sum((x, ONE))
        got = simplify(Sum((Product((rational(2), s, y)), Product((y, s, rational(3))))))
        assert got == simplify(Product((rational(5), s, y)))

    def test_grouped_sums_become_powers(self):
        s = Sum((x, ONE))
        assert simplify(Product((s, s))) == Power(simplify(s), 2)

    def test_negative_power_over_vanishing_base_rejected(self):
        with pytest.raises(UnsupportedExpressionError):
            simplify(Power(x, -1))
        with pytest.raises(UnsupportedExpressionError):
            simplify(Power(Atom("sin", t), -2))

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(UnsupportedExpressionError):
            simplify(Power(x, F(1, 2)))

    def test_atom_argument_must_be_polynomial(self):
        with pytest.raises(UnsupportedExpressionError):
            simplify(Atom("sin", Atom("exp", x)))
        with pytest.raises(UnsupportedNonlinearityError):
            simplify(Atom("exp", DerivSym(())))


class TestExpand:
    def test_binomial(self):
        got = expand(Power(Sum((x, ONE)), 2))
        assert got == simplify(Sum((Power(x, 2), Product((rational(2), x)), ONE)))

    def test_distribution_cancels(self):
        # x*(x + y) - x^2 - x*y == 0 only after distribution
        e = Sum((Product((x, Sum((x, y)))),
                 Product((rational(-1), Power(x, 2))),
                 Product((rational(-1), x, y))))
        assert simplify(e) != ZERO
        assert expand(e) == ZERO

    def test_mul_expanded_monomials(self):
        a = expand(Sum((x, y)))
        b = expand(Sum((x, Product((rational(-1), y)))))
        assert mul_expanded(a, b) == expand(Sum((Power(x, 2), Product((rational(-1), Power(y, 2))))))

    def test_collect_powers(self):
        e = Sum((Product((Power(t, 3), x)), Product((rational(2), t, y)), ONE))
        grouped = collect_powers(e, "t")
        assert grouped[0] == ONE
        assert grouped[1] == simplify(Product((rational(2), y)))
        assert grouped[3] == x
        assert sorted(grouped) == [0, 1, 3]


class TestDifferentiate:
    def test_power_rule(self):
        assert differentiate(Power(x, 2), "x") == simplify(Product((rational(2), x)))

    def test_exp_chain_rule_second_order(self):
        got = differentiate(e_xy, "x", 2)
        assert got == simplify(Product((Power(y, 2), e_xy)))

    def test_t_independent_factor(self):
        got = differentiate(Product((Power(x, 2), Atom("sin", t))), "x")
        assert got == simplify(Product((rational(2), x, Atom("sin", t))))

    def test_sin_cos_cycle(self):
        assert differentiate(Atom("sin", t), "t") == Atom("cos", t)
        assert differentiate(Atom("cos", t), "t") == simplify(
            Product((rational(-1), Atom("sin", t)))
        )

    def test_formal_derivative_symbols(self):
        u = DerivSym(())
        assert differentiate(u, "x") == DerivSym((("x", 1),))
        assert differentiate(DerivSym((("x", 2),)), "y") == DerivSym((("x", 2), ("y", 1)))

    def test_product_rule_over_derivative_symbols(self):
        ux = DerivSym((("x", 1),))
        got = differentiate(Product((x, ux)), "x")
        expected = simplify(Sum((ux, Product((x, DerivSym((("x", 2),)))))))
        assert got == expected

    def test_order_zero_is_identity(self):
        e = simplify(Product((x, e_xy)))
        assert differentiate(e, "x", 0) == e


class TestSubstitute:
    def test_plain(self):
        assert substitute(Product((x, y)), {"y": 2}) == simplify(Product((rational(2), x)))

    def test_sin_at_zero(self):
        assert substitute(Product((Power(x, 2), Atom("sin", t))), {"t": 0}) == ZERO

    def test_atom_argument_expanded(self):
        got = substitute(e_xy, {"x": Sum((x, ONE))})
        assert got == Atom("exp", simplify(Sum((Product((x, y)), y))))

    def test_simultaneous(self):
        got = substitute(Product((x, y)), {"x": y, "y": x})
        assert got == simplify(Product((x, y)))

    def test_leaving_class_rejected(self):
        with pytest.raises(UnsupportedExpressionError):
            substitute(Atom("sin", x), {"x": Atom("exp", y)})


class TestStructure:
    def test_free_vars(self):
        assert free_vars(Product((x, e_xy))) == {"x", "y"}
        assert free_vars(DerivSym((("x", 1),))) == frozenset()

    def test_contains_derivsym(self):
        assert contains_derivsym(Product((x, DerivSym(()))))
        assert not contains_derivsym(e_xy)

    def test_deriv_sym_constructor(self):
        assert deriv_sym({"y": 1, "x": 2}) == DerivSym((("x", 2), ("y", 1)))
        assert deriv_sym({"x": 0}) == DerivSym(())


class TestPrinting:
    def test_text_forms(self):
        assert to_text(simplify(Product((rational(-1, 6), Power(x, 2))))) == "-1/6*x^2"
        assert to_text(e_xy) == "exp(x*y)"
        assert to_text(DerivSym((("x", 2), ("y", 1)))) == "D(u,x,2,y,1)"
        assert to_text(ZERO) == "0"

    def test_sum_signs(self):
        e = simplify(Sum((Product((rational(-1), x)), Power(y, 2))))
        assert to_text(e) == "-x + y^2"

    def test_latex_smoke(self):
        e = simplify(Sum((Product((rational(-1, 6), Power(x, 2), Atom("sin", t))), e_xy)))
        s = to_latex(e)
        assert r"\frac{1}{6}" in s and r"\sin" in s and "e^{" in s

    @pytest.mark.parametrize("e, latex", [
        (DerivSym((("x", 2), ("y", 1))), r"\partial_{x}^{2}\partial_{y} u"),
        (Power(Sum((x, ONE)), 2), r"\left(1 + x\right)^{2}"),
        (Product((Power(DerivSym((("x", 1),)), 2), Power(Sum((x, y)), 3))),
         r"\left(\partial_{x} u\right)^{2} \, \left(x + y\right)^{3}"),
        (Product((rational(-1), x, y)), r"-x \, y"),
        (Sum((ONE, Product((rational(-1), Sum((x, y)))))), r"1 - \left(x + y\right)"),
        (Sum((ONE, Product((rational(-3), Sum((x, y)))))), r"1 - 3 \, \left(x + y\right)"),
    ], ids=["derivative", "power-of-sum", "power-of-derivative", "minus-one", "negated-sum", "scaled-sum"])
    def test_latex_forms(self, e, latex):
        assert to_latex(simplify(e)) == latex

    @pytest.mark.parametrize("render", [to_text, to_latex])
    @pytest.mark.parametrize("e", [
        rational(10**5000),
        rational(1, 10**5000),
        simplify(Product((rational(-(10**5000)), x))),
        Power(x, 10**5000),
    ], ids=["integer", "denominator", "coefficient", "exponent"])
    def test_digits_past_the_limit_are_unsupported(self, render, e):
        with pytest.raises(UnsupportedExpressionError, match="more than 4300 digits"):
            render(e)

    def test_operator_overloading(self):
        e = (x + 1) * (x - 1)
        assert expand(e) == expand(Power(x, 2) - 1)
        assert x**2 / 2 == simplify(Product((rational(1, 2), Power(x, 2))))

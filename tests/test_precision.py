"""High-precision evaluation against independent rational series oracles."""

from fractions import Fraction as F

import mpmath
import pytest

from rdtm.errors import UnboundVariableError, UnsupportedExpressionError
from rdtm.expr import Atom, DerivSym, Product, Var, ZERO, rational, simplify
from rdtm.parsing import parse_expr
from rdtm.precision import (
    GUARD_DIGITS,
    MAX_DECIMAL_DIGITS,
    MIN_DECIMAL_DIGITS,
    PrecisionContext,
    eval_number,
    eval_precise,
)

from oracles import cos_oracle, exp_oracle, sin_oracle

CTX50 = PrecisionContext(50)


def as_mpf(value: F, dps=80):
    with mpmath.workdps(dps):
        return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)


def test_zero():
    assert eval_precise(ZERO, {}, CTX50) == 0


def test_sine_value_against_series_oracle():
    e = parse_expr("x^2*sin(t)", ["x"])
    got = eval_precise(e, {"x": 1, "t": 1}, CTX50)
    want = sin_oracle(F(1), 60)
    assert abs(got - as_mpf(want)) < mpmath.mpf(10) ** -50
    assert mpmath.nstr(got, 29) == "0.84147098480789650665250232163"


def test_exp_value_against_series_oracle():
    e = parse_expr("exp(x*y)", ["x", "y"])
    got = eval_precise(e, {"x": F(1, 2), "y": F(1, 2)}, CTX50)
    want = exp_oracle(F(1, 4), 60)
    assert abs(got - as_mpf(want)) < mpmath.mpf(10) ** -50
    assert mpmath.nstr(got, 31) == "1.284025416687741484073420568062"


def test_cos_value_against_series_oracle():
    got = eval_precise(Atom("cos", Var("t")), {"t": F(7, 10)}, CTX50)
    assert abs(got - as_mpf(cos_oracle(F(7, 10), 60))) < mpmath.mpf(10) ** -50


def test_polynomial_subtrees_stay_exact():
    e = parse_expr("1/3*x^2*y - 7/5", ["x", "y"])
    value = eval_number(e, {"x": F(3, 2), "y": F(4)}, mpmath.mp.prec)
    assert isinstance(value, F)
    assert value == F(1, 3) * F(9, 4) * 4 - F(7, 5)


def test_mixed_exactness():
    e = parse_expr("x^2 + exp(x)", ["x"])
    got = eval_precise(e, {"x": F(1, 3)}, CTX50)
    want = F(1, 9) + exp_oracle(F(1, 3), 60)
    assert abs(got - as_mpf(want)) < mpmath.mpf(10) ** -50


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_precise(Var("x"), {}, CTX50)


def test_derivative_symbols_have_no_value():
    with pytest.raises(UnsupportedExpressionError):
        eval_precise(DerivSym(()), {}, CTX50)


def test_floats_rejected():
    with pytest.raises(TypeError):
        eval_precise(Var("x"), {"x": 0.1}, CTX50)


@pytest.mark.parametrize("value", ["1/2", "٣", "1_0e-1"])
def test_numeral_strings_rejected(value):
    with pytest.raises(TypeError, match="is a str, not an exact rational"):
        eval_precise(Var("x"), {"x": value}, CTX50)
    with pytest.raises(TypeError, match="is a str, not an exact rational"):
        eval_number(Var("x"), {"x": value}, mpmath.mp.prec)


def test_precision_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(10)
    with pytest.raises(ValueError):
        PrecisionContext(MAX_DECIMAL_DIGITS + 1)
    assert PrecisionContext(MIN_DECIMAL_DIGITS).working_dps == MIN_DECIMAL_DIGITS + GUARD_DIGITS
    assert PrecisionContext(MAX_DECIMAL_DIGITS).decimal_digits == MAX_DECIMAL_DIGITS


def test_self_consistency_more_digits():
    # raising the precision by 10 digits moves the value by < 10^-(digits-2)
    e = parse_expr("exp(x)*sin(t) + x^3*cos(t)", ["x"])
    point = {"x": F(7, 13), "t": F(5, 7)}
    for digits in (15, 30, 50):
        a = eval_precise(e, point, PrecisionContext(digits))
        b = eval_precise(e, point, PrecisionContext(digits + 10))
        assert abs(a - b) <= abs(b) * mpmath.mpf(10) ** -(digits - 2)


def test_eval_agrees_with_simplify():
    raw = Product((Var("x"), Atom("exp", Var("x")), Var("x"), rational(3)))
    point = {"x": F(2, 7)}
    assert eval_precise(raw, point, CTX50) == eval_precise(simplify(raw), point, CTX50)


def test_deterministic():
    e = parse_expr("exp(x*y)*(sin(t) + cos(t))", ["x", "y"])
    point = {"x": F(1, 2), "y": F(1, 2), "t": F(9, 10)}
    assert eval_precise(e, point, CTX50) == eval_precise(e, point, CTX50)

"""Expression grammar: parsing, errors with positions, print round trips."""

import random
import sys
from fractions import Fraction as F
from math import factorial

import pytest

from rdtm.errors import (
    ParseError,
    UndeclaredIdentifierError,
    UnsupportedExpressionError,
    UnsupportedNonlinearityError,
)
from rdtm.expr import (
    Atom,
    DerivSym,
    Power,
    Product,
    Rational,
    Sum,
    Var,
    expand,
    rational,
    simplify,
    to_text,
)
from rdtm.analysis import fraction_str
from rdtm.parsing import MAX_DERIVATIVE_ORDER, MAX_NESTING, parse_assignments, parse_expr, tokenize

X = ["x", "y"]


def test_product_of_power_and_atom():
    assert parse_expr("x^2 * sin(t)", X) == simplify(
        Product((Power(Var("x"), 2), Atom("sin", Var("t"))))
    )


def test_full_rhs_has_three_canonical_terms():
    e = parse_expr("x^2*((D(u,x,2))^2 + D(u,x,1)*D(u,x,3)) - x^2*(D(u,x,2))^2 - u", ["x"])
    assert isinstance(e, Sum)
    assert len(e.terms) == 3


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("x^*2", X)
    assert err.value.line == 1 and err.value.col == 3


def test_undeclared_identifier():
    with pytest.raises(UndeclaredIdentifierError):
        parse_expr("x + z", X)


def test_non_integer_exponent():
    with pytest.raises(ParseError):
        parse_expr("x^y", X)
    with pytest.raises(ParseError):
        parse_expr("x^1.5", X)


def test_transcendental_argument_rejected():
    with pytest.raises(UnsupportedNonlinearityError):
        parse_expr("exp(u)", X)


def test_decimal_literals_exact():
    assert parse_expr("0.3", X) == Rational(F(3, 10))
    assert parse_expr("0.125*x", X) == simplify(Product((rational(1, 8), Var("x"))))


def test_division_by_rational_only():
    assert parse_expr("x/4", X) == simplify(Product((rational(1, 4), Var("x"))))
    assert parse_expr("x/(2/3)", X) == simplify(Product((rational(3, 2), Var("x"))))
    with pytest.raises(ParseError):
        parse_expr("x/y", X)
    with pytest.raises(ParseError):
        parse_expr("x/0", X)
    with pytest.raises(ParseError):
        parse_expr("x/(1-1)", X)


def test_unary_minus_binds_outside_power():
    assert parse_expr("-x^2", X) == simplify(Product((rational(-1), Power(Var("x"), 2))))


def test_derivative_forms():
    assert parse_expr("D(u,x,2)", X) == DerivSym((("x", 2),))
    assert parse_expr("D(u,x,2,y,1)", X) == DerivSym((("x", 2), ("y", 1)))
    assert parse_expr("D(D(u,x,2),y,1)", X) == DerivSym((("x", 2), ("y", 1)))
    # D over a general expression differentiates mechanically
    assert parse_expr("D(x^3, x, 1)", X) == simplify(Product((rational(3), Power(Var("x"), 2))))
    got = parse_expr("D(x*D(u,y,1), x, 1)", X)
    expected = parse_expr("D(u,y,1) + x*D(u,x,1,y,1)", X)
    assert got == expected


def test_derivative_needs_pairs():
    with pytest.raises(ParseError):
        parse_expr("D(u)", X)
    with pytest.raises(UndeclaredIdentifierError):
        parse_expr("D(u,z,1)", X)


def test_comments_and_whitespace():
    assert parse_expr("x # trailing words\n + y", X) == simplify(Sum((Var("x"), Var("y"))))


def test_reserved_variable_names_rejected():
    with pytest.raises(ValueError):
        parse_expr("x", ["sin"])


@pytest.mark.parametrize(
    "text",
    [
        "x^2*sin(t)",
        "-1/6*x^2",
        "exp(x*y)",
        "2*exp(2*x*y)*cos(t)^3",
        "t*x^2 - 1/6*t^3*x^2 + 1/120*t^5*x^2",
        "D(u,x,2,y,1)",
        "-u - x^2*D(u,x,2)^2 + x^2*(D(u,x,1)*D(u,x,3) + D(u,x,2)^2)",
        "1 + x + 3/7*x^2*y^2",
        # a negated grouped sum must keep its parentheses when printed
        "y^2 - (x + exp(x))",
        "x - 2*(y + sin(t))",
    ],
)
def test_print_parse_fixed_point(text):
    e = parse_expr(text, X)
    printed = to_text(e)
    assert parse_expr(printed, X) == e
    assert to_text(parse_expr(printed, X)) == printed


def test_long_operator_chains_parse_flat():
    poly = parse_expr(" + ".join(f"{k}*x^{k}" for k in range(1, 3001)), X)
    assert isinstance(poly, Sum) and len(poly.terms) == 3000
    assert poly.terms[-1] == Product((rational(3000), Power(Var("x"), 3000)))
    assert parse_expr("*".join(["x"] * 3000), X) == Power(Var("x"), 3000)


def test_sign_runs_fold():
    assert parse_expr("-" * 1200 + "x", X) == Var("x")
    assert parse_expr("-" * 1201 + "x", X) == simplify(Product((rational(-1), Var("x"))))
    assert parse_expr("2*-+-+-y", X) == simplify(Product((rational(-2), Var("y"))))


# (opening text, innermost text, closing text, offset of the reported
# opening token within the opening text)
NESTINGS = {
    "parentheses": ("(", "x + 1", ")", 0),
    "horner": ("x*(1 + ", "y", ")", 2),
    "derivative": ("D(", "u", ",x,1)", 0),
    "atom": ("exp(x + ", "x", ")", 0),
}


def _nested(form, depth):
    opening, inner, closing, _ = NESTINGS[form]
    return opening * depth + inner + closing * depth


def test_nesting_at_the_limit_parses():
    n = MAX_NESTING
    assert parse_expr(_nested("parentheses", n), X) == parse_expr("x + 1", X)
    flat = " + ".join(f"x^{k}" for k in range(1, n + 1)) + f" + x^{n}*y"
    assert expand(parse_expr(_nested("horner", n), X)) == parse_expr(flat, X)
    assert parse_expr(_nested("derivative", n), X) == DerivSym((("x", n),))


def test_nested_atoms_at_the_limit_are_rejected_cleanly():
    with pytest.raises(UnsupportedExpressionError):
        parse_expr(_nested("atom", MAX_NESTING), X)


@pytest.mark.parametrize("form", sorted(NESTINGS))
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_nesting_beyond_the_limit_is_a_parse_error(form, depth):
    with pytest.raises(ParseError, match="nested deeper") as err:
        parse_expr(_nested(form, depth), X)
    opening, _, _, offset = NESTINGS[form]
    assert (err.value.line, err.value.col) == (1, len(opening) * MAX_NESTING + offset + 1)


def test_derivative_order_at_the_limit_parses():
    n = MAX_DERIVATIVE_ORDER
    assert parse_expr(f"D(u,x,{n})", X) == DerivSym((("x", n),))
    assert parse_expr(f"D(u,x,{n - 1},x,1,y,{n})", X) == DerivSym((("x", n), ("y", n)))
    assert parse_expr(f"D(x^{n},x,{n})", X) == rational(factorial(n))


@pytest.mark.parametrize(
    "text, col",
    [
        (f"D(u,x,{MAX_DERIVATIVE_ORDER + 1})", 7),
        ("D(u,x,100000)", 7),
        ("1 + D(exp(x),x,100000)", 16),
        (f"D(u,x,{MAX_DERIVATIVE_ORDER},y,1,x,1)", 16),
    ],
)
def test_derivative_order_beyond_the_limit_is_a_parse_error(text, col):
    with pytest.raises(ParseError, match=f"exceeds {MAX_DERIVATIVE_ORDER}") as err:
        parse_expr(text, X)
    assert (err.value.line, err.value.col) == (1, col)


def _kinds(text):
    return [(tok.kind, tok.text, tok.line, tok.col) for tok in tokenize(text)]


def test_each_token_class():
    assert _kinds('pde "ex 1" { x_1: 0.5 .25 3. 7;\n}') == [
        ("IDENT", "pde", 1, 1),
        ("STRING", "ex 1", 1, 5),
        ("{", "{", 1, 12),
        ("IDENT", "x_1", 1, 14),
        (":", ":", 1, 17),
        ("NUMBER", "0.5", 1, 19),
        ("NUMBER", ".25", 1, 23),
        ("NUMBER", "3.", 1, 27),
        ("NUMBER", "7", 1, 30),
        (";", ";", 1, 31),
        ("}", "}", 2, 1),
        ("EOF", "", 2, 2),
    ]
    assert [tok.kind for tok in tokenize("+-*/^(),{}:;=")] == list("+-*/^(),{}:;=") + ["EOF"]


def test_numerals_and_identifiers_split_where_their_classes_end():
    # a numeral takes at most one '.', and an identifier never starts with a digit
    assert _kinds("1.2.3 2x _a9") == [
        ("NUMBER", "1.2", 1, 1),
        ("NUMBER", ".3", 1, 4),
        ("NUMBER", "2", 1, 7),
        ("IDENT", "x", 1, 8),
        ("IDENT", "_a9", 1, 10),
        ("EOF", "", 1, 13),
    ]


def test_blanks_comments_and_lines():
    assert _kinds('\tx\r\n  # "not a string\n"" y') == [
        ("IDENT", "x", 1, 2),
        ("STRING", "", 3, 1),
        ("IDENT", "y", 3, 4),
        ("EOF", "", 3, 5),
    ]


def test_eof_column_counts_a_trailing_comment():
    assert _kinds("x # note") == [("IDENT", "x", 1, 1), ("EOF", "", 1, 9)]


@pytest.mark.parametrize("text, message, col", [
    ('x + "abc', "unterminated string", 5),
    ('"abc\n"', "unterminated string", 1),
    ("x . y", "unexpected character '.'", 3),
    ("x ! y", "unexpected character '!'", 3),
    ("2²", "unexpected character '²'", 2),
    ("٣", "unexpected character '٣'", 1),
    ("café", "unexpected character 'é'", 4),
    ("x\u00a0+ y", "unexpected character '\\xa0'", 2),
])
def test_characters_outside_the_lexicon(text, message, col):
    """Only ASCII is lexed: non-ASCII digits, letters and blanks are refused."""
    with pytest.raises(ParseError) as err:
        tokenize(text)
    assert str(err.value) == f"line 1, col {col}: {message}"


LONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("text, col", [
    (f"x + {LONG}", 5),
    (f"x + 0.{LONG}", 5),
    (f"x^{LONG}", 3),
    (f"x^(-{LONG})", 5),
    (f"D(u,x,{LONG})", 7),
], ids=["literal", "decimal", "exponent", "negative-exponent", "derivative-order"])
def test_numerals_past_the_digit_limit_are_parse_errors(text, col):
    with pytest.raises(ParseError) as err:
        parse_expr(text, X)
    assert str(err.value) == f"line 1, col {col}: number has more than {sys.get_int_max_str_digits()} digits"


def test_exponent_forms():
    assert parse_expr("2^-2", X) == parse_expr("2^(-2)", X) == Rational(F(1, 4))
    assert parse_expr("x^(2)", X) == parse_expr("x^2", X)


@pytest.mark.parametrize("text, message", [
    ("x^(-2", "col 6: expected ), found 'end of input'"),
    ("x^--2", "col 4: expected integer exponent, found '-'"),
    ("x^(--2)", "col 5: expected integer exponent, found '-'"),
    ("x^", "col 3: expected integer exponent, found 'end of input'"),
    ("x^(-x)", "col 5: expected integer exponent, found 'x'"),
])
def test_malformed_exponents(text, message):
    with pytest.raises(ParseError) as err:
        parse_expr(text, X)
    assert str(err.value) == f"line 1, {message}"


def test_trailing_input_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_expr("x + y )", X)
    assert str(err.value) == "line 1, col 7: unexpected trailing ')'"


# Command-line values: assignments of exact rationals over the same lexicon.


@pytest.mark.parametrize("text, arity, expected", [
    ("x=1", 1, [(("x",), F(1))]),
    ("x=-2", 1, [(("x",), F(-2))]),
    ("x=0.25", 1, [(("x",), F(1, 4))]),
    ("x=3/10", 1, [(("x",), F(3, 10))]),
    ("x=-3/10", 1, [(("x",), F(-3, 10))]),
    ("x=1.5/0.5", 1, [(("x",), F(3))]),
    ("x=.5;y=3.", 1, [(("x",), F(1, 2)), (("y",), F(3))]),
    ("t=1/10:1:1/10", 3, [(("t",), F(1, 10), F(1), F(1, 10))]),
    ("t=-1:1:1/4;x,y=0:1:0.5", 3, [(("t",), F(-1), F(1), F(1, 4)), (("x", "y"), F(0), F(1), F(1, 2))]),
    (" t = - 1 / 2 : 1 : 1 \t; x_1 , y=0:1:1 ", 3, [(("t",), F(-1, 2), F(1), F(1)), (("x_1", "y"), F(0), F(1), F(1))]),
], ids=["integer", "negative", "decimal", "fraction", "negative-fraction", "decimal-fraction",
        "assignments", "range", "ranges-and-names", "blanks"])
def test_assignments(text, arity, expected):
    assert parse_assignments(text, "--opt", arity) == expected


@pytest.mark.parametrize("text, arity, message", [
    ("x=٣/10", 1, "col 3: unexpected character '٣'"),
    ("x=1_0", 1, "col 4: unexpected trailing '_0'"),
    ("x=1e-1", 1, "col 4: unexpected trailing 'e'"),
    ("t=1e-1:1:1", 3, "col 4: expected ':', found 'e'"),
    ("x=+1/2", 1, "col 3: expected a number, found '+'"),
    ("=1/2", 1, "col 1: expected a variable name, found '='"),
    ("x,=1/2", 1, "col 3: expected a variable name, found '='"),
    ("x=1/2;", 1, "col 7: expected a variable name, found 'end of input'"),
    ("", 1, "col 1: expected a variable name, found 'end of input'"),
    ("x 1", 1, "col 3: expected '=', found '1'"),
    ("x=", 1, "col 3: expected a number, found 'end of input'"),
    ("x=--1", 1, "col 4: expected a number, found '-'"),
    ("x=1/-2", 1, "col 5: expected a number, found '-'"),
    ("x=1/0", 1, "col 4: division by zero"),
    ("x=1:2", 1, "col 4: unexpected trailing ':'"),
    ("t=0:1", 3, "col 6: expected ':', found 'end of input'"),
    ("t=0:1;x=0:1:1", 3, "col 6: expected ':', found ';'"),
    ("t=0:1:1:2", 3, "col 8: unexpected trailing ':'"),
], ids=["arabic-indic-digit", "underscore", "exponent", "exponent-in-range", "leading-plus", "no-name",
        "empty-name", "trailing-semicolon", "empty", "no-equals", "no-number", "two-signs",
        "signed-denominator", "zero-denominator", "range-for-a-value", "short-range", "short-first-range",
        "long-range"])
def test_malformed_assignments(text, arity, message):
    with pytest.raises(ParseError) as err:
        parse_assignments(text, "--opt", arity)
    assert str(err.value) == f"--opt: line 1, {message}"


def test_printed_rationals_parse_back():
    """str() and fraction_str() of a Fraction, as benchmark command lines and
    copied table headers pass them, read back to the same value."""
    rng = random.Random(11)
    for _ in range(500):
        value = F(rng.randint(-10**6, 10**6), rng.choice([1, 2, 8, 10, 3, 7, rng.randint(1, 10**6)]))
        for text in (str(value), fraction_str(value)):
            assert parse_assignments(f"x={text}", "--opt", 1) == [(("x",), value)], text

"""Problem-file DSL: parsing, semantic errors, serialization round trips."""

import pytest

from rdtm.engine import solve_series
from rdtm.errors import ParseError, UndeclaredIdentifierError, UnsupportedStructureError
from rdtm.expr import expand
from rdtm.models import ModelId, builtin_model
from rdtm.parsing import MAX_NESTING
from rdtm.specfile import parse_spec_file, serialize_spec

EX3_TEXT = """
# reference problem
pde "ex3" {
  vars: x;
  equation: D(u,t,2) = x^2*(D(u,x,2)^2 + D(u,x,1)*D(u,x,3)) - x^2*D(u,x,2)^2 - u;
  init: 0;  init_t: x^2;  exact: x^2*sin(t);
}
"""


def test_ex3_file_equals_builtin():
    parsed = parse_spec_file(EX3_TEXT)
    assert parsed == builtin_model(ModelId.EX3)


def test_parsed_file_solves_identically(solved):
    parsed = parse_spec_file(EX3_TEXT)
    _, sol = solved(ModelId.EX3, 10)
    assert solve_series(parsed, 10).spectra == sol.spectra


def test_missing_init_t_message():
    text = 'pde "p" { vars: x; equation: D(u,t,2) = u; init: x; }'
    with pytest.raises(ParseError) as err:
        parse_spec_file(text)
    assert "second initial condition required" in str(err.value)


def test_missing_equation():
    with pytest.raises(ParseError):
        parse_spec_file('pde "p" { vars: x; init: x; init_t: x; }')


def test_first_order_time_lhs_rejected():
    text = 'pde "p" { vars: x; equation: D(u,t,1) = u; init: x; init_t: x; }'
    with pytest.raises(UnsupportedStructureError):
        parse_spec_file(text)


def test_other_lhs_rejected():
    text = 'pde "p" { vars: x; equation: 2*u = u; init: x; init_t: x; }'
    with pytest.raises(UnsupportedStructureError):
        parse_spec_file(text)


def test_unknown_variable_reported_with_position():
    text = 'pde "p" { vars: x; equation: D(u,t,2) = z; init: x; init_t: x; }'
    with pytest.raises(UndeclaredIdentifierError) as err:
        parse_spec_file(text)
    assert err.value.line == 1


def test_unknown_field():
    with pytest.raises(ParseError):
        parse_spec_file('pde "p" { vars: x; boundary: x; }')


def test_duplicate_field():
    text = 'pde "p" { vars: x; vars: x; equation: D(u,t,2) = u; init: x; init_t: x; }'
    with pytest.raises(ParseError):
        parse_spec_file(text)


def test_missing_semicolon():
    with pytest.raises(ParseError):
        parse_spec_file('pde "p" { vars: x }')


def test_missing_braces():
    with pytest.raises(ParseError):
        parse_spec_file('pde "p" vars: x;')


def test_init_with_time_dependence_rejected():
    text = 'pde "p" { vars: x; equation: D(u,t,2) = u; init: sin(t); init_t: x; }'
    with pytest.raises(UnsupportedStructureError):
        parse_spec_file(text)


@pytest.mark.parametrize("model", list(ModelId))
def test_serialize_round_trip(solved, model):
    spec, sol = solved(model, 6)
    parsed = parse_spec_file(serialize_spec(spec))
    assert parsed == spec
    assert solve_series(parsed, 6).spectra == sol.spectra


def test_problem_nested_at_the_limit_solves():
    """Horner form x*(1 + x*(1 + ... x)) nested MAX_NESTING deep solves
    like its flat sum of powers."""
    horner = "x*(1 + " * MAX_NESTING + "x" + ")" * MAX_NESTING
    flat = "(" + " + ".join(f"x^{k}" for k in range(1, MAX_NESTING + 2)) + ")"

    def solve(poly):
        text = f'pde "deep" {{ vars: x; equation: D(u,t,2) = u*{poly}; init: {poly}; init_t: 1; }}'
        return solve_series(parse_spec_file(text), 3).spectra

    assert [expand(v) for v in solve(horner)] == [expand(v) for v in solve(flat)]


@pytest.mark.parametrize("body, message", [
    ("vars: x y; equation: D(u,t,2) = u; init: x; init_t: x;", "col 19: unexpected trailing 'y'"),
    ("vars: x; equation: D(u,t,2) = u u; init: x; init_t: x;", "col 43: unexpected trailing 'u'"),
    ("vars: x; equation: D(u,t,2) = u; init: x 2; init_t: x;", "col 52: unexpected trailing '2'"),
    ("vars: x; equation: D(u,t,2) = u; init: x; init_t: x; exact: 1)*x;", "col 72: unexpected trailing ')'"),
], ids=["vars", "equation", "init", "exact"])
def test_trailing_tokens_in_a_field(body, message):
    with pytest.raises(ParseError) as err:
        parse_spec_file(f'pde "p" {{ {body} }}')
    assert str(err.value) == f"line 1, {message}"

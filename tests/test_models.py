"""Built-in models: definitions, closed forms, and the hand-expansion cross-check."""

from fractions import Fraction as F

import mpmath
import pytest

from rdtm.analysis import taylor_coefficient
from rdtm.engine import PdeSpec, compile_recurrence, solve_series
from rdtm.expr import expand, simplify, to_text
from rdtm.models import ModelId, builtin_model
from rdtm.parsing import parse_expr
from rdtm.precision import PrecisionContext, eval_precise

from oracles import exp_oracle

CTX = PrecisionContext(50)


def test_model_ids_are_closed():
    assert [m.value for m in ModelId] == ["ex1", "ex2", "ex3"]


def test_ex1_initial_data(solved):
    spec, _ = solved(ModelId.EX1, 2)
    assert to_text(spec.init_u) == "exp(x*y)"
    assert to_text(spec.init_ut) == "exp(x*y)"


def test_ex2_rhs_contains_minus_18_u_to_the_fifth(solved):
    spec, _ = solved(ModelId.EX2, 2)
    from rdtm.expr import DerivSym, Power, Product, rational

    quintic = simplify(Product((rational(-18), Power(DerivSym(()), 5))))
    assert quintic in expand(spec.rhs).terms


def test_ex3_rhs_compiles_to_four_terms(solved):
    spec, _ = solved(ModelId.EX3, 2)
    assert len(compile_recurrence(spec).terms) == 4


def test_exact_solution_values():
    def exact(model):
        return builtin_model(model).exact

    assert eval_precise(exact(ModelId.EX3), {"x": 1, "t": 0}, CTX) == 0
    assert eval_precise(exact(ModelId.EX1), {"x": 0, "y": 0, "t": 0}, CTX) == 1
    got = eval_precise(exact(ModelId.EX2), {"x": 1, "t": 1}, CTX)
    want = exp_oracle(F(2), 60)
    with mpmath.workdps(70):
        want_mpf = mpmath.mpf(want.numerator) / mpmath.mpf(want.denominator)
    assert abs(got - want_mpf) < mpmath.mpf(10) ** -48
    assert mpmath.nstr(got, 15) == "7.38905609893065"


@pytest.mark.parametrize("model", list(ModelId))
def test_taylor_coefficients_reproduce_initial_spectra(solved, model):
    spec, _ = solved(model, 2)
    assert expand(taylor_coefficient(spec.exact, 0)) == expand(spec.init_u)
    assert expand(taylor_coefficient(spec.exact, 1)) == expand(spec.init_ut)


# The two-dimensional model is stored in compact operator form and expanded
# mechanically.  The fixture below is the 14-term expanded right-hand side
# whose derivative orders agree with the model's own transformed recurrence;
# both forms must produce the same spectra.
EX1_EXPANDED_RHS = (
    "D(u,x,3,y,1)*D(u,y,2) + D(u,x,2,y,1)*D(u,x,1,y,2)"
    " + D(u,x,3)*D(u,y,3) + D(u,x,2)*D(u,x,1,y,3)"
    " - D(u,x,1)*D(u,y,1)"
    " - x*D(u,x,2)*D(u,y,1) - x*D(u,x,1)*D(u,x,1,y,1)"
    " - y*D(u,x,1,y,1)*D(u,y,1) - x*y*D(u,x,2,y,1)*D(u,y,1)"
    " - x*y*D(u,x,1,y,1)^2 - y*D(u,x,1)*D(u,y,2)"
    " - x*y*D(u,x,2)*D(u,y,2) - x*y*D(u,x,1)*D(u,x,1,y,2)"
    " - u"
)

# As printed, the source's expanded form drops one x-derivative in three
# places (terms 1, 2 and 9 below); kept verbatim to document the difference.
EX1_PRINTED_RHS = (
    "D(u,x,2,y,1)*D(u,y,2) + D(u,x,1,y,1)*D(u,x,1,y,2)"
    " + D(u,x,3)*D(u,y,3) + D(u,x,2)*D(u,x,1,y,3)"
    " - D(u,x,1)*D(u,y,1)"
    " - x*D(u,x,2)*D(u,y,1) - x*D(u,x,1)*D(u,x,1,y,1)"
    " - y*D(u,x,1,y,1)*D(u,y,1) - x*y*D(u,x,1,y,1)*D(u,y,1)"
    " - x*y*D(u,x,1,y,1)^2 - y*D(u,x,1)*D(u,y,2)"
    " - x*y*D(u,x,2)*D(u,y,2) - x*y*D(u,x,1)*D(u,x,1,y,2)"
    " - u"
)


def _ex1_with_rhs(text):
    base = builtin_model(ModelId.EX1)
    return PdeSpec(
        name="ex1-expanded",
        spatial_vars=("x", "y"),
        rhs=parse_expr(text, ["x", "y"]),
        init_u=base.init_u,
        init_ut=base.init_ut,
        exact=base.exact,
    )


def test_ex1_compact_form_equals_hand_expansion(solved):
    _, sol_compact = solved(ModelId.EX1, 6)
    sol_expanded = solve_series(_ex1_with_rhs(EX1_EXPANDED_RHS), 6)
    assert sol_compact.spectra[2:6] == sol_expanded.spectra[2:6]
    # stronger: the operator form expands to exactly this polynomial rhs
    spec, _ = solved(ModelId.EX1, 2)
    assert expand(spec.rhs) == expand(parse_expr(EX1_EXPANDED_RHS, ["x", "y"]))


def test_ex1_printed_expansion_transcription_differs(solved):
    """The verbatim printed expansion is not the mechanical expansion: three
    of its factors lost an x-derivative in print.  Reported here rather than
    silently patched; the model itself always uses the operator form."""
    spec, _ = solved(ModelId.EX1, 2)
    printed = parse_expr(EX1_PRINTED_RHS, ["x", "y"])
    assert expand(spec.rhs) != expand(printed)
    sol_printed = solve_series(_ex1_with_rhs(EX1_PRINTED_RHS), 4)
    _, sol = solved(ModelId.EX1, 4)
    assert sol_printed.spectra[2] != sol.spectra[2]


@pytest.mark.parametrize(
    "model,order",
    [(ModelId.EX1, 8), (ModelId.EX2, 10), (ModelId.EX3, 10)],
)
def test_spectra_match_exact_solution_taylor_coefficients(solved, model, order):
    spec, sol = solved(model, order)
    for k, v in enumerate(sol.spectra):
        assert expand(v) == expand(taylor_coefficient(spec.exact, k)), f"k={k}"

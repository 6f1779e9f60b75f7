"""Value semantics of rdtm's immutable classes: the expression nodes, the
problem, recurrence and solution records, grids, tables, tokens and the
precision context.  Sets and dicts of them must iterate in a fixed order,
so hashes are those of the tuple of fields."""

import copy
import pickle
from fractions import Fraction as F

import pytest

import mpmath

from rdtm import ModelId, builtin_model, solve_series
from rdtm.analysis import ErrorTable, FigureData, Grid2D, GridAxis, absolute_error_grid, export_figure_data
from rdtm.engine import PdeSpec, RecurrenceTerm, SeriesSolution, SpectralRecurrence
from rdtm.errors import GridError, InvalidOrderError
from rdtm.expr import Atom, DerivSym, Power, Product, Rational, Sum, Var, rational
from rdtm.parsing import Token
from rdtm.precision import PrecisionContext

X = Var("x")


def test_equality_is_per_class():
    assert Sum((X,)) != Product((X,))
    assert Sum((X,)) == Sum((Var("x"),))
    assert Power(X, 2) == Power(Var("x"), 2) != Power(X, 3)
    assert Atom("sin", X) != Atom("cos", X)
    assert Var("x") != "x"
    assert GridAxis("t", [1]) != GridAxis("x", [1])


def test_hash_is_that_of_the_tuple_of_fields():
    assert hash(Var("x")) == hash(("x",))
    assert hash(Power(X, 2)) == hash((X, 2))
    assert hash(Atom("exp", X)) == hash(("exp", X))
    assert hash(rational(1, 2)) == hash((F(1, 2),))
    assert hash(DerivSym((("x", 1),))) == hash(((("x", 1),),))
    assert hash(Token("IDENT", "x", 1, 2)) == hash(("IDENT", "x", 1, 2))
    assert hash(PrecisionContext(30)) == hash((30,))
    axis = GridAxis("t", [1])
    assert hash(Grid2D(axis, axis)) == hash((axis, axis, ()))


def test_repr_names_every_field():
    assert repr(rational(1, 2)) == "Rational(value=Fraction(1, 2))"
    assert repr(Power(X, 2)) == "Power(base=Var(name='x'), exponent=2)"
    assert repr(Sum((X,))) == "Sum(terms=(Var(name='x'),))"
    assert repr(PrecisionContext()) == "PrecisionContext(decimal_digits=50)"
    assert repr(Token("EOF", "", 3, 1)) == "Token(kind='EOF', text='', line=3, col=1)"
    assert repr(GridAxis("t", [F(1, 2)])) == "GridAxis(name='t', values=(Fraction(1, 2),))"


@pytest.mark.parametrize("value, field", [
    (X, "name"),
    (Power(X, 2), "exponent"),
    (rational(1), "value"),
    (Token("EOF", "", 1, 1), "line"),
    (PrecisionContext(), "decimal_digits"),
    (GridAxis("t", [1]), "values"),
    (FigureData((), ()), "rows"),
])
def test_fields_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_keyword_construction_and_defaults():
    axis = GridAxis(name="t", values=[1, 2])
    grid = Grid2D(row=axis, col=axis)
    assert grid.tie == ()
    assert Grid2D(axis, axis, ["x", "y"]).tie == ("x", "y")
    assert PrecisionContext().decimal_digits == 50
    assert PrecisionContext(decimal_digits=30) == PrecisionContext(30)
    assert Power(base=X, exponent=2) == Power(X, 2)
    assert Atom(kind="exp", argument=X) == Atom("exp", X)
    assert Token(kind="EOF", text="", line=1, col=1) == Token("EOF", "", 1, 1)
    table = ErrorTable(grid=grid, values=((F(0),),), truncation_order=4, precision=50)
    assert table.grid is grid and table.precision == 50
    assert SpectralRecurrence(terms=()).terms == ()


def test_construction_checks_and_normalisations():
    with pytest.raises(GridError):
        GridAxis("t", [])
    with pytest.raises(GridError):
        GridAxis("t", [2, 1])
    assert GridAxis("t", [1, F(3, 2)]).values == (F(1), F(3, 2))
    one = Rational(1)
    assert type(one.value) is F and one.value == F(1)
    assert Rational(value=2) == rational(2)
    with pytest.raises(TypeError):
        Rational(0.5)


def test_records_of_a_solve():
    spec = builtin_model(ModelId.EX3)
    assert PdeSpec("ex3", ["x"], spec.rhs, spec.init_u, spec.init_ut, exact=spec.exact) == spec
    assert PdeSpec(name="p", spatial_vars=["x"], rhs=X, init_u=X, init_ut=X).exact is None
    assert PdeSpec("p", ("x",), X, X, X).spatial_vars == ("x",)
    sol = solve_series(spec, 4)
    assert SeriesSolution(spec, list(sol.spectra), 4) == sol
    assert hash(SeriesSolution(spec, sol.spectra, 4)) == hash((spec, sol.spectra, 4))
    with pytest.raises(InvalidOrderError):
        SeriesSolution(spec, sol.spectra, 5)
    term = RecurrenceTerm(Sum((X, X)), 0, ((),))
    assert term.coefficient == Product((rational(2), X))
    assert term == RecurrenceTerm(coefficient=Product((rational(2), X)), time_shift=0, factors=((),))


@pytest.mark.parametrize("value", [Power(X, 2), rational(1, 2), GridAxis("t", [1]), PrecisionContext()])
def test_copy_and_pickle_give_an_equal_value(value):
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_tables_and_figures_give_mpf_and_rebuild_from_their_values():
    """A computed ErrorTable or FigureData keeps raw libmp values, gives them
    as mpf, and is equal to the record built again from those mpf values;
    copy, pickle and repr work on it."""
    spec = builtin_model(ModelId.EX3)
    sol = solve_series(spec, 4)
    axis = GridAxis("t", [F(1, 2), 1])
    table = absolute_error_grid(sol, spec.exact, Grid2D(axis, GridAxis("x", [F(1, 3), 2])))
    figure = export_figure_data(sol, spec.exact, {"x": F(1, 3)}, [("t", 0, 1, F(1, 2))])
    assert {type(v) for row in table.values for v in row} == {mpmath.mpf}
    assert {type(v) for row in figure.rows for v in row[1:]} == {mpmath.mpf}
    assert [row[0] for row in figure.rows] == [0, F(1, 2), 1]
    assert ErrorTable(table.grid, table.values, table.truncation_order, table.precision) == table
    assert FigureData(figure.columns, figure.rows) == figure
    for value in (table, figure):
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        assert repr(value).startswith(f"{type(value).__name__}(")
    assert table.values[0][0] > 0

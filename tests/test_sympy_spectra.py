"""Differential test of the spectra against sympy.

The recurrence is checked end to end against a computation that shares no
code with rdtm: for each problem the right-hand side is written again as a
sympy function of u, and every spectrum is

    V_{k+2} = [t^k] RHS(sum_{j <= k+1} V_j t^j) / ((k+1)(k+2)).

The coefficient is taken in t-truncated form: RHS is applied to
sum_{j <= k} f_j(x, y) t^j for undefined functions f_j (V_{k+1} t^{k+1}
cannot reach t^k), sympy expands that in t and keeps the coefficient of
t^k, and only then are the spectra found so far and their derivatives
substituted for the f_j and theirs, and the result expanded.  rdtm reads the same problem from problem-file
text, and each of its spectra must differ from sympy's by an expression
that sympy expands to 0.
"""

import random
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from rdtm.analysis import residual_order_check  # noqa: E402
from rdtm.engine import SeriesSolution, solve_series  # noqa: E402
from rdtm.expr import simplify  # noqa: E402
from rdtm.expr import to_text  # noqa: E402
from rdtm.models import ModelId, builtin_model  # noqa: E402
from rdtm.specfile import parse_spec_file  # noqa: E402

from oracles import first_nonvanishing_degree, full_expansion_residual  # noqa: E402

x, y, t = sympy.symbols("x y t")
D = sympy.diff
GROWING_PDE = Path(__file__).resolve().parent.parent / "perfbench" / "problems" / "growing.pde"
RATIONAL_PDE = Path(__file__).resolve().parent / "problems" / "rational.pde"


def sympy_spectra(rhs, init, init_t, order):
    """V_0..V_{order-1} of u_tt = rhs(u), u(0) = init, u_t(0) = init_t."""
    functions = [sympy.Function(f"f{j}")(x, y) for j in range(order)]
    spectra = [sympy.expand(init), sympy.expand(init_t)]
    images = {}  # f_j and its derivatives -> V_j and its derivatives
    for k in range(order - 2):
        images.update(zip(functions, spectra))
        partial = sum(functions[j] * t**j for j in range(k + 1))
        coefficient = sympy.expand(rhs(partial)).coeff(t, k)
        for d in coefficient.atoms(sympy.Derivative) - images.keys():
            images[d] = D(images[d.expr], *d.variable_count)
        coefficient = coefficient.xreplace(images)
        spectra.append(sympy.expand(coefficient / ((k + 1) * (k + 2))))
    return spectra


def assert_same_spectra(spec, rhs, init, init_t, order):
    got = solve_series(spec, order).spectra
    want = sympy_spectra(rhs, init, init_t, order)
    for k, (a, b) in enumerate(zip(got, want)):
        difference = sympy.sympify(to_text(a), convert_xor=True, locals={"x": x, "y": y}) - b
        assert sympy.expand(difference) == 0, (spec.name, k, to_text(a), b)


# The paper's problems and the growing one, transcribed from their
# definitions in sympy's notation.
PROBLEMS = {
    "ex1": (
        lambda u: D(D(u, x, 2) * D(u, y, 2), x, y) - D(x * y * D(u, x) * D(u, y), x, y) - u,
        sympy.exp(x * y), sympy.exp(x * y), 5,
    ),
    "ex2": (
        lambda u: u**2 * D(D(u, x) * D(u, x, 2) * D(u, x, 3), x, 2)
        + D(u, x) ** 2 * D(D(u, x, 2) ** 3, x, 2) - 18 * u**5 + u,
        sympy.exp(x), sympy.exp(x), 5,
    ),
    "ex3": (
        lambda u: x**2 * D(D(u, x) * D(u, x, 2), x) - x**2 * D(u, x, 2) ** 2 - u,
        0, x**2, 8,
    ),
    "growing": (
        lambda u: u * D(u, x, 2) + t * y * D(u, y) ** 2 - x * u,
        1 + x * y + x**2, sympy.sin(x) + y, 10,
    ),
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_named_problems(name):
    rhs, init, init_t, order = PROBLEMS[name]
    if name == "growing":
        spec = parse_spec_file(GROWING_PDE.read_text())
    else:
        spec = builtin_model(ModelId(name))
    assert_same_spectra(spec, rhs, init, init_t, order)


# (problem-file text, sympy form) of the pieces a random problem is made of
FACTORS = {
    ("x",): [("u", lambda u: u), ("D(u,x,1)", lambda u: D(u, x)), ("D(u,x,2)", lambda u: D(u, x, 2))],
    ("x", "y"): [("u", lambda u: u), ("D(u,x,1)", lambda u: D(u, x)), ("D(u,y,1)", lambda u: D(u, y)),
                 ("D(u,x,1,y,1)", lambda u: D(u, x, y))],
}
DATA = {
    ("x",): ["0", "1", "1 + x", "x^2 - 2*x", "exp(x)", "sin(x)", "cos(2*x)", "1/2*x*exp(x)",
             "sin(x^2)", "exp(-x) + x^3"],
    ("x", "y"): ["1 + x*y", "exp(x*y)", "x + sin(y)", "cos(x - y)", "x^2*y", "exp(x)*y"],
}


def random_problem(rng, index):
    """u_tt = sum of 1-3 terms c * (monomial) * t^n * (0-3 factors of u),
    with initial data drawn from polynomials and atoms."""
    names = rng.choice(sorted(FACTORS))
    texts, functions = [], []
    for _ in range(rng.randint(1, 3)):
        c = sympy.Rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        powers = [rng.randint(0, 2) for _ in names]
        n = rng.randint(0, 2)
        chosen = [rng.choice(FACTORS[names]) for _ in range(rng.randint(0, 3))]
        monomial = "*".join(f"{v}^{p}" for v, p in zip(names, powers))
        texts.append("*".join([f"({c})", monomial, f"t^{n}", *(text for text, _ in chosen)]))
        functions.append((c, powers, n, [f for _, f in chosen]))

    def rhs(u):
        total = 0
        for c, powers, n, chosen in functions:
            term = c * t**n
            for v, p in zip(names, powers):
                term *= sympy.Symbol(v) ** p
            for f in chosen:
                term *= f(u)
            total += term
        return total

    init, init_t = (rng.choice(DATA[names]) for _ in range(2))
    text = (
        f'pde "random{index}" {{ vars: {", ".join(names)}; equation: D(u,t,2) = {" + ".join(texts)}; '
        f"init: {init}; init_t: {init_t}; }}"
    )
    as_sympy = [sympy.sympify(e, convert_xor=True, locals={"x": x, "y": y}) for e in (init, init_t)]
    return parse_spec_file(text), rhs, *as_sympy


@pytest.mark.parametrize("seed", range(30))
def test_random_problems(seed):
    rng = random.Random(seed)
    spec, rhs, init, init_t = random_problem(rng, seed)
    assert_same_spectra(spec, rhs, init, init_t, 5)


# Atom arguments with rational coefficients and mixed denominators, which
# the derivative chain rules scale by: (problem-file text or path, sympy
# right-hand side, init, init_t, order).  The first is tests/problems/rational.pde.
RATIONAL_PROBLEMS = {
    "rational": (
        RATIONAL_PDE,
        lambda u: sympy.Rational(1, 3) * u * D(u, x) + sympy.Rational(1, 7) * x * t * D(u, x, 2)
        - sympy.Rational(5, 11) * D(u, x, y),
        sympy.sin(x / 2) + sympy.Rational(3, 5) * sympy.exp(sympy.Rational(2, 3) * x * y),
        sympy.cos(x / 3 - y / 4), 6,
    ),
    "one-variable": (
        'pde "one-variable" { vars: x; equation: D(u,t,2) = -2/3*u*D(u,x,2) + 1/5*x^2*D(u,x,1); '
        "init: exp(-1/2*x) + sin(3/4*x); init_t: cos(2/5*x); }",
        lambda u: -sympy.Rational(2, 3) * u * D(u, x, 2) + sympy.Rational(1, 5) * x**2 * D(u, x),
        sympy.exp(-x / 2) + sympy.sin(sympy.Rational(3, 4) * x), sympy.cos(sympy.Rational(2, 5) * x), 6,
    ),
    "mixed": (
        'pde "mixed" { vars: x, y; equation: D(u,t,2) = 3/4*D(u,y,1)^2 - 1/6*t*u + D(u,x,1,y,1); '
        "init: x*exp(1/3*x - 2/5*y); init_t: sin(1/2*x*y) + 7/9*cos(5/6*y); }",
        lambda u: sympy.Rational(3, 4) * D(u, y) ** 2 - sympy.Rational(1, 6) * t * u + D(u, x, y),
        x * sympy.exp(x / 3 - sympy.Rational(2, 5) * y),
        sympy.sin(x * y / 2) + sympy.Rational(7, 9) * sympy.cos(sympy.Rational(5, 6) * y), 5,
    ),
}


def rational_problem(name):
    source, rhs, init, init_t, order = RATIONAL_PROBLEMS[name]
    text = source.read_text() if isinstance(source, Path) else source
    return parse_spec_file(text), rhs, init, init_t, order


@pytest.mark.parametrize("name", sorted(RATIONAL_PROBLEMS))
def test_rational_atom_arguments(name):
    assert_same_spectra(*rational_problem(name))


@pytest.mark.parametrize("name", sorted(RATIONAL_PROBLEMS))
def test_rational_residual_matches_full_expansion(name):
    """The truncated residual check against the full expansion, on the
    solved series and with V_1 or V_3 disturbed, at order 5: the full
    expansion is the slow side."""
    spec, order = rational_problem(name)[0], 5
    sol = solve_series(spec, order)
    candidates = [sol]
    for k in (1, 3):
        spectra = list(sol.spectra)
        spectra[k] = simplify(spectra[k] + 1)
        candidates.append(SeriesSolution(spec, tuple(spectra), order))
    for candidate in candidates:
        want = first_nonvanishing_degree(full_expansion_residual(spec, candidate), order)
        assert residual_order_check(spec, candidate) == want

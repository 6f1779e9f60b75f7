"""Recurrence compilation, convolution, stepping and the series solver."""

import random
from pathlib import Path

import pytest

import rdtm.engine
import rdtm.expr

from rdtm.engine import (
    SOURCE,
    PdeSpec,
    RecurrenceState,
    SeriesSolution,
    cauchy_product,
    compile_recurrence,
    evaluate_term,
    solve_series,
    substitute_derivatives,
)
from rdtm.errors import (
    InvalidOrderError,
    UnsupportedCoefficientError,
    UnsupportedStructureError,
)
from rdtm.expr import (
    ZERO,
    Atom,
    DerivSym,
    add_expanded,
    Power,
    Product,
    Sum,
    Var,
    differentiate,
    expand,
    mul_expanded,
    rational,
    simplify,
    to_text,
)
from rdtm.models import ModelId, builtin_model
from rdtm.parsing import MAX_ORDER, parse_expr
from rdtm.specfile import parse_spec_file

from oracles import nested_convolution

x = Var("x")
e_x = Atom("exp", x)


def term_signature(term):
    return (to_text(term.coefficient), term.time_shift, term.factors)


class TestCompile:
    def test_ex3_has_four_terms_including_the_cancelling_pair(self, solved):
        spec, _ = solved(ModelId.EX3, 2)
        rec = compile_recurrence(spec)
        assert len(rec.terms) == 4
        got = sorted(term_signature(t) for t in rec.terms)
        assert got == sorted(
            [
                ("x^2", 0, ((("x", 2),), (("x", 2),))),
                ("x^2", 0, ((("x", 1),), (("x", 3),))),
                ("-x^2", 0, ((("x", 2),), (("x", 2),))),
                ("-1", 0, ((),)),
            ]
        )

    def test_ex2_has_seven_quintic_terms_plus_linear(self, solved):
        spec, _ = solved(ModelId.EX2, 2)
        rec = compile_recurrence(spec)
        assert len(rec.terms) == 8
        quintic = [t for t in rec.terms if len(t.factors) == 5]
        linear = [t for t in rec.terms if len(t.factors) == 1]
        assert len(quintic) == 7 and len(linear) == 1
        assert term_signature(linear[0]) == ("1", 0, ((),))
        signatures = {term_signature(t) for t in quintic}
        assert ("3", 0, ((), (), (("x", 2),), (("x", 3),), (("x", 3),))) in signatures
        assert ("-18", 0, ((), (), (), (), ())) in signatures

    def test_ex1_mechanical_expansion_has_fourteen_terms(self, solved):
        spec, _ = solved(ModelId.EX1, 2)
        rec = compile_recurrence(spec)
        assert len(rec.terms) == 14

    def test_source_term_uses_delta_factor(self):
        spec = PdeSpec("src", ("x",), parse_expr("x^2*t^3 - u", ["x"]),
                       parse_expr("0", ["x"]), parse_expr("0", ["x"]))
        rec = compile_recurrence(spec)
        by_shift = {t.time_shift: t for t in rec.terms}
        assert by_shift[3].factors == (SOURCE,)
        assert by_shift[3].coefficient == simplify(Power(x, 2))
        assert by_shift[0].factors == ((),)

    def test_time_derivative_in_rhs_rejected(self):
        spec = PdeSpec("bad", ("x",), parse_expr("D(u,t,1)", ["x"]),
                       ZERO, ZERO)
        with pytest.raises(UnsupportedStructureError):
            compile_recurrence(spec)

    def test_non_monomial_time_coefficient_rejected(self):
        spec = PdeSpec("bad", ("x",), parse_expr("sin(t)*D(u,x,2)", ["x"]),
                       ZERO, ZERO)
        with pytest.raises(UnsupportedCoefficientError):
            compile_recurrence(spec)


class TestInitialSpectra:
    @pytest.mark.parametrize(
        "model,expected",
        [
            (ModelId.EX1, ("exp(x*y)", "exp(x*y)")),
            (ModelId.EX2, ("exp(x)", "exp(x)")),
            (ModelId.EX3, ("0", "x^2")),
        ],
    )
    def test_builtin(self, solved, model, expected):
        """V_0 and V_1 of a solve are the initial data."""
        spec, sol = solved(model, 2)
        assert sol.spectra == (spec.init_u, spec.init_ut)
        assert tuple(to_text(v) for v in sol.spectra) == expected


class TestCauchyProduct:
    def test_two_exp_sequences_at_two(self):
        seq = [e_x, e_x, simplify(Product((rational(1, 2), e_x)))]
        got = cauchy_product([seq, seq], 2)
        assert got == simplify(Product((rational(2), Atom("exp", Product((rational(2), x))))))

    def test_index_zero_is_plain_product(self):
        seqs = [[x], [e_x], [Power(x, 2)]]
        assert cauchy_product(seqs, 0) == expand(Product((x, e_x, Power(x, 2))))

    def test_single_sequence_is_identity(self):
        seq = [x, Power(x, 2), Power(x, 3)]
        assert cauchy_product([seq], 2) == simplify(Power(x, 3))

    def test_fold_matches_nested_sum_oracle_for_expressions(self):
        seqs = [
            [simplify(Product((rational(c), Power(x, i + 1)))) for i, c in enumerate(row)]
            for row in [(1, 2, 3, 4, 5), (1, -1, 1, -1, 1), (2, 0, 1, 0, 2)]
        ]
        for k in range(5):
            assert cauchy_product(seqs, k) == expand(nested_convolution(seqs, k))

    def test_index_errors(self):
        with pytest.raises(IndexError):
            cauchy_product([[x]], 1)
        with pytest.raises(IndexError):
            cauchy_product([[x]], -1)
        with pytest.raises(ValueError):
            cauchy_product([], 0)


def initial_state(spec):
    return RecurrenceState(compile_recurrence(spec), [spec.init_u, spec.init_ut])


class TestAdvanceStep:
    def test_ex3_first_step_vanishes(self, solved):
        spec, _ = solved(ModelId.EX3, 2)
        assert initial_state(spec).step() == ZERO

    def test_ex3_second_step(self, solved):
        spec, _ = solved(ModelId.EX3, 2)
        state = initial_state(spec)
        state.step()
        v3 = state.step()
        assert v3 == simplify(Product((rational(-1, 6), Power(x, 2))))

    def test_ex2_first_step_quintic_cancellation(self, solved):
        spec, _ = solved(ModelId.EX2, 2)
        v2 = initial_state(spec).step()
        assert v2 == simplify(Product((rational(1, 2), e_x)))


class TestSolveSeries:
    def test_invalid_order(self, solved):
        spec, _ = solved(ModelId.EX3, 2)
        with pytest.raises(InvalidOrderError):
            solve_series(spec, 1)

    def test_order_at_the_limit_is_solved(self, monkeypatch, solved):
        """The stubbed step appends a zero spectrum, so the run is instant."""
        spec, _ = solved(ModelId.EX3, 2)
        steps = []

        def step(state):
            steps.append(len(state.spectra))
            state.spectra.append(ZERO)
            return ZERO

        monkeypatch.setattr(RecurrenceState, "step", step)
        sol = solve_series(spec, MAX_ORDER)
        assert sol.order == MAX_ORDER and steps == list(range(2, MAX_ORDER))

    def test_order_over_the_limit_compiles_nothing(self, monkeypatch, solved):
        spec, _ = solved(ModelId.EX3, 2)

        def refuse(*args):
            raise AssertionError("a recurrence of the rejected order was compiled or stepped")

        monkeypatch.setattr(rdtm.engine, "compile_recurrence", refuse)
        monkeypatch.setattr(RecurrenceState, "step", refuse)
        with pytest.raises(InvalidOrderError, match=f"{MAX_ORDER + 1} is more than the limit of {MAX_ORDER}"):
            solve_series(spec, MAX_ORDER + 1)

    def test_deterministic(self, solved):
        spec, _ = solved(ModelId.EX3, 2)
        assert solve_series(spec, 8).spectra == solve_series(spec, 8).spectra

    def test_spectra_are_time_free(self, solved):
        _, sol = solved(ModelId.EX1, 8)
        from rdtm.expr import free_vars

        for v in sol.spectra:
            assert "t" not in free_vars(v)

    def test_source_delta_drives_inhomogeneous_problem(self):
        # u_tt = x^2 * t with zero initial data: V_3 = x^2/6, others zero
        spec = PdeSpec("src", ("x",), parse_expr("x^2*t", ["x"]), ZERO, ZERO)
        sol = solve_series(spec, 6)
        assert [to_text(v) for v in sol.spectra] == ["0", "0", "0", "1/6*x^2", "0", "0"]

    def test_series_solution_length_checked(self, solved):
        spec, _ = solved(ModelId.EX3, 2)
        with pytest.raises(InvalidOrderError):
            SeriesSolution(spec, (ZERO,), 2)

    def test_to_expr(self, solved):
        spec, sol = solved(ModelId.EX3, 4)
        assert to_text(sol.to_expr()) == "t*x^2 - 1/6*t^3*x^2"

    def test_to_expr_uses_the_spectra_as_given(self, monkeypatch):
        """Solved spectra are canonical and expanded, so forming the series
        expands none of them again."""
        sol = solve_series(parse_spec_file(GROWING_PDE.read_text()), 8)
        calls = []

        def counting(e):
            calls.append(e)
            return expand(e)

        monkeypatch.setattr(rdtm.expr, "expand", counting)
        series = sol.to_expr()
        assert not calls
        monkeypatch.undo()
        assert series == add_expanded(
            mul_expanded(expand(v), simplify(Power(Var("t"), k))) for k, v in enumerate(sol.spectra)
        )


class TestTermEvaluation:
    def test_time_shift_delays_contribution(self):
        spec = PdeSpec("shifted", ("x",), parse_expr("x*t^2*u - u", ["x"]),
                       ZERO, ZERO)
        rec = compile_recurrence(spec)
        shifted = next(t for t in rec.terms if t.time_shift == 2)
        unshifted = next(t for t in rec.terms if t.time_shift == 0)
        spectra = [simplify(Power(x, i + 1)) for i in range(5)]
        for k in range(2):
            assert evaluate_term(shifted, spectra, k) == ZERO
        for k in range(2, 5):
            # the shifted term is x * V_{k-2}; the unshifted one is -V_{k-2}
            want = expand(Product((rational(-1), x, evaluate_term(unshifted, spectra, k - 2))))
            assert evaluate_term(shifted, spectra, k) == want


class TestSubstituteDerivatives:
    def test_exact_solution_satisfies_ex3(self, solved):
        spec, _ = solved(ModelId.EX3, 2)
        from rdtm.expr import differentiate

        rhs_at_exact = substitute_derivatives(spec.rhs, spec.exact)
        lhs = differentiate(spec.exact, "t", 2)
        assert expand(lhs - rhs_at_exact) == ZERO


class TestPdeSpecValidation:
    def test_init_must_be_time_free(self):
        with pytest.raises(UnsupportedStructureError):
            PdeSpec("bad", ("x",), ZERO, parse_expr("sin(t)", ["x"]), ZERO)

    def test_init_must_not_involve_u(self):
        with pytest.raises(UnsupportedStructureError):
            PdeSpec("bad", ("x",), ZERO, parse_expr("u", ["x"]), ZERO)

    def test_spatial_vars_required(self):
        with pytest.raises(UnsupportedStructureError):
            PdeSpec("bad", (), ZERO, ZERO, ZERO)

    def test_reserved_names_rejected(self):
        with pytest.raises(UnsupportedStructureError):
            PdeSpec("bad", ("sin",), ZERO, ZERO, ZERO)


def reference_step(rec, spectra, k):
    """V_{k+2} from the reference fold: every term convolves freshly computed
    image sequences with cauchy_product, with no state kept between terms."""
    parts = []
    for term in rec.terms:
        j = k - term.time_shift
        if j < 0:
            continue
        if term.factors == (SOURCE,):
            if j == 0:
                parts.append(expand(term.coefficient))
            continue
        sequences = []
        for orders in term.factors:
            images = []
            for v in spectra[: j + 1]:
                for var, order in orders:
                    v = differentiate(v, var, order)
                images.append(expand(v))
            sequences.append(images)
        parts.append(mul_expanded(expand(term.coefficient), cauchy_product(sequences, j)))
    return mul_expanded(simplify(Sum(tuple(parts))), rational(1, (k + 1) * (k + 2)))


def assert_matches_reference(spec, order):
    rec = compile_recurrence(spec)
    spectra = solve_series(spec, order).spectra
    for k in range(order - 2):
        assert spectra[k + 2] == reference_step(rec, spectra[: k + 2], k), (spec.name, k + 2)


GROWING_PDE = Path(__file__).resolve().parent.parent / "perfbench" / "problems" / "growing.pde"


def _random_spec(rng, index):
    """u_tt = sum of 1-3 terms c * x^a * t^n * (2 or 3 derivative factors)."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rational(rng.randint(-3, 3) or 1, rng.randint(1, 3)),
                   Power(x, rng.randint(0, 2)), Power(Var("t"), rng.randint(0, 2))]
        for _ in range(rng.randint(2, 3)):
            factors.append(DerivSym(rng.choice(((), (("x", 1),), (("x", 2),), (("x", 3),)))))
        terms.append(Product(tuple(factors)))
    init = [
        simplify(Sum(tuple(Product((rational(rng.randint(-3, 3)), Power(x, d))) for d in range(5))))
        for _ in range(2)
    ]
    return PdeSpec(f"random-{index}", ("x",), Sum(tuple(terms)), init[0], init[1])


class TestRecurrenceState:
    @pytest.mark.parametrize("model,order", [(ModelId.EX1, 7), (ModelId.EX2, 8), (ModelId.EX3, 10)])
    def test_builtin_spectra_match_reference_fold(self, model, order):
        assert_matches_reference(builtin_model(model), order)

    def test_growing_spectra_match_reference_fold(self):
        assert_matches_reference(parse_spec_file(GROWING_PDE.read_text()), 7)

    def test_random_recurrences_match_reference_fold(self):
        rng = random.Random(20613)
        for index in range(25):
            assert_matches_reference(_random_spec(rng, index), 6)

    def test_step_extends_every_memo_by_one_entry(self, solved):
        spec, _ = solved(ModelId.EX2, 2)
        state = initial_state(spec)
        for k in range(4):
            state.step()
            assert len(state.spectra) == k + 3
            assert {len(seq) for seq in state.images.values()} == {k + 1}
            assert {len(seq) for seq in state.products.values()} == {k + 1}
        # the quintic terms share sorted prefixes, e.g. (u, u) starts five of them
        unshared = sum(len(term.factors) - 1 for term in state.rec.terms)
        assert ((), ()) in state.products and len(state.products) < unshared

    def test_solve_cost_grows_quadratically(self, monkeypatch, solved):
        """ex2 spectra are single terms, so kernel calls count convolution
        terms: O(K^2) per solve gives a ratio near 4 from order 10 to 20,
        the per-step recompute O(K^3) near 8."""
        spec, _ = solved(ModelId.EX2, 2)
        calls = [0]
        original = rdtm.expr.mul_expanded

        def counting(a, b):
            calls[0] += 1
            return original(a, b)

        monkeypatch.setattr(rdtm.expr, "mul_expanded", counting)
        counts = []
        for order in (10, 20):
            calls[0] = 0
            solve_series(spec, order)
            counts.append(calls[0])
        assert counts[1] < 6 * counts[0], counts

    def test_solve_does_not_recanonicalize_kernel_results(self, monkeypatch, solved):
        """Steps merge canonical products with add_expanded, so simplify runs
        only on raw trees.  Re-simplifying every convolution entry and step
        sum would grow like the O(K^3) recompute (3.7x from order 10 to 20)."""
        spec, _ = solved(ModelId.EX2, 2)
        calls = [0]
        original = rdtm.expr.simplify

        def counting(e):
            calls[0] += 1
            return original(e)

        monkeypatch.setattr(rdtm.expr, "simplify", counting)
        counts = []
        for order in (10, 20):
            calls[0] = 0
            solve_series(spec, order)
            counts.append(calls[0])
        assert counts[1] < 3 * counts[0], counts

    def test_coefficients_are_expanded_once_at_compile_time(self, monkeypatch, solved):
        """Terms store their coefficients expanded, so a contribution whose
        images and products are already memoized calls expand not at all,
        rather than once per term at every step."""
        spec, _ = solved(ModelId.EX1, 2)
        state = initial_state(spec)
        state.step()
        assert all(term.coefficient == expand(term.coefficient) for term in state.rec.terms)
        calls = [0]
        original = rdtm.expr.expand

        def counting(e):
            calls[0] += 1
            return original(e)

        monkeypatch.setattr(rdtm.expr, "expand", counting)
        for term in state.rec.terms:
            state.contribution(term, 0)
        assert calls[0] == 0

"""Recurrence compilation, convolution, stepping and the series solver."""

import math
import pickle
import random
import weakref
from pathlib import Path

import pytest

import rdtm.engine
import rdtm.expr
import rdtm.packed
from rdtm import expr as ex

from rdtm.engine import (
    SOURCE,
    PdeSpec,
    RecurrenceState,
    RecurrenceTerm,
    SeriesSolution,
    cauchy_product,
    compile_recurrence,
    evaluate_term,
    solve_series,
)
from rdtm.analysis import residual_order_check
from rdtm.cli import main
from rdtm.errors import (
    InvalidOrderError,
    RdtmError,
    UnsupportedCoefficientError,
    UnsupportedExpressionError,
    UnsupportedStructureError,
)
from rdtm.expr import (
    ZERO,
    Atom,
    DerivSym,
    addends,
    Power,
    Product,
    Sum,
    Var,
    differentiate,
    expand,
    mul_expanded,
    rational,
    simplify,
    to_latex,
    to_text,
)
from rdtm.models import ModelId, builtin_model
from rdtm.packed import Packing, Poly
from rdtm.parsing import MAX_ORDER, parse_expr
from rdtm.specfile import parse_spec_file

from oracles import nested_convolution, packed_to_expr, series_fold, series_insert, substitute_derivatives

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
        """PdeSpec refuses it, so compile_recurrence never sees it."""
        with pytest.raises(UnsupportedCoefficientError, match=r"integer powers t\^n, found sin\(t\)$"):
            PdeSpec("bad", ("x",), parse_expr("sin(t)*D(u,x,2)", ["x"]), ZERO, ZERO)


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
        state = initial_state(spec)
        assert state.packing.to_expr(state.advance()) == ZERO

    def test_ex3_second_step(self, solved):
        spec, _ = solved(ModelId.EX3, 2)
        state = initial_state(spec)
        state.advance()
        v3 = state.packing.to_expr(state.advance())
        assert v3 == simplify(Product((rational(-1, 6), Power(x, 2))))

    def test_ex2_first_step_quintic_cancellation(self, solved):
        spec, _ = solved(ModelId.EX2, 2)
        state = initial_state(spec)
        v2 = state.packing.to_expr(state.advance())
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

        def advance(state):
            steps.append(len(state.packed))
            state.packed.append(Poly())
            return state.packed[-1]

        monkeypatch.setattr(RecurrenceState, "advance", advance)
        sol = solve_series(spec, MAX_ORDER)
        assert sol.order == MAX_ORDER and steps == list(range(2, MAX_ORDER))

    def test_order_over_the_limit_compiles_nothing(self, monkeypatch, solved):
        spec, _ = solved(ModelId.EX3, 2)

        def refuse(*args):
            raise AssertionError("a recurrence of the rejected order was compiled or stepped")

        monkeypatch.setattr(rdtm.engine, "compile_recurrence", refuse)
        monkeypatch.setattr(RecurrenceState, "advance", refuse)
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

    def test_series_solution_order_must_be_an_int(self, solved):
        """An order that equals the number of spectra is still refused unless
        it is an int, as ``solve_series`` refuses one."""
        spec, _ = solved(ModelId.EX3, 2)
        for spectra, order in (((ZERO,) * 3, 3.0), ((ZERO,), True)):
            with pytest.raises(InvalidOrderError, match=f"^order must be an integer, got {order!r}$"):
                SeriesSolution(spec, spectra, order)

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
        assert series == series_fold(sol)


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

    def test_short_spectra_name_the_missing_index(self):
        """A term at index k reads spectra 0..k - time_shift, as
        cauchy_product reads its sequences; a SOURCE term reads none."""
        term = RecurrenceTerm(x, 1, ((), (("x", 1),)))
        spectra = [x, simplify(Power(x, 2))]
        with pytest.raises(IndexError, match="^sequence of length 2 has no index 2$"):
            evaluate_term(term, spectra, 3)
        with pytest.raises(IndexError, match="^sequence of length 0 has no index 0$"):
            evaluate_term(term, [], 1)
        assert evaluate_term(term, spectra, 2) == expand(parse_expr("x*(x*2*x + x^2*1)", ["x"]))
        assert evaluate_term(term, [], 0) == ZERO
        source = RecurrenceTerm(x, 1, (SOURCE,))
        assert [evaluate_term(source, [], k) for k in range(3)] == [ZERO, x, ZERO]

    def test_a_spectrum_with_t_is_refused(self):
        term = RecurrenceTerm(x, 0, ((("x", 2),),))
        with pytest.raises(RdtmError, match="V_1 contains t"):
            evaluate_term(term, [x, parse_expr("x^2*t", ["x"])], 1)

    def test_a_coefficient_with_t_is_refused(self):
        """Its power of t belongs in the time shift; sin(t) belongs nowhere."""
        for text in ("x*t", "sin(t)"):
            with pytest.raises(UnsupportedCoefficientError, match="coefficient contains t"):
                RecurrenceTerm(parse_expr(text, ["x"]), 0, ((),))


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

    @pytest.mark.parametrize("rhs, factor", [
        ("sin(t)^2*u", "sin(t)^2"),
        ("exp(x*t)*u + cos(t)*D(u,x,1)", "exp(t*x)"),
        ("D(u,x,1)*cos(t) + x*exp(x*t)*u", "cos(t)"),
    ])
    def test_an_atom_of_t_in_the_rhs_is_refused(self, rhs, factor):
        """The message names the first offending factor in compile order."""
        with pytest.raises(UnsupportedCoefficientError) as info:
            PdeSpec("bad", ("x",), parse_expr(rhs, ["x"]), ZERO, ZERO)
        assert str(info.value) == f"coefficients may depend on t only through integer powers t^n, found {factor}"

    def test_the_right_hand_side_is_distributed_once(self, monkeypatch):
        """The check for an atom of t walks the tree, so only compilation
        distributes a right-hand side that has none."""
        seen = []
        original = rdtm.engine._monomials

        def recording(e):
            seen.append(e)
            return original(e)

        monkeypatch.setattr(rdtm.engine, "_monomials", recording)
        spec = parse_spec_file(GROWING_PDE.read_text())
        assert not any(e is spec.rhs for e in seen)
        compile_recurrence(spec)
        assert sum(e is spec.rhs for e in seen) == 1


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
            state.advance()
            assert len(state.packed) == k + 3
            assert {len(seq) for seq in state.images.values()} == {k + 1}
            assert {len(seq) for seq in state.products.values()} == {k + 1}
        # the quintic terms share sorted prefixes, e.g. (u, u) starts five of them
        unshared = sum(len(term.factors) - 1 for term in state.rec.terms)
        assert ((), ()) in state.products and len(state.products) < unshared

    def test_solve_cost_grows_quadratically(self, monkeypatch, solved):
        """ex2 spectra are single terms, so packed products count convolution
        terms: O(K^2) per solve gives a ratio near 4 from order 10 to 20,
        the per-step recompute O(K^3) near 8."""
        spec, _ = solved(ModelId.EX2, 2)
        calls = [0]
        original = Packing.mul_into

        def counting(self, *args):
            calls[0] += 1
            return original(self, *args)

        monkeypatch.setattr(Packing, "mul_into", counting)
        counts = []
        for order in (10, 20):
            calls[0] = 0
            solve_series(spec, order)
            counts.append(calls[0])
        assert 0 < counts[0] and counts[1] < 6 * counts[0], counts

    def test_solve_does_not_recanonicalize_kernel_results(self, monkeypatch, solved):
        """Trees are packed only where they come in: the initial spectra, the
        term coefficients and the exp arguments.  The solve converts no
        spectrum to a tree; the first read of ``spectra`` converts each one
        once, the initial data too, and a second read none.  Packing every spectrum again for
        its images, or every convolution entry, would grow like the O(K^3)
        recompute (3.7x from order 10 to 20)."""
        spec, _ = solved(ModelId.EX2, 2)
        calls = {"from_expr": 0, "to_expr": 0}
        from_expr, to_expr = Packing.from_expr, Packing.to_expr

        def packing(self, *args):
            calls["from_expr"] += 1
            return from_expr(self, *args)

        def converting(self, p):
            calls["to_expr"] += 1
            return to_expr(self, p)

        monkeypatch.setattr(Packing, "from_expr", packing)
        monkeypatch.setattr(Packing, "to_expr", converting)
        counts, reads = [], []
        for order in (10, 20):
            calls.update(from_expr=0, to_expr=0)
            sol = solve_series(spec, order)
            counts.append(dict(calls))
            for _ in range(2):
                calls.update(from_expr=0, to_expr=0)
                assert len(sol.spectra) == order
                reads.append(dict(calls))
        packed = [c["from_expr"] for c in counts]
        assert 0 < packed[0] and packed[1] < 3 * packed[0], counts
        assert [c["to_expr"] for c in counts] == [0, 0], counts
        assert [c["to_expr"] for c in reads] == [10, 0, 20, 0], reads
        assert not any(c["from_expr"] for c in reads), reads

    def test_coefficients_are_expanded_once_at_compile_time(self, monkeypatch, solved):
        """Terms store their coefficients expanded, so a contribution whose
        images and products are already memoized calls expand not at all,
        rather than once per term at every step."""
        spec, _ = solved(ModelId.EX1, 2)
        state = initial_state(spec)
        state.advance()
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


# V_0 = x^70000, and V_4 = x^210000/12: exponents far past 16 bits.
LARGE_EXPONENT_PDE = 'pde "large" { vars: x; equation: D(u,t,2) = u*u; init: x^70000; init_t: 0; }'


class TestPackedFieldWidth:
    """Exponent fields are sized from the inputs, and an exponent that
    outgrows its field is refused, never carried into the next field."""

    def test_large_exponents_match_reference_fold(self):
        assert_matches_reference(parse_spec_file(LARGE_EXPONENT_PDE), 6)

    def test_an_exponent_past_its_field_is_refused(self, monkeypatch, tmp_path, capsys):
        """With one bit of headroom, x^70000 fits its 18-bit field and the
        x^140000 of V_2 reaches the guard bit."""
        monkeypatch.setattr(rdtm.packed, "HEADROOM_BITS", 1)
        spec = parse_spec_file(LARGE_EXPONENT_PDE)
        with pytest.raises(UnsupportedExpressionError, match="an exponent of x reached 131072"):
            solve_series(spec, 6)
        path = tmp_path / "large.pde"
        path.write_text(LARGE_EXPONENT_PDE)
        assert main(["solve", str(path), "--order", "6"]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: an exponent of x reached 131072")


RATIONAL_PDE = Path(__file__).resolve().parent / "problems" / "rational.pde"


def load_problem(name):
    """A built-in model, the growing problem or the rational-argument one."""
    if name == "growing":
        return parse_spec_file(GROWING_PDE.read_text())
    if name == "rational":
        return parse_spec_file(RATIONAL_PDE.read_text())
    return builtin_model(ModelId(name))


PROBLEMS = ["ex1", "ex2", "ex3", "growing", "rational"]


@pytest.fixture(scope="module")
def stepped():
    """RecurrenceState of each problem stepped to order 10, as solve_series
    steps it; the tests read its memos and change nothing."""
    states = {}

    def get(name):
        if name not in states:
            spec = load_problem(name)
            state = RecurrenceState(compile_recurrence(spec), (expand(spec.init_u), expand(spec.init_ut)))
            for _ in range(8):
                state.advance()
            states[name] = state
        return states[name]

    return get


class TestPrimitiveForm:
    """Every packed polynomial the recurrence keeps is integer numerators
    over one positive denominator, in lowest terms, so equal values are
    equal Polys whatever order their terms were summed in."""

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_every_memo_entry_is_primitive(self, stepped, name):
        state = stepped(name)
        entries = [*state.packed, *(p for memo in (state.images, state.products)
                                    for seq in memo.values() for p in seq)]
        assert len(entries) > len(state.packed)
        for p in entries:
            numerators = [c for group in p.groups.values() for c in group.values()]
            assert p.den > 0, p
            assert all(p.groups.values()) and all(numerators), p
            assert math.gcd(p.den, *numerators) == 1, p

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_reversed_accumulation_gives_an_equal_polynomial(self, stepped, name):
        state = stepped(name)
        assert state.products
        for factors, seq in state.products.items():
            j = len(seq) - 1
            head = state._products(factors[:-1], j)
            last = state._images(factors[-1], j)
            entry = Poly()
            for r in reversed(range(j + 1)):
                state.packing.mul_into(entry, head[r], last[j - r])
            assert state.packing.settled(entry) == seq[j], factors


class TestSeriesBoundary:
    @pytest.mark.parametrize("name,order", [("ex1", 8), ("ex2", 16), ("ex3", 20), ("growing", 14),
                                            ("rational", 8)])
    def test_to_expr_matches_the_fold(self, name, order):
        sol = solve_series(load_problem(name), order)
        assert sol.to_expr() == series_fold(sol)


    def test_a_spectrum_with_t_is_refused(self, solved):
        spec, sol = solved(ModelId.EX3, 4)
        spectra = list(sol.spectra)
        spectra[3] = parse_expr("x*t", ["x"])
        with pytest.raises(UnsupportedStructureError, match="V_3 contains t"):
            SeriesSolution(spec, tuple(spectra), 4)

    def test_a_first_spectrum_with_t_is_refused_before_any_use(self, solved):
        """V_0 = x^2*t would give a non-canonical series and an evaluation
        that reports t unbound; the solution is never built."""
        spec, sol = solved(ModelId.EX3, 4)
        with pytest.raises(UnsupportedStructureError, match="V_0 contains t"):
            SeriesSolution(spec, (parse_expr("x^2*t", ["x"]), *sol.spectra[1:]), 4)


def assert_packed_boundary(sol):
    """The solution's trees, series and texts, all made from its packed
    spectra, are those of the oracles and of the printers on trees."""
    spectra, series = sol.render(ex.TEXT)
    latex_spectra, latex_series = sol.render(ex.LATEX)
    assert [sol.packing.to_expr(p) for p in sol.packed] == [packed_to_expr(sol.packing, p) for p in sol.packed]
    tree = series_insert(sol)
    assert sol.to_expr() == tree
    assert spectra == [to_text(v) for v in sol.spectra]
    assert latex_spectra == [to_latex(v) for v in sol.spectra]
    assert (series, latex_series) == (to_text(tree), to_latex(tree))
    assert sol.render(ex.TEXT, series=False) == (spectra, None)


class TestPackedBoundary:
    """A solve's spectra stay packed up to the caller that reads them, and
    the packed keys give the canonical term order of trees and text."""

    @pytest.mark.parametrize("name,order", [("ex1", 16), ("ex2", 20), ("ex3", 30), ("rational", 8),
                                            *(("growing", order) for order in range(6, 19))])
    def test_problems(self, name, order):
        assert_packed_boundary(solve_series(load_problem(name), order))

    def test_random_recurrences(self):
        rng = random.Random(20613)
        for index in range(25):
            assert_packed_boundary(solve_series(_random_spec(rng, index), 6))

    @pytest.mark.parametrize("fields, text, latex", [
        ("equation: D(u,t,2) = -u; init: -x + 2*x^2 - 3/2*x^3; init_t: 1 - 7*x;",
         ["-x + 2*x^2 - 3/2*x^3", "1 - 7*x", "1/2*x - x^2 + 3/4*x^3", "-1/6 + 7/6*x",
          "t - x - 7*t*x + 2*x^2 + 1/2*t^2*x - 1/6*t^3 - 3/2*x^3 - t^2*x^2 + 7/6*t^3*x + 3/4*t^2*x^3"],
         [r"-x + 2 \, x^{2} - \frac{3}{2} \, x^{3}", r"1 - 7 \, x",
          r"\frac{1}{2} \, x - x^{2} + \frac{3}{4} \, x^{3}", r"-\frac{1}{6} + \frac{7}{6} \, x",
          r"t - x - 7 \, t \, x + 2 \, x^{2} + \frac{1}{2} \, t^{2} \, x - \frac{1}{6} \, t^{3} - \frac{3}{2} \, x^{3}"
          r" - t^{2} \, x^{2} + \frac{7}{6} \, t^{3} \, x + \frac{3}{4} \, t^{2} \, x^{3}"]),
        ("equation: D(u,t,2) = 0; init: -1; init_t: 5/2;",
         ["-1", "5/2", "0", "0", "-1 + 5/2*t"],
         ["-1", r"\frac{5}{2}", "0", "0", r"-1 + \frac{5}{2} \, t"]),
        ("equation: D(u,t,2) = u; init: 0; init_t: 0;", ["0"] * 5, ["0"] * 5),
    ], ids=["signs", "constants", "zero"])
    def test_the_printing_rule(self, fields, text, latex):
        """Packed terms print as the trees do: a leading negative term,
        coefficients of magnitude 1 with and without a monomial, integer and
        fractional magnitudes, constant-only and all-zero spectra."""
        sol = solve_series(parse_spec_file(f'pde "p" {{ vars: x; {fields} }}'), 4)
        assert_packed_boundary(sol)
        for printer, expected in ((ex.TEXT, text), (ex.LATEX, latex)):
            spectra, series = sol.render(printer)
            assert spectra == [printer.node(v) for v in sol.spectra] == expected[:-1]
            assert series == printer.node(sol.to_expr()) == expected[-1]

    def test_solutions_from_trees_render_the_same(self):
        spec = load_problem("growing")
        sol = solve_series(spec, 10)
        given = SeriesSolution(spec, sol.spectra, 10)
        assert given.render(ex.LATEX) == sol.render(ex.LATEX)
        assert given.to_expr() == sol.to_expr()

    @pytest.mark.parametrize("name", ["growing", "ex2"])
    def test_a_solved_solution_is_the_solution_of_its_trees(self, name):
        """Equality, hash, repr and pickle read the trees, built on first read."""
        spec = load_problem(name)
        given = SeriesSolution(spec, solve_series(spec, 10).spectra, 10)
        solved = [solve_series(spec, 10) for _ in range(5)]
        assert solved[0] == given and given == solved[1]
        assert hash(solved[2]) == hash(given) == hash((spec, given.spectra, 10))
        assert repr(solved[3]) == repr(given)
        for sol in (solved[4], given):
            copy = pickle.loads(pickle.dumps(sol))
            assert copy == sol and copy == given and copy.spectra == given.spectra
        assert all(sol.spectra == given.spectra for sol in solved)

    def test_the_solve_frees_its_memos_when_it_returns(self, monkeypatch):
        """The solution keeps the packed spectra, not the recurrence state,
        so the memos are freed before anything is printed."""
        states = []
        original = RecurrenceState.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            states.append(weakref.ref(self))

        monkeypatch.setattr(RecurrenceState, "__init__", recording)
        sol = solve_series(load_problem("growing"), 8)
        assert len(states) == 1 and states[0]() is None
        assert len(sol.packed) == 8

    def test_new_exp_arguments_change_no_term_order(self):
        """The residual check adds exp arguments to the solution's Packing,
        which ranks its bases again: the factors of the old ranking are
        dropped, and the trees and texts stay the same."""
        spec = parse_spec_file('pde "shift" { vars: x; equation: D(u,t,2) = exp(-x)*u; init: x*exp(5*x); init_t: 0; }')
        sol = solve_series(spec, 4)
        before = sol.render(ex.TEXT), sol.to_expr()
        ranked = sol.packing._ranking()[0]
        residual_order_check(spec, sol)
        # exp(3*x) is new, and it ranks before exp(4*x) and exp(5*x)
        assert sol.packing._ranking()[0] == [*ranked[:3], Atom("exp", parse_expr("3*x", ["x"])), *ranked[3:]]
        assert (sol.render(ex.TEXT), sol.to_expr()) == before
        assert_packed_boundary(sol)


class TestTruncated:
    """``truncated(n)`` is the solution of a solve's first n packed spectra."""

    @pytest.mark.parametrize("name,order", [("ex1", 8), ("ex2", 16), ("ex3", 20), ("growing", 10)])
    def test_every_prefix_is_the_solution_of_its_trees(self, name, order):
        spec = load_problem(name)
        sol = solve_series(spec, order)
        for n in range(2, order + 1):
            prefix = sol.truncated(n)
            given = SeriesSolution(spec, sol.spectra[:n], n)
            assert prefix.order == n and prefix.packing is sol.packing
            assert residual_order_check(spec, prefix) == residual_order_check(spec, given)
            assert prefix == given and prefix.render(ex.TEXT) == given.render(ex.TEXT)
            assert SeriesSolution(spec, sol.spectra, order).truncated(n) == given

    def test_a_prefix_shares_the_trees_already_built(self):
        """Once the solution's spectra are trees, a prefix takes them
        rather than building its own again."""
        sol = solve_series(load_problem("ex2"), 8)
        spectra = sol.spectra
        for n in (1, 5, 8):
            prefix = sol.truncated(n)
            assert all(prefix.spectra[k] is spectra[k] for k in range(n))

    @pytest.mark.parametrize("n", [0, -1, 5, 2.0, True, None, "2"])
    def test_an_order_outside_the_solution_is_refused(self, n):
        sol = solve_series(load_problem("ex3"), 4)
        with pytest.raises(InvalidOrderError, match=f"^a truncation order must be an integer from 1 to 4, got {n!r}$"):
            sol.truncated(n)


class TestFractionBoundary:
    """Packed arithmetic is on ints: a Fraction is made only where a packed
    spectrum becomes a tree, one per term."""

    @pytest.fixture
    def fractions(self, monkeypatch):
        made = [0]
        original = rdtm.packed.Fraction

        def counting(*args):
            made[0] += 1
            return original(*args)

        monkeypatch.setattr(rdtm.packed, "Fraction", counting)
        return made

    def test_a_solve_makes_one_fraction_per_term_of_each_new_spectrum(self, fractions):
        sol = solve_series(load_problem("growing"), 14)
        terms = sum(len(addends(v)) for v in sol.spectra)
        assert terms > 1000
        assert fractions[0] == terms

    @pytest.mark.parametrize("name", ["growing", "rational"])
    def test_the_residual_check_makes_none(self, fractions, name):
        spec = load_problem(name)
        sol = solve_series(spec, 10)
        fractions[0] = 0
        residual_order_check(spec, sol)
        assert fractions[0] == 0

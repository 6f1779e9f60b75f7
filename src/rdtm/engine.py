"""Compile a wave-like PDE into a spectral recurrence and run it.

The equation class is u_tt = rhs where rhs is polynomial in u and its
spatial derivatives, with coefficients that are monomials in the spatial
variables and nonnegative integer powers of t.  Compilation expands the
right-hand side distributively into monomial terms; each term becomes a
coefficient, a time-index shift (from its t power), and a multiset of
derivative-order factors to be convolved.  Stepping the recurrence turns the
left-hand side's second time derivative into the factorial factor
(k+1)(k+2) on the next spectrum.

Every term is a Cauchy product of derivative images of the spectra, and the
recurrence is an online power-series computation: step k needs only the
newest coefficient of every product.  A solve therefore keeps one
RecurrenceState whose memos (derivative images, and the product sequences of
shared sorted factor prefixes) each step extends by one entry, so K spectra
cost O(K^2) expression convolutions per factor rather than O(K^3).

Everything is exact: spectra are expressions with rational coefficients, so
two runs produce structurally identical output and the order in which a
step's additive terms are summed cannot change the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .errors import (
    InvalidOrderError,
    UnsupportedCoefficientError,
    UnsupportedStructureError,
)
from .parsing import MAX_ORDER, RESERVED_NAMES, TIME_VAR

__all__ = [
    "SOURCE",
    "PdeSpec",
    "RecurrenceTerm",
    "SpectralRecurrence",
    "SeriesSolution",
    "RecurrenceState",
    "compile_recurrence",
    "cauchy_product",
    "solve_series",
    "evaluate_term",
    "substitute_derivatives",
]

# Synthetic factor standing in for the constant function 1, whose spectrum is
# the delta sequence (1, 0, 0, ...); pure source terms convolve against it.
SOURCE = None


@dataclass(frozen=True)
class PdeSpec:
    """A wave-like problem: u_tt = rhs with u(X,0) = init_u, u_t(X,0) = init_ut."""

    name: str
    spatial_vars: tuple
    rhs: ex.Expr
    init_u: ex.Expr
    init_ut: ex.Expr
    exact: ex.Expr | None = None

    def __post_init__(self):
        spatial = tuple(self.spatial_vars)
        if not spatial:
            raise UnsupportedStructureError("at least one spatial variable is required")
        if len(set(spatial)) != len(spatial):
            raise UnsupportedStructureError("duplicate spatial variable")
        for name in spatial:
            if name in RESERVED_NAMES:
                raise UnsupportedStructureError(f"variable name {name!r} is reserved")
        object.__setattr__(self, "spatial_vars", spatial)
        object.__setattr__(self, "rhs", ex.simplify(self.rhs))
        object.__setattr__(self, "init_u", ex.simplify(self.init_u))
        object.__setattr__(self, "init_ut", ex.simplify(self.init_ut))
        if self.exact is not None:
            object.__setattr__(self, "exact", ex.simplify(self.exact))

        allowed = set(spatial) | {TIME_VAR}
        for label, e in (("init", self.init_u), ("init_t", self.init_ut)):
            if ex.contains_derivsym(e):
                raise UnsupportedStructureError(f"{label} must not involve u")
            bad = ex.free_vars(e) - set(spatial)
            if bad:
                raise UnsupportedStructureError(
                    f"{label} may use only spatial variables, found {sorted(bad)}"
                )
        for label, e in (("equation right-hand side", self.rhs), ("exact", self.exact)):
            if e is None:
                continue
            bad = ex.free_vars(e) - allowed
            if bad:
                raise UnsupportedStructureError(f"{label} uses undeclared {sorted(bad)}")
        if self.exact is not None and ex.contains_derivsym(self.exact):
            raise UnsupportedStructureError("exact solution must not involve u")


@dataclass(frozen=True)
class RecurrenceTerm:
    """coefficient * t^time_shift * product of derivative factors.

    Evaluating at index k means: coefficient times the n-ary Cauchy
    convolution, at index k - time_shift, of the factors' derivative images
    of the spectra; zero when k - time_shift < 0.  A factor is a derivative
    order map ((var, order), ...), the empty tuple being u itself, or SOURCE
    for the synthetic constant factor of a pure source term.  The
    coefficient is stored expanded, so every step uses it as is.
    """

    coefficient: ex.Expr
    time_shift: int
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficient", ex.expand(self.coefficient))


@dataclass(frozen=True)
class SpectralRecurrence:
    terms: tuple


@dataclass(frozen=True)
class SeriesSolution:
    """The spectrum sequence V_0..V_{order-1}, canonical expanded trees as
    solve_series returns them and as every consumer uses them; the inverse
    transform is sum of spectra[k] * t**k."""

    spec: PdeSpec
    spectra: tuple
    order: int

    def __post_init__(self):
        object.__setattr__(self, "spectra", tuple(self.spectra))
        if len(self.spectra) != self.order:
            raise InvalidOrderError(
                f"expected {self.order} spectra, got {len(self.spectra)}"
            )

    def to_expr(self) -> ex.Expr:
        """Truncated series sum(V_k * t^k) as a canonical expanded expression."""
        t = ex.Var(TIME_VAR)
        return ex.add_expanded(
            ex.mul_expanded(v, ex.simplify(ex.Power(t, k))) for k, v in enumerate(self.spectra)
        )


def _monomials(e):
    """Distribute a canonical expression into (coefficient, factor list) pairs
    in source order, without merging like monomials across terms."""
    if isinstance(e, ex.Rational):
        return [(e.value, [])]
    if isinstance(e, ex.Sum):
        out = []
        for term in e.terms:
            out.extend(_monomials(term))
        return out
    if isinstance(e, ex.Product):
        out = [(Fraction(1), [])]
        for f in e.factors:
            out = [(c1 * c2, m1 + m2) for c1, m1 in out for c2, m2 in _monomials(f)]
        return out
    if isinstance(e, ex.Power) and isinstance(e.base, ex.Sum):
        out = [(Fraction(1), [])]
        for _ in range(e.exponent):
            out = [(c1 * c2, m1 + m2) for c1, m1 in out for c2, m2 in _monomials(e.base)]
        return out
    return [(Fraction(1), [e])]


def compile_recurrence(spec: PdeSpec) -> SpectralRecurrence:
    """Transform the right-hand side term by term.

    Each distributed monomial c * x^a * t^n * (derivatives of u) becomes one
    RecurrenceTerm: the t power turns into an index shift, spatial factors
    stay in the coefficient, and every derivative-of-u power contributes its
    order map once per multiplicity.  Terms without any u factor become
    source terms against the SOURCE delta factor.
    """
    terms = []
    for coeff, factors in _monomials(spec.rhs):
        shift = 0
        coeff_factors = []
        deriv_factors = []
        for f in factors:
            if isinstance(f, ex.Power):
                base, multiplicity = f.base, f.exponent
            else:
                base, multiplicity = f, 1
            if isinstance(base, ex.Var):
                if base.name == TIME_VAR:
                    shift += multiplicity
                else:
                    coeff_factors.append(f)
            elif isinstance(base, ex.DerivSym):
                for var, order in base.orders:
                    if var == TIME_VAR:
                        raise UnsupportedStructureError(
                            "time derivatives of u may appear only as the "
                            f"left-hand side u_tt, found {ex.to_text(base)}"
                        )
                    if var not in spec.spatial_vars:
                        raise UnsupportedStructureError(
                            f"derivative along undeclared variable {var!r}"
                        )
                deriv_factors.extend([base.orders] * multiplicity)
            else:  # Atom (canonical monomial factors cannot be sums here)
                if TIME_VAR in ex.free_vars(base):
                    raise UnsupportedCoefficientError(
                        "coefficients may depend on t only through integer "
                        f"powers t^n, found {ex.to_text(f)}"
                    )
                coeff_factors.append(f)
        coefficient = ex.Product((ex.Rational(coeff), *coeff_factors))
        deriv_factors.sort()
        terms.append(
            RecurrenceTerm(coefficient, shift, tuple(deriv_factors) or (SOURCE,))
        )
    return SpectralRecurrence(tuple(terms))


def cauchy_product(sequences, k: int) -> ex.Expr:
    """Index-k coefficient of the product of the given spectrum sequences.

    Equals the nested sum over all compositions (r_1, ..., r_m) of k of
    prod(sequences[i][r_i]); computed as a left fold of pairwise
    convolutions over memoized partial products, O(m k^2) expression
    convolutions instead of the O(k^(m-1)) nested-loop form.

    This is the reference fold and is not on the solve path: RecurrenceState
    computes every product coefficient online by the same pairwise formula,
    and the tests check the two against each other.
    """
    if not sequences:
        raise ValueError("at least one sequence is required")
    if not isinstance(k, int) or k < 0:
        raise IndexError(f"spectrum index must be a nonnegative integer, got {k!r}")
    for s in sequences:
        if len(s) <= k:
            raise IndexError(f"sequence of length {len(s)} has no index {k}")
    partial = [ex.expand(v) for v in sequences[0][: k + 1]]
    for seq in sequences[1:]:
        expanded = [ex.expand(v) for v in seq[: k + 1]]
        partial = [
            ex.simplify(
                ex.Sum(tuple(ex.mul_expanded(partial[r], expanded[j - r]) for r in range(j + 1)))
            )
            for j in range(k + 1)
        ]
    return partial[k]


def _apply_orders(e, orders):
    for var, order in orders:
        e = ex.differentiate(e, var, order)
    return ex.expand(e)


class RecurrenceState:
    """The spectra of one solve so far, with the memos that make it online.

    ``images[orders]`` holds the derivative images of V_0, V_1, ... under one
    order map.  ``products[prefix]`` holds the coefficients 0, 1, ... of the
    Cauchy product of the images of a sorted factor prefix (two or more
    factors); entry j of (f_1..f_m) convolves the prefix (f_1..f_{m-1}) with
    the images of f_m.  Terms share prefixes, e.g. u*u_x inside u*u_x*u_xx,
    and a step reads only the newest coefficient of each product, so each
    step extends every sequence by one entry.
    """

    def __init__(self, rec: SpectralRecurrence, spectra):
        self.rec = rec
        self.spectra = list(spectra)
        self.images = {}
        self.products = {}

    def _images(self, orders, upto):
        seq = self.images.setdefault(orders, [])
        for i in range(len(seq), upto + 1):
            seq.append(_apply_orders(self.spectra[i], orders))
        return seq

    def _products(self, factors, upto):
        if len(factors) == 1:
            return self._images(factors[0], upto)
        seq = self.products.setdefault(factors, [])
        if len(seq) <= upto:
            head = self._products(factors[:-1], upto)
            last = self._images(factors[-1], upto)
            for j in range(len(seq), upto + 1):
                seq.append(ex.add_expanded(ex.mul_expanded(head[r], last[j - r]) for r in range(j + 1)))
        return seq

    def contribution(self, term: RecurrenceTerm, k: int) -> ex.Expr:
        """Value of one recurrence term at index k."""
        j = k - term.time_shift
        if j < 0:
            return ex.ZERO
        if term.factors == (SOURCE,):
            return term.coefficient if j == 0 else ex.ZERO
        return ex.mul_expanded(term.coefficient, self._products(term.factors, j)[j])

    def step(self) -> ex.Expr:
        """Append and return V_{k+2}, where the spectra run through index k+1.

        (k+1)(k+2) V_{k+2} equals the sum of the compiled terms at index k;
        the sum is merged so that cancellations happen at every step.
        """
        k = len(self.spectra) - 2
        total = ex.add_expanded(self.contribution(t, k) for t in self.rec.terms)
        spectrum = ex.mul_expanded(total, ex.rational(1, (k + 1) * (k + 2)))
        self.spectra.append(spectrum)
        return spectrum


def evaluate_term(term: RecurrenceTerm, spectra, k: int) -> ex.Expr:
    """Contribution of one recurrence term at index k, given spectra 0..k."""
    return RecurrenceState(SpectralRecurrence((term,)), spectra).contribution(term, k)


def solve_series(spec: PdeSpec, order: int) -> SeriesSolution:
    """Run the recurrence to produce spectra V_0..V_{order-1}."""
    if not isinstance(order, int) or order < 2:
        raise InvalidOrderError(f"truncation order must be an integer >= 2, got {order!r}")
    if order > MAX_ORDER:
        raise InvalidOrderError(f"truncation order {order} is more than the limit of {MAX_ORDER}")
    # V_0 and V_1 are the initial data, expanded (the 1/k! factors are 1 for k <= 1)
    state = RecurrenceState(compile_recurrence(spec), (ex.expand(spec.init_u), ex.expand(spec.init_ut)))
    for _ in range(order - 2):
        state.step()
    return SeriesSolution(spec, tuple(state.spectra), order)


def substitute_derivatives(e, source) -> ex.Expr:
    """Replace every derivative symbol in e by the corresponding spatial
    derivative of source (used to form residuals of candidate solutions)."""
    source = ex.simplify(source)
    cache = {}

    def image(orders):
        if orders not in cache:
            value = source
            for var, order in orders:
                value = ex.differentiate(value, var, order)
            cache[orders] = value
        return cache[orders]

    def walk(node):
        if isinstance(node, ex.DerivSym):
            return image(node.orders)
        if isinstance(node, ex.Atom):
            return node
        if isinstance(node, ex.Power):
            return ex.Power(walk(node.base), node.exponent)
        if isinstance(node, ex.Product):
            return ex.Product(tuple(walk(f) for f in node.factors))
        if isinstance(node, ex.Sum):
            return ex.Sum(tuple(walk(t) for t in node.terms))
        return node

    return ex.simplify(walk(ex.simplify(e)))

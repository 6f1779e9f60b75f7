"""Compile a wave-like PDE into a spectral recurrence and run it.

The equation class is u_tt = rhs where rhs is polynomial in u and its
spatial derivatives, with coefficients that are monomials in the spatial
variables and nonnegative integer powers of t.  Compilation expands the
right-hand side distributively into monomial terms; each term becomes a
coefficient, a time-index shift (from its t power), and a multiset of
derivative-order factors to be convolved.  Stepping the recurrence turns the
left-hand side's second time derivative into the factorial factor
(k+1)(k+2) on the next spectrum.

This module owns where t may appear: in integer powers in the right-hand
side, and nowhere else, so the packed arithmetic sees t-free trees alone.

Every term is a Cauchy product of derivative images of the spectra, and the
recurrence is an online power-series computation: step k needs only the
newest coefficient of every product.  A solve therefore keeps one
RecurrenceState whose memos (derivative images, and the product sequences of
shared sorted factor prefixes) each step extends by one entry, so K spectra
cost O(K^2) convolutions per factor rather than O(K^3).  The memos hold
packed sparse polynomials (rdtm.packed): integer numerators over one
denominator, in which a derivative image is exponent shifts plus the chain
rules of exp, sin and cos, a product of monomials is one integer addition,
and dividing by (k+1)(k+2) scales the denominator.  Expression trees and
Fractions appear only at the boundary: the initial spectra and the
coefficients are packed once, and a solve's spectra stay packed in its
SeriesSolution, which builds their trees when ``spectra`` is first read
(one made from trees packs them when it is made, so every solution is packed).
Its series and its text come from the packed terms too: each term's sort
key of ints (``Packing.terms``) with t^k in its place orders both V_k and
the series, so ``to_expr`` and ``render`` make one sort and multiply or
merge nothing.  ``render`` prints each term once, by the sum rule of the
``expr`` printers, from its int numerator over V_k's denominator: only a
tree's terms are Fractions.  ``residual_order_check`` reads the packed
spectra.

Everything is exact: spectra have rational coefficients, and both forms are
canonical, so two runs produce structurally identical output and the order
in which a step's additive terms are summed cannot change the result.
``cauchy_product`` is the reference fold over expression trees that the
tests compare the packed recurrence against.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from .errors import (
    InvalidOrderError,
    UnsupportedCoefficientError,
    UnsupportedStructureError,
)
from .packed import Packing, Poly
from .parsing import MAX_ORDER, RESERVED_NAMES, TIME_VAR
from .record import Record, _set

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
]

# Synthetic factor standing in for the constant function 1, whose spectrum is
# the delta sequence (1, 0, 0, ...); pure source terms convolve against it.
SOURCE = None


class PdeSpec(Record):
    """A wave-like problem: u_tt = rhs with u(X,0) = init_u, u_t(X,0) = init_ut;
    an exp/sin/cos atom of t in rhs is refused, the first in compile order named."""

    __slots__ = ("name", "spatial_vars", "rhs", "init_u", "init_ut", "exact")

    def __init__(self, name: str, spatial_vars, rhs, init_u, init_ut, exact=None):
        spatial = tuple(spatial_vars)
        if not spatial:
            raise UnsupportedStructureError("at least one spatial variable is required")
        if len(set(spatial)) != len(spatial):
            raise UnsupportedStructureError("duplicate spatial variable")
        for var in spatial:
            if var in RESERVED_NAMES:
                raise UnsupportedStructureError(f"variable name {var!r} is reserved")
        self._assign(
            name=name,
            spatial_vars=spatial,
            rhs=ex.simplify(rhs),
            init_u=ex.simplify(init_u),
            init_ut=ex.simplify(init_ut),
            exact=None if exact is None else ex.simplify(exact),
        )

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
        # Distributing the right-hand side is compile_recurrence's work; it is
        # done here only to name the first offending factor in compile order.
        if any(isinstance(node, ex.Atom) and TIME_VAR in ex.free_vars(node) for node in ex.subtrees(self.rhs)):
            for _, factors in _monomials(self.rhs):
                for f in factors:
                    base = f.base if isinstance(f, ex.Power) else f
                    if isinstance(base, ex.Atom) and TIME_VAR in ex.free_vars(base):
                        raise UnsupportedCoefficientError(
                            f"coefficients may depend on t only through integer powers t^n, found {ex.to_text(f)}"
                        )


def _check_t_free(spectra) -> None:
    for k, v in enumerate(spectra):
        if TIME_VAR in ex.free_vars(v):
            raise UnsupportedStructureError(f"spectrum V_{k} contains t; spectra are t-free")


class RecurrenceTerm(Record):
    """coefficient * t^time_shift * product of derivative factors.

    Evaluating at index k means: coefficient times the n-ary Cauchy
    convolution, at index k - time_shift, of the factors' derivative images
    of the spectra; zero when k - time_shift < 0.  A factor is a derivative
    order map ((var, order), ...), the empty tuple being u itself, or SOURCE
    for the synthetic constant factor of a pure source term.  The
    coefficient is stored expanded, so every step uses it as is, and must
    not contain t, whose power is the time shift.
    """

    __slots__ = ("coefficient", "time_shift", "factors")

    def __init__(self, coefficient: ex.Expr, time_shift: int, factors: tuple):
        coefficient = ex.expand(coefficient)
        if TIME_VAR in ex.free_vars(coefficient):
            raise UnsupportedCoefficientError(f"a term's coefficient contains t: {ex.to_text(coefficient)}")
        self._assign(coefficient=coefficient, time_shift=time_shift, factors=factors)


class SpectralRecurrence(Record):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self._assign(terms=terms)


class SeriesSolution(Record):
    """The spectrum sequence V_0..V_{order-1}, t-free canonical expanded
    trees as every consumer reads them (a spectrum that contains t is
    refused); the inverse transform is sum of spectra[k] * t**k.

    Every solution holds its spectra packed: ``packed``, Polys of
    ``packing``, whose fields cover the right-hand side.  One made from
    trees packs them, with the right-hand side, when it is made (an
    unexpanded spectrum is an ``UnsupportedExpressionError``) and keeps the
    trees; one that ``solve_series`` returns, or ``truncated`` cuts, builds
    the trees of ``spectra`` on first read.  Equality, hash, repr and
    pickle are those of (spec, spectra, order).
    """

    __slots__ = ("spec", "order", "packing", "packed", "_trees")

    def __init__(self, spec: PdeSpec, spectra, order: int):
        if type(order) is not int:
            raise InvalidOrderError(f"order must be an integer, got {order!r}")
        spectra = tuple(spectra)
        if len(spectra) != order:
            raise InvalidOrderError(f"expected {order} spectra, got {len(spectra)}")
        _check_t_free(spectra)
        packing = Packing((spec.rhs, *spectra))
        packed = tuple(map(packing.from_expr, spectra))
        self._assign(spec=spec, order=order, packing=packing, packed=packed, _trees=spectra)

    @classmethod
    def _solved(cls, spec, packing, packed, trees=None):
        """The solution whose spectra are ``packed``, Polys of ``packing``,
        with ``trees`` as the trees of ``spectra`` if they are built."""
        sol = cls.__new__(cls)
        sol._assign(spec=spec, order=len(packed), packing=packing, packed=tuple(packed), _trees=trees)
        return sol

    def truncated(self, n: int) -> "SeriesSolution":
        """The first n spectra, those of a solve at order n, sharing ``packing``
        and, once this solution's ``spectra`` are built, their trees."""
        if type(n) is not int or not 1 <= n <= self.order:
            raise InvalidOrderError(f"a truncation order must be an integer from 1 to {self.order}, got {n!r}")
        trees = None if self._trees is None else self._trees[:n]
        return self._solved(self.spec, self.packing, self.packed[:n], trees)

    def _values(self) -> tuple:
        return self.spec, self.spectra, self.order

    def __repr__(self):
        return f"{self.__class__.__qualname__}(spec={self.spec!r}, spectra={self.spectra!r}, order={self.order!r})"

    @property
    def spectra(self) -> tuple:
        if self._trees is None:
            _set(self, "_trees", tuple(map(self.packing.to_expr, self.packed)))
        return self._trees

    def to_expr(self) -> ex.Expr:
        """Truncated series sum(V_k * t^k) as a canonical expanded expression.

        The spectra are t-free, so the terms of V_k * t^k are those of V_k
        with t^k inserted, and terms of different k are distinct: the series
        is one sort of all of them, with nothing multiplied out or merged."""
        return self.packing.tree((p, k) for k, p in enumerate(self.packed))

    def render(self, printer, series=True) -> tuple:
        """(texts of the spectra, text of the series or None without
        ``series``): printer.node of ``spectra`` and of ``to_expr()``, for
        printer ``expr.TEXT`` or ``expr.LATEX``.

        Each term is rendered once, from the packed spectra: the keys of
        the terms of V_k * t^k order V_k as well as the series, so each
        V_k's terms are sorted once for its text, and the series is one sort
        of all of them, with the text of t^k among their factors.  A term's
        sign and magnitude come from its int numerator over V_k's
        denominator, once for both texts, and a series entry keeps only its
        key and its text."""
        packing, t, separator = self.packing, ex.Var(TIME_VAR), printer.separator
        texts = {}  # the text of each (rank, exponent) pair of the keys

        def factor_text(pair):
            text = texts[pair] = printer.node(packing.factor(pair))
            return text

        lines, entries = [], []
        for k, p in enumerate(self.packed):
            t_text = printer.node(t if k == 1 else ex.Power(t, k))
            terms = []
            for key, n in sorted(packing.terms(p, k)):
                parts = [texts.get(pair) or factor_text(pair) for pair in zip(key[1::2], key[2::2])]
                sign, magnitude = printer.coefficient(n, p.den)
                if series:
                    entries.append((key, printer.term(sign, magnitude, separator.join(parts))))
                if k:
                    parts.remove(t_text)
                terms.append(printer.term(sign, magnitude, separator.join(parts)))
            lines.append(printer.sum(terms))
        if not series:
            return lines, None
        entries.sort()
        return lines, printer.sum(text for _, text in entries)


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
            if base == ex.Var(TIME_VAR):
                shift += multiplicity
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
            else:  # a spatial variable or a t-free atom, which PdeSpec ensures
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
    in the packed form, and the tests check the two against each other.
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


class RecurrenceState:
    """The spectra of one solve so far, with the memos that make it online.

    ``images[orders]`` holds the derivative images of V_0, V_1, ... under one
    order map.  ``products[prefix]`` holds the coefficients 0, 1, ... of the
    Cauchy product of the images of a sorted factor prefix (two or more
    factors); entry j of (f_1..f_m) convolves the prefix (f_1..f_{m-1}) with
    the images of f_m.  Terms share prefixes, e.g. u*u_x inside u*u_x*u_xx,
    and a step reads only the newest coefficient of each product, so each
    step extends every sequence by one entry.

    Images, products, term coefficients and ``packed`` (the spectra) are
    primitive ``Poly`` values of one ``Packing``, fixed from the given
    spectra, which are packed and not kept, and the coefficients.
    ``advance`` is the step: it appends each new spectrum to ``packed``
    alone, and a caller that reads trees converts it (``packing.to_expr``).
    A spectrum that contains t is refused.
    """

    def __init__(self, rec: SpectralRecurrence, spectra):
        self.rec = rec
        spectra = tuple(spectra)
        _check_t_free(spectra)
        self.packing = Packing((*spectra, *(term.coefficient for term in rec.terms)))
        self.packed = [self.packing.from_expr(v) for v in spectra]
        self.coefficients = {term: self.packing.from_expr(term.coefficient) for term in rec.terms}
        self.images = {}
        self.products = {}

    def _images(self, orders, upto):
        seq = self.images.setdefault(orders, [])
        for i in range(len(seq), upto + 1):
            seq.append(self.packing.diff(self.packed[i], orders))
        return seq

    def _products(self, factors, upto):
        if len(factors) == 1:
            return self._images(factors[0], upto)
        seq = self.products.setdefault(factors, [])
        if len(seq) <= upto:
            head = self._products(factors[:-1], upto)
            last = self._images(factors[-1], upto)
            for j in range(len(seq), upto + 1):
                entry = Poly()
                for r in range(j + 1):
                    self.packing.mul_into(entry, head[r], last[j - r])
                seq.append(self.packing.settled(entry))
        return seq

    def contribution(self, term: RecurrenceTerm, k: int) -> Poly:
        """Value of one recurrence term at index k, packed."""
        j = k - term.time_shift
        if j < 0:
            return Poly()
        if term.factors == (SOURCE,):
            return self.coefficients[term] if j == 0 else Poly()
        return self.packing.mul(self.coefficients[term], self._products(term.factors, j)[j])

    def advance(self) -> Poly:
        """Append V_{k+2} to ``packed`` and return it, where the packed
        spectra run through index k+1.

        (k+1)(k+2) V_{k+2} equals the sum of the compiled terms at index k;
        the sum is merged so that cancellations happen at every step, and the
        division scales its denominator.
        """
        k = len(self.packed) - 2
        total = Poly()
        for term in self.rec.terms:
            self.packing.add_into(total, self.contribution(term, k))
        total.den *= (k + 1) * (k + 2)
        spectrum = self.packing.settled(total)
        self.packed.append(spectrum)
        return spectrum


def evaluate_term(term: RecurrenceTerm, spectra, k: int) -> ex.Expr:
    """Contribution of one recurrence term at index k, given spectra 0..k - time_shift."""
    state = RecurrenceState(SpectralRecurrence((term,)), spectra)
    j = k - term.time_shift
    if term.factors != (SOURCE,) and len(state.packed) <= j:
        raise IndexError(f"sequence of length {len(state.packed)} has no index {j}")
    return state.packing.to_expr(state.contribution(term, k))


def solve_series(spec: PdeSpec, order: int) -> SeriesSolution:
    """Run the recurrence to produce spectra V_0..V_{order-1}."""
    if not isinstance(order, int) or order < 2:
        raise InvalidOrderError(f"truncation order must be an integer >= 2, got {order!r}")
    if order > MAX_ORDER:
        raise InvalidOrderError(f"truncation order {order} is more than the limit of {MAX_ORDER}")
    # V_0 and V_1 are the initial data, expanded (the 1/k! factors are 1 for k <= 1)
    state = RecurrenceState(compile_recurrence(spec), (ex.expand(spec.init_u), ex.expand(spec.init_ut)))
    for _ in range(order - 2):
        state.advance()
    # the state, with its memos, is dropped here: the solution keeps the spectra alone
    return SeriesSolution._solved(spec, state.packing, state.packed)

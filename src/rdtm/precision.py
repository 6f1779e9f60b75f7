"""High-precision numeric evaluation of expressions.

Polynomial subtrees with rational bindings are evaluated in exact rational
arithmetic; rounding happens only where an exp/sin/cos atom forces it, via
mpmath at the context's working precision plus guard digits.  Results are
deterministic for fixed inputs and precision, so a caller that evaluates
many points may pass one atom memo to every call and get the same bits.

This is the one module that binds ``mpmath``, and it loads it lazily: the
import runs at the first attribute access, so commands that never evaluate
a number (``solve``, ``check``) do not pay for it.  ``analysis`` takes
``mpmath`` from here.
"""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction

from . import expr as ex
from .errors import UnboundVariableError, UnsupportedExpressionError
from .record import Record

__all__ = [
    "PrecisionContext",
    "eval_precise",
    "eval_canonical",
    "eval_number",
    "fraction_to_mpf",
    "to_mpf",
    "is_exact",
    "GUARD_DIGITS",
    "MIN_DECIMAL_DIGITS",
    "MAX_DECIMAL_DIGITS",
]

GUARD_DIGITS = 10
MIN_DECIMAL_DIGITS = 15
# Evaluation time grows faster than the digit count: ex1's reference table
# takes 0.19 s of CPU at 1000 digits, 0.79 s at 5000 and 2.8 s at 10000, and
# ex3's order-4 table 7.6 s at 50000 (Python 3.11, pure-Python mpmath).
MAX_DECIMAL_DIGITS = 10000


def _lazy_module(name):
    """The module ``name``, imported at its first attribute access; the
    module itself when it is already imported."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


mpmath = _lazy_module("mpmath")

# The functions are looked up at call time, so that building this table
# does not load mpmath.
_ATOM_FUNCTIONS = {
    "exp": lambda x: mpmath.exp(x),
    "sin": lambda x: mpmath.sin(x),
    "cos": lambda x: mpmath.cos(x),
}


class PrecisionContext(Record):
    """Working precision for transcendental evaluation, in decimal digits.

    Re-evaluating with ten more digits moves any result by less than
    10**-(decimal_digits - 2) relatively, which doubles as a self-test.
    """

    __slots__ = ("decimal_digits",)

    def __init__(self, decimal_digits: int = 50):
        if (
            not isinstance(decimal_digits, int)
            or not MIN_DECIMAL_DIGITS <= decimal_digits <= MAX_DECIMAL_DIGITS
        ):
            raise ValueError(
                f"working precision must be an integer from {MIN_DECIMAL_DIGITS} "
                f"to {MAX_DECIMAL_DIGITS} decimal digits"
            )
        self._assign(decimal_digits=decimal_digits)

    @property
    def working_dps(self) -> int:
        return self.decimal_digits + GUARD_DIGITS


def fraction_to_mpf(value: Fraction) -> mpmath.mpf:
    """Exact numerator/denominator conversion at the current mpmath precision."""
    return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)


def to_mpf(value) -> mpmath.mpf:
    """An ``eval_number`` result as ``eval_canonical`` returns it: a Fraction
    converted, an mpf rounded, at the current mpmath precision."""
    if isinstance(value, Fraction):
        return fraction_to_mpf(value)
    return +value


def is_exact(e) -> bool:
    """Whether ``eval_number`` returns an exact Fraction for e, which it does
    exactly when e has no atom."""
    return not any(isinstance(node, ex.Atom) for node in ex.subtrees(e))


def eval_number(e, point, atoms=None):
    """Evaluate a canonical expression, as given, under the current mpmath
    precision; ``eval_precise`` is the door for raw trees.

    Returns an exact Fraction whenever the subtree is atom-free, an mpf
    otherwise.  ``point`` maps variable names to exact rationals.  ``atoms``
    is an optional memo of atom values, keyed by (kind, argument value,
    mpmath precision in bits); a caller that shares one dict across calls
    computes each atom once per argument, with the same result bits.
    """
    point = {name: ex.as_fraction(value) for name, value in point.items()}
    return _eval(e, point, {} if atoms is None else atoms)


def _eval(e, point, atoms):
    if isinstance(e, ex.Rational):
        return e.value
    if isinstance(e, ex.Var):
        try:
            return point[e.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {e.name!r}") from None
    if isinstance(e, ex.Atom):
        argument = _eval(e.argument, point, atoms)
        key = (e.kind, argument, mpmath.mp.prec)
        value = atoms.get(key)
        if value is None:
            value = atoms[key] = _ATOM_FUNCTIONS[e.kind](fraction_to_mpf(argument))
        return value
    if isinstance(e, ex.Power):
        return _eval(e.base, point, atoms) ** e.exponent
    if isinstance(e, ex.Product):
        parts = [_eval(f, point, atoms) for f in e.factors]
        return _combine(parts, Fraction(1), lambda a, b: a * b)
    if isinstance(e, ex.Sum):
        parts = [_eval(t, point, atoms) for t in e.terms]
        return _combine(parts, Fraction(0), lambda a, b: a + b)
    raise UnsupportedExpressionError(
        f"no numeric value for {ex.to_text(e)} (derivative symbols cannot be evaluated)"
    )


def _combine(parts, unit, op):
    exact = unit
    inexact = None
    for p in parts:
        if isinstance(p, Fraction):
            exact = op(exact, p)
        else:
            inexact = p if inexact is None else op(inexact, p)
    if inexact is None:
        return exact
    return op(inexact, fraction_to_mpf(exact))


def eval_precise(e, point, ctx: PrecisionContext = PrecisionContext()) -> mpmath.mpf:
    """Value of e at an exact rational point, correct to within
    10**-(decimal_digits - 2) relative error.  Accepts any expression tree."""
    return eval_canonical(ex.simplify(e), point, ctx)


def eval_canonical(e, point, ctx: PrecisionContext = PrecisionContext(), atoms=None) -> mpmath.mpf:
    """``eval_precise`` of a canonical expression, evaluated as given, so a
    caller that evaluates one expression at many points simplifies it once
    (and may share an ``atoms`` memo, as in ``eval_number``)."""
    with mpmath.workdps(ctx.working_dps):
        return to_mpf(eval_number(e, point, atoms))

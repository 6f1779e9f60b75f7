"""High-precision numeric evaluation of expressions.

Polynomial subtrees with rational bindings are evaluated in exact rational
arithmetic.  Rounding happens only where an exp/sin/cos atom forces it, and
from there on every operation rounds to nearest at the one precision in bits
that the caller passes: ``PrecisionContext.prec``, the context's decimal
digits plus guard digits in bits, as ``mpmath.workdps`` would set them.  No
evaluation reads or sets mpmath's global context (``fraction_to_mpf``, a
conversion for callers that work at the ambient precision, is the one
function that reads it).  Values stay raw ``libmp`` tuples, and an ``mpf``
is made only for the public result of ``eval_precise``, the one door for a
tree that is not canonical.  ``combine``, the rule for a product or sum of
exact and rounded values, and ``to_raw``, the one Fraction-to-raw
conversion, serve the cell kernel ``separable`` as well.  Results are
deterministic for fixed inputs and precision, so a caller that evaluates
many points may pass one atom memo to every ``eval_number`` call and get
the same bits.

This module owns mpmath.  Every evaluation runs on mpmath's raw-value
arithmetic, its real-number kernel: ``load_libmp`` loads the four modules
``mpmath/libmp/{backend,libintmath,libmpf,libelefun}.py`` at the first call,
without running the ``mpmath`` package or ``mpmath/libmp/__init__.py``.  So
``table``, ``figure`` and ``demo`` never import the package nor libmp's
complex, interval, hypergeometric and gamma/zeta modules, and ``solve`` and
``check``, which evaluate nothing, load none of it.  ``mpmath`` itself is
bound lazily and imported only when a public result is made an ``mpf``; a
later ``import mpmath`` in the same process reuses the kernel modules.
``separable`` and ``analysis`` take both from here.
"""

from __future__ import annotations

import functools
import importlib.util
import operator
import sys
from fractions import Fraction

from . import expr as ex
from .errors import UnboundVariableError, UnsupportedExpressionError
from .record import Record

__all__ = [
    "PrecisionContext",
    "eval_precise",
    "eval_number",
    "fraction_to_mpf",
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


def _lazy_mpmath():
    """(mpmath, the directories of its submodules): the module imported at
    its first attribute access, and its spec's submodule_search_locations,
    kept because any read of the lazy module, ``__spec__`` included, runs
    the whole import; (the module, None) when it is already imported."""
    module = sys.modules.get("mpmath")
    if module is not None:
        return module, None
    spec = importlib.util.find_spec("mpmath")
    if spec is None:
        raise ModuleNotFoundError("No module named 'mpmath'", name="mpmath")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules["mpmath"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, spec.submodule_search_locations


mpmath, _MPMATH_PATH = _lazy_mpmath()


# mpmath's real-number kernel, the modules of ``mpmath.libmp`` that rdtm
# runs, in load order: each imports only the ones before it.  rdtm calls
# functions of libmpf and libelefun alone.
LIBMP_KERNEL = ("backend", "libintmath", "libmpf", "libelefun")


@functools.cache
def load_libmp():
    """The names of mpmath's real-number kernel, loaded at the first call.

    Each module of ``LIBMP_KERNEL`` runs once, registered under its own
    name ``mpmath.libmp.<name>``, and the package's ``__init__``, which
    imports libmp's complex, interval, hypergeometric and gamma/zeta
    modules too, does not run.  ``mpmath.libmp`` is registered as a lazy
    module that holds the kernel modules as attributes, and is set as the
    ``libmp`` attribute of the lazy ``mpmath``: a later ``import mpmath``
    runs that ``__init__``, which finds the kernel in sys.modules and makes
    no second copy.  The result is one namespace of the kernel's public
    names, the same objects that ``mpmath.libmp`` re-exports.  A load that
    fails part way removes every module it registered.  When mpmath was
    imported before rdtm, its own libmp serves.  Reading ``mpmath.libmp``
    instead would import the package.
    """
    libmp = sys.modules.get("mpmath.libmp")
    if libmp is not None:
        return libmp
    if _MPMATH_PATH is None:
        return importlib.import_module("mpmath.libmp")
    import importlib.machinery  # only this load needs it
    import types

    find_spec = importlib.machinery.PathFinder.find_spec
    spec = find_spec("mpmath.libmp", _MPMATH_PATH)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    package = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    registered = [spec.name]
    names = {}
    try:
        spec.loader.exec_module(package)
        for name in LIBMP_KERNEL:
            module_spec = find_spec(f"{spec.name}.{name}", spec.submodule_search_locations)
            module = sys.modules[module_spec.name] = importlib.util.module_from_spec(module_spec)
            registered.append(module_spec.name)
            module_spec.loader.exec_module(module)
            setattr(package, name, module)
            names.update((key, value) for key, value in vars(module).items() if not key.startswith("_"))
    except BaseException:
        for name in registered:
            sys.modules.pop(name, None)
        raise
    mpmath.libmp = package
    return types.SimpleNamespace(**names)


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

    @property
    def prec(self) -> int:
        """The working precision in bits, as ``mpmath.workdps(working_dps)`` sets it."""
        return load_libmp().dps_to_prec(self.working_dps)


def to_raw(value, prec: int):
    """An ``eval_number`` result as a raw mpf at ``prec`` bits: a Fraction's
    numerator and denominator rounded to nearest and divided, as
    ``mpf(numerator) / mpf(denominator)`` does; a raw value as it is."""
    if not isinstance(value, Fraction):
        return value
    libmp = load_libmp()
    numerator = libmp.from_int(value.numerator, prec, "n")
    return libmp.mpf_div(numerator, libmp.from_int(value.denominator, prec, "n"), prec, "n")


def fraction_to_mpf(value: Fraction) -> mpmath.mpf:
    """Exact numerator/denominator conversion at the current mpmath precision."""
    return mpmath.mp.make_mpf(to_raw(value, mpmath.mp.prec))


def is_exact(e) -> bool:
    """Whether ``eval_number`` returns an exact Fraction for e, which it does
    exactly when e has no atom."""
    return not any(isinstance(node, ex.Atom) for node in ex.subtrees(e))


def eval_number(e, point, prec: int, atoms=None):
    """Evaluate a canonical expression, as given, at ``prec`` bits;
    ``eval_precise`` is the door for raw trees.

    Returns an exact Fraction whenever the subtree is atom-free, a raw mpf
    otherwise: each atom is ``libmp``'s exp, sin or cos of its exact
    argument, and each operation on a rounded value the ``libmp`` call that
    mpf arithmetic makes, all rounded to nearest at ``prec``.  ``point`` maps
    variable names to exact rationals.  ``atoms`` is an optional memo of atom
    values, keyed by (kind, argument value, prec); a caller that shares one
    dict across calls computes each atom once per argument, with the same
    result bits.
    """
    point = {name: ex.as_fraction(value) for name, value in point.items()}
    return _eval(e, point, prec, {} if atoms is None else atoms)


def _eval(e, point, prec, atoms):
    if isinstance(e, ex.Rational):
        return e.value
    if isinstance(e, ex.Var):
        try:
            return point[e.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {e.name!r}") from None
    if isinstance(e, ex.Atom):
        argument = _eval(e.argument, point, prec, atoms)
        key = (e.kind, argument, prec)
        value = atoms.get(key)
        if value is None:
            function = getattr(load_libmp(), "mpf_" + e.kind)
            value = atoms[key] = function(to_raw(argument, prec), prec, "n")
        return value
    if isinstance(e, ex.Power):
        base = _eval(e.base, point, prec, atoms)
        if isinstance(base, Fraction):
            return base**e.exponent
        return load_libmp().mpf_pow_int(base, e.exponent, prec, "n")
    if isinstance(e, ex.Product):
        return combine(e, [_eval(f, point, prec, atoms) for f in e.factors], prec)
    if isinstance(e, ex.Sum):
        return combine(e, [_eval(t, point, prec, atoms) for t in e.terms], prec)
    raise UnsupportedExpressionError(
        f"no numeric value for {ex.to_text(e)} (derivative symbols cannot be evaluated)"
    )


def combine(node, parts, prec: int):
    """The value of a Product or Sum ``node`` from its children's values
    ``parts``, in order: the Fractions multiply (or add) exactly into one,
    the raw values fold in order at ``prec``, and the fold, if any, then
    takes the exact part converted by ``to_raw``."""
    libmp = load_libmp()
    if isinstance(node, ex.Product):
        exact, exact_op, rounded_op = Fraction(1), operator.mul, libmp.mpf_mul
    else:
        exact, exact_op, rounded_op = Fraction(0), operator.add, libmp.mpf_add
    rounded = None
    for part in parts:
        if isinstance(part, Fraction):
            exact = exact_op(exact, part)
        else:
            rounded = part if rounded is None else rounded_op(rounded, part, prec, "n")
    if rounded is None:
        return exact
    return rounded_op(rounded, to_raw(exact, prec), prec, "n")


def eval_precise(e, point, ctx: PrecisionContext = PrecisionContext()) -> mpmath.mpf:
    """Value of e at an exact rational point, correct to within
    10**-(decimal_digits - 2) relative error.  Accepts any expression tree:
    ``eval_number`` of its canonical form, made an ``mpf``."""
    prec = ctx.prec
    return mpmath.mp.make_mpf(to_raw(eval_number(ex.simplify(e), point, prec), prec))

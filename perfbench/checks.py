"""Output checks for the benchmark's commands.

Nothing here runs rdtm's engine or its evaluation layer.  Spectra are
compared with closed-form Taylor coefficients built from `Fraction` and the
public expression node classes, and rendered with `rdtm.expr.to_text`.
Error-table and figure cells are compared with exact rational truncation
remainders, which are summed tail series in the style of `tests/oracles.py`.
Output that has no closed form is compared with a recorded SHA-256 digest.

`verify(command, returncode, stdout)` returns None when the output is
right, else a one-line reason.
"""

from __future__ import annotations

import functools
import hashlib
import re
from decimal import Decimal, localcontext
from fractions import Fraction

from rdtm.expr import Atom, Power, Product, Rational, Sum, Var, to_text

# Tail sums stop once a term is this small relative to the largest term.
_TAIL_EPS = Fraction(1, 10**30)
_EXP_EPS = Fraction(1, 10**40)


@functools.lru_cache(maxsize=None)
def _factorial(k: int) -> int:
    return 1 if k < 2 else k * _factorial(k - 1)


def _time_coefficient(model: str, k: int) -> Fraction:
    """k-th Maclaurin coefficient in t of the model's exact solution,
    divided by its spatial factor."""
    if model == "ex1":  # sin t + cos t
        return Fraction((1, 1, -1, -1)[k % 4], _factorial(k))
    if model == "ex2":  # exp(t)
        return Fraction(1, _factorial(k))
    if k % 2 == 0:  # ex3: sin t
        return Fraction(0)
    return Fraction(-1 if k % 4 == 3 else 1, _factorial(k))


def _spatial_node(model: str):
    x = Var("x")
    if model == "ex1":
        return Atom("exp", Product((x, Var("y"))))
    if model == "ex2":
        return Atom("exp", x)
    return Power(x, 2)


def _term(coefficient: Fraction, factors: list):
    if coefficient != 1:
        factors = [Rational(coefficient), *factors]
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def expected_spectrum(model: str, k: int):
    c = _time_coefficient(model, k)
    return Rational(c) if c == 0 else _term(c, [_spatial_node(model)])


def expected_series(model: str, order: int):
    t = Var("t")
    terms = []
    for k in range(order):
        c = _time_coefficient(model, k)
        if c:
            t_power = [] if k == 0 else [t if k == 1 else Power(t, k)]
            terms.append(_term(c, [*t_power, _spatial_node(model)]))
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


@functools.lru_cache(maxsize=None)
def _exp(x: Fraction) -> Fraction:
    """exp(x) for 0 <= x <= 1, with error below 1e-40."""
    total, term, n = Fraction(0), Fraction(1), 0
    while term > _EXP_EPS:
        total += term
        n += 1
        term = term * x / n
    return total


@functools.lru_cache(maxsize=None)
def _partial_and_tail(model: str, order: int, t: Fraction):
    """(sum of the first `order` time terms, signed sum of the rest)."""
    partial = sum(_time_coefficient(model, k) * t**k for k in range(order))
    tail, lead, k, power = Fraction(0), Fraction(0), order, t**order
    while True:
        c = _time_coefficient(model, k)
        if c:
            term = c * power
            tail += term
            lead = max(lead, abs(term))
            if abs(term) <= lead * _TAIL_EPS:
                return partial, tail
        k += 1
        power *= t


def _spatial_value(model: str, x: Fraction, y: Fraction) -> Fraction:
    if model == "ex1":
        return _exp(x * y)
    if model == "ex2":
        return _exp(x)
    return x * x


def _to_decimal(value: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 30
        return Decimal(value.numerator) / Decimal(value.denominator)


def _cell_ok(text: str, expected: Fraction) -> bool:
    """`text` is `expected` rounded to its printed significant digits."""
    try:
        printed = Decimal(text)
    except ArithmeticError:
        return False
    if expected == 0 or printed == 0:
        return printed == expected
    digits = len(printed.as_tuple().digits)
    tolerance = Decimal("0.55").scaleb(printed.adjusted() - digits + 1)
    return abs(printed - _to_decimal(expected)) <= tolerance


def _labels_ok(labels, values) -> bool:
    try:
        return [Fraction(v) for v in labels] == list(values)
    except (ValueError, ZeroDivisionError):
        return False


def _check_solve(command, stdout: str):
    lines = stdout.splitlines()
    if len(lines) != command.order + 1:
        return f"expected {command.order + 1} lines, got {len(lines)}"
    for k, line in enumerate(lines[:-1]):
        expected = f"V_{k} = {to_text(expected_spectrum(command.model, k))}"
        if line != expected:
            return f"spectrum line {k} is {line!r}, expected {expected!r}"
    expected = f"series = {to_text(expected_series(command.model, command.order))}"
    if lines[-1] != expected:
        return "series line differs from the closed-form truncation"
    return None


def _check_table(command, stdout: str):
    model, order = command.model, command.order
    lines = [line.split() for line in stdout.splitlines()]
    corner = "t/x,y" if model == "ex1" else "t/x"
    if not lines or lines[0][:1] != [corner] or not _labels_ok(lines[0][1:], command.cols):
        return "table header does not match the grid"
    body = lines[1:]
    if not _labels_ok([row[0] for row in body if row], command.rows):
        return "table rows do not match the grid"
    for t, row in zip(command.rows, body):
        _, tail = _partial_and_tail(model, order, t)
        if len(row) != len(command.cols) + 1:
            return f"row t={t} has {len(row) - 1} cells"
        for c, cell in zip(command.cols, row[1:]):
            expected = _spatial_value(model, c, c) * abs(tail)
            if not _cell_ok(cell, expected):
                return f"cell (t={t}, x={c}) is {cell}, expected {float(expected):.6e}"
    return None


def _check_figure(command, stdout: str):
    model, order, y = command.model, command.order, command.slice_y
    lines = stdout.splitlines()
    if not lines or lines[0] != "x,t,series,exact,abs_error":
        return "figure header differs"
    points = [(x, t) for x in command.cols for t in command.rows]
    if len(lines) - 1 != len(points):
        return f"figure has {len(lines) - 1} rows, expected {len(points)}"
    for (x, t), line in zip(points, lines[1:]):
        cells = line.split(",")
        if len(cells) != 5 or not _labels_ok(cells[:2], (x, t)):
            return f"figure row {line!r} is not the point ({x}, {t})"
        scale = _spatial_value(model, x, y)
        partial, tail = _partial_and_tail(model, order, t)
        expected = (scale * partial, scale * (partial + tail), scale * abs(tail))
        for name, cell, value in zip(("series", "exact", "abs_error"), cells[2:], expected):
            if not _cell_ok(cell, value):
                return f"{name} at ({x}, {t}) is {cell}, expected {float(value):.6e}"
    return None


_RESIDUAL = re.compile(r"residual vanishes through t\^(\d+) \(order (\d+) needs t\^(-?\d+)\)")


def _check_check(command, stdout: str):
    lines = stdout.splitlines()
    n = command.order
    match = _RESIDUAL.fullmatch(lines[0]) if lines else None
    if not match or int(match[2]) != n or int(match[3]) != n - 3 or int(match[1]) < n - 3:
        return f"residual line is {lines[:1]!r}"
    if command.has_exact:
        expected = f"spectra match the exact solution's Taylor coefficients for k<{n}"
    else:
        expected = "no exact solution declared; closed-form agreement skipped"
    if lines[1:] != [expected]:
        return f"closed-form line is {lines[1:]!r}"
    return None


_CHECKS = {"solve": _check_solve, "table": _check_table, "figure": _check_figure, "check": _check_check}


def verify(command, returncode: int, stdout: str):
    """None if the command succeeded with the right output, else why not."""
    if returncode != 0:
        return f"exit status {returncode}"
    if command.digest is not None:
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        return None if digest == command.digest else f"output digest {digest} differs from the recorded one"
    return _CHECKS[command.kind](command, stdout)


class Verifier:
    """Checks each distinct output once; a byte-identical repeat of an output
    already found right is right."""

    def __init__(self):
        self._good = set()

    def __call__(self, command, returncode: int, stdout: str):
        key = (command.argv, returncode, hashlib.sha256(stdout.encode("utf-8")).digest())
        if key in self._good:
            return None
        reason = verify(command, returncode, stdout)
        if reason is None:
            self._good.add(key)
        return reason

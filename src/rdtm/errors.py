"""Exception hierarchy shared by the expression kernel, engine and CLI."""


class RdtmError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RdtmError):
    """Syntax or semantic error in expression or problem-file text."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class UndeclaredIdentifierError(ParseError):
    """An identifier that is not a declared variable (or t, u, D, exp, sin, cos)."""


class UnsupportedExpressionError(RdtmError):
    """Expression leaves the supported class (polynomials times exp/sin/cos atoms)."""


class UnsupportedNonlinearityError(UnsupportedExpressionError):
    """Right-hand side is not polynomial in u and its derivatives (e.g. exp(u))."""


class UnsupportedStructureError(RdtmError):
    """Equation structure outside the u_tt = rhs class (e.g. u_t inside the rhs)."""


class UnsupportedCoefficientError(RdtmError):
    """Non-monomial time dependence in a coefficient (e.g. sin(t) * u_xx)."""


class UnboundVariableError(RdtmError):
    """Numeric evaluation hit a free variable with no bound value."""


class InvalidOrderError(RdtmError):
    """Requested truncation order is below 2 (at least two spectra are needed)
    or above parsing.MAX_ORDER."""


class InvalidOptionError(RdtmError):
    """A command-line option value outside its accepted range."""


class PrecisionInsufficientError(RdtmError):
    """A computed value is too small to carry significant digits at the working precision."""


class GridError(RdtmError):
    """Malformed evaluation grid or sweep, or one whose bindings are over- or under-constrained."""

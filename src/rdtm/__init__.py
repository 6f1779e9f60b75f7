"""Semi-analytic solver for nonlinear wave-like PDEs with variable coefficients.

The solver expands u(X, t) as a power series in time whose coefficients (the
spectra V_k) satisfy an algebraic recurrence obtained by transforming the PDE
term by term.  All symbolic work uses exact rational coefficients; floating
arithmetic is confined to the high-precision evaluation layer.
"""

from .analysis import (
    ErrorTable,
    FigureData,
    Grid2D,
    GridAxis,
    absolute_error_grid,
    evaluate_series,
    export_figure_data,
    format_scientific,
    render_table,
    residual_order_check,
    taylor_coefficient,
)
from .engine import (
    SOURCE,
    PdeSpec,
    RecurrenceTerm,
    SeriesSolution,
    SpectralRecurrence,
    cauchy_product,
    compile_recurrence,
    evaluate_term,
    solve_series,
)
from .errors import (
    GridError,
    InvalidOptionError,
    InvalidOrderError,
    ParseError,
    PrecisionInsufficientError,
    RdtmError,
    UnboundVariableError,
    UndeclaredIdentifierError,
    UnsupportedCoefficientError,
    UnsupportedExpressionError,
    UnsupportedNonlinearityError,
    UnsupportedStructureError,
)
from .expr import (
    Atom,
    DerivSym,
    Expr,
    Power,
    Product,
    Rational,
    Sum,
    Var,
    ZERO,
    ONE,
    contains_derivsym,
    deriv_sym,
    differentiate,
    expand,
    free_vars,
    rational,
    simplify,
    substitute,
    to_latex,
    to_text,
)
from .models import (
    DEFAULT_FIGURE,
    DEFAULT_TABLE_GRID,
    DEFAULT_TABLE_ORDER,
    ModelId,
    builtin_model,
)
from .parsing import parse_expr
from .precision import PrecisionContext, eval_precise
from .specfile import parse_spec_file, serialize_spec

__version__ = "0.1.0"

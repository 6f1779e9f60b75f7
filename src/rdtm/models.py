"""Built-in wave-like benchmark problems with closed-form solutions.

The right-hand sides are stored in their compact operator form; D(...) in
the problem text differentiates mechanically at parse time, so the expanded
polynomial form is derived rather than transcribed.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .analysis import rational_range
from .engine import PdeSpec
from .specfile import parse_spec_file

__all__ = [
    "ModelId",
    "builtin_model",
    "DEFAULT_TABLE_ORDER",
    "DEFAULT_TABLE_GRID",
    "DEFAULT_FIGURE",
]


class ModelId(Enum):
    EX1 = "ex1"
    EX2 = "ex2"
    EX3 = "ex3"


_DEFINITIONS = {
    # 2-D: v_tt = d^2/dxdy(v_xx v_yy) - d^2/dxdy(x y v_x v_y) - v,
    # v(x,y,0) = v_t(x,y,0) = e^{xy}; solution e^{xy} (sin t + cos t).
    ModelId.EX1: """
pde "ex1" {
  vars: x, y;
  equation: D(u,t,2) = D(D(u,x,2)*D(u,y,2), x,1,y,1) - D(x*y*D(u,x,1)*D(u,y,1), x,1,y,1) - u;
  init: exp(x*y);
  init_t: exp(x*y);
  exact: exp(x*y)*(sin(t) + cos(t));
}
""",
    # 1-D quintic: v_tt = v^2 d^2/dx^2(v_x v_xx v_xxx)
    #                    + (v_x)^2 d^2/dx^2((v_xx)^3) - 18 v^5 + v,
    # v(x,0) = v_t(x,0) = e^x; solution e^{x+t}.
    ModelId.EX2: """
pde "ex2" {
  vars: x;
  equation: D(u,t,2) = u^2*D(D(u,x,1)*D(u,x,2)*D(u,x,3), x,2)
    + D(u,x,1)^2*D(D(u,x,2)^3, x,2) - 18*u^5 + u;
  init: exp(x);
  init_t: exp(x);
  exact: exp(x)*exp(t);
}
""",
    # 1-D: v_tt = x^2 d/dx(v_x v_xx) - x^2 (v_xx)^2 - v,
    # v(x,0) = 0, v_t(x,0) = x^2; solution x^2 sin t.
    ModelId.EX3: """
pde "ex3" {
  vars: x;
  equation: D(u,t,2) = x^2*D(D(u,x,1)*D(u,x,2), x,1) - x^2*D(u,x,2)^2 - u;
  init: 0;
  init_t: x^2;
  exact: x^2*sin(t);
}
""",
}


def builtin_model(model: ModelId) -> PdeSpec:
    """A validated problem definition for the given built-in model."""
    return parse_spec_file(_DEFINITIONS[model])


# Reproduction defaults: truncation orders are the ones that match the
# reference error tables (see analysis), not the table captions.
DEFAULT_TABLE_ORDER = {ModelId.EX1: 8, ModelId.EX2: 16, ModelId.EX3: 20}


_TENTHS = rational_range(Fraction(1, 10), 1, Fraction(1, 10))
_FIFTHS = rational_range(Fraction(1, 5), 1, Fraction(1, 5))

# (t values, column values, spatial variables tied to the column value)
DEFAULT_TABLE_GRID = {
    ModelId.EX1: (_TENTHS, _TENTHS, ("x", "y")),
    ModelId.EX2: (_FIFTHS, _FIFTHS, ("x",)),
    ModelId.EX3: (_FIFTHS, _FIFTHS, ("x",)),
}

# (fixed slice bindings, sweeps as (var, start, stop, step), order)
DEFAULT_FIGURE = {
    ModelId.EX1: (
        {"y": Fraction(1, 2)},
        (("x", Fraction(0), Fraction(1), Fraction(1, 10)),
         ("t", Fraction(0), Fraction(1), Fraction(1, 10))),
        6,
    ),
    ModelId.EX2: (
        {"x": Fraction(1, 2)},
        (("t", Fraction(0), Fraction(1), Fraction(1, 10)),),
        8,
    ),
    ModelId.EX3: (
        {"x": Fraction(1, 2)},
        (("t", Fraction(0), Fraction(1), Fraction(1, 10)),),
        10,
    ),
}

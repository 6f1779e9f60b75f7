"""The benchmark's workloads: which rdtm commands each one runs.

A workload is a fixed list of `rdtm` command lines.  Every command carries
what its output is checked against (see checks.py): the model and order for
closed-form spectra and error oracles, the grid a table or figure must cover,
or the SHA-256 digest of output that has no closed form.

`--smoke` sizes keep every workload's shape (same commands, same checks) at
orders and grids small enough for the self-test to run in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

GROWING_PROBLEM = "perfbench/problems/growing.pde"

# SHA-256 of `rdtm solve perfbench/problems/growing.pde --order N` stdout,
# keyed by N.  The growing problem has no closed form, so this digest is the
# byte-identity guard: any change to its spectra or their printing fails it.
GROWING_SOLVE_DIGESTS = {
    14: "641d354eedf8bd1beacc80ea166d3ab71f21ab5bdbf3c54f559a1c55092e6090",
    6: "6eac9e615ac6097d46327dfa1bf6cbed477a37d41238cb10248e9547c5f1633b",
}

@dataclass(frozen=True)
class Command:
    """One `rdtm` invocation and what its output must be.

    ``argv`` is what follows `rdtm` on the command line.  ``model`` and
    ``order`` name the closed form the output is checked against; ``rows``
    and ``cols`` are the table grid or the figure sweep (``cols`` sweeps x
    and ``rows`` sweeps t); ``slice_y`` is the figure's fixed y; ``digest``
    replaces the closed-form check for problems without one.
    """

    kind: str
    argv: tuple
    model: str | None = None
    order: int = 0
    rows: tuple = ()
    cols: tuple = ()
    slice_y: Fraction | None = None
    digest: str | None = None
    has_exact: bool = True


def _steps(n: int) -> tuple:
    return tuple(Fraction(i, n) for i in range(1, n + 1))


# The reference grids of the paper's error tables (rdtm's table defaults):
# (t values, column values).
REFERENCE_GRIDS = {"ex1": (_steps(10), _steps(10)), "ex2": (_steps(5), _steps(5)), "ex3": (_steps(5), _steps(5))}


def _seeded_axis(rng: random.Random, count: int) -> tuple:
    """`count` evenly spaced rationals inside (0, 1]: step 1/q with
    q >= count, first point between half a step and one step."""
    step = Fraction(1, rng.randint(count, count + 8))
    start = step * Fraction(rng.randint(5, 10), 10)
    return tuple(start + i * step for i in range(count))


def _axis_spec(values) -> str:
    """CLI range `start:stop:step` that enumerates exactly ``values``."""
    return f"{values[0]}:{values[-1]}:{values[1] - values[0]}"


def _table(model, order):
    rows, cols = REFERENCE_GRIDS[model]
    return Command("table", ("table", model, "--order", str(order)), model, order, rows, cols)


def _check(problem, order, model=None, has_exact=True):
    return Command("check", ("check", problem, "--order", str(order)), model, order, has_exact=has_exact)


def _solve(model, order):
    return Command("solve", ("solve", model, "--order", str(order)), model, order)


def _paper_tables(seed, smoke):
    orders = {"ex1": 5, "ex2": 6, "ex3": 8} if smoke else {"ex1": 8, "ex2": 16, "ex3": 20}
    commands = []
    for model, order in orders.items():
        commands += [_table(model, order), _check(model, order, model)]
    return commands


def _deep_orders(seed, smoke):
    orders = {"ex1": 6, "ex2": 6, "ex3": 8} if smoke else {"ex1": 16, "ex2": 20, "ex3": 30}
    return [_solve(model, order) for model, order in orders.items()]


def _growing_spectrum(seed, smoke):
    solve_order, check_order = (6, 5) if smoke else (14, 10)
    solve = Command(
        "solve",
        ("solve", GROWING_PROBLEM, "--order", str(solve_order)),
        order=solve_order,
        digest=GROWING_SOLVE_DIGESTS[solve_order],
    )
    return [solve, _check(GROWING_PROBLEM, check_order, has_exact=False)]


def _dense_grid(seed, smoke):
    rng = random.Random(seed)
    cells, points = (6, 7) if smoke else (40, 41)
    ex1_order, ex3_order = (5, 8) if smoke else (8, 20)
    t_axis, x_axis = _seeded_axis(rng, cells), _seeded_axis(rng, cells)
    sweep_x, sweep_t = _seeded_axis(rng, points), _seeded_axis(rng, points)
    half = Fraction(1, 2)
    return [
        Command(
            "table",
            ("table", "ex1", "--order", str(ex1_order),
             "--grid", f"t={_axis_spec(t_axis)};x,y={_axis_spec(x_axis)}"),
            "ex1", ex1_order, t_axis, x_axis,
        ),
        # At the default 50 digits the smallest ex3 cells fall below the
        # certifiable floor and rdtm correctly refuses; 80 digits are needed.
        Command(
            "table",
            ("table", "ex3", "--order", str(ex3_order), "--precision", "80",
             "--grid", f"t={_axis_spec(t_axis)};x={_axis_spec(x_axis)}"),
            "ex3", ex3_order, t_axis, x_axis,
        ),
        Command(
            "figure",
            ("figure", "ex1", "--order", str(ex1_order), "--slice", f"y={half}",
             "--sweep", f"x={_axis_spec(sweep_x)}", "--sweep", f"t={_axis_spec(sweep_t)}"),
            "ex1", ex1_order, sweep_t, sweep_x, slice_y=half,
        ),
    ]


_BUILDERS = {
    "paper-tables": _paper_tables,
    "deep-orders": _deep_orders,
    "growing-spectrum": _growing_spectrum,
    "dense-grid": _dense_grid,
}
WORKLOAD_NAMES = tuple(_BUILDERS)


def commands(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's commands.  Only dense-grid depends on the seed (it
    picks the grids' rational start and step); the others are fixed by the
    paper and the ROADMAP."""
    return _BUILDERS[workload](seed, smoke)

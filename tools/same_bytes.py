"""Check that rdtm prints the same bytes as another revision.

    python3 tools/same_bytes.py [REV]

Extracts REV (default HEAD) with `git archive` into a temporary directory,
runs a fixed list of `rdtm` commands once in that checkout and once in the
working tree (each with its own `src` on PYTHONPATH and its own root as the
working directory), and compares stdout, stderr and exit status.  Prints
one line per command that differs and exits 1 if any does, 0 otherwise.

The list is every benchmark workload's commands at seed 11, read from the
working tree's `perfbench/workloads.py`; `demo`; the default figure of ex1,
ex2 and ex3; `solve` in the latex, csv and json formats; the ex1 order-30
cell at x = y = 10 (where the error is below one ulp of the values) as a
table and as a figure at 50 and 200 digits; a few precision edge cases;
tables and a figure in the json and latex formats at 1, 3 and 6 significant
digits; the growing problem's solve at order 10 in the text and latex
formats, at order 14 in the json and csv formats and at order 18, and its
check at order 14; the rational test problem's solve at order 12 in the
text and latex formats, whose coefficients are negative and fractional next
to sin, cos and exp factors; ex2's solve at order 20 in latex; ex3's check at
order 40; the checks `demo` runs on a prefix of its solves, ex2 and ex3 at
order 10; ex1's check at order 2, whose residual report is vacuous; and
three figures, which are written row by row: ex1 on a 101x101 sweep at 6
significant digits, ex3 on an empty sweep (the header alone), and ex1
swept in x alone with y and t in the slice; and, at 2000 digits, where
libelefun's exp, sin and cos take their high-precision paths, an ex1 table
on a 2x2 grid and an ex3 figure sliced at x = 1/3 and swept in t.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11

# ex1 at order 30 and x = y = 10, where the error is below one ulp of the
# values (ROADMAP item 2).
BELOW_ULP_TABLE = ("table", "ex1", "--order", "30", "--grid", "t=1/10:1/10:1;x,y=10:10:1", "--format", "csv")
BELOW_ULP_FIGURE = ("figure", "ex1", "--order", "30", "--slice", "y=10", "--sweep", "x=10:10:1", "--sweep", "t=1/10:1/10:1")

EXTRA_COMMANDS = [
    ("demo",),
    ("figure", "ex1"),
    ("figure", "ex2"),
    ("figure", "ex3"),
    ("solve", "ex1", "--format", "latex"),
    ("solve", "ex2", "--order", "8", "--format", "csv"),
    ("solve", "ex3", "--format", "json"),
    BELOW_ULP_TABLE,
    BELOW_ULP_TABLE + ("--precision", "200"),
    BELOW_ULP_FIGURE,
    BELOW_ULP_FIGURE + ("--precision", "200"),
    ("table", "ex3", "--precision", "30"),
    ("table", "ex2", "--precision", "1000"),
    ("figure", "ex1", "--order", "6", "--format", "json"),
    ("table", "ex1", "--format", "json", "--sig-digits", "3"),
    ("table", "ex2", "--format", "latex", "--sig-digits", "1"),
    ("figure", "ex3", "--sig-digits", "6"),
    ("solve", "perfbench/problems/growing.pde", "--order", "10"),
    ("solve", "perfbench/problems/growing.pde", "--order", "10", "--format", "latex"),
    ("check", "perfbench/problems/growing.pde", "--order", "14"),
    ("solve", "perfbench/problems/growing.pde", "--order", "18"),
    ("solve", "perfbench/problems/growing.pde", "--order", "14", "--format", "json"),
    ("solve", "perfbench/problems/growing.pde", "--order", "14", "--format", "csv"),
    ("solve", "tests/problems/rational.pde", "--order", "12"),
    ("solve", "tests/problems/rational.pde", "--order", "12", "--format", "latex"),
    ("solve", "ex2", "--order", "20", "--format", "latex"),
    ("check", "ex3", "--order", "40"),
    ("check", "ex2", "--order", "10"),
    ("check", "ex3", "--order", "10"),
    ("check", "ex1", "--order", "2"),
    ("figure", "ex1", "--order", "8", "--slice", "y=1/2", "--sweep", "x=1/101:1:1/101",
     "--sweep", "t=1/101:1:1/101", "--sig-digits", "6"),
    ("figure", "ex3", "--sweep", "x=1:0:1/2", "--sweep", "t=0:1:1/2"),
    ("figure", "ex1", "--slice", "y=1/2;t=1/2", "--sweep", "x=0:1:1/2"),
    ("table", "ex1", "--order", "8", "--precision", "2000", "--grid", "t=1/10:1/5:1/10;x,y=1/2:1:1/2"),
    ("figure", "ex3", "--order", "12", "--precision", "2000", "--slice", "x=1/3", "--sweep", "t=1/7:1:2/7"),
]


def command_list() -> list:
    """Every command to compare, as argv tuples after `rdtm`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    commands = [c.argv for name in workloads.WORKLOAD_NAMES for c in workloads.commands(name, SEED)]
    return commands + EXTRA_COMMANDS


def run(tree: Path, argv) -> tuple:
    """(stdout, stderr, exit status) of `rdtm argv` run from ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "rdtm.cli", *argv], cwd=tree, env=env, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def main() -> int:
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    commands = command_list()
    differing = []
    with tempfile.TemporaryDirectory(prefix="rdtm-same-bytes-") as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        for command in commands:
            theirs, ours = run(Path(tmp), command), run(ROOT, command)
            if theirs != ours:
                parts = [name for name, a, b in zip(("stdout", "stderr", "status"), theirs, ours) if a != b]
                differing.append(command)
                print(f"differs ({', '.join(parts)}): rdtm {shlex.join(command)}")
    print(f"same_bytes: {len(commands) - len(differing)} of {len(commands)} commands identical to {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

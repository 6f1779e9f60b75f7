"""What a command loads: each test starts a fresh interpreter.

`import rdtm.cli` must not import `dataclasses` (nor the `inspect` it pulls
in), mpmath loads at the first numeric evaluation only, so `solve` and
`check` never pay for it, and `json` loads only for JSON output.  These pin
the start-up cost without a timing bound.  `mpmath` itself may sit in
`sys.modules` as a lazy module that is not loaded yet; `mpmath.libmp`
appears only once mpmath has really been imported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def modules_after(*argv) -> set:
    """Modules that `import rdtm.cli` and, when ``argv`` is given,
    `rdtm.cli.main(argv)` add to sys.modules; the command's output is
    discarded."""
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import rdtm.cli\n"
        f"argv = {list(argv)!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rdtm.cli.main(argv) == 0\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout))


def test_import_loads_neither_dataclasses_nor_mpmath_nor_json():
    loaded = modules_after()
    assert {"dataclasses", "inspect", "mpmath.libmp", "json"}.isdisjoint(loaded)


@pytest.mark.parametrize("argv", [["solve", "ex3", "--order", "6"], ["check", "ex1", "--order", "6"]])
def test_symbolic_commands_never_load_mpmath(argv):
    assert "mpmath.libmp" not in modules_after(*argv)


def test_a_table_loads_mpmath():
    assert "mpmath.libmp" in modules_after("table", "ex3", "--order", "6")


def test_json_output_loads_json():
    assert "json" in modules_after("solve", "ex3", "--order", "4", "--format", "json")

"""What a command loads: each test starts a fresh interpreter.

`import rdtm.cli` must not import `dataclasses` (nor the `inspect` it pulls
in), and `json` loads only for JSON output.  `solve` and `check` evaluate no
number and load nothing of mpmath.  `table`, `figure` and `demo` load
mpmath's real-number kernel alone: the four modules `backend`, `libintmath`,
`libmpf` and `libelefun` of `mpmath.libmp`, never its complex, interval,
hypergeometric or gamma/zeta modules, nor the `mpmath` package (whose
`mpmath.ctx_mp` would then be loaded too).  A later `import mpmath` in the
same process uses those kernel modules.  `mpmath` and `mpmath.libmp` may
sit in `sys.modules` as lazy modules that are not loaded yet.  These pin
the start-up cost without a timing bound.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL = {f"mpmath.libmp.{name}" for name in ("backend", "libintmath", "libmpf", "libelefun")}
NEVER_LOADED = {f"mpmath.libmp.{name}" for name in ("libmpc", "libmpi", "libhyper", "gammazeta")} | {"mpmath.ctx_mp"}


def run_python(script: str) -> str:
    """stdout of ``script`` run by a fresh interpreter with rdtm's sources
    on its path; the script must succeed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def quiet_main(argv) -> str:
    """Script lines that run `rdtm.cli.main(argv)` with its output discarded."""
    return (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert rdtm.cli.main({list(argv)!r}) == 0\n"
    )


def modules_after(*argv) -> set:
    """Modules that `import rdtm.cli` and, when ``argv`` is given,
    `rdtm.cli.main(argv)` add to sys.modules; the command's output is
    discarded."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import rdtm.cli\n"
        + (quiet_main(argv) if argv else "")
        + "print(sorted(set(sys.modules) - before))\n"
    )
    return set(ast.literal_eval(run_python(script)))


def test_import_loads_neither_dataclasses_nor_mpmath_nor_json():
    loaded = modules_after()
    assert {"dataclasses", "inspect", "mpmath.libmp", "json"}.isdisjoint(loaded)


@pytest.mark.parametrize("argv", [["solve", "ex3", "--order", "6"], ["check", "ex1", "--order", "6"]])
def test_symbolic_commands_never_load_mpmath(argv):
    assert "mpmath.libmp" not in modules_after(*argv)


def test_a_table_loads_mpmath():
    loaded = modules_after("table", "ex3", "--order", "6")
    assert {name for name in loaded if name.startswith("mpmath")} == {"mpmath", "mpmath.libmp"} | KERNEL


def test_json_output_loads_json():
    assert "json" in modules_after("solve", "ex3", "--order", "4", "--format", "json")


@pytest.mark.parametrize("argv", [
    ["table", "ex3", "--order", "6"],
    ["figure", "ex1", "--order", "6", "--format", "json"],
    ["demo"],
])
def test_evaluating_commands_load_libmp_without_the_mpmath_package(argv):
    loaded = modules_after(*argv)
    assert {name for name in loaded if name.startswith("mpmath.libmp.")} == KERNEL
    assert NEVER_LOADED.isdisjoint(loaded)


def test_mpmath_imported_after_a_table_uses_the_same_libmp():
    script = (
        "import sys\n"
        "import rdtm.cli, rdtm.precision\n"
        + quiet_main(["table", "ex3", "--order", "6"])
        + f"kernel = {{name: sys.modules[name] for name in {sorted(KERNEL)!r}}}\n"
        "import mpmath\n"
        "assert mpmath.nstr(mpmath.exp(1), 5) == '2.7183'\n"
        "assert mpmath.mpf(1) + 1 == 2\n"
        "assert mpmath.libmp is sys.modules['mpmath.libmp']\n"
        "for name, module in kernel.items():\n"
        "    assert sys.modules[name] is module is getattr(mpmath.libmp, name.rpartition('.')[2])\n"
        "    assert sum(getattr(m, '__file__', None) == module.__file__ for m in list(sys.modules.values())) == 1\n"
        "assert mpmath.libmp.mpf_add is rdtm.precision.load_libmp().mpf_add\n"
        "print('ok')\n"
    )
    assert run_python(script) == "ok\n"


def test_a_kernel_load_that_fails_part_way_registers_nothing():
    """libintmath's import of bisect fails, after backend has loaded: no
    module of mpmath.libmp stays registered, and the next call loads the
    kernel whole."""
    script = (
        "import sys\n"
        "import rdtm.precision\n"
        "bisect = sys.modules.pop('bisect', None)\n"
        "sys.modules['bisect'] = None\n"
        "try:\n"
        "    rdtm.precision.load_libmp()\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('the load did not fail')\n"
        "del sys.modules['bisect']\n"
        "if bisect is not None:\n"
        "    sys.modules['bisect'] = bisect\n"
        "print(sorted(name for name in sys.modules if name.startswith('mpmath.libmp')))\n"
        "libmp = rdtm.precision.load_libmp()\n"
        "print(libmp.to_str(libmp.mpf_exp(libmp.fone, 53, 'n'), 15))\n"
        "print(sorted(name for name in sys.modules if name.startswith('mpmath.libmp.')))\n"
    )
    assert run_python(script).splitlines() == ["[]", "2.71828182845905", str(sorted(KERNEL))]


def test_a_table_after_import_mpmath_reuses_its_libmp():
    script = (
        "import sys\n"
        "import mpmath\n"
        "libmp = mpmath.libmp\n"
        "before = set(sys.modules)\n"
        "import rdtm.cli, rdtm.precision\n"
        + quiet_main(["table", "ex3", "--order", "6"])
        + "assert sys.modules['mpmath.libmp'] is libmp is rdtm.precision.load_libmp()\n"
        "print(sorted(name for name in set(sys.modules) - before if name.startswith('mpmath')))\n"
    )
    assert run_python(script) == "[]\n"

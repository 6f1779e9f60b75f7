"""Set-up probe: run one rdtm command up to its first recurrence step.

    PYTHONPATH=src python3 perfbench/probe.py table ex1 --order 8

Prints `time.monotonic()` at the moment `compile_recurrence` returns, that
is, just before the first recurrence step, and exits at once.  The caller
subtracts the monotonic time at which it started this process, which gives
the set-up time: interpreter start, `import rdtm`, argument parsing, problem
load and compilation.  Exit status 3 means the command finished without
compiling a recurrence.
"""

import os
import sys
import time

import rdtm.cli
import rdtm.engine


def main() -> int:
    compile_recurrence = rdtm.engine.compile_recurrence

    def reached(spec):
        compile_recurrence(spec)
        sys.stdout.write(f"{time.monotonic()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    # solve_series looks the compiler up in rdtm.engine at call time.
    rdtm.engine.compile_recurrence = reached
    rdtm.cli.main(sys.argv[1:])
    return 3


if __name__ == "__main__":
    sys.exit(main())

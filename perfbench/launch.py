"""Run `python3 -m rdtm.cli ARGS...` and report its peak resident memory.

    PYTHONPATH=src python3 perfbench/launch.py solve ex3 --order 10

stdout and the exit status are the command's own.  At exit one line
`perfbench-peak-rss-kb N` goes to stderr, N being VmHWM from
/proc/self/status.  The parent cannot use RUSAGE_CHILDREN for this: Linux
carries the parent's peak over into a child's ru_maxrss across fork and exec.
"""

import atexit
import runpy
import sys

MARKER = "perfbench-peak-rss-kb"


def _report_peak():
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    sys.stderr.write(f"{MARKER} {line.split()[1]}\n")
    except OSError:
        pass


if __name__ == "__main__":
    atexit.register(_report_peak)
    sys.argv = ["rdtm", *sys.argv[1:]]
    runpy.run_module("rdtm.cli", run_name="__main__", alter_sys=True)

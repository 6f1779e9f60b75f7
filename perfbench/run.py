"""rdtm benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; rdtm is imported from `src/`.

With `--trace 0` the workload's `rdtm` commands run one at a time as child
processes of this one (no threads), in passes, for about `--seconds`
seconds.  Before the passes, several set-up probes start the first command
and stop it at its first recurrence step.  The end-to-end metrics are
medians: `setup_s` of the probes' CPU time, `cpu_s` of the passes' CPU
time, `peak_rss_mb` of the passes' largest child peak resident memory.
Wall times go to the result record only.

With `--trace 1` a child process runs the workload in process through
`rdtm.cli.main` with rdtm's public functions wrapped (see tracer.py) and
reports the per-layer metrics.

Every output is checked (see checks.py).  The last line of stdout is
`{"correct", "attempted", "failed", "metrics"}`; the line before it records
the run environment.  The full record, and the trace's spans, are written
under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path
from typing import NamedTuple

from launch import MARKER as PEAK_RSS_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Child processes get one fixed hash seed, so runs differ only in timing.
HASH_SEED = "0"
SETUP_PROBES = 15
MIN_PASSES = 2
# All children of one run must end within this many seconds.
RUN_BUDGET_S = 160

END_TO_END = (("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
    # Children use compiled bytecode as an installed package would; the
    # warm-up probe writes it on the first run in a checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _steal_s():
    """Time the hypervisor ran something else on this machine's CPUs,
    summed over CPUs, since boot; None where /proc/stat has no steal field."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": find_spec("gmpy2") is not None,
        "commit": _git_commit(),
        "hash_seed": HASH_SEED,
        "loadavg_start": _loadavg(),
        "steal_s_start": _steal_s(),
    }


class Child(NamedTuple):
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float


class Runner:
    """Runs children one at a time and keeps the operation tally."""

    def __init__(self):
        self.env = _child_env()
        self.attempted = 0
        self.failures = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def fail(self, what: str, reason: str):
        self.failures.append(f"{what}: {reason}")

    def run(self, argv, what: str):
        """One child to completion, or None if it did not finish within the
        run's time budget.  Children run one at a time, so the change in
        RUSAGE_CHILDREN is this child's CPU time."""
        self.attempted += 1
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=max(self.deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            self.fail(what, f"the run's {RUN_BUDGET_S} s budget ran out")
            return None
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        return Child(proc.returncode, proc.stdout.decode("utf-8", "replace"),
                     proc.stderr.decode("utf-8", "replace"), wall, cpu)

    def probe(self, command):
        """(CPU s, wall s) from starting a child to its first recurrence
        step, or None if the probe failed."""
        what = "setup probe " + " ".join(command.argv)
        started = time.monotonic()
        child = self.run([sys.executable, str(HERE / "probe.py"), *command.argv], what)
        if child is None:
            return None
        if child.code != 0 or not child.stdout.strip():
            self.fail(what, f"exit status {child.code}")
            return None
        return child.cpu_s, float(child.stdout.split()[-1]) - started


def _peak_rss_kb(child) -> int | None:
    for line in child.stderr.splitlines():
        marker, _, value = line.partition(" ")
        if marker == PEAK_RSS_MARKER:
            return int(value)
    return None


def measure_untraced(commands, seconds: float, probes: int):
    import checks

    runner = Runner()
    verify = checks.Verifier()
    runner.probe(commands[0])  # warm-up: bytecode and file cache
    setup = [s for s in (runner.probe(commands[0]) for _ in range(probes)) if s is not None]

    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        children = [runner.run([sys.executable, str(HERE / "launch.py"), *c.argv], " ".join(c.argv))
                    for c in commands]
        pass_wall = time.perf_counter() - pass_start
        if None in children:
            break
        for command, child in zip(commands, children):
            reason = verify(command, child.code, child.stdout)
            if reason is not None:
                runner.fail(" ".join(command.argv), reason)
        peaks = [_peak_rss_kb(child) for child in children]
        passes.append({
            "wall_s": pass_wall,
            "cpu_s": sum(child.cpu_s for child in children),
            "peak_rss_mb": None if None in peaks else max(peaks) / 1024,
            "command_wall_s": [child.wall_s for child in children],
        })
        # At least two passes; after that, start another only if it is
        # expected to end before `seconds` plus half a pass.
        mean_pass = statistics.fmean(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + mean_pass / 2 > seconds:
            break

    def median(key):
        values = [p[key] for p in passes]
        return None if not values or None in values else statistics.median(values)

    metrics = {
        "setup_s": statistics.median(cpu for cpu, _ in setup) if setup else None,
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    detail = {
        "setup_cpu_s": [cpu for cpu, _ in setup],
        "setup_wall_s": [wall for _, wall in setup],
        "wall_s": median("wall_s"),
        "passes": passes,
    }
    return runner, metrics, detail, END_TO_END


def measure_traced(workload: str, seed: int, smoke: bool, spans_out: Path):
    from tracer import PER_LAYER_METRICS

    runner = Runner()
    argv = [sys.executable, str(HERE / "tracer.py"), "--workload", workload, "--seed", str(seed),
            "--spans-out", str(spans_out)]
    child = runner.run(argv + (["--smoke"] if smoke else []), "tracer")
    if child is None or child.code != 0:
        if child is not None:
            runner.fail("tracer", f"exit status {child.code}: {child.stderr.strip()[-500:]}")
        return runner, {}, {}, PER_LAYER_METRICS
    try:
        result = json.loads(child.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        runner.fail("tracer", "printed no result")
        return runner, {}, {}, PER_LAYER_METRICS
    runner.attempted = result["attempted"]
    runner.failures += result["failures"]
    detail = {k: v for k, v in result.items() if k != "metrics"}
    return runner, result["metrics"], detail, PER_LAYER_METRICS


def main(argv=None) -> int:
    if not (ROOT / "src" / "rdtm" / "__init__.py").is_file():
        print(f"error: no rdtm sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    parser = argparse.ArgumentParser(description="Run one rdtm benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced orders and grids, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env = _environment()
    commands = workloads.commands(args.workload, args.seed, args.smoke)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    if args.trace:
        runner, values, detail, specs = measure_traced(
            args.workload, args.seed, args.smoke, OUT / f"spans-{tag}.json"
        )
    else:
        probes = 3 if args.smoke else SETUP_PROBES
        runner, values, detail, specs = measure_untraced(commands, args.seconds, probes)
    env["loadavg_end"] = _loadavg()
    if env["steal_s_start"] is not None:
        env["steal_s"] = _steal_s() - env.pop("steal_s_start")

    missing = [name for name, _ in specs if values.get(name) is None]
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted = max(runner.attempted, 1)
    result = {
        "correct": not runner.failures and not missing,
        "attempted": attempted,
        "failed": min(len(runner.failures), attempted),
        "metrics": {name: {"value": 0 if values.get(name) is None else values[name], "unit": unit}
                    for name, unit in specs},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": env, "failures": runner.failures, "detail": detail,
              "result": result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced run of one workload, in process, through `rdtm.cli.main`.

    python3 perfbench/tracer.py --workload deep-orders --seed 1 --spans-out perfbench/out/spans.json

The tracer wraps rdtm's public functions at the names their callers look
up.  `cli` and `analysis` bind functions such as `solve_series` and
`eval_number` at import time, while `engine` and `analysis` reach the kernel
through `rdtm.expr.*`, so every module attribute that refers to a wrapped
function is rebound to one shared wrapper.  Each wrapper records calls,
inclusive time (outermost activation only, so recursion is not counted
twice) and self time (its duration minus the time of wrapped calls it
made).  Calls outside the high-frequency kernel layers also become spans
(id, name, start, end, parent id), kept in memory and written out at the end.

The workload runs four times, alternately untraced and traced.  The
untraced runs give the per-command times and the baseline for the tracing
overhead.  The two traced runs must give identical counters; they are
exact, so any difference is a nondeterminism in rdtm.  The last line of stdout is one JSON object with the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from rdtm import expr as ex  # noqa: E402
import rdtm.cli  # noqa: E402

# Module -> layer.  The problem loaders of `models` and `specfile` belong to
# the parsing layer.
MODULE_LAYERS = {
    "rdtm.expr": "expr",
    "rdtm.parsing": "parsing",
    "rdtm.specfile": "parsing",
    "rdtm.models": "parsing",
    "rdtm.engine": "engine",
    "rdtm.precision": "precision",
    "rdtm.analysis": "analysis",
}
LAYERS = ("cli", "parsing", "engine", "expr", "precision", "analysis")

# Called per term or per cell: aggregated only, never kept as single spans.
NO_SPAN_LAYERS = {"expr", "precision"}
NO_SPAN_NAMES = {"analysis.format_scientific", "analysis.fraction_str"}

PER_LAYER_METRICS = (
    ("engine.steps", "count"),
    ("engine.step_s", "s"),
    ("engine.last_step_s", "s"),
    ("engine.cauchy_calls", "count"),
    ("engine.cauchy_s", "s"),
    ("engine.image_s", "s"),
    ("engine.compile_s", "s"),
    ("parsing.load_s", "s"),
    ("expr.mul_expanded_calls", "count"),
    ("expr.mul_expanded_s", "s"),
    ("expr.term_pairs", "count"),
    ("expr.merge_ratio", "ratio"),
    ("expr.simplify_calls", "count"),
    ("expr.simplify_s", "s"),
    ("expr.expand_calls", "count"),
    ("expr.expand_s", "s"),
    ("expr.differentiate_calls", "count"),
    ("expr.differentiate_s", "s"),
    ("expr.spectrum_terms_max", "count"),
    ("expr.spectrum_terms_total", "count"),
    ("expr.coeff_bits_max", "bit"),
    ("precision.eval_number_calls", "count"),
    ("precision.eval_number_s", "s"),
    ("precision.eval_precise_calls", "count"),
    ("precision.eval_precise_s", "s"),
    ("analysis.cells", "count"),
    ("analysis.grid_s", "s"),
    ("analysis.figure_s", "s"),
    ("analysis.render_s", "s"),
    ("analysis.residual_s", "s"),
    ("analysis.taylor_s", "s"),
    ("cli.self_s", "s"),
    ("cli.solve_s", "s"),
    ("cli.table_s", "s"),
    ("cli.figure_s", "s"),
    ("cli.check_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"),
    ("trace.overhead_s", "s"),
)

# Counters that must repeat exactly between two traced runs.
EXACT_METRICS = tuple(
    name for name, unit in PER_LAYER_METRICS if unit in ("count", "bit") or name == "expr.merge_ratio"
)


def _term_count(e) -> int:
    if isinstance(e, ex.Sum):
        return len(e.terms)
    return int(e != ex.ZERO)


def _coeff_bits(e) -> int:
    bits, stack = 0, [e]
    while stack:
        node = stack.pop()
        if isinstance(node, ex.Rational):
            bits = max(bits, node.value.numerator.bit_length(), node.value.denominator.bit_length())
        elif isinstance(node, ex.Sum):
            stack.extend(node.terms)
        elif isinstance(node, ex.Product):
            stack.extend(node.factors)
        elif isinstance(node, ex.Power):
            stack.append(node.base)
        elif isinstance(node, ex.Atom):
            stack.append(node.argument)
    return bits


class Tracer:
    """Call statistics and spans for one traced run of a workload."""

    def __init__(self):
        self.stack = []  # frames: [time of wrapped callees, span id]
        self.depth = {}
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.spans = []
        self.solutions = []
        self.counts = {}
        self.patches = []
        self.reset()

    def wrap(self, name, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer = name.partition(".")[0]
        keep_span = layer not in NO_SPAN_LAYERS and name not in NO_SPAN_NAMES
        stack, depth, spans, clock = self.stack, self.depth, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_span:
                self.next_id += 1
                span_id = self.next_id
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            outer = depth.get(name, 0)
            depth[name] = outer + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] = outer
                elapsed = end - start
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if not outer:
                    stats[1] += elapsed
                parent[0] += elapsed
                if keep_span:
                    spans.append((span_id, name, start, end, parent[1]))
            if observe is not None:
                observe(args, result, elapsed)
            return result

        return wrapper

    # Observers add the counters that call statistics cannot give.

    def _on_mul_expanded(self, args, result, elapsed):
        a, b = args[0], args[1]
        if a != ex.ONE and b != ex.ONE:
            self.counts["term_pairs"] += _term_count(a) * _term_count(b)
            self.counts["terms_out"] += _term_count(result)

    def _on_differentiate(self, args, result, elapsed):
        if self.depth.get("engine.advance_step"):
            self.counts["image_s"] += elapsed

    def _on_advance_step(self, args, result, elapsed):
        self.last_step = elapsed

    def _on_solve_series(self, args, result, elapsed):
        self.solutions.append(result)
        self.counts["last_step_s"] += self.last_step
        self.last_step = 0.0

    def _patches(self):
        """(owner, attribute, original, wrapper) for every module attribute
        that refers to a public rdtm function, and for `FigureData.to_csv`."""
        observers = {
            "expr.mul_expanded": self._on_mul_expanded,
            "expr.differentiate": self._on_differentiate,
            "engine.advance_step": self._on_advance_step,
            "engine.solve_series": self._on_solve_series,
        }
        modules = [importlib.import_module(name) for name in MODULE_LAYERS]
        modules += [rdtm.cli, sys.modules["rdtm"]]
        wrappers = {}
        for module in modules:
            layer = MODULE_LAYERS.get(module.__name__)
            if layer is None:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    name = f"{layer}.{fn.__name__}"
                    wrappers[id(fn)] = self.wrap(name, fn, observers.get(name))
        patches = [
            (module, attr, value, wrappers[id(value)])
            for module in modules
            for attr, value in vars(module).items()
            if isinstance(value, types.FunctionType) and id(value) in wrappers
        ]
        figure_data = getattr(sys.modules["rdtm.analysis"], "FigureData", None)
        if figure_data is not None and hasattr(figure_data, "to_csv"):
            to_csv = figure_data.to_csv
            patches.append((figure_data, "to_csv", to_csv, self.wrap("analysis.FigureData.to_csv", to_csv)))
        return patches

    def install(self):
        if not self.patches:
            self.patches = self._patches()
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def reset(self):
        """Zero every counter, in place: the wrappers hold references."""
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0]
        self.stack[:] = [[0.0, 0]]
        self.spans.clear()
        self.solutions.clear()
        self.next_id = 0
        self.last_step = 0.0
        self.counts.update(term_pairs=0, terms_out=0, image_s=0.0, last_step_s=0.0)

    def run_command(self, kind, argv):
        return self.wrap(f"cli.{kind}", rdtm.cli.main)(argv)

    def self_time_sum(self) -> float:
        """Self time over all wrapped calls; the commands' spans cover the
        traced run, so this is its wall time less the gaps between commands."""
        return sum(self_s for _, _, self_s in self.stats.values())

    def metrics(self) -> dict:
        def calls(name):
            return self.stats.get(name, (0, 0.0, 0.0))[0]

        def inclusive(*names):
            return sum(self.stats.get(name, (0, 0.0, 0.0))[1] for name in names)

        sizes = [_term_count(v) for sol in self.solutions for v in sol.spectra]
        bits = [_coeff_bits(v) for sol in self.solutions for v in sol.spectra]
        pairs = self.counts["term_pairs"]
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            layer_self[name.partition(".")[0]] += self_s
        out = {
            "engine.steps": calls("engine.advance_step"),
            "engine.step_s": inclusive("engine.advance_step"),
            "engine.last_step_s": self.counts["last_step_s"],
            "engine.cauchy_calls": calls("engine.cauchy_product"),
            "engine.cauchy_s": inclusive("engine.cauchy_product"),
            "engine.image_s": self.counts["image_s"],
            "engine.compile_s": inclusive("engine.compile_recurrence"),
            "parsing.load_s": inclusive("parsing.builtin_model", "parsing.parse_spec_file"),
            "expr.mul_expanded_calls": calls("expr.mul_expanded"),
            "expr.mul_expanded_s": inclusive("expr.mul_expanded"),
            "expr.term_pairs": pairs,
            "expr.merge_ratio": self.counts["terms_out"] / pairs if pairs else 0.0,
            "expr.simplify_calls": calls("expr.simplify"),
            "expr.simplify_s": inclusive("expr.simplify"),
            "expr.expand_calls": calls("expr.expand"),
            "expr.expand_s": inclusive("expr.expand"),
            "expr.differentiate_calls": calls("expr.differentiate"),
            "expr.differentiate_s": inclusive("expr.differentiate"),
            "expr.spectrum_terms_max": max(sizes, default=0),
            "expr.spectrum_terms_total": sum(sizes),
            "expr.coeff_bits_max": max(bits, default=0),
            "precision.eval_number_calls": calls("precision.eval_number"),
            "precision.eval_number_s": inclusive("precision.eval_number"),
            "precision.eval_precise_calls": calls("precision.eval_precise"),
            "precision.eval_precise_s": inclusive("precision.eval_precise"),
            "analysis.cells": calls("analysis.evaluate_series"),
            "analysis.grid_s": inclusive("analysis.absolute_error_grid"),
            "analysis.figure_s": inclusive("analysis.export_figure_data"),
            "analysis.render_s": inclusive("analysis.render_table", "analysis.FigureData.to_csv"),
            "analysis.residual_s": inclusive("analysis.residual_order_check"),
            "analysis.taylor_s": inclusive("analysis.taylor_coefficient"),
            "cli.self_s": layer_self["cli"],
        }
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def dump_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "calls": {name: {"calls": c, "inclusive_s": i, "self_s": s} for name, (c, i, s) in self.stats.items()},
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def run_workload(commands, verify, run):
    """Run every command through ``run(kind, argv)`` with output captured,
    then check the outputs; returns (wall, seconds per command kind, list of
    failure reasons)."""
    per_kind = {kind: 0.0 for kind in ("solve", "table", "figure", "check")}
    outputs = []
    start = time.perf_counter()
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(command.kind, list(command.argv))
        per_kind[command.kind] += time.perf_counter() - begin
        outputs.append((command, code, out.getvalue()))
    wall = time.perf_counter() - start
    failures = []
    for command, code, stdout in outputs:
        reason = verify(command, code, stdout)
        if reason is not None:
            failures.append(f"{' '.join(command.argv)}: {reason}")
    return wall, per_kind, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out", type=Path, required=True)
    args = parser.parse_args(argv)

    commands = workloads.commands(args.workload, args.seed, args.smoke)
    verify = checks.Verifier()
    # Untraced and traced runs alternate, so that a drift in the machine's
    # speed does not show up as tracing overhead.
    tracer = Tracer()
    failures, untraced_walls, untraced_kinds, traced_walls, traced = [], [], [], [], []
    for attempt in range(2):
        wall, per_kind, run_failures = run_workload(commands, verify, lambda kind, a: rdtm.cli.main(a))
        failures += run_failures
        untraced_walls.append(wall)
        untraced_kinds.append(per_kind)

        tracer.reset()
        tracer.install()
        try:
            wall, _, run_failures = run_workload(commands, verify, tracer.run_command)
        finally:
            tracer.uninstall()
        failures += run_failures
        self_sum = tracer.self_time_sum()
        if abs(self_sum - wall) > 0.05 * wall:
            failures.append(f"span self times sum to {self_sum:.3f} s but traced wall time is {wall:.3f} s")
        traced_walls.append(wall)
        traced.append(tracer.metrics())
        if attempt == 0:
            tracer.dump_spans(args.spans_out)

    metrics, again = traced
    for name in EXACT_METRICS:
        if metrics[name] != again[name]:
            failures.append(f"traced runs disagree on {name}: {metrics[name]} vs {again[name]}")
    for kind in untraced_kinds[0]:
        metrics[f"cli.{kind}_s"] = statistics.fmean(run[kind] for run in untraced_kinds)
    metrics["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(untraced_walls)

    result = {
        "metrics": {name: metrics[name] for name, _ in PER_LAYER_METRICS},
        "attempted": 4 * len(commands),
        "failures": failures,
        "untraced_wall_s": untraced_walls,
        "traced_wall_s": traced_walls,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

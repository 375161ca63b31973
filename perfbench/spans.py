"""Spans around memwalk's layer entry points, installed from outside the program.

The tracer replaces each traced function at every memwalk module namespace
that binds it (``experiments`` imports ``evolve`` by name, ``analysis``
imports ``evolve`` too, ``cli`` imports the ``run_*`` pipelines), then
checks that no binding still points at an original.  Each call records a
span (function, start, end, parent span) in memory; ``summarize`` folds the
spans into per-function counts and times, and ``layer_metrics`` turns those
into per-layer metrics.  A layer's time is self time: a span's
duration minus the part its child spans cover.

Per-element helpers (``current_position``, ``step_direction``,
``coin_index`` ...) are not traced: they run once per vertex, so wrapping
them would cost more than the work they do.  Their time counts in the self
time of the traced function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

#: Traced functions, as "module.name" or "module.Class.method", by layer group.
GROUPS: dict[str, tuple[str, ...]] = {
    "graphs.factorize": ("graphs.dicycle_factorize_base",),
    "graphs.host_build": (
        "graphs.make_bidirected_cycle",
        "graphs.iterate_line_digraph",
        "graphs.line_digraph",
    ),
    "partitions.sample": (
        "partitions.random_partition",
        "partitions.random_dicycle_factorization",
        "partitions.named_partition",
        "partitions.directional_partition",
        "partitions.reflect_transmit_partition",
    ),
    "coin_shift.build": ("coin_shift.recycled_coin_shift", "coin_shift.carried_coin_shift"),
    "coin_shift.validate": ("coin_shift.validate_coin_shift",),
    "coin_shift.enumerate": ("coin_shift.enumerate_coin_shifts",),
    "engine.shift_build": ("engine.build_shift_operator",),
    "engine.step": ("engine.coin_step", "engine.shift_step"),
    "engine.evolve": ("engine.evolve",),
    "engine.oracle": ("engine.recycled_coin_walk", "engine.reflect_transmit_walk"),
    "analysis.marginal": ("analysis.position_marginal", "analysis.marginal_history"),
    "analysis.stats": (
        "analysis.variance",
        "analysis.occupancy_rate",
        "analysis.classify_scaling",
        "analysis.PositionDistribution.prob",
        "analysis.max_distribution_difference",
        "analysis.total_variation",
    ),
    "analysis.field": (
        "analysis.equivalence_initial_beta",
        "analysis.beta_recurrence_step",
        "analysis.check_beta_constraint",
        "analysis.beta_from_walk_state",
        "analysis.beta_distribution",
        "analysis.qwom_initial_alpha",
        "analysis.qwom_step",
        "analysis.alpha_from_beta",
        "analysis.alpha_distribution",
    ),
    "analysis.census": (
        "analysis.count_distinct_dicycle_carried_walks",
        "analysis.partition_center_key",
    ),
    "experiments.resolve": ("experiments.resolve_spec",),
    "experiments.run": (
        "experiments.run_simulate",
        "experiments.run_sweep",
        "experiments.run_history",
        "experiments.run_equivalence",
        "experiments.run_enumerate",
        "experiments.equivalence_report",
        "experiments.enumerate_report",
    ),
    "cli": ("cli.main",),
}

#: Functions whose returned state history is measured for engine.history_bytes.
HISTORY_FUNCS = ("engine.evolve", "experiments.run_history")

# Per-layer metrics: name, unit, better, (kind, group or argument), moves.
# kind "self": summed self time of the group; "calls": calls of the listed
# functions (a group lists all of its own) not made from inside another
# listed function, so named_partition -> directional_partition counts once;
# "value": filled in by the harness or from other metrics.
PER_LAYER: tuple[tuple[str, str, str, tuple, str], ...] = (
    ("graphs.factorize_s", "s", "lower", ("self", "graphs.factorize"),
     "wall_s on sweep, a little on crosscheck, none on simulate_long beyond its one base factorization"),
    ("graphs.factorize_calls", "count", "lower", ("calls", "graphs.factorize"),
     "wall_s on sweep"),
    ("graphs.host_build_s", "s", "lower", ("self", "graphs.host_build"),
     "setup_s on simulate_long"),
    ("graphs.host_build_calls", "count", "lower", ("calls", ("graphs.iterate_line_digraph",)),
     "setup_s on simulate_long"),
    ("partitions.sample_s", "s", "lower", ("self", "partitions.sample"), "wall_s on sweep"),
    ("partitions.sample_calls", "count", "lower", ("calls", "partitions.sample"), "wall_s on sweep"),
    ("coin_shift.build_s", "s", "lower", ("self", "coin_shift.build"), "wall_s on sweep"),
    ("coin_shift.build_calls", "count", "lower", ("calls", "coin_shift.build"), "wall_s on sweep"),
    ("coin_shift.validate_s", "s", "lower", ("self", "coin_shift.validate"), "wall_s on sweep"),
    ("coin_shift.validate_calls", "count", "lower", ("calls", "coin_shift.validate"),
     "wall_s on sweep"),
    ("coin_shift.enumerate_s", "s", "lower", ("self", "coin_shift.enumerate"),
     "wall_s on crosscheck"),
    ("coin_shift.builds_per_step", "1/step", "lower", ("value", "builds_per_step"),
     "wall_s on sweep (coin_shift.build_calls / engine.steps: the table depends only on the host)"),
    ("engine.shift_build_s", "s", "lower", ("self", "engine.shift_build"), "wall_s on sweep"),
    ("engine.shift_build_calls", "count", "lower", ("calls", "engine.shift_build"),
     "wall_s on sweep"),
    ("engine.step_s", "s", "lower", ("self", "engine.step"), "wall_s on crosscheck"),
    ("engine.steps", "count", "higher", ("calls", ("engine.coin_step",)), "wall_s on crosscheck"),
    ("engine.evolve_s", "s", "lower", ("self", "engine.evolve"),
     "wall_s on crosscheck and simulate_long (per-step norm checks, history list)"),
    ("engine.oracle_s", "s", "lower", ("self", "engine.oracle"),
     "wall_s on crosscheck (attribution only: the oracles stay apart from the engine)"),
    ("engine.history_bytes", "bytes", "lower", ("value", "history_bytes"),
     "peak_rss_mb on simulate_long (computed: states kept x V x m x 16 bytes)"),
    ("analysis.marginal_s", "s", "lower", ("self", "analysis.marginal"),
     "wall_s on simulate_long and sweep"),
    ("analysis.marginal_calls", "count", "lower", ("calls", ("analysis.position_marginal",)),
     "wall_s on simulate_long and sweep"),
    ("analysis.stats_s", "s", "lower", ("self", "analysis.stats"), "wall_s on sweep"),
    ("analysis.field_s", "s", "lower", ("self", "analysis.field"), "wall_s on crosscheck"),
    ("analysis.census_s", "s", "lower", ("self", "analysis.census"), "wall_s on crosscheck"),
    ("experiments.resolve_s", "s", "lower", ("self", "experiments.resolve"),
     "setup_s on every workload; wall_s on sweep, which re-resolves per job"),
    ("experiments.resolve_calls", "count", "lower", ("calls", "experiments.resolve"),
     "setup_s on every workload; wall_s on sweep"),
    ("experiments.self_s", "s", "lower", ("self", "experiments.run"),
     "wall_s on simulate_long (orchestration plus output writing)"),
    ("experiments.bytes_written", "bytes", "lower", ("value", "bytes_written"),
     "wall_s on simulate_long (measured sizes of the files written)"),
    ("cli.self_s", "s", "lower", ("self", "cli"), "setup_s"),
    ("trace.overhead_s", "s", "lower", ("value", "overhead_s"),
     "none: traced minus untraced wall_s of the same workload"),
)

#: Metrics that must repeat exactly between two traced runs of one seed.
EXACT = tuple(
    name for name, unit, _, _, _ in PER_LAYER if unit in ("count", "bytes", "1/step")
)


class Tracer:
    """Records spans of wrapped calls; one tracer per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = []
        self.history_bytes = 0
        self.missing: list[str] = []
        self.rebound: dict[str, list[str]] = {}

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        measure_history = name in HISTORY_FUNCS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (idx, start, end, parent)
            if measure_history and result:
                self.history_bytes = max(self.history_bytes, len(result) * result[0].amps.nbytes)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding inside the memwalk package."""
        modules = [m for n, m in sys.modules.items() if n == "memwalk" or n.startswith("memwalk.")]
        originals = {}
        for qual in (fn for fns in GROUPS.values() for fn in fns):
            mod_name, *path = qual.split(".")
            owner = importlib.import_module(f"memwalk.{mod_name}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if fn is None:
                self.missing.append(qual)
                continue
            wrapper = self.wrap(qual, fn)
            originals[id(fn)] = (qual, fn)
            if len(path) > 1:  # a method: rebind on its class
                setattr(owner, path[-1], wrapper)
                self.rebound[qual] = [f"{owner.__module__}.{owner.__qualname__}"]
                continue
            self.rebound[qual] = []
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self.rebound[qual].append(f"{mod.__name__}.{attr}")
        # Every binding must now resolve to a wrapper.
        left = [
            f"{mod.__name__}.{attr} ({originals[id(value)][0]})"
            for mod in modules
            for attr, value in vars(mod).items()
            if id(value) in originals and originals[id(value)][1] is value
        ]
        if left:
            raise RuntimeError(f"bindings still unwrapped: {left}")

    def summarize(self) -> dict:
        """Per-function call counts and times, self time and calls per group."""
        n = len(self.spans)
        child_time = [0.0] * n
        for span in self.spans:
            idx, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        funcs: dict[str, dict] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "callers": {}}
            for name in self.names
        }
        for sid, (idx, start, end, parent) in enumerate(self.spans):
            name = self.names[idx]
            f = funcs[name]
            f["calls"] += 1
            f["total_s"] += end - start
            f["self_s"] += end - start - child_time[sid]
            caller = self.names[self.spans[parent][0]] if parent >= 0 else "-"
            f["callers"][caller] = f["callers"].get(caller, 0) + 1
        return {
            "run_id": self.run_id,
            "functions": funcs,
            "missing": self.missing,
            "bindings": self.rebound,
            "history_bytes": self.history_bytes,
            "n_spans": n,
        }

    def write_spans(self, path: Path) -> None:
        doc = {
            "run_id": self.run_id,
            "clock": "time.perf_counter, seconds",
            "columns": ["function", "start", "end", "parent"],
            "functions": self.names,
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def layer_metrics(summary: dict, extra: dict, speed: float = 1.0) -> dict:
    """Per-layer metric values from one traced run's summary.

    Self times are multiplied by ``speed``, the run's reference-speed time
    over its raw time.  A metric none of whose functions fired is None:
    reported as missing, not as zero.
    """
    funcs = summary["functions"]
    values: dict[str, float | None] = {}
    for name, _unit, _better, (kind, arg), _moves in PER_LAYER:
        if kind == "value":
            continue
        fns = GROUPS[arg] if isinstance(arg, str) else arg
        fired = [funcs[f] for f in fns if f in funcs and funcs[f]["calls"] > 0]
        if not fired:
            values[name] = None
        elif kind == "self":
            values[name] = speed * sum(f["self_s"] for f in fired)
        else:
            values[name] = sum(
                count for f in fired for caller, count in f["callers"].items() if caller not in fns
            )
    steps, builds = values["engine.steps"], values["coin_shift.build_calls"]
    values["coin_shift.builds_per_step"] = builds / steps if steps and builds is not None else None
    values["engine.history_bytes"] = summary["history_bytes"] or None
    values.update(extra)
    return values

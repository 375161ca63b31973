"""memwalk benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory.  Each repetition is a fresh child process (perfbench/child.py)
that runs the workload through the public CLI, one child at a time.

``--trace 0`` prints the end-to-end metrics: the median over repetitions
of wall_s (the CLI invocations), steps_per_s, setup_s (spawn until
``import memwalk.cli`` and ``resolve_spec`` return, from dedicated set-up
children) and peak_rss_mb.  ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics of perfbench/spans.py, with
the tracing overhead and a check that every count repeats exactly.

Every time is given at the reference core speed.  The cores of a shared
host run the same code up to twice as fast at one moment as at the next,
for seconds to minutes at a time, so raw wall times of one workload spread
by a quarter or more between runs.  The child therefore times a fixed
reference loop every few milliseconds on the thread that runs the program
(child.py), which reports each interval in probe units: its length over
the probe time of the moment, chunk by chunk.  Probe units times
PROBE_REF_S is the time the interval would have taken on a core that runs
the probe loop in PROBE_REF_S.  A slower program still reads slower; a
slower core does not.  The probe costs about 0.5% of the child's time.
The raw times are kept beside the rescaled ones in the result file.

Every invocation's outputs are checked (workloads.py); a nonzero exit, a
missing file or a failed check counts as a failed invocation, and
error_rate = failed / attempted.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the full result,
with machine stamp, sizes and every sample, goes to
``.perfbench/BENCH_<workload>[_trace].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: Full repetitions per run, at least, whatever --seconds says.
MIN_REPS = 2
#: Traced and untraced repetitions per traced run, at least.
MIN_TRACED, MIN_UNTRACED = 2, 1
#: Set-up-only children per run; setup_s is their median.
SETUP_SAMPLES = 9
#: A run ends within this many seconds, or stops starting children.
HARD_LIMIT_S = 170.0
#: Reference core speed: the child's probe loop takes this long on it
#: (about the fastest probe time seen with Python 3.11 on a Sapphire Rapids
#: Xeon vCPU under KVM, so rescaled times read close to raw ones on an idle
#: core of that machine).
PROBE_REF_S = 20e-6

END_TO_END = (
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class HarnessError(Exception):
    """The benchmark itself cannot run (as opposed to a failed invocation)."""


def run_child(job: dict, work: Path, deadline: float) -> dict:
    """Spawn one child, wait for it, and return its report."""
    job_path, report_path = work / "job.json", work / "report.json"
    report_path.unlink(missing_ok=True)
    job = dict(job, src=str(ROOT / "src"), report=str(report_path))
    job_path.write_text(json.dumps(job))
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), "--t0", repr(t0), "--job", str(job_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise HarnessError(f"child ran past the {HARD_LIMIT_S:.0f} s limit") from exc
    (work / "child.log").write_text(proc.stdout + proc.stderr)
    if proc.returncode != 0 or not report_path.is_file():
        raise HarnessError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(report_path.read_text())
    report["setup_ref_s"] = report["setup_probe_units"] * PROBE_REF_S
    report["wall_ref_s"] = [units * PROBE_REF_S for units in report["probe_units"]]
    return report


def score(wl: workloads.Workload, report: dict, out_root: Path) -> tuple[int, list[str], int]:
    """Check one repetition's outputs: (failed invocations, problems, bytes written)."""
    failed, problems, written = 0, [], 0
    for inv, code in zip(wl.invocations, report["codes"]):
        out_dir = out_root / inv.name
        found = [f"{inv.name}: exit code {code}"] if code != 0 else wl.check(inv, out_dir)
        if out_dir.is_dir():
            written += sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        failed += bool(found)
        problems += found
    return failed, problems, written


def summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "max": max(values),
        "samples": values,
    }


def machine_stamp(report: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": report["python"],
        "numpy": report["numpy"],
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


class Run:
    """One benchmark run of one workload: children, checks and tallies."""

    def __init__(self, wl: workloads.Workload, seconds: float, work: Path):
        self.wl = wl
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.work = work
        self.out_root = work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reports: list[dict] = []

    def job(self, invocations: bool, trace: bool = False, rep: int = 0) -> dict:
        return {
            "setup_specs": self.wl.setup_specs,
            "invocations": self.wl.argvs(self.out_root) if invocations else [],
            "trace": trace,
            "run_id": f"{self.wl.name}-seed{self.wl.seed}-rep{rep}",
            "spans": str(self.work / f"spans-{self.wl.name}-rep{rep}.json"),
        }

    def setup_only(self) -> dict:
        return run_child(self.job(False), self.work, self.hard_deadline)

    def repetition(self, trace: bool = False, rep: int = 0) -> dict:
        shutil.rmtree(self.out_root, ignore_errors=True)
        self.wl.write_configs(self.out_root)
        report = run_child(self.job(True, trace, rep), self.work, self.hard_deadline)
        failed, problems, written = score(self.wl, report, self.out_root)
        shutil.rmtree(self.out_root, ignore_errors=True)
        report["wall_s"] = sum(report["wall_ref_s"])
        report["raw_wall_s"] = sum(report["walls"])
        report["bytes_written"] = written
        report["traced"] = trace
        self.attempted += len(self.wl.invocations)
        self.failed += failed
        self.problems += problems
        self.reports.append(report)
        return report

    def more(self, durations: list[float], minimum_met: bool) -> bool:
        """Whether to start another repetition.

        Below the minimum, one more is started unless it could run past the
        hard limit; above it, only if it fits before the --seconds deadline.
        """
        if not durations:
            return True
        now = time.monotonic()
        if now + 1.5 * max(durations) > self.hard_deadline:
            return False
        return not minimum_met or now + statistics.median(durations) <= self.deadline


def timed(fn, *args, **kwargs) -> tuple[dict, float]:
    start = time.monotonic()
    report = fn(*args, **kwargs)
    return report, time.monotonic() - start


def bench(wl: workloads.Workload, seconds: float, work: Path) -> dict:
    """Untraced run: full repetitions until the deadline, set-up children between them."""
    run = Run(wl, seconds, work)
    per_rep = -(-SETUP_SAMPLES // MIN_REPS)  # spread the set-up samples over the run
    setups: list[dict] = []
    durations: list[float] = []
    while run.more(durations, len(durations) >= MIN_REPS):
        setups += [run.setup_only() for _ in range(min(per_rep, SETUP_SAMPLES - len(setups)))]
        durations.append(timed(run.repetition)[1])
    setups += [run.setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    walls = [r["wall_s"] for r in run.reports]
    rss = [r["peak_rss_mb"] for r in run.reports]
    setup = [r["setup_ref_s"] for r in setups]
    wall_med = statistics.median(walls)
    metrics = {
        "wall_s": (wall_med, "s"),
        "steps_per_s": (wl.steps / wall_med, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    detail = {
        "wall_s": summary(walls),
        "steps_per_s": {"median": wl.steps / wall_med, "base": f"{wl.steps} steps / median wall_s"},
        "setup_s": summary(setup),
        "setup_s_in_full_children": summary([r["setup_ref_s"] for r in run.reports]),
        "peak_rss_mb": summary(rss),
        "invocation_walls": [r["wall_ref_s"] for r in run.reports],
        "raw": {
            "wall_s": summary([r["raw_wall_s"] for r in run.reports]),
            "setup_s": summary([r["setup_s"] for r in setups]),
            "invocation_walls": [r["walls"] for r in run.reports],
            "probe_median_s": [r["probe_median_s"] for r in run.reports],
            "probes_per_child": [r["probe_count"] for r in run.reports],
        },
        "probe_ref_s": PROBE_REF_S,
        "bytes_written": [r["bytes_written"] for r in run.reports],
    }
    return finish(run, metrics, detail, setups[0])


def bench_traced(wl: workloads.Workload, seconds: float, work: Path) -> dict:
    """Traced run: alternate traced and untraced repetitions of one seed."""
    run = Run(wl, seconds, work)
    durations: list[float] = []
    traced: list[dict] = []
    untraced: list[dict] = []
    while run.more(durations, len(traced) >= MIN_TRACED and len(untraced) >= MIN_UNTRACED):
        trace = len(traced) <= len(untraced)
        report, took = timed(run.repetition, trace=trace, rep=len(run.reports))
        (traced if trace else untraced).append(report)
        durations.append(took)
    if len(traced) < MIN_TRACED or len(untraced) < MIN_UNTRACED:
        raise HarnessError(f"only {len(durations)} repetitions fit in {HARD_LIMIT_S:.0f} s")

    per_rep = [
        spans.layer_metrics(
            r["trace"], {"experiments.bytes_written": r["bytes_written"]}, r["wall_s"] / r["raw_wall_s"]
        )
        for r in traced
    ]
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in untraced
    )
    exact_ok = all(rep[name] == per_rep[0][name] for rep in per_rep for name in spans.EXACT)
    if not exact_ok:
        run.problems.append("per-layer counts differ between traced runs of one seed")
    missing = traced[0]["trace"]["missing"]
    metrics, layers = {}, {}
    for name, unit, better, _, moves in spans.PER_LAYER:
        if name == "trace.overhead_s":
            value = overhead
        elif name in spans.EXACT:
            value = per_rep[0][name]
        else:
            fired = [rep[name] for rep in per_rep if rep[name] is not None]
            value = statistics.median(fired) if fired else None
        status = "measured" if value is not None else "missing"
        layers[name] = {
            "value": value,
            "unit": unit,
            "better": better,
            "status": status,
            "moves": moves,
            "samples": [rep.get(name) for rep in per_rep] if name != "trace.overhead_s" else None,
        }
        # The result line needs a number; "missing" is stated in the result file.
        metrics[name] = (value if value is not None else 0, unit)
    detail = {
        "layers": layers,
        "missing_functions": missing,
        "not_fired": [n for n, entry in layers.items() if entry["status"] == "missing"],
        "exact_counts": {name: per_rep[0][name] for name in spans.EXACT},
        "exact_counts_repeat": exact_ok,
        "traced_reps": len(traced),
        "tracing_overhead": {
            "traced_wall_s": summary([r["wall_s"] for r in traced]),
            "untraced_wall_s": summary([r["wall_s"] for r in untraced]),
            "overhead_s": overhead,
        },
        "functions": traced[-1]["trace"]["functions"],
        "bindings": traced[-1]["trace"]["bindings"],
        "spans_files": [run.job(True, rep=i)["spans"] for i, r in enumerate(run.reports) if r["traced"]],
        "engine_steps_declared": wl.engine_steps,
    }
    return finish(run, metrics, detail, traced[0], correct=exact_ok)


def finish(run: Run, metrics: dict, detail: dict, report: dict, correct: bool = True) -> dict:
    wl = run.wl
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": wl.seed,
        "seconds_measured": time.monotonic() - run.start,
        "machine": machine_stamp(report),
        "sizes": dict(wl.sizes(), resolved_hosts=report["hosts"]),
        "digests_checked": sorted(wl.golden),
        "correct": correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "problems": run.problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "detail": detail,
    }


def render(result: dict) -> list[str]:
    """Human-readable metric lines, then the one-line JSON result."""
    lines = []
    for name, m in result["metrics"].items():
        extra = result["detail"].get(name) or result["detail"].get("layers", {}).get(name, {})
        note = f" (median of {extra['n']})" if "n" in extra else ""
        raw = result["detail"].get("raw", {}).get(name)
        if raw:
            note = (
                f" (median of {extra['n']}, at reference core speed;"
                f" raw median {raw['median']:.6g} {m['unit']})"
            )
        if extra.get("status") == "missing":
            note = " (missing: no span fired)"
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    lines.append(
        f"error_rate = {result['error_rate']:.6g} ratio"
        f" ({result['failed']} of {result['attempted']} invocations failed)"
    )
    for problem in result["problems"]:
        lines.append(f"problem: {problem}")
    lines.append(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "memwalk" / "cli.py").is_file():
        print(f"error: no memwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed)
    try:
        if args.trace:
            result = bench_traced(wl, args.seconds, work)
        else:
            result = bench(wl, args.seconds, work)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work / "out", ignore_errors=True)
    suffix = "_trace" if args.trace else ""
    (work / f"BENCH_{wl.name}{suffix}.json").write_text(json.dumps(result, indent=2) + "\n")
    print("\n".join(render(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

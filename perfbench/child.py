"""One benchmark repetition, run in a fresh process by perfbench/run.py.

    python3 perfbench/child.py --t0 <time.monotonic() before spawn> --job <job.json>

The job names the checkout's ``src`` directory, the specs to resolve for
the set-up measurement, the CLI argument lists to run (none for a set-up
only child), whether to trace, and where to write the report.  set-up time
runs from the parent's spawn until ``import memwalk.cli`` and every
``resolve_spec`` have returned; CLOCK_MONOTONIC is shared by all processes
on Linux, so the parent's timestamp is comparable with this one.

From the start of main() on, the child also times a fixed reference loop
every PROBE_INTERVAL_S, from a signal handler on the thread that runs the
program.  Each probe is taken on the same core and at the same moment as
the program's own work, so the probes measure how fast that core ran
while the program did.  Each timed interval is also reported in probe
units: its length divided by the probe time, chunk by chunk of
PROBE_CHUNK probes, so a core that changes speed halfway through is
followed.  The harness turns probe units back into seconds at a fixed
reference speed (see run.py).
"""

from __future__ import annotations

import time

T_ENTER = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: Seconds between speed probes.
PROBE_INTERVAL_S = 0.005
#: Iterations of the reference loop in one probe.
PROBE_LOOP = 400
#: Probes whose median gives the speed of one stretch of an interval.
PROBE_CHUNK = 32

#: (time.monotonic() at the probe's end, probe duration in seconds).
PROBES: list[tuple[float, float]] = []


def _probe(signum, frame) -> None:
    start = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i
    end = time.perf_counter()
    PROBES.append((time.monotonic(), end - start))


def probe_units(start: float, end: float) -> float:
    """The interval start..end (time.monotonic) measured in probe durations.

    Each chunk of PROBE_CHUNK probes inside the interval covers the time
    since the previous chunk; the last chunk also covers the rest of the
    interval.  An interval without a probe uses the median of all probes.
    """
    taken = [p for p in PROBES if start <= p[0] <= end]
    if not taken:
        return (end - start) / statistics.median(d for _, d in PROBES)
    units, since = 0.0, start
    for i in range(0, len(taken), PROBE_CHUNK):
        chunk = taken[i : i + PROBE_CHUNK]
        until = chunk[-1][0] if i + PROBE_CHUNK < len(taken) else end
        units += (until - since) / statistics.median(d for _, d in chunk)
        since = until
    return units


def main() -> int:
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--job", required=True)
    args = parser.parse_args()
    job = json.loads(Path(args.job).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))

    import memwalk
    import memwalk.cli
    from memwalk.experiments import ExperimentSpec, resolve_spec

    if Path(memwalk.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported memwalk from {memwalk.__file__}, not from {src}")
    hosts = []
    for doc in job["setup_specs"]:
        resolved = resolve_spec(ExperimentSpec.from_json_dict(doc))
        hosts.append({"host_vertices": resolved.host.n_vertices, "host_degree": resolved.host.degree})
    setup_end = time.monotonic()
    setup_s = setup_end - args.t0

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()

    walls, codes, intervals = [], [], []
    for argv in job["invocations"]:
        start = time.monotonic()
        try:
            code = memwalk.cli.main(argv)
        except Exception:  # a traceback is a failed invocation, not a harness error
            traceback.print_exc()
            code = 1
        end = time.monotonic()
        walls.append(end - start)
        codes.append(code)
        intervals.append((start, end))
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    if not PROBES:
        raise RuntimeError("no speed probe fired")

    import numpy

    report = {
        "setup_s": setup_s,
        "setup_probe_units": probe_units(args.t0, setup_end),
        "interpreter_start_s": T_ENTER - args.t0,
        "walls": walls,
        "codes": codes,
        "probe_units": [probe_units(start, end) for start, end in intervals],
        "probe_median_s": statistics.median(d for _, d in PROBES),
        "probe_count": len(PROBES),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hosts": hosts,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        report["trace"] = tracer.summarize()
        tracer.write_spans(Path(job["spans"]))
    Path(job["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

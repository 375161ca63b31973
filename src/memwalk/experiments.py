"""Experiment specs and the four runnable pipelines behind the CLI.

A spec is a plain JSON document; resolution turns it into live objects
(host, partition, coin shift, coin matrix, initial state) and fails fast on
anything malformed, before any output file is created.  All outputs are
deterministic: rerunning the same resolved spec reproduces every byte.

Config schema (simulate):

    {
      "graph": {"family": "line" | "cycle", "window": odd int | null},
      "memory_depth": 1,
      "partition": {"kind": "directional" | "reflect_transmit" | "random"
                            | "random_dicycle", "seed": int | null,
                    "resample": "never" | "per_step"},
      "coin_shift": {"kind": "recycled" | "carried" | "table",
                     "entries": [[vertex, coin_in, coin_out], ...]},
      "coin": {"kind": "hadamard" | "matrix", "rows": [[[re, im], ...], ...]},
      "initial_state": {"preset": "origin-balanced" | "equivalence"}
                       | {"terms": [{"path": [...], "coin": +-1,
                                     "amplitude": [re, im]}, ...]},
      "t_max": int,
      "outputs": ["distribution", "variance", "occrate", "origin-series",
                  "scaling-fit"],
      "seed": int | null
    }

Sweep configs wrap a template: {"template": {...}, "classes": [...],
"seeds": [...]}.  Walk classes pair a partition kind with a coin-shift kind
under the name "<partition>+<coin_shift>".

Random partitions come in two modes.  "never" (default) samples one
partition from the seed and keeps it for the whole run; the walker then sits
in a frozen random environment, which pins it near the origin and makes the
position variance level off instead of growing.  "per_step" draws a fresh
partition before every step, which is the reading that reproduces the
linear variance growth the diffusive walk classes are defined by; the sweep
presets use it for the two random-partition classes driven by the recycled
coin shift.  Carried-coin classes always keep their partition fixed: their
walk census and ballistic behaviour only exist for a frozen partition.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import pickle
import signal
import tempfile
import threading
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import IO, TypeVar

import numpy as np

from . import analysis
from .coin_shift import (
    CoinShift,
    carried_coin_shift,
    check_enumeration_size,
    enumerate_coin_shifts,
    recycled_coin_shift,
)
from .constants import (
    AMPLITUDE_ATOL,
    BALLISTIC_RATIO_RANGE,
    DIFFUSIVE_RATIO_RANGE,
    EXACT_DISTRIBUTION_ATOL,
    LOCALIZATION_WINDOW,
    ORACLE_DISTRIBUTION_ATOL,
    UNITARY_ATOL,
)
from .engine import (
    WalkState,
    balanced_origin_terms,
    equivalence_initial_terms,
    evolve,
    hadamard_coin,
    recycled_coin_walk,
    reflect_transmit_walk,
    state_from_terms,
    walk_states,
)
from ._float_repr import repr_rows
from .errors import NumericalCheckError, ValidationError
from .graphs import (
    RegularDigraph,
    iterate_line_digraph,
    make_bidirected_cycle,
    minimal_window,
)
from .partitions import (
    Partition,
    coin_index,
    named_partition,
    reflect_transmit_partition,
)

__all__ = [
    "ANNEALED_CLASSES",
    "ExperimentSpec",
    "WALK_CLASSES",
    "enumerate_report",
    "equivalence_report",
    "iter_history",
    "resolve_spec",
    "run_enumerate",
    "run_equivalence",
    "run_history",
    "run_simulate",
    "run_sweep",
]

_T = TypeVar("_T")
_J = TypeVar("_J")

ALL_OUTPUTS = ("distribution", "variance", "occrate", "origin-series", "scaling-fit")

#: The six walk classes compared by the statistics sweep.
WALK_CLASSES = (
    "directional+recycled",
    "reflect_transmit+recycled",
    "reflect_transmit+carried",
    "random+recycled",
    "random_dicycle+recycled",
    "random_dicycle+carried",
)

RANDOM_PARTITION_KINDS = ("random", "random_dicycle")

#: Walk classes whose sweeps redraw the partition before every step.
ANNEALED_CLASSES = ("random+recycled", "random_dicycle+recycled")


def _at(section: str | None, key: str, default=None, omit_none: bool = False):
    """A spec field stored at doc[section][key], or at doc[key] when section
    is None.  to_json_dict leaves an omit_none field out while it is None."""
    return field(default=default, metadata={"json": (section, key), "omit_none": omit_none})


def _reject_unknown(name: str, doc: dict, known) -> None:
    unknown = set(doc) - set(known)
    if unknown:
        raise ValidationError(f"unknown {name} fields: {sorted(unknown)}")


@dataclass
class ExperimentSpec:
    """One run, as the config schema above states it; each field names its
    JSON location and default once, and both JSON directions read them."""

    graph_family: str = _at("graph", "family", "line")
    window: int | None = _at("graph", "window")
    memory_depth: int = _at(None, "memory_depth", 1)
    partition_kind: str = _at("partition", "kind", "reflect_transmit")
    partition_seed: int | None = _at("partition", "seed")
    partition_resample: str = _at("partition", "resample", "never")
    coin_shift_kind: str = _at("coin_shift", "kind", "carried")
    coin_shift_entries: list | None = _at("coin_shift", "entries", omit_none=True)
    coin_kind: str = _at("coin", "kind", "hadamard")
    coin_rows: list | None = _at("coin", "rows", omit_none=True)
    initial_preset: str | None = _at("initial_state", "preset", "origin-balanced", omit_none=True)
    initial_terms: list | None = _at("initial_state", "terms", omit_none=True)
    t_max: int = _at(None, "t_max", 100)
    outputs: tuple[str, ...] = _at(None, "outputs", ALL_OUTPUTS)
    seed: int | None = _at(None, "seed")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentSpec":
        if not isinstance(doc, dict):
            raise ValidationError("spec must be a JSON object")
        layout: dict[str | None, dict[str, str]] = {}  # section -> key -> field
        for f in fields(cls):
            section, key = f.metadata["json"]
            layout.setdefault(section, {})[key] = f.name
        top = layout.pop(None)
        _reject_unknown("spec", doc, [*top, *layout])
        values = {top[key]: doc[key] for key in top if key in doc}
        for section, keys in layout.items():
            sub = doc.get(section, {})
            if not isinstance(sub, dict):
                raise ValidationError(f"spec field {section!r} must be an object")
            _reject_unknown(section, sub, keys)
            values.update((keys[key], sub[key]) for key in sub)
        if "outputs" in values:  # a JSON list, held as a tuple
            outputs = values["outputs"]
            if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
                raise ValidationError(f"outputs must be a list of strings, got {outputs!r}")
            values["outputs"] = tuple(outputs)
        if "initial_terms" in values:  # terms win over any preset
            values["initial_preset"] = None
        spec = cls(**values)
        if spec.initial_preset is None and spec.initial_terms is None:
            spec.initial_preset = cls.initial_preset  # the field's default
        return spec

    def to_json_dict(self) -> dict:
        doc: dict = {}
        for f in fields(self):
            section, key = f.metadata["json"]
            where = doc if section is None else doc.setdefault(section, {})
            value = getattr(self, f.name)
            if value is None and f.metadata["omit_none"]:
                continue
            where[key] = list(value) if f.name == "outputs" else value
        return doc


@dataclass
class ResolvedExperiment:
    spec: ExperimentSpec
    host: RegularDigraph
    partition: Partition
    gc: CoinShift
    coin: np.ndarray
    initial: WalkState


def _partition_seeds(spec: ExperimentSpec) -> list[int | None]:
    """The partition seed of each step: entry t - 1 is step t's.

    A frozen partition ("never") has one entry, the spec's partition seed
    or else its master seed.  A "per_step" spec draws max(t_max, 1) step
    seeds from that seed; without one, the single None entry makes
    named_partition ask for a seed.
    """
    seed = spec.partition_seed if spec.partition_seed is not None else spec.seed
    if spec.partition_resample != "per_step" or seed is None:
        return [seed]
    state = np.random.SeedSequence(seed).generate_state(max(spec.t_max, 1), dtype=np.uint64)
    return [int(s) for s in state]


def _resolve_coin(spec: ExperimentSpec) -> np.ndarray:
    if spec.coin_kind == "hadamard":
        return hadamard_coin()
    if spec.coin_kind == "matrix":
        rows = spec.coin_rows
        if not rows:
            raise ValidationError("coin kind 'matrix' needs rows")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == len(rows) for row in rows
        ):
            raise ValidationError(f"coin rows must be a square list of lists, got {rows!r}")
        cells = [[_check_pair("coin.rows cell", cell) for cell in row] for row in rows]
        return np.array(cells, dtype=np.complex128)
    raise ValidationError(f"unknown coin kind {spec.coin_kind!r}")


def _resolve_coin_shift(spec: ExperimentSpec, p: Partition) -> CoinShift:
    kind = spec.coin_shift_kind
    if kind == "recycled":
        return recycled_coin_shift(p)
    if kind == "carried":
        return carried_coin_shift(p)
    if kind == "table":
        entries = spec.coin_shift_entries
        if not entries:
            raise ValidationError("coin shift kind 'table' needs entries")
        if not isinstance(entries, list):
            raise ValidationError(f"coin_shift.entries must be a list, got {entries!r}")
        n, m = p.host.n_vertices, p.host.degree
        table = np.full((n, m), -1, dtype=np.int64)
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValidationError(
                    f"coin_shift entry must be [vertex, coin_in, coin_out], got {entry!r}"
                )
            for value in entry:
                _check_int("coin_shift entry", value)
            vertex, c_in, c_out = entry
            if not 0 <= vertex < n:
                raise ValidationError(
                    f"coin_shift entry vertex {vertex} is outside 0..{n - 1}"
                )
            table[vertex, coin_index(c_in, m)] = coin_index(c_out, m)
        if (table < 0).any():
            raise ValidationError("coin shift table is incomplete")
        return CoinShift(p.host, table)
    raise ValidationError(f"unknown coin shift kind {kind!r}")


def _resolve_initial(spec: ExperimentSpec, host: RegularDigraph) -> WalkState:
    if spec.initial_terms is not None:
        if not isinstance(spec.initial_terms, list):
            raise ValidationError(
                f"initial_state.terms must be a list, got {spec.initial_terms!r}"
            )
        terms = []
        for item in spec.initial_terms:
            if not isinstance(item, dict) or set(item) != {"path", "coin", "amplitude"}:
                raise ValidationError(
                    f"initial_state term needs exactly path, coin and amplitude, got {item!r}"
                )
            path = item["path"]
            if not isinstance(path, list):
                raise ValidationError(f"initial_state path must be a list, got {path!r}")
            for value in path:
                _check_int("initial_state path entry", value)
            _check_int("initial_state coin", item["coin"])
            try:
                host.index_of(path)
            except KeyError:
                raise ValidationError(
                    f"initial_state path {path!r} is not a vertex of the host"
                ) from None
            amplitude = _check_pair("initial_state amplitude", item["amplitude"])
            terms.append((tuple(path), item["coin"], amplitude))
        return state_from_terms(host, terms)
    if spec.initial_preset == "origin-balanced":
        return state_from_terms(host, balanced_origin_terms(host))
    if spec.initial_preset == "equivalence":
        return state_from_terms(host, equivalence_initial_terms(host))
    raise ValidationError(f"unknown initial-state preset {spec.initial_preset!r}")


def _check_int(name: str, value, minimum: int | None = None) -> None:
    """JSON integers only: a bool, float or string is rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")


def _check_pair(name: str, value) -> complex:
    """A JSON [re, im] pair of finite numbers, as a complex number."""
    # type() rather than isinstance() keeps bools out; the bound rejects NaN
    # and infinities and keeps float() of a huge int from overflowing.
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(type(x) in (int, float) and abs(x) < 1e308 for x in value)
    ):
        raise ValidationError(
            f"{name} must be a finite numeric [re, im] pair, got {value!r}"
        )
    return complex(value[0], value[1])


#: The size budget, checked before any host is built: a run over it is
#: refused with ValidationError (exit 2) and writes nothing.
#: MAX_VERTICES bounds the walk's host, window x 2^depth vertices.
MAX_VERTICES = 2**20
#: MAX_ARRAY_BYTES bounds the bytes a run's kept series must hold,
#: SERIES_BYTES_PER_STEP a step: the "t" list _fold_series keeps holds an
#: 8-byte pointer a step.  2^48 bytes is more than a 64-bit Linux process
#: can map (2^47 on x86-64, 2^48 on arm64), so a run over it could not end.
MAX_ARRAY_BYTES = 2**48
SERIES_BYTES_PER_STEP = 8


def _check_vertices(vertices: int) -> None:
    """Refuse a run whose host has more than MAX_VERTICES vertices."""
    if vertices > MAX_VERTICES:
        raise ValidationError(
            f"the run's host has {vertices} vertices, over the budget of {MAX_VERTICES}"
        )


def _check_series(t_max: int) -> None:
    """Refuse a run that keeps a series of t = 0..t_max over MAX_ARRAY_BYTES."""
    _check_int("t_max", t_max, 0)
    series_bytes = (t_max + 1) * SERIES_BYTES_PER_STEP
    if series_bytes > MAX_ARRAY_BYTES:
        raise ValidationError(
            f"the run's series would hold {series_bytes} bytes,"
            f" over the budget of {MAX_ARRAY_BYTES}"
        )


def _check_spec(spec: ExperimentSpec) -> int:
    """Every check resolve_spec makes before it builds the host.

    Returns the spec's window; a line walk enforces it, a cycle walk wraps.
    """
    _check_int("t_max", spec.t_max, 0)
    _check_int("memory_depth", spec.memory_depth, 1)
    if spec.window is not None:
        _check_int("graph.window", spec.window)
    for name, seed in (("partition.seed", spec.partition_seed), ("seed", spec.seed)):
        if seed is not None:
            _check_int(name, seed, 0)
    unknown = set(spec.outputs) - set(ALL_OUTPUTS)
    if unknown:
        raise ValidationError(f"unknown outputs: {sorted(unknown)}")
    if "scaling-fit" in spec.outputs and spec.t_max < 40:
        raise ValidationError("scaling-fit needs t_max >= 40 (series too short)")
    if spec.partition_resample not in ("never", "per_step"):
        raise ValidationError(
            f"partition resample must be 'never' or 'per_step',"
            f" got {spec.partition_resample!r}"
        )
    if (
        spec.partition_resample == "per_step"
        and spec.partition_kind not in RANDOM_PARTITION_KINDS
    ):
        raise ValidationError(
            f"per-step resampling needs a random partition kind,"
            f" got {spec.partition_kind!r}"
        )

    if spec.graph_family == "line":
        window = (
            spec.window
            if spec.window is not None
            else minimal_window(spec.t_max, spec.memory_depth)
        )
        if window % 2 == 0:
            raise ValidationError(f"line windows must be odd, got {window}")
    elif spec.graph_family == "cycle":
        if spec.window is None:
            raise ValidationError("cycle graphs need an explicit window")
        window = spec.window
    else:
        raise ValidationError(f"unknown graph family {spec.graph_family!r}")
    # A bidirected cycle has degree 2; past depth 64 the host is over budget.
    _check_vertices(window << min(spec.memory_depth, 64))
    return window


def resolve_spec(
    spec: ExperimentSpec, host: RegularDigraph | None = None
) -> ResolvedExperiment:
    """Check a spec and build the objects its walk needs.

    ``host``, when given, is used in place of building the spec's host
    (run_sweep builds one for all of its jobs); it must have the spec's
    window and memory depth.
    """
    window = _check_spec(spec)
    spec = replace(spec, window=window)  # the caller's spec keeps its window
    if host is None:
        host = iterate_line_digraph(make_bidirected_cycle(window), spec.memory_depth)
    elif (host.base_n, host.depth) != (window, spec.memory_depth):
        raise ValidationError(
            f"host has window {host.base_n} and depth {host.depth}, the spec"
            f" needs {window} and {spec.memory_depth}"
        )
    # A per-step spec resolves (and is validated against) its first step's sample.
    partition = named_partition(host, spec.partition_kind, _partition_seeds(spec)[0])
    gc = _resolve_coin_shift(spec, partition)
    coin = _resolve_coin(spec)
    initial = _resolve_initial(spec, host)
    return ResolvedExperiment(spec, host, partition, gc, coin, initial)


def iter_history(resolved: ResolvedExperiment) -> Iterator[WalkState]:
    """States for t = 0..t_max under the spec's partition mode, one at a time.

    A "per_step" spec draws a fresh seeded partition before every step and
    keeps the resolved coin-shift table: every coin-shift kind builds a
    table that depends on the host and the spec only, never on the
    partition.  Step 1 takes the resolved partition, which resolve_spec
    drew from step 1's seed.  walk_states checks the start state, the
    window and the coin first, then step 1's shift, so a window too short
    for t_max is reported before a bad coin-shift table; each step's shift
    is checked for bijectivity, which is also the carried kind's dicycle
    requirement.
    """
    spec = resolved.spec
    if spec.partition_resample == "per_step":
        seeds = _partition_seeds(spec)

        def partition(t: int) -> Partition:
            if t == 1:
                return resolved.partition
            return named_partition(resolved.host, spec.partition_kind, seeds[t - 1])

    else:
        partition = resolved.partition
    return walk_states(
        partition,
        resolved.gc,
        resolved.coin,
        resolved.initial,
        spec.t_max,
        spec.graph_family == "line",
    )


def run_history(resolved: ResolvedExperiment) -> list[WalkState]:
    """States for t = 0..t_max under the spec's partition mode, as a list."""
    return list(iter_history(resolved))


# -- output writing ----------------------------------------------------------------


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


#: The most nonzero cells _distribution_csv_writer holds before it formats
#: them with one repr_rows call.  Larger batches spread the kernel's fixed
#: cost per call over more cells but hold more temporaries: on one CPU of a
#: 2-core VM the 557,682 cells of simulate --t-max 1500 took 0.33 s in
#: batches of 2,048, 0.27 s in batches of 4,096 and 0.24 s in batches of
#: 8,192 (repr took 0.55 s), and batches of 8,192 raised the run's peak RSS
#: by about 0.5 MB over 4,096.
CSV_BATCH_CELLS = 4096


@contextmanager
def _distribution_csv_writer(
    fh: IO[bytes], positions: np.ndarray
) -> Iterator[Callable[[analysis.PositionDistribution], None]]:
    """Yield a function that takes one step's distribution, and write each
    step's rows to the binary file ``fh``, one row per position,
    "\\r\\n"-terminated, under the "t,x,p" header the caller writes.  Every
    step of a run shares the host's ``positions``, so the row heads are
    built once.  Each of run_simulate's blocks formats its own steps' rows
    with one of these.

    Steps are buffered until they hold CSV_BATCH_CELLS nonzero cells, whose
    reprs then come from one repr_rows call, and the rest are written
    when the block ends without an error.  These are the bytes csv.writer
    produces for the same rows: no field (an int or a float repr) holds a
    delimiter, quote or line break, so nothing is quoted.  Exact zeros,
    about three quarters of the cells, keep a prebuilt ",x,0.0" tail:
    position_marginal's probabilities are sums of |a|^2, so none is -0.0,
    whose repr differs.  A mirror-symmetric step (every step of the default
    reflect_transmit+carried walk is one) formats its left half and copies
    each cell to its mirror position, since equal floats have equal reprs.
    """
    heads = [f",{int(x)},".encode() for x in positions.tolist()]
    zero_tails = [h + b"0.0" for h in heads]
    last = len(heads) - 1
    steps: list[tuple[int, np.ndarray, bool]] = []  # (time, cells, mirrored)
    values: list[np.ndarray] = []
    pending = 0

    def flush() -> None:
        nonlocal pending
        reprs = repr_rows(np.concatenate(values))
        stop = 0
        for time, cells, mirrored in steps:
            start, stop = stop, stop + cells.size
            tails = zero_tails.copy()
            indices, texts = cells.tolist(), reprs[start:stop].tolist()
            for i, text in zip(indices, texts):
                tails[i] = heads[i] + text
            if mirrored:
                for i, text in zip(indices, texts):
                    tails[last - i] = heads[last - i] + text
            t = str(time).encode()
            tails[0] = t + tails[0]
            tails[-1] += b"\r\n"
            fh.write((b"\r\n" + t).join(tails))
        steps.clear()
        values.clear()
        pending = 0

    def write(d: analysis.PositionDistribution) -> None:
        nonlocal pending
        p = d.probs
        mirrored = bool(np.array_equal(p, p[::-1]))
        cells = np.flatnonzero(p[: last // 2 + 1] if mirrored else p)
        steps.append((d.time, cells, mirrored))
        values.append(p[cells])
        pending += cells.size
        if pending >= CSV_BATCH_CELLS:
            flush()

    yield write
    if steps:
        flush()


def _fold_series(
    states: Iterator[WalkState],
    outputs: tuple[str, ...],
    on_step: Callable[[analysis.PositionDistribution], None] | None = None,
) -> dict:
    """Run the walk, folding each step's position distribution into scalar
    series; ``on_step`` sees each distribution before the next step is taken.

    The series hold "t" plus whichever of "variance", "occupancy_rate" and
    "origin_probability" the outputs ask for; "variance" is also kept when
    only "scaling-fit" asks for it.  Only the current distribution is held,
    so memory grows with t_max by a few scalars per step.
    """
    series: dict[str, list] = {"t": []}
    if "variance" in outputs or "scaling-fit" in outputs:
        series["variance"] = []
    if "occrate" in outputs:
        series["occupancy_rate"] = []
    if "origin-series" in outputs:
        series["origin_probability"] = []
    for state in states:
        d = analysis.position_marginal(state)
        series["t"].append(d.time)
        if "variance" in series:
            series["variance"].append(analysis.variance(d))
        if "occupancy_rate" in series:
            series["occupancy_rate"].append(analysis.occupancy_rate(d, 2 * d.time + 1))
        if "origin_probability" in series:
            series["origin_probability"].append(float(d.prob(0)))
        if on_step is not None:
            on_step(d)
    return series


def _fit_summary(variances, t_max: int) -> dict | None:
    """Fit the variance series (t = 0..t_max) over its last three quarters,
    from t = 20 at the earliest; None when t_max < 40 leaves too short a
    series for a stable fit."""
    if t_max < 40:
        return None
    t1 = max(20, t_max // 4)
    fit = analysis.classify_scaling(np.arange(t1, t_max + 1), np.asarray(variances)[t1:])
    return {
        "t_range": [t1, t_max],
        "k2": fit.k2,
        "k1": fit.k1,
        "k0_sq": fit.k0_sq,
        "residual": fit.residual,
        "verdict": fit.verdict,
    }


def _first_missing(path: Path) -> Path | None:
    """The outermost of ``path`` and its parents that does not exist yet."""
    missing = None
    for p in (path, *path.parents):
        if p.exists():
            break
        missing = p
    return missing


def _remove_empty_dirs(path: Path, top: Path) -> None:
    """rmdir ``path`` and its parents up to ``top``, stopping at the first
    that is not empty: a run started alongside may be writing there."""
    for p in (path, *path.parents):
        try:
            p.rmdir()
        except OSError:
            return
        if p == top:
            return


@contextmanager
def _staged(out_dir: str | Path) -> Iterator[Callable[[str], Path]]:
    """Create ``out_dir`` and yield ``stage(name)``, which hands out the temp
    path ``out_dir/<name>.tmp`` for output ``name``.

    When the block ends cleanly every staged temp file is moved onto its name
    by os.replace; a staged name whose temp file was never written is removed,
    so no earlier run's file stays next to this run's outputs.  If the block
    raises, the temp files go, and so does every directory this run created
    that is left empty, so a failed run leaves no file, an earlier run's
    outputs stay as they were, and a run started alongside in a sibling
    directory keeps its files.  An ``out_dir`` that is, or lies under, a
    regular file is a ValidationError, and so is an output name that is a
    directory there.
    """
    out = Path(out_dir)
    created = _first_missing(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValidationError(f"output directory {out} is, or lies under, a file") from None
    staged: dict[Path, Path] = {}

    def stage(name: str) -> Path:
        if (out / name).is_dir():
            raise ValidationError(f"output {out / name} is a directory")
        tmp = out / f"{name}.tmp"
        staged[tmp] = out / name
        return tmp

    try:
        yield stage
        for tmp, final in staged.items():
            if tmp.exists():
                os.replace(tmp, final)
            else:
                final.unlink(missing_ok=True)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        if created is not None:
            _remove_empty_dirs(out, created)
        raise


def _cgroup_cpu_quota(root: Path = Path("/sys/fs/cgroup")) -> float:
    """The CPU quota, in CPUs, of the cgroup mounted at ``root``, or inf when
    none is set or none can be read.

    A container limited to fewer CPUs than its affinity mask holds sees its
    own cgroup there: cgroup v2's cpu.max ("max 100000" for none, "150000
    100000" for 1.5 CPUs), else cgroup v1's cpu/cpu.cfs_quota_us (-1 for
    none) over cpu/cpu.cfs_period_us.
    """
    try:
        quota, period = (root / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text()
        except OSError:
            return math.inf
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max"
        return math.inf
    return quota_us / period_us if quota_us > 0 and period_us > 0 else math.inf


def _free_cpus() -> int:
    """How many processes this one may spread its work over: the CPUs in
    its affinity mask, capped by the cgroup CPU quota rounded down.

    The answer is 1 whenever another Python thread runs: a lock that thread
    holds at a fork would stay locked in the child for good.
    """
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, math.floor(min(len(os.sched_getaffinity(0)), _cgroup_cpu_quota())))


#: The fewest job-steps (jobs x t_max) that run_simulate and run_sweep
#: spread over several processes (_processes).  Forking costs a few ms,
#: which the shared work repays from about 400 job-steps on.  Timed in fresh
#: processes on a 2-core VM with one and two processes alternating:
#: run_sweep of two frozen classes ran two processes faster in 4 of 10
#: pairs at 200 job-steps, 5 at 300 and 9 at 400 (49.5 against 40.2 ms), and
#: of six classes at one seed in 4 of 10 at 120 job-steps, 6 at 240 and 8 at
#: 360; run_simulate of the default walk, whose two CSV blocks are two jobs
#: of t_max steps, in 1 of 20 pairs at t_max 100, 6 of 20 at 150 and 13 of
#: 20 at 200 (60.9 against 59.1 ms).
FORK_MIN_JOB_STEPS = 400


def _processes(n_jobs: int, t_max: int, min_job_steps: int) -> int:
    """How many processes to spread ``n_jobs`` jobs of ``t_max`` steps over:
    1 below ``min_job_steps`` job-steps, else as many as _free_cpus() allows
    and never more than there are jobs."""
    if n_jobs * t_max < min_job_steps:
        return 1
    return min(_free_cpus(), n_jobs)


@contextmanager
def _forked(work: Callable[[], _T]) -> Iterator[Callable[[], _T]]:
    """Fork a process that runs ``work()``, and yield ``result()``, which
    waits for it and returns what ``work`` returned.

    The return value comes back pickled through an unnamed temp file, which
    no failure can leave behind; Python floats pickle exactly.  The child
    ends with os._exit, so it runs no atexit handler and flushes none of
    this process's buffers.  If ``work`` raised, ``result`` raises its
    exception; if the child died without reporting one (killed, or its
    exception did not pickle), a RuntimeError naming its exit code.  If the
    block raises before ``result`` has returned, the child is killed.
    Either way it is reaped before this returns.  Only _spread forks.
    """
    with tempfile.TemporaryFile() as channel:
        pid = os.fork()
        if pid == 0:  # the child, which must never return into the caller
            try:
                gc.freeze()  # collect none of the parent's objects (or flush its files)
                pickle.dump(work(), channel)
                channel.flush()
                os._exit(0)
            except BaseException as exc:
                with suppress(BaseException):
                    channel.seek(0)
                    channel.truncate()
                    pickle.dump(exc, channel)
                    channel.flush()
            finally:
                os._exit(1)
        reaped = False

        def result() -> _T:
            nonlocal reaped
            status = os.waitpid(pid, 0)[1]
            reaped = True
            channel.seek(0)
            if status == 0:
                return pickle.load(channel)
            try:
                exc = pickle.load(channel)
            except Exception:  # killed, or its exception did not pickle
                exc = None
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(
                f"forked process failed (exit code {os.waitstatus_to_exitcode(status)})"
            )

        try:
            yield result
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _in_order(one: Callable[[_J], _T], jobs: list[_J]) -> tuple[list[_T], Exception | None]:
    """Run ``one`` on the jobs in order up to the first that fails: the
    results of the jobs before it, and its exception (None when every job
    ran)."""
    done = []
    for job in jobs:
        try:
            done.append(one(job))
        except Exception as exc:  # re-raised by _spread, in job order
            return done, exc
    return done, None


def _spread(one: Callable[[_J], _T], jobs: list[_J], n: int) -> list[_T]:
    """``one(job)`` for every job, in job order, computed by n processes.

    Process k of n runs jobs k, k + n, k + 2n, ... in order; process 0 is
    this one and processes 1..n-1 are forked (_forked), so the results never
    depend on n.  When jobs fail, the first failing job in job order raises,
    as in one process; when that is job 0, this process's first, it raises
    at once and the forked processes are killed.  Every forked process is
    reaped before this returns or raises.  Callers choose n with
    _processes().
    """
    with ExitStack() as forks:
        others = [
            forks.enter_context(_forked(partial(_in_order, one, jobs[k::n])))
            for k in range(1, n)
        ]
        done, exc = _in_order(one, jobs[::n])
        if exc is not None and not done:  # no job fails before job 0
            raise exc
        slices = [(done, exc)] + [result() for result in others]
    # Process k's failure at its j-th job is job k + n*j's.
    failures = [
        (k + n * len(done), exc) for k, (done, exc) in enumerate(slices) if exc is not None
    ]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results: list = [None] * len(jobs)
    for k, (done, _) in enumerate(slices):
        results[k::n] = done
    return results


def _csv_split(t_max: int) -> int:
    """The first step of run_simulate's second block, or t_max + 1 when the
    walk runs as one block.

    The first block walks, folds and formats t < split; the second walks
    t < split unfolded, then walks, folds and formats the rest.  Timed per
    step at t_max 1500 on one CPU of a 2-core VM (median of 10 runs), the
    unfolded walk cost 70 us a step, the folded one 123 us, and the rows of
    t < 1000 took 0.26 s of the writer's 0.51 s, so about 2 * t_max / 3
    gives both blocks the same work.  The two blocks count as two jobs of
    t_max steps, so they pass the gate from t_max FORK_MIN_JOB_STEPS / 2 =
    200 on.
    """
    if _processes(2, t_max, FORK_MIN_JOB_STEPS) < 2:
        return t_max + 1
    return round(2 * t_max / 3)


def run_simulate(spec: ExperimentSpec, out_dir: str | Path) -> dict:
    """Evolve one spec and write distributions.csv plus summary.json.

    The CSV is streamed step by step into its staged temp file (see
    _staged), so a run that fails mid-walk writes nothing.  Without the
    "distribution" output no CSV is written and an earlier run's is removed.

    With the CSV, t = 0..t_max is cut at _csv_split(t_max) into at most two
    contiguous blocks, run as the jobs of _spread.  Each block walks from
    t = 0 to its own last step, then folds the series and formats the rows
    of its own steps only.  The first block writes into the CSV; the second,
    in a forked process, into an unnamed temp file that is then appended.
    The series parts are joined in block order, so the bytes are those of a
    one-block run, and a failure in either block fails the run with nothing
    written.
    """
    _check_series(spec.t_max)  # before a per-step spec draws its step seeds
    resolved = resolve_spec(spec)
    states = iter_history(resolved)  # checks the start, the coin and the shift

    with _staged(out_dir) as stage:
        csv_tmp = stage("distributions.csv")
        summary_tmp = stage("summary.json")
        if "distribution" in spec.outputs:
            split = _csv_split(spec.t_max)
            with (
                csv_tmp.open("wb") as fh,
                tempfile.TemporaryFile(dir=csv_tmp.parent) as later,
            ):
                fh.write(b"t,x,p\r\n")

                # Both blocks read the one stream, unstarted at the fork.
                def block(job: tuple[int, int, IO[bytes]]) -> dict:
                    start, stop, sink = job
                    with _distribution_csv_writer(sink, resolved.host.positions) as write:
                        series = _fold_series(islice(states, start, stop), spec.outputs, write)
                    sink.flush()  # a forked process ends without flushing
                    return series

                blocks = [(0, split, fh), (split, spec.t_max + 1, later)]
                n = 1 if split > spec.t_max else 2
                parts = _spread(block, blocks[:n], n)
                fh.flush()
                size, offset = os.fstat(later.fileno()).st_size, 0
                while offset < size:
                    offset += os.sendfile(fh.fileno(), later.fileno(), offset, size - offset)
        else:
            parts = [_fold_series(states, spec.outputs)]
        series = {key: [v for part in parts for v in part[key]] for key in parts[0]}
        summary = {"spec": resolved.spec.to_json_dict(), "series": series}
        if "scaling-fit" in spec.outputs:
            summary["scaling_fit"] = _fit_summary(series["variance"], spec.t_max)
            if "variance" not in spec.outputs:
                del series["variance"]
        _write_json(summary_tmp, summary)
    return summary


# -- sweep -------------------------------------------------------------------------


def _repeated(items: list) -> list:
    """The items that occur more than once, sorted; one pass over ``items``."""
    seen, repeated = set(), set()
    for x in items:
        if x in seen:
            repeated.add(x)
        seen.add(x)
    return sorted(repeated)


def _class_spec(template: ExperimentSpec, walk_class: str, seed: int) -> ExperimentSpec:
    partition_kind, shift_kind = walk_class.split("+")
    # The sweep fits the seed-averaged variance itself (and skips the fit on
    # short horizons), so a class run never needs the per-run scaling fit.
    return replace(
        template,
        partition_kind=partition_kind,
        partition_seed=seed if partition_kind in RANDOM_PARTITION_KINDS else None,
        partition_resample="per_step" if walk_class in ANNEALED_CLASSES else "never",
        coin_shift_kind=shift_kind,
        coin_shift_entries=None,
        outputs=tuple(o for o in template.outputs if o != "scaling-fit"),
    )


def _sweep_one(spec: ExperimentSpec, host: RegularDigraph) -> dict:
    return _fold_series(iter_history(resolve_spec(spec, host)), ALL_OUTPUTS)


def _ratio_verdict(ratio: float | None) -> str:
    if ratio is None:
        return "indeterminate"
    lo, hi = BALLISTIC_RATIO_RANGE
    if lo <= ratio <= hi:
        return "ballistic"
    lo, hi = DIFFUSIVE_RATIO_RANGE
    if lo <= ratio <= hi:
        return "diffusive"
    return "indeterminate"


def run_sweep(
    template: ExperimentSpec,
    classes: list[str],
    seeds: list[int],
    out_dir: str | Path,
) -> dict:
    """Run each walk class across seeds; write per-class and comparison tables.

    The distinct jobs run through _spread, on as many processes as
    _processes allows (one below FORK_MIN_JOB_STEPS job-steps), so the bytes
    written never depend on the process count.  When jobs fail, the first
    failing job in job order raises, as in one process, and nothing is
    written.
    """
    for name, items in (("classes", classes), ("seeds", seeds)):
        if not isinstance(items, (list, tuple)):
            raise ValidationError(f"sweep {name} must be a list, got {items!r}")
    if not classes:
        raise ValidationError("sweep needs at least one walk class")
    if not seeds:
        raise ValidationError("sweep needs at least one seed")
    for seed in seeds:
        _check_int("sweep seed", seed, 0)
    for c in classes:
        if c not in WALK_CLASSES:
            raise ValidationError(f"unknown walk class {c!r}")
    # The summary keys its entries by class, so a repeated class would get
    # one entry there and one comparison row per repeat; a repeated seed
    # would average one walk with itself.
    for name, items in (("classes", classes), ("seeds", seeds)):
        repeated = _repeated(items)
        if repeated:
            raise ValidationError(f"sweep {name} repeat: {repeated}")

    # Each distinct spec runs once.  A class whose partition kind is not
    # random gets the same spec at every seed (_class_spec drops the seed),
    # so its one series stands for every seed.  Each job resolves (and so
    # validates) its own spec; nothing is written until every job returns.
    key_of: dict[tuple[str, int], tuple[str, int | None]] = {}
    jobs: dict[tuple[str, int | None], ExperimentSpec] = {}
    for c in classes:
        for s in seeds:
            spec = _class_spec(template, c, s)
            key_of[c, s] = (c, spec.partition_seed)
            jobs.setdefault(key_of[c, s], spec)
    specs = list(jobs.values())

    # One host serves every job: a class spec differs from the template only
    # in its partition, coin shift and outputs.  Job 0's checks come first,
    # as in its own resolve_spec, so a spec the host cannot be built for
    # fails as job 0 would.  Forked processes inherit the host.
    window = _check_spec(specs[0])
    _check_series(template.t_max)  # each job keeps one walk's series
    host = iterate_line_digraph(make_bidirected_cycle(window), template.memory_depth)

    # Processes, not threads: a job's steps are Python code and small numpy
    # calls that hold the GIL.  Interleaved slices share out the costlier
    # annealed classes, which sit next to each other in job order.
    n = _processes(len(specs), template.t_max, FORK_MIN_JOB_STEPS)
    series_of = dict(zip(jobs, _spread(partial(_sweep_one, host=host), specs, n)))

    t_max = template.t_max
    checkpoints = [t for t in (50, 100, 200) if t <= t_max]
    lo, hi = LOCALIZATION_WINDOW
    class_reports = {}
    rows = []
    for walk_class in classes:
        runs = [series_of[key_of[walk_class, s]] for s in seeds]
        var = np.mean([r["variance"] for r in runs], axis=0)
        occ = np.mean([r["occupancy_rate"] for r in runs], axis=0)
        origin = np.mean([r["origin_probability"] for r in runs], axis=0)
        # No ratio (JSON null, an empty CSV cell) while the half-time variance
        # is still zero, as it is for t_max 0 and 1.
        ratio = float(var[t_max] / var[t_max // 2]) if var[t_max // 2] > 0 else None
        fit = _fit_summary(var, t_max)
        origin_late = [origin[t] for t in range(lo, min(hi, t_max) + 1) if t % 2 == 0]
        report = {
            "seeds": list(seeds),
            "mean_variance": [float(v) for v in var],
            "mean_occupancy_rate": [float(v) for v in occ],
            "mean_origin_probability": [float(v) for v in origin],
            "variance_ratio": ratio,
            "ratio_verdict": _ratio_verdict(ratio),
            "fit_verdict": fit["verdict"] if fit is not None else None,
            "occupancy_at": {str(t): float(occ[t]) for t in checkpoints},
            "origin_late_average": (
                float(np.mean(origin_late)) if origin_late else None
            ),
        }
        class_reports[walk_class] = report
        # csv.writer writes None as an empty cell and a float by its repr.
        rows.append(
            [walk_class, len(seeds)]
            + [report[k] for k in ("variance_ratio", "ratio_verdict", "fit_verdict")]
            + list(report["occupancy_at"].values())
            + [report["origin_late_average"]]
        )

    summary = {"template": template.to_json_dict(), "classes": class_reports}
    with _staged(out_dir) as stage:
        _write_json(stage("sweep_summary.json"), summary)
        with stage("comparison.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["class", "n_seeds", "variance_ratio", "ratio_verdict", "fit_verdict"]
                + [f"occupancy_t{t}" for t in checkpoints]
                + ["origin_late_average"]
            )
            writer.writerows(rows)
    return summary


# -- equivalence pipeline ------------------------------------------------------------


#: Horizon of the position-and-memory oracle comparisons in equivalence_report.
ORACLE_T_MAX = 50


def equivalence_report(t_max: int) -> dict:
    """Cross-check the engine against every independent oracle.

    Field pipeline: evolve the reflect/transmit amplitude field, check its
    linear constraints, map it onto the memoryless walk and compare against
    a direct simulation, entrywise and in distribution.  The engine runs the
    same walk; its amplitudes must match the field exactly.  The engine walk
    is streamed beside the field recurrence, one state and one field at a
    time, so memory grows linearly with t_max.  Then the two
    position-and-memory oracles are compared against engine marginals.
    """
    _check_int("t_max", t_max, 0)
    window = minimal_window(t_max, 1)
    _check_vertices(2 * window)  # the walk is streamed: no series is kept
    beta = analysis.equivalence_initial_beta(window)

    host = iterate_line_digraph(make_bidirected_cycle(window), 1)
    partition = reflect_transmit_partition(host)
    gc = carried_coin_shift(partition)

    constraint_max = analysis.check_beta_constraint(beta)
    applicable = constraint_max <= UNITARY_ATOL

    # Engine runs the same walk from the same four-amplitude start, with
    # evolve's checks, one state at a time.
    start = state_from_terms(host, equivalence_initial_terms(host))
    engine_states = walk_states(partition, gc, hadamard_coin(), start, t_max)

    alpha = analysis.qwom_initial_alpha(window)
    alpha_diff_max = 0.0
    tv_max = 0.0
    engine_field_diff_max = 0.0
    for t, state in enumerate(engine_states):
        if t > 0:
            beta = analysis.beta_recurrence_step(beta)
            alpha = analysis.qwom_step(alpha)
        constraint_max = max(constraint_max, analysis.check_beta_constraint(beta))
        engine_field_diff_max = max(
            engine_field_diff_max,
            float(np.abs(analysis.beta_from_walk_state(state).amps - beta.amps).max()),
        )
        rebuilt = analysis.alpha_from_beta(beta)
        alpha_diff_max = max(alpha_diff_max, float(np.abs(rebuilt.amps - alpha.amps).max()))
        tv_max = max(
            tv_max,
            analysis.total_variation(
                analysis.beta_distribution(beta), analysis.alpha_distribution(alpha)
            ),
        )

    # Position-and-memory oracles against engine marginals: the recycled-coin
    # walk at depths 1 and 2, then the reflect/transmit walk at depth 1.
    oracle_window = minimal_window(ORACLE_T_MAX, 2)
    oracle_report = {}
    for name, depth, kind in (
        ("recycled_d1", 1, "directional"),
        ("recycled_d2", 2, "directional"),
        ("reflect_transmit_d1", 1, "reflect_transmit"),
    ):
        o_host = iterate_line_digraph(make_bidirected_cycle(oracle_window), depth)
        o_partition = named_partition(o_host, kind)
        if kind == "directional":
            o_gc = recycled_coin_shift(o_partition)
            terms, oracle_terms = _paired_origin_state(depth, seed=20260819 + depth)
            oracle = recycled_coin_walk(
                depth, hadamard_coin(), oracle_terms, ORACLE_T_MAX, oracle_window
            )
        else:
            o_gc = carried_coin_shift(o_partition)
            terms, oracle_terms = _paired_reflect_transmit_state(seed=20260819)
            oracle = reflect_transmit_walk(
                hadamard_coin(), oracle_terms, ORACLE_T_MAX, oracle_window
            )
        states = evolve(
            o_partition, o_gc, hadamard_coin(), state_from_terms(o_host, terms), ORACLE_T_MAX
        )
        oracle_report[name] = max(
            analysis.max_distribution_difference(
                d, analysis.PositionDistribution(d.positions, oracle[t], t)
            )
            for t, d in enumerate(map(analysis.position_marginal, states))
        )

    return {
        "window": window,
        "t_max": t_max,
        "applicable": bool(applicable),
        "constraint_residual_max": constraint_max,
        "engine_field_diff_max": engine_field_diff_max,
        "alpha_reconstruction_diff_max": alpha_diff_max,
        "distribution_tv_max": tv_max,
        "oracle_distribution_diff_max": oracle_report,
        "passed": bool(
            constraint_max < UNITARY_ATOL
            and engine_field_diff_max < UNITARY_ATOL
            and alpha_diff_max < AMPLITUDE_ATOL
            and tv_max < ORACLE_DISTRIBUTION_ATOL
            and all(v < EXACT_DISTRIBUTION_ATOL for v in oracle_report.values())
        ),
    }


def _paired_origin_state(depth: int, seed: int):
    """A seeded random origin state in both engine and recycled-oracle bases."""
    rng = np.random.default_rng(seed)
    combos = [
        tuple(1 if b == 0 else -1 for b in np.unravel_index(i, (2,) * (depth + 1)))
        for i in range(2 ** (depth + 1))
    ]
    amps = rng.normal(size=len(combos)) + 1j * rng.normal(size=len(combos))
    amps /= np.linalg.norm(amps)
    terms = []
    oracle_terms = []
    for regs, amp in zip(combos, amps):
        steps, coin = regs[:depth], regs[depth]
        path = [0]
        for s in steps:
            path.append(path[-1] - s)
        path = tuple(reversed(path))
        terms.append((path, coin, complex(amp)))
        oracle_terms.append((0, regs, complex(amp)))
    return terms, oracle_terms


def _paired_reflect_transmit_state(seed: int):
    rng = np.random.default_rng(seed)
    combos = [(0, -1, 1), (0, -1, -1), (0, 1, 1), (0, 1, -1)]
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    terms = []
    oracle_terms = []
    for (x0, x1, coin), amp in zip(combos, amps):
        terms.append(((x1, x0), coin, complex(amp)))
        oracle_terms.append((x0, x1, coin, complex(amp)))
    return terms, oracle_terms


def run_equivalence(out_dir: str | Path, t_max: int) -> dict:
    report = equivalence_report(t_max=t_max)
    with _staged(out_dir) as stage:
        _write_json(stage("equivalence.json"), report)
    if not report["passed"]:
        raise NumericalCheckError("equivalence pipeline failed; see equivalence.json")
    return report


# -- enumeration pipeline --------------------------------------------------------------


#: The fewest seed-steps (seeds x t_max) whose census enumerate_report
#: spreads over several processes.  enumerate_report alone, timed in fresh
#: processes on a 2-core VM with one and two processes alternating (20
#: pairs each), ran two processes faster in 2 of 20 pairs at 180
#: seed-steps (6 seeds, t_max 30), 8 at 240 and 15 at 300 (76.4 against
#: 67.9 ms); at t_max 10, 5 at 240 and 12 at 300; at t_max 60, 7 at 240
#: and 12 at 300.
CENSUS_FORK_MIN_SEED_STEPS = 300


def enumerate_report(cycle_size: int, seeds: list[int], t_max: int) -> dict:
    """Valid coin-shift counting plus the distinct-dicycle-walk census.

    The census's seeds are spread through _spread, over as many processes
    as _processes allows (one below CENSUS_FORK_MIN_SEED_STEPS seed-steps).
    The report is the same for every process count.
    """
    _check_int("t_max", t_max, 0)
    for seed in seeds:
        _check_int("enumerate seed", seed, 0)
    # The report keys its census by seed, so a repeated seed would be walked
    # twice and listed once.
    repeated = _repeated(seeds)
    if repeated:
        raise ValidationError(f"enumerate seeds repeat: {repeated}")
    # The depth-1 host has 2 * cycle_size vertices with 2 coins each; a host
    # too large to enumerate is refused before it is built.
    check_enumeration_size(4 * cycle_size)
    if seeds:  # the census's walk host, built below
        _check_vertices(2 * minimal_window(t_max, 1))
    host = iterate_line_digraph(make_bidirected_cycle(cycle_size), 1)
    partition = reflect_transmit_partition(host)
    shifts = enumerate_coin_shifts(partition)
    report: dict = {
        "gc_enumeration": {
            "cycle_size": cycle_size,
            "host_vertices": host.n_vertices,
            "count": len(shifts),
            "expected_count": 2**host.n_vertices,
        }
    }
    if seeds:
        walk_host = iterate_line_digraph(
            make_bidirected_cycle(minimal_window(t_max, 1)), 1
        )
        n = _processes(len(seeds), t_max, CENSUS_FORK_MIN_SEED_STEPS)
        census = analysis.count_distinct_dicycle_carried_walks(
            walk_host, seeds, t_max, partial(_spread, n=n)
        )
        report["distinct_walks"] = {
            "seeds": seeds,
            "t_max": t_max,
            "n_classes": census.n_classes,
            "keys_consistent": census.keys_consistent,
            "class_of": {str(s): census.class_of[s] for s in seeds},
            "key_of": {str(s): list(census.key_of[s]) for s in seeds},
        }
    else:
        report["distinct_walks"] = {"seeds": [], "t_max": t_max, "n_classes": 0}
    return report


def run_enumerate(
    out_dir: str | Path, cycle_size: int, seeds: list[int], t_max: int
) -> dict:
    report = enumerate_report(cycle_size=cycle_size, seeds=seeds, t_max=t_max)
    with _staged(out_dir) as stage:
        _write_json(stage("enumerate.json"), report)
    return report

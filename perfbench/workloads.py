"""The benchmark's workloads: CLI invocations, set-up specs, sizes and output checks.

A workload is made from its workload seed alone; the program receives only
the generated seed lists.  Every workload runs through the public CLI
(``memwalk.cli.main``) and names the files each invocation must write, so
the harness can check them.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: The workload seed the recorded digests in golden.json belong to.
DEFAULT_SEED = 0

WALK_CLASSES = (
    "directional+recycled",
    "reflect_transmit+recycled",
    "reflect_transmit+carried",
    "random+recycled",
    "random_dicycle+recycled",
    "random_dicycle+carried",
)

#: Classes that redraw the partition before every step (diffusive walks).
ANNEALED = ("random+recycled", "random_dicycle+recycled")

#: The ratio verdict the acceptance suite expects of each sweep class.
EXPECTED_VERDICT = {c: "diffusive" if c in ANNEALED else "ballistic" for c in WALK_CLASSES}

#: The acceptance sweep's template, as criterion 6 builds it.
SWEEP_TEMPLATE = {"t_max": 200, "outputs": ["variance", "occrate", "origin-series"]}


def line_host_vertices(t_max: int, depth: int) -> int:
    """Vertices of the depth-d line digraph over the minimal t_max window."""
    window = 2 * t_max + 2 * depth + 3
    return window * 2**depth


@dataclass
class Invocation:
    """One CLI call; ``{out}`` and ``{config}`` in argv are filled in per run."""

    name: str
    argv: list[str]
    files: tuple[str, ...]
    config: dict | None = None
    #: Values the output check compares against (seed lists, horizons).
    expect: dict = field(default_factory=dict)
    #: False when the workload seed does not reach this call's outputs, so
    #: its recorded digests hold at every seed.
    seeded: bool = True


@dataclass
class Workload:
    name: str
    why: str
    seed: int
    invocations: list[Invocation]
    #: Specs resolved (resolve_spec) in the set-up measurement.
    setup_specs: list[dict]
    #: Walk groups: what, walks, t_max, host_vertices, host_degree, engine.
    walks: list[dict]
    #: file name ("<invocation>/<file>") -> sha256 hex digest that must match.
    golden: dict[str, str] = field(default_factory=dict)

    @property
    def steps(self) -> int:
        """Walk steps run (one coin-then-shift of one walk), over all walks."""
        return sum(w["walks"] * w["t_max"] for w in self.walks)

    @property
    def engine_steps(self) -> int:
        """The subset of ``steps`` taken by the engine (coin_step calls)."""
        return sum(w["walks"] * w["t_max"] for w in self.walks if w["engine"])

    def sizes(self) -> dict:
        return {
            "walks": self.walks,
            "total_walks": sum(w["walks"] for w in self.walks),
            "steps": self.steps,
            "engine_steps": self.engine_steps,
        }

    def argvs(self, out_root: Path) -> list[list[str]]:
        out = []
        for inv in self.invocations:
            subs = {"{out}": str(out_root / inv.name), "{config}": str(out_root / f"{inv.name}.config.json")}
            out.append([subs.get(a, a) for a in inv.argv])
        return out

    def write_configs(self, out_root: Path) -> None:
        out_root.mkdir(parents=True, exist_ok=True)
        for inv in self.invocations:
            if inv.config is not None:
                (out_root / f"{inv.name}.config.json").write_text(json.dumps(inv.config))

    def check(self, inv: Invocation, out_dir: Path) -> list[str]:
        """Problems found in one invocation's outputs (empty when correct)."""
        problems = []
        for name in inv.files:
            path = out_dir / name
            if not path.is_file():
                problems.append(f"{inv.name}: missing {name}")
                continue
            want = self.golden.get(f"{inv.name}/{name}")
            if want is not None and sha256(path) != want:
                problems.append(f"{inv.name}: {name} differs from the recorded digest")
        if problems:
            return problems
        try:
            return [f"{inv.name}: {p}" for p in CHECKS[(self.name, inv.name)](inv, out_dir)]
        except (ValueError, KeyError, TypeError, IndexError, csv.Error) as exc:
            return [f"{inv.name}: unparseable output ({type(exc).__name__}: {exc})"]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _seed_list(seeds: list[int]) -> str:
    return ",".join(str(s) for s in seeds)


def seed_block(seed: int, n_seeds: int) -> list[int]:
    """Workload seed s owns the program seeds s*n .. s*n + n - 1."""
    return list(range(seed * n_seeds, (seed + 1) * n_seeds))


# -- workload constructors ------------------------------------------------------


def sweep(seed: int, n_seeds: int = 3, t_max: int = 200) -> Workload:
    seeds = seed_block(seed, n_seeds)
    template = dict(SWEEP_TEMPLATE, t_max=t_max)
    setup = []
    for c in WALK_CLASSES:
        kind, shift = c.split("+")
        setup.append(
            dict(
                template,
                partition={
                    "kind": kind,
                    "seed": seeds[0] if kind.startswith("random") else None,
                    "resample": "per_step" if c in ANNEALED else "never",
                },
                coin_shift={"kind": shift},
            )
        )
    return Workload(
        name="sweep",
        why="annealed classes redraw partition, coin shift and shift permutation every step: sampler-bound",
        seed=seed,
        invocations=[
            Invocation(
                "sweep",
                ["sweep", "--config", "{config}", "--seeds", _seed_list(seeds), "--out", "{out}"],
                ("sweep_summary.json", "comparison.csv"),
                config={"template": template},
                expect={"seeds": seeds},
            )
        ],
        setup_specs=setup,
        walks=[
            {
                "what": f"sweep jobs ({len(WALK_CLASSES)} classes x {n_seeds} seeds)",
                "walks": len(WALK_CLASSES) * n_seeds,
                "t_max": t_max,
                "host_vertices": line_host_vertices(t_max, 1),
                "host_degree": 2,
                "engine": True,
            }
        ],
    )


def simulate_long(seed: int, t_max: int = 1500) -> Workload:
    # The seed does not enter: the frozen reflect_transmit+carried walk is
    # deterministic, so every seed checks the same recorded digests.
    return Workload(
        name="simulate_long",
        why="one frozen walk over 1500 steps bypasses the sampler: marginals, history memory and CSV writing",
        seed=seed,
        invocations=[
            Invocation(
                "simulate",
                ["simulate", "--t-max", str(t_max), "--out", "{out}"],
                ("summary.json", "distributions.csv"),
                expect={"t_max": t_max, "window": line_host_vertices(t_max, 1) // 2},
                seeded=False,
            )
        ],
        setup_specs=[{"t_max": t_max}],
        walks=[
            {
                "what": "reflect_transmit+carried from origin-balanced",
                "walks": 1,
                "t_max": t_max,
                "host_vertices": line_host_vertices(t_max, 1),
                "host_degree": 2,
                "engine": True,
            }
        ],
    )


def crosscheck(
    seed: int, n_census: int = 200, census_t_max: int = 30, eq_t_max: int = 100
) -> Workload:
    seeds = seed_block(seed, n_census)
    oracle_t = 50  # equivalence_report's fixed oracle horizon
    return Workload(
        name="crosscheck",
        why="thousands of short evolve calls plus oracles and the field pipeline: per-call overhead",
        seed=seed,
        invocations=[
            Invocation(
                "equivalence",
                ["equivalence", "--t-max", str(eq_t_max), "--out", "{out}"],
                ("equivalence.json",),
                seeded=False,
            ),
            Invocation(
                "enumerate",
                [
                    "enumerate", "--cycle-size", "3", "--seeds", _seed_list(seeds),
                    "--t-max", str(census_t_max), "--out", "{out}",
                ],
                ("enumerate.json",),
                expect={"seeds": seeds},
            ),
        ],
        setup_specs=[
            {"t_max": eq_t_max, "outputs": ["variance"], "initial_state": {"preset": "equivalence"}},
            {
                "t_max": census_t_max,
                "outputs": ["variance"],
                "partition": {"kind": "random_dicycle", "seed": seeds[0]},
                "coin_shift": {"kind": "carried"},
            },
        ],
        walks=[
            {"what": "equivalence engine walk", "walks": 1, "t_max": eq_t_max,
             "host_vertices": line_host_vertices(eq_t_max, 1), "host_degree": 2, "engine": True},
            {"what": "engine walks against the d=1 oracles", "walks": 2, "t_max": oracle_t,
             "host_vertices": line_host_vertices(oracle_t, 2) // 2, "host_degree": 2, "engine": True},
            {"what": "engine walk against the d=2 oracle", "walks": 1, "t_max": oracle_t,
             "host_vertices": line_host_vertices(oracle_t, 2), "host_degree": 2, "engine": True},
            {"what": "oracle walkers (recycled d=1, d=2, reflect/transmit)", "walks": 3,
             "t_max": oracle_t, "host_vertices": None, "host_degree": 2, "engine": False},
            {"what": "beta and alpha field recurrences", "walks": 2, "t_max": eq_t_max,
             "host_vertices": None, "host_degree": 2, "engine": False},
            {"what": f"census ({n_census} seeds x 5 probe states)", "walks": 5 * n_census,
             "t_max": census_t_max, "host_vertices": line_host_vertices(census_t_max, 1),
             "host_degree": 2, "engine": True},
        ],
    )


BUILDERS = {"sweep": sweep, "simulate_long": simulate_long, "crosscheck": crosscheck}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def make(name: str, seed: int) -> Workload:
    """The registered workload, with the recorded digests that apply at this seed."""
    wl = BUILDERS[name](seed)
    for key, digests in load_golden().get(name, {}).items():
        if key == "*" or key == str(seed):
            wl.golden.update(digests)
    return wl


# -- seed-independent output checks -------------------------------------------


def _check_sweep(inv: Invocation, out: Path) -> list[str]:
    doc = json.loads((out / "sweep_summary.json").read_text())
    problems = []
    want_seeds = inv.expect["seeds"]
    for c, verdict in EXPECTED_VERDICT.items():
        entry = doc["classes"][c]
        if entry["seeds"] != want_seeds:
            problems.append(f"{c}: seeds {entry['seeds']} != {want_seeds}")
        if entry["ratio_verdict"] != verdict:
            problems.append(
                f"{c}: ratio verdict {entry['ratio_verdict']} (ratio {entry['variance_ratio']}),"
                f" expected {verdict}"
            )
    with (out / "comparison.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    if [r[0] for r in rows[1:]] != list(WALK_CLASSES):
        problems.append("comparison.csv does not list the six classes")
    return problems


def _check_simulate(inv: Invocation, out: Path) -> list[str]:
    t_max, window = inv.expect["t_max"], inv.expect["window"]
    doc = json.loads((out / "summary.json").read_text())
    problems = []
    if doc["series"]["t"] != list(range(t_max + 1)):
        problems.append("summary.json series does not cover t = 0..t_max")
    if doc["scaling_fit"]["verdict"] != "ballistic":
        problems.append(f"scaling verdict {doc['scaling_fit']['verdict']}, expected ballistic")
    with (out / "distributions.csv").open("rb") as fh:
        header = fh.readline()
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    if header != b"t,x,p\r\n" or rows != (t_max + 1) * window:
        problems.append(f"distributions.csv has header {header!r} and {rows} rows")
    return problems


def _check_equivalence(inv: Invocation, out: Path) -> list[str]:
    doc = json.loads((out / "equivalence.json").read_text())
    return [] if doc["passed"] is True else ["equivalence.json reports passed != true"]


def _check_enumerate(inv: Invocation, out: Path) -> list[str]:
    doc = json.loads((out / "enumerate.json").read_text())
    problems = []
    counts = doc["gc_enumeration"]
    if counts["count"] != counts["expected_count"]:
        problems.append(f"{counts['count']} coin shifts, expected {counts['expected_count']}")
    census = doc["distinct_walks"]
    want_seeds = inv.expect["seeds"]
    if census["seeds"] != want_seeds:
        problems.append("census seeds differ from the requested list")
    if not census["n_classes"] <= 8:
        problems.append(f"census found {census['n_classes']} classes, at most 8 expected")
    if census["keys_consistent"] is not True:
        problems.append("census keys are not consistent with its classes")
    return problems


CHECKS = {
    ("sweep", "sweep"): _check_sweep,
    ("simulate_long", "simulate"): _check_simulate,
    ("crosscheck", "equivalence"): _check_equivalence,
    ("crosscheck", "enumerate"): _check_enumerate,
}

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest

from memwalk import (
    ConstraintViolationError,
    NumericalCheckError,
    ValidationError,
    minimal_window,
)
from memwalk.experiments import (
    ALL_OUTPUTS,
    ANNEALED_CLASSES,
    WALK_CLASSES,
    ExperimentSpec,
    _class_spec,
    _distribution_csv_writer,
    equivalence_report,
    enumerate_report,
    iter_history,
    resolve_spec,
    run_history,
    run_simulate,
    run_sweep,
)
from memwalk import analysis, engine, experiments
from memwalk.engine import WalkState


def spec_doc(**overrides):
    doc = {
        "graph": {"family": "line"},
        "partition": {"kind": "reflect_transmit"},
        "coin_shift": {"kind": "carried"},
        "coin": {"kind": "hadamard"},
        "initial_state": {"preset": "origin-balanced"},
        "t_max": 30,
        "outputs": ["distribution", "variance"],
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def test_spec_round_trip():
    spec = ExperimentSpec.from_json_dict(spec_doc())
    assert ExperimentSpec.from_json_dict(spec.to_json_dict()) == spec


def test_spec_json_special_cases():
    # outputs are held as a tuple, so a spec that states its defaults equals them
    assert ExperimentSpec.from_json_dict({"outputs": list(ALL_OUTPUTS)}) == ExperimentSpec()
    # terms win over a preset, and a spec with neither gets the default preset
    terms = [{"path": [-1, 0], "coin": 1, "amplitude": [1, 0]}]
    both = ExperimentSpec.from_json_dict({"initial_state": {"preset": "equivalence", "terms": terms}})
    assert both.initial_preset is None
    assert both.to_json_dict()["initial_state"] == {"terms": terms}
    for initial in ({"preset": None}, {"terms": None}):
        spec = ExperimentSpec.from_json_dict({"initial_state": initial})
        assert spec.to_json_dict()["initial_state"] == {"preset": "origin-balanced"}
    # entries and rows are left out while None; a None window or seed is written
    doc = ExperimentSpec().to_json_dict()
    assert doc["coin_shift"] == {"kind": "carried"}
    assert doc["coin"] == {"kind": "hadamard"}
    assert doc["graph"] == {"family": "line", "window": None}
    assert doc["seed"] is None


def test_spec_rejects_unknown_fields():
    with pytest.raises(ValidationError):
        ExperimentSpec.from_json_dict(spec_doc(extra=1))
    with pytest.raises(ValidationError):
        ExperimentSpec.from_json_dict(spec_doc(partition={"kind": "reflect_transmit", "huh": 2}))


def test_resolve_defaults_line_window():
    resolved = resolve_spec(ExperimentSpec.from_json_dict(spec_doc()))
    assert resolved.host.base_n == minimal_window(30, 1)
    assert resolved.host.centered


def test_resolve_spec_leaves_its_callers_spec_as_it_was(tmp_path):
    # The summary states the window the run resolved; the caller's spec keeps
    # None, so a longer second run resolves a window of its own.
    spec = ExperimentSpec(t_max=10, outputs=("variance",))
    summary = run_simulate(spec, tmp_path / "short")
    assert spec.window is None
    assert summary["spec"]["graph"]["window"] == minimal_window(10, 1)
    spec.t_max = 100
    summary = run_simulate(spec, tmp_path / "long")
    assert summary["spec"]["graph"]["window"] == minimal_window(100, 1)


def test_cycle_family_requires_window():
    with pytest.raises(ValidationError):
        resolve_spec(ExperimentSpec.from_json_dict(spec_doc(graph={"family": "cycle"})))
    resolved = resolve_spec(
        ExperimentSpec.from_json_dict(spec_doc(graph={"family": "cycle", "window": 9}))
    )
    assert resolved.host.base_n == 9


def test_resolve_spec_uses_a_given_host_of_the_spec_shape():
    host = resolve_spec(ExperimentSpec.from_json_dict(spec_doc())).host
    assert resolve_spec(ExperimentSpec.from_json_dict(spec_doc()), host).host is host
    with pytest.raises(ValidationError, match="host has window"):
        resolve_spec(ExperimentSpec.from_json_dict(spec_doc(t_max=20)), host)
    with pytest.raises(ValidationError, match="host has window"):
        resolve_spec(ExperimentSpec.from_json_dict(spec_doc(memory_depth=2)), host)


def test_scaling_fit_needs_room():
    doc = spec_doc(outputs=["scaling-fit"], t_max=30)
    with pytest.raises(ValidationError) as err:
        resolve_spec(ExperimentSpec.from_json_dict(doc))
    assert "scaling-fit" in str(err.value)


def test_per_step_resample_needs_random_partition():
    doc = spec_doc(partition={"kind": "directional", "resample": "per_step"})
    with pytest.raises(ValidationError):
        resolve_spec(ExperimentSpec.from_json_dict(doc))
    doc = spec_doc(partition={"kind": "random", "seed": 3, "resample": "sometimes"})
    with pytest.raises(ValidationError):
        resolve_spec(ExperimentSpec.from_json_dict(doc))


def test_random_partition_needs_seed():
    doc = spec_doc(partition={"kind": "random"}, seed=None)
    with pytest.raises(ValidationError):
        resolve_spec(ExperimentSpec.from_json_dict(doc))


def test_run_simulate_outputs_are_deterministic(tmp_path):
    spec = ExperimentSpec.from_json_dict(
        spec_doc(partition={"kind": "random_dicycle", "seed": 11})
    )
    run_simulate(spec, tmp_path / "a")
    run_simulate(spec, tmp_path / "b")
    for name in ("summary.json", "distributions.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of summary.json and distributions.csv, recorded before the per-step
# loop reused the resolved coin-shift table and took the rewritten marginal,
# sampler and dicycle check.
PINNED_RUNS = [
    (
        ("random", "recycled", 5, "per_step", 200),
        "0e46d8568c9fb26e0f638754aacbc57e18f676592bec058df4775f420b8080a9",
        "35b6761424b4922efbeaf00d21d8a7d57c47309d429c69970477aedd04d04567",
    ),
    (
        ("random_dicycle", "recycled", 5, "per_step", 200),
        "d49005d35120be7bd1e624aa2f035ef3c3704ba426dcfc43129344c94bc9ec14",
        "b5bc84a61bd1072c7797b73981ea21a0353d871e08f89f3a94ef89920e0d246a",
    ),
    (
        ("random_dicycle", "carried", 7, "per_step", 200),
        "cfdf2952d8da90d93f4f52c2ec714a0f4d733fb81327960e29f5f6e35c785969",
        "744e21c9ee283618ad362f920478311c929e78df4a21ba03b50684dc955f3dd2",
    ),
    (
        ("random_dicycle", "carried", 11, "never", 300),
        "0391ec9388e2f27ba9e1c6dac18fd4e2884c1696e771f1b6a7c11be210b1802d",
        "97ae83a22623dad08b44d6c636214b61019813047581a91449230692de353a33",
    ),
]


@pytest.mark.parametrize("run, summary_sha, csv_sha", PINNED_RUNS, ids=lambda v: str(v)[:12])
def test_simulate_bytes_are_pinned(tmp_path, run, summary_sha, csv_sha):
    kind, shift, seed, resample, t_max = run
    doc = spec_doc(
        partition={"kind": kind, "seed": seed, "resample": resample},
        coin_shift={"kind": shift},
        t_max=t_max,
        outputs=["distribution", "variance", "occrate", "origin-series"],
    )
    run_simulate(ExperimentSpec.from_json_dict(doc), tmp_path)
    digest = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("summary.json", "distributions.csv")
    }
    assert digest == {"summary.json": summary_sha, "distributions.csv": csv_sha}


@pytest.mark.parametrize("shift", ["recycled", "carried"])
def test_per_step_run_builds_its_coin_shift_table_once(monkeypatch, shift):
    builder = f"{shift}_coin_shift"
    real = getattr(experiments, builder)
    calls = []

    def counting(p):
        calls.append(p.seed)
        return real(p)

    monkeypatch.setattr(experiments, builder, counting)
    doc = spec_doc(
        partition={"kind": "random_dicycle", "seed": 5, "resample": "per_step"},
        coin_shift={"kind": shift},
        t_max=20,
    )
    states = list(iter_history(resolve_spec(ExperimentSpec.from_json_dict(doc))))
    assert len(states) == 21
    assert len(calls) == 1


def test_per_step_run_samples_each_step_partition_once(monkeypatch):
    # resolve_spec draws step 1's partition; the walk reuses it.
    real = experiments.named_partition
    seeds = []

    def counting(host, kind, seed=None):
        seeds.append(seed)
        return real(host, kind, seed)

    monkeypatch.setattr(experiments, "named_partition", counting)
    doc = spec_doc(
        partition={"kind": "random", "seed": 5, "resample": "per_step"},
        coin_shift={"kind": "recycled"},
        t_max=20,
    )
    spec = ExperimentSpec.from_json_dict(doc)
    states = list(iter_history(resolve_spec(spec)))
    assert len(states) == 21
    assert len(seeds) == spec.t_max
    assert seeds == experiments._partition_seeds(spec)


@pytest.mark.parametrize("kind", ["random", "random_dicycle"])
def test_per_step_run_checks_each_step_shift_once(monkeypatch, kind):
    # build_shift_operator checks every step's shift through the engine's
    # binding of validate_coin_shift, whose check also hands the shift its
    # gather index: one check per step, in step order.
    doc = spec_doc(
        partition={"kind": kind, "seed": 5, "resample": "per_step"},
        coin_shift={"kind": "recycled"},
        t_max=20,
    )
    resolved = resolve_spec(ExperimentSpec.from_json_dict(doc))
    real = engine.validate_coin_shift
    checked = []

    def counting(p, gc, *args):
        checked.append(p.seed)
        return real(p, gc, *args)

    monkeypatch.setattr(engine, "validate_coin_shift", counting)
    states = list(iter_history(resolved))
    assert len(states) == 21
    assert len(checked) == resolved.spec.t_max
    assert checked == experiments._partition_seeds(resolved.spec)


def test_per_step_carried_run_rejects_a_later_non_dicycle_sample(tmp_path):
    # Seed 30's first sample on this 10-vertex host is a dicycle
    # factorization, so the spec resolves; its second is not, and the
    # carried table then fails the step's bijectivity check.
    doc = spec_doc(
        graph={"family": "cycle", "window": 5},
        partition={"kind": "random", "seed": 30, "resample": "per_step"},
        t_max=10,
    )
    spec = ExperimentSpec.from_json_dict(doc)
    assert resolve_spec(spec).partition.is_dicycle
    out = tmp_path / "never"
    with pytest.raises(ConstraintViolationError):
        run_simulate(spec, out)
    assert not out.exists()


def test_hadamard_variance_meets_the_konno_limit():
    # The reflect/transmit carried walk from the equivalence state has the
    # position distribution of the memoryless Hadamard walk from
    # (1, i)/sqrt(2), whose var/t^2 tends to 1 - 1/sqrt(2) (Konno, J. Math.
    # Soc. Japan 57 (2005)); the gap shrinks like 0.49/t^2.
    doc = spec_doc(initial_state={"preset": "equivalence"}, t_max=400)
    resolved = resolve_spec(ExperimentSpec.from_json_dict(doc))
    limit = 1 - 1 / np.sqrt(2)
    checked = []
    for state in iter_history(resolved):
        t = state.time
        if t in (100, 200, 400):
            var = analysis.variance(analysis.position_marginal(state))
            assert abs(var / t**2 - limit) < 1 / t**2
            checked.append(t)
    assert checked == [100, 200, 400]


def test_run_simulate_validates_before_writing(tmp_path):
    spec = ExperimentSpec.from_json_dict(
        spec_doc(partition={"kind": "directional"}, coin_shift={"kind": "carried"})
    )
    out = tmp_path / "never"
    with pytest.raises(Exception):
        run_simulate(spec, out)
    assert not out.exists()


def _csv_writer_reference(path, dists):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "p"])
        for d in dists:
            for x, p in zip(d.positions, d.probs):
                writer.writerow([d.time, int(x), repr(float(p))])


def _write_csv(path, dists):
    """One writer per run of consecutive steps that share their positions."""
    with path.open("w", newline="") as fh:
        fh.write("t,x,p\r\n")
        for _, run in itertools.groupby(dists, key=lambda d: id(d.positions)):
            run = list(run)
            write = _distribution_csv_writer(fh, run[0].positions)
            for d in run:
                write(d)


def test_distribution_csv_matches_csv_writer(tmp_path):
    # fixed-notation and scientific reprs, exact zero and the smallest subnormal
    values = [0.0, 1.0, 0.1 + 0.2, 1e-05, 2.5e-16, 5e-324]
    positions = np.arange(-3, 3)
    dists = [
        analysis.PositionDistribution(positions, np.roll(values, t), t) for t in range(4)
    ]
    # a mirror-symmetric step copies its left half's cells to the right;
    # an odd mirror-symmetric step on new positions
    dists.append(
        analysis.PositionDistribution(positions, np.array([0.25, 0.0, 0.3, 0.3, 0.0, 0.25]), 4)
    )
    dists.append(
        analysis.PositionDistribution(np.arange(-2, 3), np.array([0.1, 0.0, 0.6, 0.0, 0.1]), 5)
    )
    _write_csv(tmp_path / "got.csv", dists)
    _csv_writer_reference(tmp_path / "want.csv", dists)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b"-3,5e-324" in got
    assert b"\r\n4,-3,0.25\r\n4,-2,0.0\r\n4,-1,0.3\r\n4,0,0.3\r\n4,1,0.0\r\n4,2,0.25\r\n" in got
    assert got.endswith(b"\r\n5,-2,0.1\r\n5,-1,0.0\r\n5,0,0.6\r\n5,1,0.0\r\n5,2,0.1\r\n")

    spec = ExperimentSpec.from_json_dict(spec_doc(t_max=60))
    run_simulate(spec, tmp_path / "run")
    dists = [analysis.position_marginal(s) for s in iter_history(resolve_spec(spec))]
    _csv_writer_reference(tmp_path / "run_want.csv", dists)
    got = (tmp_path / "run" / "distributions.csv").read_bytes()
    assert got == (tmp_path / "run_want.csv").read_bytes()
    assert got.count(b"\r\n") == 1 + 61 * dists[0].positions.size
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "distributions.csv",
        "summary.json",
    ]


SPLIT_WALKS = {
    "symmetric": {},
    "frozen-dicycle": {
        "partition": {"kind": "random_dicycle", "seed": 11},
        "coin_shift": {"kind": "carried"},
    },
}


def _split_at(monkeypatch, split):
    monkeypatch.setattr(experiments, "_csv_split", lambda t_max: split)


@pytest.mark.parametrize("walk", SPLIT_WALKS)
@pytest.mark.parametrize("where", ["0", "1", "half", "t_max", "past"])
def test_two_process_csv_matches_one_process(tmp_path, monkeypatch, forks, walk, where):
    t_max = 40
    split = {"0": 0, "1": 1, "half": t_max // 2, "t_max": t_max, "past": t_max + 1}[where]
    spec = ExperimentSpec.from_json_dict(
        spec_doc(t_max=t_max, outputs=["distribution", "variance"], **SPLIT_WALKS[walk])
    )
    dists = [analysis.position_marginal(s) for s in iter_history(resolve_spec(spec))]
    _csv_writer_reference(tmp_path / "want.csv", dists)
    _split_at(monkeypatch, t_max + 1)
    run_simulate(spec, tmp_path / "one")
    _split_at(monkeypatch, split)
    run_simulate(spec, tmp_path / "two")
    assert len(forks) == (split <= t_max)
    with pytest.raises(ChildProcessError):  # the writer has been reaped
        os.waitpid(-1, os.WNOHANG)
    for name in ("distributions.csv", "summary.json"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    assert (tmp_path / "two" / "distributions.csv").read_bytes() == (
        tmp_path / "want.csv"
    ).read_bytes()
    assert sorted(p.name for p in (tmp_path / "two").iterdir()) == [
        "distributions.csv",
        "summary.json",
    ]


def test_the_blocks_share_one_shift_and_the_first_stops_at_the_cut(
    tmp_path, monkeypatch, forks
):
    parent = os.getpid()
    built, stepped = [], []
    real_build, real_coin_step = engine.build_shift_operator, engine.coin_step

    def build(*args):
        # The forked block reads the stream whose shift was built before the fork.
        assert os.getpid() == parent
        built.append(args)
        return real_build(*args)

    def coin_step(state, coin):
        if os.getpid() == parent:
            stepped.append(state.time)
        return real_coin_step(state, coin)

    monkeypatch.setattr(engine, "build_shift_operator", build)
    monkeypatch.setattr(engine, "coin_step", coin_step)
    _split_at(monkeypatch, 25)
    run_simulate(ExperimentSpec.from_json_dict(spec_doc(t_max=40)), tmp_path)
    assert len(forks) == 1 and len(built) == 1
    assert stepped == list(range(24))  # this process walks t = 0..24 only


#: The shortest walk whose two blocks pass the gate: two jobs of t_max steps.
TWO_BLOCK_MIN_T_MAX = experiments.FORK_MIN_JOB_STEPS // 2


def _run_forks_no_writer(tmp_path, forks, t_max=TWO_BLOCK_MIN_T_MAX):
    spec = ExperimentSpec.from_json_dict(spec_doc(t_max=t_max))
    assert experiments._csv_split(t_max) == t_max + 1
    run_simulate(spec, tmp_path)
    assert forks == []
    assert (tmp_path / "distributions.csv").read_bytes().count(b"\r\n") == 1 + (
        t_max + 1
    ) * resolve_spec(spec).host.base_n


def test_two_cpus_split_the_rows_near_t_max_over_root_two(two_cpus):
    assert experiments._csv_split(1500) == 1061
    assert experiments._csv_split(TWO_BLOCK_MIN_T_MAX) == 141
    # Below the gate one block holds every step.
    assert experiments._csv_split(TWO_BLOCK_MIN_T_MAX - 1) == TWO_BLOCK_MIN_T_MAX
    assert experiments._csv_split(0) == 1


def test_one_cpu_forks_no_writer(tmp_path, monkeypatch, forks, two_cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert experiments._csv_split(1500) == 1501
    _run_forks_no_writer(tmp_path, forks)


def test_a_one_cpu_cgroup_quota_forks_no_writer(tmp_path, monkeypatch, forks, two_cpus):
    monkeypatch.setattr(experiments, "_cgroup_cpu_quota", lambda: 1.5)
    assert experiments._csv_split(1500) == 1501
    _run_forks_no_writer(tmp_path, forks)


def test_a_process_with_other_threads_forks_no_writer(tmp_path, forks, two_cpus):
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        _run_forks_no_writer(tmp_path, forks)
    finally:
        done.set()
        other.join()
    assert experiments._csv_split(1500) == 1061


@pytest.mark.parametrize(
    "files, cpus",
    [
        ({}, math.inf),
        ({"cpu.max": "max 100000\n"}, math.inf),
        ({"cpu.max": "150000 100000\n"}, 1.5),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, math.inf),
        ({"cpu/cpu.cfs_quota_us": "400000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 4.0),
    ],
)
def test_cgroup_cpu_quota_reads_cgroup_v2_and_v1(tmp_path, files, cpus):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert experiments._cgroup_cpu_quota(tmp_path) == cpus


def _drift_in(monkeypatch, in_parent, t_bad=5):
    """Leak norm from step t_bad on, only in this process or only in its forks."""
    parent = os.getpid()
    real_shift_step = engine.shift_step

    def leaky_shift_step(state, shift):
        moved = real_shift_step(state, shift)
        if moved.time < t_bad or (os.getpid() == parent) != in_parent:
            return moved
        return WalkState(moved.host, moved.amps * (1.0 + 1e-9), moved.time)

    monkeypatch.setattr(engine, "shift_step", leaky_shift_step)


def test_parent_drift_kills_and_reaps_the_writer(tmp_path, monkeypatch, forks):
    _drift_in(monkeypatch, in_parent=True)
    parent = os.getpid()
    real_writer = experiments._distribution_csv_writer

    def writer(fh, positions):
        if os.getpid() != parent:
            signal.pause()  # the forked block would never finish
        return real_writer(fh, positions)

    monkeypatch.setattr(experiments, "_distribution_csv_writer", writer)
    _split_at(monkeypatch, 20)
    out = tmp_path / "new" / "run"
    with pytest.raises(NumericalCheckError, match="norm drift"):
        run_simulate(ExperimentSpec.from_json_dict(spec_doc(t_max=40)), out)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.rglob("*.tmp")) == []
    assert not (tmp_path / "new").exists()


def test_writer_drift_fails_the_run(tmp_path, monkeypatch, forks):
    _split_at(monkeypatch, 20)
    out = tmp_path / "run"
    run_simulate(ExperimentSpec.from_json_dict(spec_doc(t_max=40)), out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    _drift_in(monkeypatch, in_parent=False)
    with pytest.raises(NumericalCheckError, match="norm drift"):
        run_simulate(ExperimentSpec.from_json_dict(spec_doc(t_max=30)), out)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_writer_killed_by_a_signal_fails_the_run(tmp_path, monkeypatch, forks):
    real = experiments._distribution_csv_writer

    def dying(fh, positions):
        write = real(fh, positions)

        def rows(d):
            if d.time >= 10:
                os.kill(os.getpid(), signal.SIGKILL)
            write(d)

        return rows

    monkeypatch.setattr(experiments, "_distribution_csv_writer", dying)
    _split_at(monkeypatch, 10)
    out = tmp_path / "new"
    with pytest.raises(RuntimeError, match="exit code -9"):
        run_simulate(ExperimentSpec.from_json_dict(spec_doc(t_max=20)), out)
    assert len(forks) == 1
    assert not out.exists()


def test_simulate_memory_does_not_grow_with_stored_states(tmp_path):
    t_max = 400
    spec = ExperimentSpec.from_json_dict(
        spec_doc(t_max=t_max, outputs=["distribution", "variance", "occrate", "origin-series"])
    )
    host = resolve_spec(spec).host
    history_bytes = (t_max + 1) * host.n_vertices * host.degree * 16
    tracemalloc.start()
    try:
        run_simulate(spec, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < history_bytes / 2


def _simulate_peak_bytes(t_max, out):
    spec = ExperimentSpec.from_json_dict(spec_doc(t_max=t_max, outputs=list(ALL_OUTPUTS)))
    tracemalloc.start()
    try:
        run_simulate(spec, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_simulate_memory_grows_linearly_with_t_max(tmp_path):
    # Doubling t_max doubles the window, so a run that keeps one
    # distribution per step peaks about 4x higher; a per-step fold about 2x.
    small = _simulate_peak_bytes(400, tmp_path / "small")
    large = _simulate_peak_bytes(800, tmp_path / "large")
    assert large < 3 * small


def test_annealed_differs_from_frozen():
    frozen = resolve_spec(
        ExperimentSpec.from_json_dict(
            spec_doc(
                partition={"kind": "random", "seed": 5, "resample": "never"},
                coin_shift={"kind": "recycled"},
            )
        )
    )
    annealed_doc = spec_doc(
        partition={"kind": "random", "seed": 5, "resample": "per_step"},
        coin_shift={"kind": "recycled"},
    )
    annealed = resolve_spec(ExperimentSpec.from_json_dict(annealed_doc))
    again = resolve_spec(ExperimentSpec.from_json_dict(annealed_doc))

    frozen_final = analysis.position_marginal(run_history(frozen)[-1])
    annealed_final = analysis.position_marginal(run_history(annealed)[-1])
    again_final = analysis.position_marginal(run_history(again)[-1])
    assert np.array_equal(annealed_final.probs, again_final.probs)
    assert analysis.max_distribution_difference(frozen_final, annealed_final) > 1e-6


def test_class_spec_presets():
    template = ExperimentSpec.from_json_dict(spec_doc())
    for walk_class in WALK_CLASSES:
        spec = _class_spec(template, walk_class, 3)
        kind, shift = walk_class.split("+")
        assert spec.partition_kind == kind
        assert spec.coin_shift_kind == shift
        expected = "per_step" if walk_class in ANNEALED_CLASSES else "never"
        assert spec.partition_resample == expected
    with pytest.raises(ValidationError):
        _class_spec(template, "directional+carried", 3)


def test_sweep_matches_single_run(tmp_path):
    template = ExperimentSpec.from_json_dict(
        spec_doc(outputs=["variance", "occrate", "origin-series"])
    )
    report = run_sweep(template, ["reflect_transmit+carried"], [0], tmp_path)
    solo = resolve_spec(_class_spec(template, "reflect_transmit+carried", 0))
    dists = analysis.marginal_history(run_history(solo))
    expected = [analysis.variance(d) for d in dists]
    got = report["classes"]["reflect_transmit+carried"]["mean_variance"]
    assert np.allclose(got, expected, atol=1e-14)
    # a 30-step horizon is too short for the quadratic-vs-linear fit
    assert report["classes"]["reflect_transmit+carried"]["fit_verdict"] is None
    assert (tmp_path / "sweep_summary.json").exists()
    assert (tmp_path / "comparison.csv").exists()


def test_sweep_outputs_do_not_depend_on_workers(tmp_path, monkeypatch, forks, two_cpus):
    monkeypatch.setattr(experiments, "FORK_MIN_JOB_STEPS", 0)
    template = ExperimentSpec.from_json_dict(
        spec_doc(t_max=20, outputs=["variance", "occrate", "origin-series"])
    )
    classes = list(ANNEALED_CLASSES) + ["random_dicycle+carried"]
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        run_sweep(template, classes, [0, 1, 2], tmp_path / str(cpus))
    # Nine jobs: two CPUs fork one process, three fork two.
    assert len(forks) == 3
    for name in ("sweep_summary.json", "comparison.csv"):
        want = (tmp_path / "1" / name).read_bytes()
        for cpus in (2, 3):
            assert (tmp_path / str(cpus) / name).read_bytes() == want


def test_sweep_runs_a_class_without_random_partitions_once(tmp_path, monkeypatch):
    template = ExperimentSpec.from_json_dict(
        spec_doc(t_max=20, outputs=["variance", "occrate", "origin-series"])
    )
    real_sweep_one = experiments._sweep_one
    ran = []
    hosts = set()

    def counting_sweep_one(spec, host):
        ran.append((spec.partition_kind, spec.partition_seed))
        hosts.add(host)
        return real_sweep_one(spec, host)

    monkeypatch.setattr(experiments, "_sweep_one", counting_sweep_one)
    report = run_sweep(template, ["directional+recycled", "random+recycled"], [4, 5, 6], tmp_path)
    assert ran == [("directional", None)] + [("random", s) for s in (4, 5, 6)]
    (host,) = hosts
    # The series stands for every seed: the means are those of a run per seed.
    per_seed = [
        real_sweep_one(experiments._class_spec(template, "directional+recycled", s), host)
        for s in (4, 5, 6)
    ]
    got = report["classes"]["directional+recycled"]
    for key in ("variance", "occupancy_rate", "origin_probability"):
        want = np.mean([series[key] for series in per_seed], axis=0)
        assert got[f"mean_{key}"] == [float(v) for v in want]


SWEEP_CLASSES = ["directional+recycled", "reflect_transmit+recycled", "reflect_transmit+carried"]


def _sweep(out, t_max=10, classes=SWEEP_CLASSES, seeds=(0,)):
    template = ExperimentSpec.from_json_dict(
        spec_doc(t_max=t_max, outputs=["variance", "occrate", "origin-series"])
    )
    return run_sweep(template, classes, list(seeds), out)


def _cpus(monkeypatch, n):
    """n CPUs in the affinity mask (with the two_cpus fixture's quota)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _sweep_bytes(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.fixture
def no_fork(monkeypatch, two_cpus):
    """Two CPUs, a sweep of any size forks, and os.fork fails the test."""
    monkeypatch.setattr(experiments, "FORK_MIN_JOB_STEPS", 0)

    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)


def test_one_cpu_runs_the_sweep_in_one_process(tmp_path, monkeypatch, no_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _sweep(tmp_path)


def test_a_one_cpu_cgroup_quota_runs_the_sweep_in_one_process(tmp_path, monkeypatch, no_fork):
    monkeypatch.setattr(experiments, "_cgroup_cpu_quota", lambda: 1.5)
    _sweep(tmp_path)


def test_a_process_with_other_threads_runs_the_sweep_in_one_process(tmp_path, no_fork):
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        _sweep(tmp_path)
    finally:
        done.set()
        other.join()


def test_two_cpus_split_the_sweep_with_one_child(tmp_path, monkeypatch, forks, two_cpus):
    monkeypatch.setattr(experiments, "FORK_MIN_JOB_STEPS", 0)
    ran = []
    real_sweep_one = experiments._sweep_one

    def counting_sweep_one(spec, host):
        ran.append(spec.partition_kind)
        return real_sweep_one(spec, host)

    monkeypatch.setattr(experiments, "_sweep_one", counting_sweep_one)
    _cpus(monkeypatch, 1)
    _sweep(tmp_path / "one")
    assert forks == [] and len(ran) == 3
    ran.clear()
    _cpus(monkeypatch, 2)
    _sweep(tmp_path / "two")
    assert len(forks) == 1
    assert ran == ["directional", "reflect_transmit"]  # jobs 0 and 2; the child ran job 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _sweep_bytes(tmp_path / "two") == _sweep_bytes(tmp_path / "one")


def _failing_jobs(monkeypatch, seeds):
    """Jobs whose partition seed is in ``seeds`` fail, each with its own message."""
    real_sweep_one = experiments._sweep_one

    def sweep_one(spec, host):
        if spec.partition_seed in seeds:
            raise ValidationError(f"job with seed {spec.partition_seed} failed")
        return real_sweep_one(spec, host)

    monkeypatch.setattr(experiments, "_sweep_one", sweep_one)


@pytest.mark.parametrize("failing, first", [({1, 2}, 1), ({0, 1, 3}, 0), ({3}, 3)])
def test_split_sweep_raises_the_first_failing_job_in_job_order(
    tmp_path, monkeypatch, forks, two_cpus, failing, first
):
    # Jobs 0..3 are seeds 0..3; the child runs jobs 1 and 3.
    monkeypatch.setattr(experiments, "FORK_MIN_JOB_STEPS", 0)
    _failing_jobs(monkeypatch, failing)
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ValidationError, match=f"^job with seed {first} failed$"):
            _sweep(tmp_path / "out", classes=["random+recycled"], seeds=range(4))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "out").exists()


def test_a_sweep_child_killed_by_a_signal_fails_the_run(tmp_path, monkeypatch, forks, two_cpus):
    monkeypatch.setattr(experiments, "FORK_MIN_JOB_STEPS", 0)
    parent = os.getpid()
    real_sweep_one = experiments._sweep_one

    def sweep_one(spec, host):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_sweep_one(spec, host)

    monkeypatch.setattr(experiments, "_sweep_one", sweep_one)
    with pytest.raises(RuntimeError, match="exit code -9"):
        _sweep(tmp_path / "out")
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "out").exists()


def test_a_failing_parent_slice_kills_the_sweep_child(tmp_path, monkeypatch, forks, two_cpus):
    monkeypatch.setattr(experiments, "FORK_MIN_JOB_STEPS", 0)
    parent = os.getpid()
    real_sweep_one = experiments._sweep_one

    def sweep_one(spec, host):
        if os.getpid() != parent:
            signal.pause()  # the child would never finish
        if spec.partition_kind == "reflect_transmit":
            raise KeyboardInterrupt
        return real_sweep_one(spec, host)

    monkeypatch.setattr(experiments, "_sweep_one", sweep_one)
    with pytest.raises(KeyboardInterrupt):
        _sweep(tmp_path / "out")
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "out").exists()


def test_sweep_builds_one_host(tmp_path, monkeypatch, forks, two_cpus):
    monkeypatch.setattr(experiments, "FORK_MIN_JOB_STEPS", 0)
    real_build = experiments.iterate_line_digraph
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(experiments, "iterate_line_digraph", counting_build)
    classes = ["directional+recycled", "random+recycled", "random_dicycle+carried"]
    _cpus(monkeypatch, 1)
    _sweep(tmp_path / "one", classes=classes, seeds=(0, 1))
    assert len(builds) == 1 and forks == []
    _cpus(monkeypatch, 2)
    _sweep(tmp_path / "two", classes=classes, seeds=(0, 1))
    assert len(builds) == 2 and len(forks) == 1
    assert _sweep_bytes(tmp_path / "two") == _sweep_bytes(tmp_path / "one")


def _simulate_gated(out, t_max):
    run_simulate(ExperimentSpec.from_json_dict(spec_doc(t_max=t_max)), out)


def _sweep_gated(out, t_max):  # two distinct jobs
    _sweep(out, t_max, classes=["directional+recycled", "reflect_transmit+carried"])


def _census_gated(out, t_max):  # ten seeds
    experiments.run_enumerate(out, 3, list(range(10)), t_max)


#: Each caller of the one gate, _processes: a run at a given t_max, its job
#: count and its minimum job-steps.
GATE_CALLERS = {
    "simulate": (_simulate_gated, 2, experiments.FORK_MIN_JOB_STEPS),
    "sweep": (_sweep_gated, 2, experiments.FORK_MIN_JOB_STEPS),
    "census": (_census_gated, 10, experiments.CENSUS_FORK_MIN_SEED_STEPS),
}


@pytest.mark.parametrize("at", ["below", "at"])
@pytest.mark.parametrize("caller", GATE_CALLERS)
def test_processes_gate_of_each_caller(tmp_path, monkeypatch, forks, two_cpus, caller, at):
    # One step below the minimum every job runs in this process; at it, two
    # CPUs split the jobs over two processes.
    run, jobs, minimum = GATE_CALLERS[caller]
    t_max = minimum // jobs - (at == "below")
    asked = []
    real_processes = experiments._processes

    def processes(*args):
        asked.append(args)
        return real_processes(*args)

    monkeypatch.setattr(experiments, "_processes", processes)
    run(tmp_path, t_max)
    assert asked == [(jobs, t_max, minimum)]
    assert len(forks) == (at == "at")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_rejects_unknown_class(tmp_path):
    template = ExperimentSpec.from_json_dict(spec_doc())
    with pytest.raises(ValidationError):
        run_sweep(template, ["sideways+recycled"], [0], tmp_path)
    with pytest.raises(ValidationError):
        run_sweep(template, [], [0], tmp_path)


def test_equivalence_report_passes_quickly():
    report = equivalence_report(t_max=40)
    assert report["passed"]
    assert report["applicable"]
    assert report["constraint_residual_max"] < 1e-12
    assert report["engine_field_diff_max"] < 1e-12
    assert report["alpha_reconstruction_diff_max"] < 1e-10
    assert report["distribution_tv_max"] < 1e-10
    assert all(v < 1e-12 for v in report["oracle_distribution_diff_max"].values())


def _equivalence_peak_bytes(t_max):
    tracemalloc.start()
    try:
        equivalence_report(t_max=t_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_equivalence_report_memory_grows_linearly_with_t_max():
    # Doubling t_max doubles the window.  Holding every engine state and
    # field peaks about 2.2x higher at t_max 120 than at 60; streamed, the
    # oracle walks' fixed 50 steps dominate and the peak rises about 5%.
    # The warm-up call fills the first-call caches.
    equivalence_report(t_max=10)
    small = _equivalence_peak_bytes(60)
    large = _equivalence_peak_bytes(120)
    assert large < 1.5 * small


def test_matrix_coin_literal():
    h = 0.7071067811865476
    doc = spec_doc(coin={"kind": "matrix", "rows": [[[h, 0], [h, 0]], [[h, 0], [-h, 0]]]})
    resolved = resolve_spec(ExperimentSpec.from_json_dict(doc))
    assert np.allclose(resolved.coin, np.array([[h, h], [h, -h]]))
    with pytest.raises(ValidationError):
        resolve_spec(ExperimentSpec.from_json_dict(spec_doc(coin={"kind": "matrix"})))


def test_explicit_initial_terms():
    doc = spec_doc(
        initial_state={
            "terms": [
                {"path": [-1, 0], "coin": 1, "amplitude": [0.6, 0.0]},
                {"path": [1, 0], "coin": -1, "amplitude": [0.0, 0.8]},
            ]
        }
    )
    resolved = resolve_spec(ExperimentSpec.from_json_dict(doc))
    v = resolved.host.index_of((-1, 0))
    assert resolved.initial.amps[v, 0] == pytest.approx(0.6)
    w = resolved.host.index_of((1, 0))
    assert resolved.initial.amps[w, 1] == pytest.approx(0.8j)


def test_raw_coin_shift_table():
    n = minimal_window(5, 1)
    entries = [[v, c, c] for v in range(2 * n) for c in (1, -1)]
    doc = spec_doc(t_max=5, coin_shift={"kind": "table", "entries": entries})
    resolved = resolve_spec(ExperimentSpec.from_json_dict(doc))
    carried = resolve_spec(ExperimentSpec.from_json_dict(spec_doc(t_max=5)))
    a = analysis.position_marginal(run_history(resolved)[-1])
    b = analysis.position_marginal(run_history(carried)[-1])
    # the identity table on this partition is exactly the carried shift
    assert analysis.max_distribution_difference(a, b) == 0.0
    with pytest.raises(ValidationError):
        resolve_spec(
            ExperimentSpec.from_json_dict(
                spec_doc(t_max=5, coin_shift={"kind": "table", "entries": entries[:-1]})
            )
        )


def test_window_is_checked_before_the_coin_shift_table():
    n = minimal_window(5, 1)
    entries = [[v, c, 1] for v in range(2 * n) for c in (1, -1)]  # every arc keeps coin 1
    doc = spec_doc(coin_shift={"kind": "table", "entries": entries}, graph={"family": "line", "window": n})
    too_long = resolve_spec(ExperimentSpec.from_json_dict(dict(doc, t_max=50)))
    with pytest.raises(ValidationError, match="too small"):
        iter_history(too_long)
    fits = resolve_spec(ExperimentSpec.from_json_dict(dict(doc, t_max=5)))
    with pytest.raises(ConstraintViolationError):
        iter_history(fits)


def test_enumerate_report_counts():
    report = enumerate_report(cycle_size=3, seeds=[], t_max=30)
    assert report["gc_enumeration"]["count"] == 64
    assert report["gc_enumeration"]["count"] == report["gc_enumeration"]["expected_count"]
    assert report["distinct_walks"]["n_classes"] == 0


def test_enumerate_report_census():
    report = enumerate_report(cycle_size=3, seeds=list(range(10)), t_max=20)
    walks = report["distinct_walks"]
    assert 1 <= walks["n_classes"] <= 8
    assert walks["keys_consistent"]

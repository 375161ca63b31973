from __future__ import annotations

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import memwalk
from memwalk import analysis, engine, experiments
from memwalk.constants import UNITARY_ATOL
from memwalk.graphs import minimal_window
from memwalk.cli import _parse_seeds, build_parser, main
from memwalk.engine import WalkState


@pytest.fixture
def config(tmp_path):
    def write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def simulate_doc(**overrides):
    doc = {
        "partition": {"kind": "random_dicycle", "seed": 11},
        "coin_shift": {"kind": "carried"},
        "t_max": 30,
        "outputs": ["distribution", "variance"],
    }
    doc.update(overrides)
    return doc


def test_simulate_writes_outputs(tmp_path, config, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", config(simulate_doc()), "--out", str(out)])
    assert code == 0
    assert (out / "summary.json").exists()
    assert (out / "distributions.csv").exists()
    assert "summary.json" in capsys.readouterr().out


def test_simulate_is_byte_deterministic(tmp_path, config):
    path = config(simulate_doc())
    main(["simulate", "--config", path, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", path, "--out", str(tmp_path / "b")])
    for name in ("summary.json", "distributions.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_t_max_flag_overrides(tmp_path, config):
    out = tmp_path / "run"
    code = main(
        ["simulate", "--config", config(simulate_doc()), "--out", str(out), "--t-max", "20"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["spec"]["t_max"] == 20


def test_bad_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_is_validation_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    # an empty path names no file either, rather than no config
    assert main(["simulate", "--config", "", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_negative_t_max_is_validation_error(tmp_path, config):
    code = main(
        ["simulate", "--config", config(simulate_doc(t_max=-5)), "--out", str(tmp_path / "o")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [
        {"t_max": "5"},
        {"t_max": True},
        {"partition": {"kind": "random_dicycle", "seed": -1}},
        {"partition": {"kind": "random", "seed": -3, "resample": "per_step"},
         "coin_shift": {"kind": "recycled"}},
        {"seed": -2},
        {"memory_depth": 1.5},
        {"graph": {"family": "line", "window": 61.0}},
        ["enumerate", "--seeds=-1"],
        ["enumerate", "--t-max", "-1"],
    ],
    ids=[
        "string-t_max", "bool-t_max", "negative-partition-seed",
        "negative-per-step-seed", "negative-seed", "float-depth", "float-window",
        "enumerate-negative-seed", "enumerate-negative-t_max",
    ],
)
def test_spec_types_are_strict(tmp_path, config, capsys, args):
    """A dict overrides the simulate config; a list is a whole command line."""
    if isinstance(args, dict):
        args = ["simulate", "--config", config(simulate_doc(**args))]
    out = tmp_path / "run"
    code = main(args + ["--out", str(out)])
    assert code == 2
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


NAN = float("nan")  # json.dumps writes it as NaN, which json.loads reads back


def _carried_table(vertices):
    return [[v, c, c] for v in vertices for c in (1, -1)]


# t_max 5 at depth 1 runs on the 2 * minimal_window(5, 1) = 30 vertex host.
@pytest.mark.parametrize(
    "overrides",
    [
        {"outputs": 5},
        {"coin_shift": {"kind": "table", "entries": [[99999, 1, 1]]}},
        # vertex -1 would alias vertex 29 and complete the table
        {"coin_shift": {"kind": "table", "entries": _carried_table([*range(29), -1])}},
        {"initial_state": {"terms": [{"path": [0, 7], "coin": 1, "amplitude": [1, 0]}]}},
        {"initial_state": {"terms": [{"path": [0, 1], "coin": 1, "amplitude": "x"}]}},
        {"initial_state": {"terms": [{"path": [0, 1], "coin": 1, "amplitude": [NAN, 0]}]}},
        {"coin": {"kind": "matrix", "rows": [[1, 0]]}},
        # a NaN residual would pass the unitarity check
        {"coin": {"kind": "matrix", "rows": [[[NAN, 0], [0, 0]], [[0, 0], [1, 0]]]}},
        # coin labels and path entries are JSON integers: true == 1 == 1.0
        # and -1.0 == -1 would otherwise pick the same register state
        {"initial_state": {"terms": [{"path": [-1, 0], "coin": True, "amplitude": [1, 0]}]}},
        {"initial_state": {"terms": [{"path": [-1, 0], "coin": 1.0, "amplitude": [1, 0]}]}},
        {"initial_state": {"terms": [{"path": [-1.0, 0.0], "coin": 1, "amplitude": [1, 0]}]}},
        # an entry past int64 and a path one entry too long name no vertex
        {"initial_state": {"terms": [{"path": [10**30, 0], "coin": 1, "amplitude": [1, 0]}]}},
        {"initial_state": {"terms": [{"path": [-1, 0, 1], "coin": 1, "amplitude": [1, 0]}]}},
    ],
    ids=[
        "outputs-not-a-list", "table-vertex-too-large", "table-vertex-negative",
        "term-path-not-a-vertex", "amplitude-not-a-pair", "amplitude-nan",
        "coin-cell-not-a-pair", "coin-cell-nan", "term-coin-bool", "term-coin-float",
        "term-path-floats", "term-path-past-int64", "term-path-too-long",
    ],
)
def test_malformed_payloads_are_validation_errors(tmp_path, config, capsys, overrides):
    doc = simulate_doc(t_max=5, outputs=["variance"])
    doc.update(overrides)
    out = tmp_path / "run"
    code = main(["simulate", "--config", config(doc), "--out", str(out)])
    assert code == 2, capsys.readouterr().err
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["classes", "seeds"])
def test_sweep_lists_must_be_lists(tmp_path, config, field):
    doc = {"template": {"t_max": 20, "outputs": ["variance"]}, field: 5}
    out = tmp_path / "o"
    assert main(["sweep", "--config", config(doc), "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_config_rejects_unknown_fields(tmp_path, config, capsys):
    # A misspelt "classes" would otherwise run all six default classes.
    doc = {"template": {"t_max": 20, "outputs": ["variance"]}, "clases": ["directional+recycled"]}
    out = tmp_path / "o"
    assert main(["sweep", "--config", config(doc), "--seeds", "0", "--out", str(out)]) == 2
    assert "error: unknown sweep config fields: ['clases']" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_repeated_class(tmp_path, config, capsys):
    # The summary has one entry per class, the comparison one row per listing.
    doc = {
        "template": {"t_max": 10, "outputs": ["variance"]},
        "classes": ["directional+recycled", "random+recycled", "directional+recycled"],
    }
    out = tmp_path / "o"
    assert main(["sweep", "--config", config(doc), "--seeds", "0", "--out", str(out)]) == 2
    assert "error: sweep classes repeat: ['directional+recycled']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_sweep_rejects_a_repeated_seed(tmp_path, config, capsys, where):
    # Jobs are keyed by (class, seed): a repeated seed would run one walk and
    # average it with itself.
    doc = {"template": {"t_max": 10, "outputs": ["variance"]}, "classes": ["random+recycled"]}
    args = ["--seeds", "3,1,3"] if where == "flag" else []
    if where == "config":
        doc["seeds"] = [3, 1, 3]
    out = tmp_path / "o"
    assert main(["sweep", "--config", config(doc), "--out", str(out)] + args) == 2
    assert "error: sweep seeds repeat: [3]" in capsys.readouterr().err
    assert not out.exists()


def test_enumerate_rejects_a_repeated_seed(tmp_path, capsys):
    # The report keys its census by seed: a repeated seed would be walked
    # twice and listed once.
    out = tmp_path / "o"
    assert main(["enumerate", "--seeds", "3,1,3", "--out", str(out)]) == 2
    assert "error: enumerate seeds repeat: [3]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "enumerate"])
def test_a_long_seed_list_with_one_repeat_is_refused(tmp_path, capsys, monkeypatch, command):
    # The repeat check is one pass over the seeds: 20,000 distinct seeds and
    # one repeat are refused before any walk starts, and a sweep over its
    # six default classes builds no (class, seed) spec first.
    calls = []
    class_spec = experiments._class_spec
    monkeypatch.setattr(experiments, "_class_spec", lambda *a: calls.append(a) or class_spec(*a))
    seeds = ",".join(map(str, [*range(20_000), 137]))
    out = tmp_path / "o"
    assert main([command, "--seeds", seeds, "--out", str(out)]) == 2
    assert f"error: {command} seeds repeat: [137]" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def test_sweep_reports_an_unknown_class_before_a_repeat(tmp_path, config, capsys):
    doc = {
        "template": {"t_max": 10, "outputs": ["variance"]},
        "classes": ["directional+recycled", "directional+recycled", "no+such", "no+other"],
    }
    out = tmp_path / "o"
    args = ["sweep", "--config", config(doc), "--seeds", "1,1", "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "error: unknown walk class 'no+such'" in err
    assert "repeat" not in err
    assert not out.exists()


@pytest.mark.parametrize("t_max", ["-1", "-2", "-3"])
def test_equivalence_checks_t_max_before_building_its_window(tmp_path, capsys, t_max):
    out = tmp_path / "o"
    assert main(["equivalence", "--t-max", t_max, "--out", str(out)]) == 2
    assert f"error: t_max must be >= 0, got {t_max}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_negative_seed(tmp_path, config):
    doc = {
        "template": {"t_max": 20, "outputs": ["variance"]},
        "classes": ["random+recycled"],
        "seeds": [0, -1],
    }
    out = tmp_path / "o"
    assert main(["sweep", "--config", config(doc), "--out", str(out)]) == 2
    assert not out.exists()


def test_t_max_flag_keeps_cycle_window(tmp_path, config):
    doc = simulate_doc(graph={"family": "cycle", "window": 11})
    out = tmp_path / "run"
    code = main(["simulate", "--config", config(doc), "--out", str(out), "--t-max", "4"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["spec"]["graph"] == {"family": "cycle", "window": 11}
    assert summary["spec"]["t_max"] == 4
    sweep_doc = {"template": doc, "classes": ["reflect_transmit+carried"], "seeds": [0]}
    code = main(
        ["sweep", "--config", config(sweep_doc), "--out", str(tmp_path / "s"), "--t-max", "4"]
    )
    assert code == 0


def test_seeds_flag_requires_single_seed(tmp_path, config):
    path = config(simulate_doc())
    assert main(["simulate", "--config", path, "--seeds", "1,2", "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--config", path, "--seeds", "x", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "partition",
    [None, {"kind": "random_dicycle", "seed": 11}, {"kind": "directional"}],
    ids=["default-reflect_transmit", "partition-seed-set", "directional"],
)
def test_a_seed_no_walk_reads_is_a_validation_error(tmp_path, config, capsys, partition):
    out = tmp_path / "o"
    given = [] if partition is None else ["--config", config(simulate_doc(partition=partition))]
    assert main(["simulate", *given, "--t-max", "40", "--seeds", "5", "--out", str(out)]) == 2
    assert "error: --seeds has no effect" in capsys.readouterr().err
    assert not out.exists()


def test_a_seed_a_random_partition_draws_from_changes_the_walk(tmp_path, config):
    path = config(simulate_doc(partition={"kind": "random_dicycle"}))
    for seed in ("5", "6"):
        assert main(["simulate", "--config", path, "--seeds", seed, "--out", str(tmp_path / seed)]) == 0
    csv = [(tmp_path / seed / "distributions.csv").read_bytes() for seed in ("5", "6")]
    assert csv[0] != csv[1]


def test_constraint_violation_exit_code(tmp_path, config, capsys):
    doc = simulate_doc(
        partition={"kind": "directional"}, coin_shift={"kind": "carried"}
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", config(doc), "--out", str(out)]) == 3
    assert "constraint" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("resample", ["never", "per_step"])
def test_a_non_bijective_table_exits_3_even_at_t_max_0(tmp_path, config, capsys, resample):
    # Every arc emits coin +1, so a vertex's two incoming arcs collide.
    n = 2 * minimal_window(0, 1)
    doc = simulate_doc(
        partition={"kind": "random", "seed": 4, "resample": resample},
        coin_shift={"kind": "table", "entries": [[v, c, 1] for v in range(n) for c in (1, -1)]},
        t_max=0,
        outputs=["variance"],
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", config(doc), "--out", str(out)]) == 3
    assert "constraint" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_subcommand(tmp_path, config, capsys):
    doc = {
        "template": {"t_max": 30, "outputs": ["variance"]},
        "classes": ["reflect_transmit+carried", "directional+recycled"],
        "seeds": [0, 1],
    }
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config(doc), "--out", str(out)]) == 0
    assert (out / "sweep_summary.json").exists()
    assert (out / "comparison.csv").exists()
    captured = capsys.readouterr().out
    assert "reflect_transmit+carried" in captured
    assert "ratio=" in captured


def test_short_sweep_needs_no_config(tmp_path):
    # The default template asks for a scaling fit, which only single runs
    # write; the sweep reports no fit verdict for horizons this short.
    out = tmp_path / "sweep"
    assert main(["sweep", "--t-max", "30", "--seeds", "0", "--out", str(out)]) == 0
    assert (out / "comparison.csv").exists()
    report = json.loads((out / "sweep_summary.json").read_text())
    assert "scaling-fit" in report["template"]["outputs"]
    assert {entry["fit_verdict"] for entry in report["classes"].values()} == {None}


def test_sweep_seed_flag_and_workers(tmp_path, config, two_cpus):
    doc = {"template": {"t_max": 20, "outputs": ["variance"]}, "classes": ["directional+recycled"]}
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", config(doc), "--out", str(out), "--seeds", "0,1,2"])
    assert code == 0
    report = json.loads((out / "sweep_summary.json").read_text())
    assert report["classes"]["directional+recycled"]["seeds"] == [0, 1, 2]


@pytest.mark.parametrize("t_max", ["0", "1"])
def test_sweep_without_a_variance_ratio_writes_valid_json(tmp_path, capsys, t_max):
    # At t_max 0 and 1 the half-time variance is 0, so there is no ratio:
    # JSON null and an empty CSV cell, never NaN.
    out = tmp_path / "o"
    assert main(["sweep", "--t-max", t_max, "--seeds", "1", "--out", str(out)]) == 0
    assert "ratio=None (indeterminate)" in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads((out / "sweep_summary.json").read_text(), parse_constant=reject)
    for entry in report["classes"].values():
        assert entry["variance_ratio"] is None
        assert entry["ratio_verdict"] == "indeterminate"
    rows = (out / "comparison.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[2] == "" for row in rows)


def test_sweep_bad_seed_list(tmp_path, config):
    doc = {"template": {"t_max": 20}, "classes": ["directional+recycled"]}
    assert main(["sweep", "--config", config(doc), "--seeds", "1,q", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, seeds",
    [("enumerate", "1,,2"), ("sweep", ",3,"), ("sweep", "3,"), ("simulate", ",")],
)
def test_a_seed_list_with_an_empty_part_exits_2_and_writes_nothing(
    tmp_path, capsys, command, seeds
):
    out = tmp_path / "o"
    assert main([command, "--seeds", seeds, "--t-max", "5", "--out", str(out)]) == 2
    assert f"error: bad seed list {seeds!r}" in capsys.readouterr().err
    assert not out.exists()


def test_enumerate_without_seeds_runs_no_census(tmp_path):
    out = tmp_path / "o"
    assert main(["enumerate", "--out", str(out)]) == 0
    report = json.loads((out / "enumerate.json").read_text())
    assert report["distinct_walks"]["seeds"] == []


def test_equivalence_subcommand(tmp_path, capsys):
    out = tmp_path / "eq"
    assert main(["equivalence", "--out", str(out), "--t-max", "40"]) == 0
    report = json.loads((out / "equivalence.json").read_text())
    assert report["passed"]
    assert "constraint residual" in capsys.readouterr().out


def test_enumerate_subcommand(tmp_path, capsys):
    out = tmp_path / "enum"
    code = main(
        ["enumerate", "--out", str(out), "--cycle-size", "3", "--seeds", "0,1,2", "--t-max", "20"]
    )
    assert code == 0
    report = json.loads((out / "enumerate.json").read_text())
    assert report["gc_enumeration"]["count"] == 64
    captured = capsys.readouterr().out
    assert "64 valid coin shifts" in captured
    assert "distinct walks" in captured


@pytest.mark.parametrize("cycle_size", [7, 200_000])
def test_enumerate_refuses_a_large_host_before_building_it(
    tmp_path, monkeypatch, capsys, cycle_size
):
    def build(n):
        raise AssertionError(f"built the {n}-cycle")

    monkeypatch.setattr(experiments, "make_bidirected_cycle", build)
    out = tmp_path / "enum"
    assert main(["enumerate", "--cycle-size", str(cycle_size), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"host has {4 * cycle_size} gc cells; enumeration is limited to 24" in err
    assert not out.exists()


# -- the size budget ----------------------------------------------------------------

HUGE = 10**13
VERTICES_OVER = "vertices, over the budget of 1048576"
BYTES_OVER = "bytes, over the budget of 281474976710656"
# The longest series under MAX_ARRAY_BYTES: 2^45 steps of 8 bytes.
LONGEST = 2**45 - 1
CYCLE = {"graph": {"family": "cycle", "window": 41}}


def _refused_before_any_host(monkeypatch, capsys, argv, message):
    """Run ``argv`` and check that it exits 2 within 1 s, with ``message``,
    having built no host and written nothing."""

    def build(n):
        raise AssertionError(f"built the {n}-cycle")

    monkeypatch.setattr(experiments, "make_bidirected_cycle", build)
    out = Path(argv[argv.index("--out") + 1])
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2, err
    assert elapsed < 1.0
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["sweep"], ["equivalence"], ["enumerate", "--seeds", "1"]],
    ids=["simulate", "sweep", "equivalence", "enumerate"],
)
def test_a_huge_t_max_is_refused_before_any_host_is_built(tmp_path, monkeypatch, capsys, argv):
    argv = [*argv, "--t-max", str(HUGE), "--out", str(tmp_path / "out")]
    _refused_before_any_host(monkeypatch, capsys, argv, VERTICES_OVER)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"graph": {"family": "cycle", "window": HUGE + 1}}, VERTICES_OVER),
        ({"graph": {"family": "line", "window": HUGE + 1}}, VERTICES_OVER),
        ({"memory_depth": 30}, VERTICES_OVER),
        ({"memory_depth": HUGE}, VERTICES_OVER),
        # 82 vertices, but one step too many for the series
        ({**CYCLE, "t_max": LONGEST + 1}, BYTES_OVER),
        # refused before the walk draws a seed for each step
        (
            {**CYCLE, "t_max": HUGE * 10,
             "partition": {"kind": "random", "seed": 1, "resample": "per_step"}},
            BYTES_OVER,
        ),
    ],
    ids=["cycle-window", "line-window", "depth-30", "depth-huge", "long-series",
         "per-step-series"],
)
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_config_over_the_budget_is_refused_before_any_host_is_built(
    tmp_path, monkeypatch, capsys, config, command, doc, message
):
    path = config(doc if command == "simulate" else {"template": doc})
    argv = [command, "--config", path, "--out", str(tmp_path / "out")]
    _refused_before_any_host(monkeypatch, capsys, argv, message)


class _Admitted(Exception):
    """Raised where a run that passed the budget builds its first host."""


@pytest.mark.parametrize(
    "argv, doc",
    [
        # the default walk past its drift ceiling: it ends in exit 4
        (["simulate", "--t-max", "6000"], None),
        # the largest line host, 1,048,574 vertices
        (["simulate", "--t-max", "262141"], None),
        (["equivalence", "--t-max", "262141"], None),
        (["enumerate", "--seeds", "0", "--t-max", "600"], None),
        (["sweep", "--t-max", "12000"], None),
        (["simulate"], {**CYCLE, "t_max": LONGEST}),
        (["sweep"], {"template": {**CYCLE, "t_max": LONGEST}}),
    ],
    ids=["simulate-6000", "simulate-line", "equivalence-line", "census-600",
         "sweep-12000", "simulate-longest", "sweep-longest"],
)
def test_the_budget_admits_every_run_up_to_its_bounds(tmp_path, monkeypatch, config, argv, doc):
    def build(n):
        raise _Admitted(n)

    monkeypatch.setattr(experiments, "make_bidirected_cycle", build)
    if doc is not None:
        argv = [*argv, "--config", config(doc)]
    with pytest.raises(_Admitted):
        main([*argv, "--out", str(tmp_path / "out")])


def test_resolving_a_spec_keeps_no_series_and_is_not_charged_for_one():
    spec = experiments.ExperimentSpec.from_json_dict({**CYCLE, "t_max": HUGE * 10})
    assert experiments.resolve_spec(spec).host.n_vertices == 82


def test_a_memory_error_exits_4_and_writes_nothing(tmp_path, config, monkeypatch, capsys):
    real = analysis.position_marginal

    def marginal(state):
        if state.time == 5:
            raise MemoryError("Unable to allocate 146. TiB")
        return real(state)

    monkeypatch.setattr(analysis, "position_marginal", marginal)
    out = tmp_path / "new" / "run"
    assert main(["simulate", "--config", config(simulate_doc()), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 146. TiB\n"
    assert not (tmp_path / "new").exists()


def test_an_out_of_range_partition_table_exits_2(tmp_path, monkeypatch, config, capsys):
    # A sampled successor outside the host fails where its Partition is
    # built; the host's own unseeded factorization is left alone.
    real = memwalk.graphs.dicycle_factorize_base

    def broken(g, seed=None):
        classes = real(g, seed)
        if seed is not None:
            classes[0][0] = g.n_vertices
        return classes

    monkeypatch.setattr(memwalk.graphs, "dicycle_factorize_base", broken)
    out = tmp_path / "run"
    assert main(["simulate", "--config", config(simulate_doc()), "--out", str(out)]) == 2
    assert "successor table entries must lie in" in capsys.readouterr().err
    assert not out.exists()


def drift_from(monkeypatch, t_bad, seen=None):
    """Make every step from t_bad on leak norm, as a numerical fault would."""
    real_shift_step = engine.shift_step

    def leaky_shift_step(state, shift):
        moved = real_shift_step(state, shift)
        if moved.time < t_bad:
            return moved
        if seen is not None:
            seen()
        return WalkState(moved.host, moved.amps * (1.0 + 1e-9), moved.time)

    monkeypatch.setattr(engine, "shift_step", leaky_shift_step)


def test_norm_drift_mid_run_writes_nothing(tmp_path, config, monkeypatch, capsys):
    out = tmp_path / "new" / "run"
    tmp_seen = []
    drift_from(monkeypatch, 5, lambda: tmp_seen.append((out / "distributions.csv.tmp").exists()))
    assert main(["simulate", "--config", config(simulate_doc()), "--out", str(out)]) == 4
    assert "norm drift" in capsys.readouterr().err
    assert tmp_seen == [True]  # the rows were being streamed when the run failed
    assert not (tmp_path / "new").exists()


def test_norm_drift_in_the_streamed_equivalence_walk_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    steps = []
    drift_from(monkeypatch, 5, lambda: steps.append(1))
    out = tmp_path / "eq"
    assert main(["equivalence", "--t-max", "20", "--out", str(out)]) == 4
    assert "norm drift 2.000e-09 at t=5" in capsys.readouterr().err
    assert steps == [1]  # the walk stopped at the first leaking step
    assert not out.exists()


def test_failed_rerun_keeps_the_earlier_outputs(tmp_path, config, monkeypatch):
    out = tmp_path / "run"
    assert main(["simulate", "--config", config(simulate_doc()), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["distributions.csv", "summary.json"]
    drift_from(monkeypatch, 5)
    rerun = config(simulate_doc(t_max=40), name="rerun.json")
    assert main(["simulate", "--config", rerun, "--out", str(out)]) == 4
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_summary_write_keeps_the_earlier_outputs(tmp_path, config, monkeypatch):
    out = tmp_path / "run"
    assert main(["simulate", "--config", config(simulate_doc()), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def disk_full(path, doc):
        path.write_text("{")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(experiments, "_write_json", disk_full)
    rerun = config(simulate_doc(t_max=40), name="rerun.json")
    with pytest.raises(OSError):
        main(["simulate", "--config", rerun, "--out", str(out)])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_run_keeps_a_sibling_run_directory(tmp_path, config, monkeypatch):
    # A second run into new/other starts after this one created new/.
    out = tmp_path / "new" / "run"
    other = tmp_path / "new" / "other"

    def start_other():
        other.mkdir(exist_ok=True)
        (other / "distributions.csv.tmp").write_text("t,x,p\r\n")

    drift_from(monkeypatch, 5, start_other)
    assert main(["simulate", "--config", config(simulate_doc()), "--out", str(out)]) == 4
    assert not out.exists()
    assert [p.name for p in other.iterdir()] == ["distributions.csv.tmp"]


@pytest.mark.parametrize(
    "scale, residual, failure",
    [
        (2.5e-13, 4.998e-13, "norm drift 1.499e-12 at t=3 exceeds 1e-12"),
        (5e-14, 9.97e-14, "norm drift 1.097e-12 at t=11 exceeds 1e-12"),
    ],
)
def test_an_admitted_coin_can_fail_the_cumulative_drift_check(
    tmp_path, config, capsys, scale, residual, failure
):
    # Pins an inconsistency, not a contract: check_unitary admits a coin
    # whose residual is up to UNITARY_ATOL, but the loop bounds the drift
    # summed over every step by the same 1e-12, so a coin it admitted
    # fails a few steps in.
    coin = engine.hadamard_coin() * (1 + scale)
    got = np.abs(coin.conj().T @ coin - np.eye(2)).max()
    assert got == pytest.approx(residual, rel=1e-3) and got < UNITARY_ATOL
    engine.check_unitary(coin)
    rows = [[[c.real, c.imag] for c in row] for row in coin.tolist()]
    doc = {"coin": {"kind": "matrix", "rows": rows}, "t_max": 100}
    out = tmp_path / "run"
    assert main(["simulate", "--config", config(doc), "--out", str(out)]) == 4
    assert f"error: numerical check failed: {failure}" in capsys.readouterr().err
    assert not out.exists()


# Runs the CLI with the row formatter failing from step 20 on, and the rows
# from step 20 on written by the second block, in a forked process: only
# that process fails.
WRITER_FAILS = """
import sys
from contextlib import contextmanager
from memwalk import cli, experiments

real = experiments._distribution_csv_writer

@contextmanager
def failing(fh, positions):
    with real(fh, positions) as write:

        def rows(d):
            if d.time >= 20:
                raise OSError(28, "No space left on device")
            write(d)

        yield rows

experiments._distribution_csv_writer = failing
experiments._csv_split = lambda t_max: 20
sys.exit(cli.main(sys.argv[1:]))
"""


def simulate_with_failing_writer(config_path, out):
    src = Path(memwalk.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", WRITER_FAILS, "simulate", "--config", config_path, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def test_failed_writer_process_exits_nonzero_and_keeps_the_earlier_outputs(
    tmp_path, config
):
    out = tmp_path / "run"
    assert main(["simulate", "--config", config(simulate_doc()), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    rerun = config(simulate_doc(t_max=40), name="rerun.json")
    result = simulate_with_failing_writer(rerun, out)
    assert result.returncode != 0
    assert "No space left on device" in result.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert simulate_with_failing_writer(rerun, tmp_path / "fresh").returncode != 0
    assert not (tmp_path / "fresh").exists()


def test_rerun_without_distribution_removes_the_earlier_csv(tmp_path, config):
    out = tmp_path / "run"
    assert main(["simulate", "--config", config(simulate_doc()), "--out", str(out)]) == 0
    rerun = config(simulate_doc(t_max=40, outputs=["variance"]), name="rerun.json")
    assert main(["simulate", "--config", rerun, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
    assert json.loads((out / "summary.json").read_text())["spec"]["t_max"] == 40


def test_failed_rerun_without_distribution_keeps_the_earlier_csv(
    tmp_path, config, monkeypatch
):
    out = tmp_path / "run"
    assert main(["simulate", "--config", config(simulate_doc()), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    drift_from(monkeypatch, 5)
    rerun = config(simulate_doc(t_max=40, outputs=["variance"]), name="rerun.json")
    assert main(["simulate", "--config", rerun, "--out", str(out)]) == 4
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--t-max", "40"],
        ["sweep", "--t-max", "5", "--seeds", "0"],
        ["equivalence", "--t-max", "5"],
        ["enumerate"],
    ],
    ids=lambda args: args[0],
)
def test_out_on_a_regular_file_is_validation_error(tmp_path, capsys, args, under):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "run" if under else afile
    assert main(args + ["--out", str(out)]) == 2
    assert f"error: output directory {out} is" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert afile.read_text() == "kept\n"


def test_output_name_taken_by_a_directory_is_validation_error(tmp_path, capsys):
    out = tmp_path / "run"
    (out / "summary.json").mkdir(parents=True)
    assert main(["simulate", "--t-max", "40", "--out", str(out)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["summary.json"]


@pytest.mark.parametrize("cpus", ["1", "2"])
def test_sweep_on_a_depth_2_template_writes_nothing(
    tmp_path, config, capsys, monkeypatch, forks, two_cpus, cpus
):
    # Each job resolves its own spec; the reflect/transmit classes reject the
    # depth-2 host before any output is staged.  The 9 jobs of t_max 10 are
    # 90 job-steps, below FORK_MIN_JOB_STEPS, so the gate is lowered to 0:
    # with two CPUs the jobs are split over two processes, with one they
    # all run in this one.
    monkeypatch.setattr(experiments, "FORK_MIN_JOB_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(int(cpus))))
    doc = {"template": {"memory_depth": 2, "t_max": 10, "outputs": ["variance"]}}
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", config(doc), "--seeds", "0,1", "--out", str(out)])
    assert code == 2
    assert "depth-1 host" in capsys.readouterr().err
    assert not out.exists()
    assert len(forks) == int(cpus) - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_job_failing_in_the_child_fails_as_in_one_process(
    tmp_path, config, capsys, monkeypatch, forks, two_cpus
):
    # On a depth-2 host job 0 (directional) runs and job 1 (reflect/transmit)
    # fails; split over two processes, job 1 is the forked child's.
    monkeypatch.setattr(experiments, "FORK_MIN_JOB_STEPS", 0)
    doc = {
        "template": {"memory_depth": 2, "t_max": 10, "outputs": ["variance"]},
        "classes": ["directional+recycled", "reflect_transmit+recycled"],
    }
    outcomes = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out = tmp_path / f"sweep{len(cpus)}"
        code = main(["sweep", "--config", config(doc), "--seeds", "0", "--out", str(out)])
        outcomes.append((code, capsys.readouterr().err))
        assert not out.exists()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 2 and "depth-1 host" in outcomes[0][1]


def test_default_sweep_leaves_the_process_pool_modules_unloaded(tmp_path):
    # Six distinct jobs of t_max 70 pass FORK_MIN_JOB_STEPS, so with
    # two free CPUs this sweep forks; with one it runs in this process.
    src = Path(memwalk.__file__).resolve().parents[1]
    code = (
        "import sys, memwalk.cli\n"
        "memwalk.cli.main(['sweep', '--t-max', '70', '--seeds', '0', '--out', sys.argv[1]])\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "sweep")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "sweep" / "comparison.csv").exists()


def test_failed_equivalence_still_writes_its_report(tmp_path, monkeypatch, capsys):
    real_report = experiments.equivalence_report
    monkeypatch.setattr(
        experiments,
        "equivalence_report",
        lambda t_max: {**real_report(t_max=t_max), "passed": False},
    )
    out = tmp_path / "eq"
    assert main(["equivalence", "--out", str(out), "--t-max", "40"]) == 4
    assert "numerical check failed" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["equivalence.json"]
    assert json.loads((out / "equivalence.json").read_text())["passed"] is False


def test_cli_import_leaves_the_process_pool_unloaded():
    # No command imports concurrent.futures, which would add to every
    # command's start-up time.
    src = Path(memwalk.__file__).resolve().parents[1]
    code = "import sys, memwalk.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert result.stdout.strip() == "False"


#: Each flag with a value it accepts.  No subcommand reads "--workers": the
#: process count follows the CPUs this process may run on.
FLAG_VALUES = {
    "--config": "x.json", "--seeds": "1", "--t-max": "5", "--workers": "2",
    "--cycle-size": "3", "--out": "out",
}
READS = {
    "simulate": ("--config", "--seeds", "--t-max", "--out"),
    "sweep": ("--config", "--seeds", "--t-max", "--out"),
    "equivalence": ("--t-max", "--out"),
    "enumerate": ("--seeds", "--t-max", "--cycle-size", "--out"),
}
UNREAD = [(cmd, flag) for cmd, flags in READS.items() for flag in FLAG_VALUES if flag not in flags]


def _help_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))


@pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, FLAG_VALUES[flag], "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()
    assert flag not in _help_flags(capsys, command)


@pytest.mark.parametrize("command", READS)
def test_each_subcommand_takes_the_flags_it_reads(capsys, command):
    assert _help_flags(capsys, command) == {*READS[command], "--help"}
    argv = [command] + [part for flag in READS[command] for part in (flag, FLAG_VALUES[flag])]
    assert build_parser().parse_args(argv).command == command


def test_subcommand_defaults_are_the_documented_ones():
    parse = build_parser().parse_args
    assert parse(["equivalence"]).t_max == 100
    args = parse(["enumerate"])
    assert (_parse_seeds(args.seeds), args.t_max, args.cycle_size) == ([], 30, 3)
    # --t-max None keeps the config's horizon.
    for command in ("simulate", "sweep"):
        args = parse([command])
        assert (args.seeds, args.t_max) == (None, None)


def test_the_package_exports_each_module_public_name_once():
    modules = [
        importlib.import_module(f"memwalk.{info.name}")
        for info in pkgutil.iter_modules(memwalk.__path__)
    ]
    declared = [name for module in modules for name in getattr(module, "__all__", ())]
    assert len(declared) == len(set(declared))
    assert sorted(memwalk.__all__) == sorted(declared)
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert getattr(memwalk, name) is getattr(module, name)


# -- every subcommand over generated flags and configs ------------------------------
# Each subcommand gets only the flags it reads, with values and config JSON
# drawn around the edges of what it accepts.  A run must end in one of the
# CLI's exit codes, and a run that fails must leave nothing behind; the one
# exception is equivalence's exit 4, which still writes its report.

# Past 10^6 every subcommand that walks is over the size budget.
T_MAX = st.one_of(st.integers(-1, 250), st.sampled_from([10**6, 10**9, 10**13]))
SEED = st.integers(-1, 2**64)
SEEDS = st.one_of(
    st.lists(st.integers(-1, 9), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["1,,2", ",3", "x"]),
)
TERM = st.fixed_dictionaries(
    {
        "path": st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        "coin": st.sampled_from([1, -1, 2]),
        "amplitude": st.just([1, 0]),
    }
)
SPEC = st.fixed_dictionaries(
    {},
    optional={
        "graph": st.fixed_dictionaries(
            {},
            optional={
                "family": st.sampled_from(["line", "cycle", "torus"]),
                "window": st.one_of(st.none(), st.integers(-1, 41)),
            },
        ),
        "memory_depth": st.integers(0, 3),
        "partition": st.fixed_dictionaries(
            {},
            optional={
                "kind": st.sampled_from(
                    ["directional", "reflect_transmit", "random", "random_dicycle", "spiral"]
                ),
                "seed": st.one_of(st.none(), SEED),
                "resample": st.sampled_from(["never", "per_step", "hourly"]),
            },
        ),
        "coin_shift": st.fixed_dictionaries(
            {}, optional={"kind": st.sampled_from(["recycled", "carried", "table", "mirror"])}
        ),
        "coin": st.fixed_dictionaries({}, optional={"kind": st.sampled_from(["hadamard", "matrix"])}),
        "initial_state": st.one_of(
            st.fixed_dictionaries(
                {"preset": st.sampled_from(["origin-balanced", "equivalence", "nowhere"])}
            ),
            st.fixed_dictionaries({"terms": st.lists(TERM, min_size=1, max_size=1)}),
        ),
        "t_max": T_MAX,
        "outputs": st.lists(
            st.sampled_from(["distribution", "variance", "occrate", "origin-series",
                             "scaling-fit", "bogus"]),
            unique=True,
        ),
        "seed": st.one_of(st.none(), SEED),
    },
)
SWEEP = st.fixed_dictionaries(
    {},
    optional={
        "template": SPEC,
        "classes": st.lists(st.sampled_from([*experiments.WALK_CLASSES, "bogus"]), max_size=3),
        "seeds": st.lists(st.integers(-1, 9), max_size=4),
    },
)


def _flags(**values) -> st.SearchStrategy[list[str]]:
    """Each flag present or absent, as --flag=value."""
    parts = [
        st.one_of(st.just([]), value.map(lambda v, f=flag: [f"--{f.replace('_', '-')}={v}"]))
        for flag, value in values.items()
    ]
    return st.tuples(*parts).map(lambda chosen: [arg for args in chosen for arg in args])


COMMANDS = st.one_of(
    st.tuples(st.just("simulate"), st.one_of(st.none(), SPEC), _flags(seeds=SEEDS, t_max=T_MAX)),
    st.tuples(st.just("sweep"), st.one_of(st.none(), SWEEP), _flags(seeds=SEEDS, t_max=T_MAX)),
    st.tuples(st.just("equivalence"), st.none(), _flags(t_max=T_MAX)),
    st.tuples(
        st.just("enumerate"),
        st.none(),
        _flags(seeds=SEEDS, t_max=T_MAX, cycle_size=st.integers(-1, 6)),
    ),
)


@settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(command=COMMANDS)
def test_every_run_ends_in_an_exit_code_and_a_failed_run_writes_nothing(
    two_cpus, capsys, command
):
    name, doc, flags = command
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [name, *flags, f"--out={out}"]
        if doc is not None:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(doc))
            argv.append(f"--config={config}")
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), err
        if code == 0:
            assert out.is_dir()
        elif name == "equivalence" and code == 4:
            assert sorted(p.name for p in out.iterdir()) == ["equivalence.json"]
        else:
            assert not out.exists(), err
            assert err.startswith("error: "), err

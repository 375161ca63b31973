from __future__ import annotations

import json

import pytest

from memwalk.cli import main


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


def test_negative_t_max_is_validation_error(tmp_path, config):
    code = main(
        ["simulate", "--config", config(simulate_doc(t_max=-5)), "--out", str(tmp_path / "o")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"t_max": "5"},
        {"t_max": True},
        {"partition": {"kind": "random_dicycle", "seed": -1}},
        {"partition": {"kind": "random", "seed": -3, "resample": "per_step"},
         "coin_shift": {"kind": "recycled"}},
        {"seed": -2},
        {"memory_depth": 1.5},
        {"graph": {"family": "line", "window": 61.0}},
    ],
    ids=[
        "string-t_max", "bool-t_max", "negative-partition-seed",
        "negative-per-step-seed", "negative-seed", "float-depth", "float-window",
    ],
)
def test_spec_types_are_strict(tmp_path, config, capsys, overrides):
    out = tmp_path / "run"
    code = main(["simulate", "--config", config(simulate_doc(**overrides)), "--out", str(out)])
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
    ],
    ids=[
        "outputs-not-a-list", "table-vertex-too-large", "table-vertex-negative",
        "term-path-not-a-vertex", "amplitude-not-a-pair", "amplitude-nan",
        "coin-cell-not-a-pair", "coin-cell-nan",
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


def test_constraint_violation_exit_code(tmp_path, config, capsys):
    doc = simulate_doc(
        partition={"kind": "directional"}, coin_shift={"kind": "carried"}
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


def test_sweep_seed_flag_and_workers(tmp_path, config):
    doc = {"template": {"t_max": 20, "outputs": ["variance"]}, "classes": ["directional+recycled"]}
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--config", config(doc), "--out", str(out), "--seeds", "0,1,2", "--workers", "2"]
    )
    assert code == 0
    report = json.loads((out / "sweep_summary.json").read_text())
    assert report["classes"]["directional+recycled"]["seeds"] == [0, 1, 2]


def test_sweep_bad_seed_list(tmp_path, config):
    doc = {"template": {"t_max": 20}, "classes": ["directional+recycled"]}
    assert main(["sweep", "--config", config(doc), "--seeds", "1,q", "--out", str(tmp_path / "o")]) == 2


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

"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs a shrunken crosscheck workload through the real child processes and
checks that every metric is printed with its unit, that the traced run
reports every per-layer metric with repeating counts, and that a corrupted
output file is counted as a failed invocation in error_rate.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny() -> workloads.Workload:
    return workloads.crosscheck(0, n_census=3, eq_t_max=20)


@pytest.fixture(autouse=True)
def few_children(monkeypatch):
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


def printed(lines: list[str]) -> dict[str, str]:
    """metric name -> unit, from the human-readable lines."""
    out = {}
    for line in lines[:-1]:
        name, eq, _value, unit, *_ = line.split() + [""]
        if eq == "=":
            out[name] = unit
    return out


def test_benchmark_json_matches_the_harness():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (name, build(0).why) for name, build in workloads.BUILDERS.items()
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in spans.PER_LAYER
    ]


def test_untraced_run_prints_every_metric_with_its_unit(tmp_path):
    result = run.bench(tiny(), 0, tmp_path)
    lines = run.render(result)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 2
    assert {n: m["unit"] for n, m in last["metrics"].items()} == dict(run.END_TO_END)
    assert printed(lines) == dict(run.END_TO_END, error_rate="ratio")
    assert all(m["value"] > 0 for m in last["metrics"].values())
    raw = result["detail"]["raw"]
    assert raw["wall_s"]["n"] == result["detail"]["wall_s"]["n"]
    assert all(n > 0 for n in raw["probes_per_child"])


def test_probe_units_follow_a_change_of_core_speed(monkeypatch):
    # 64 probes at 20 us, then 64 at 40 us, one every 10 ms from t = 0.01.
    fast, slow = 20e-6, 40e-6
    probes = [(0.01 * i, fast if i <= 64 else slow) for i in range(1, 129)]
    monkeypatch.setattr(child, "PROBES", probes)
    assert child.probe_units(0.0, 1.28) == pytest.approx(0.64 / fast + 0.64 / slow)
    # No probe inside: the median of all probes.
    assert child.probe_units(2.0, 2.5) == pytest.approx(0.5 / 30e-6)


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = run.bench_traced(tiny(), 0, tmp_path)
    lines = run.render(result)
    want = {name: unit for name, unit, _, _, _ in spans.PER_LAYER}
    assert {n: m["unit"] for n, m in json.loads(lines[-1])["metrics"].items()} == want
    assert printed(lines) == dict(want, error_rate="ratio")
    detail = result["detail"]
    assert result["correct"] and detail["exact_counts_repeat"]
    assert detail["missing_functions"] == []
    assert detail["exact_counts"]["engine.steps"] == tiny().engine_steps
    # The crosscheck CLI calls never resolve a spec: that span is reported
    # missing, not zero.
    assert "experiments.resolve_s" in detail["not_fired"]
    assert detail["layers"]["experiments.resolve_s"]["status"] == "missing"


def test_corrupted_output_is_counted_in_error_rate(tmp_path, monkeypatch):
    real = run.run_child

    def corrupting(job, work, deadline):
        report = real(job, work, deadline)
        if job["invocations"]:
            path = Path(job["invocations"][0][-1]) / "equivalence.json"
            path.write_text(path.read_text().replace('"passed": true', '"passed": false'))
        return report

    monkeypatch.setattr(run, "run_child", corrupting)
    result = run.bench(tiny(), 0, tmp_path)
    assert not result["correct"]
    assert (result["failed"], result["attempted"], result["error_rate"]) == (1, 2, 0.5)
    assert "error_rate = 0.5 ratio (1 of 2 invocations failed)" in run.render(result)


@pytest.mark.parametrize("corrupt", ["flip_digit", "truncate", "delete"])
def test_each_kind_of_corruption_fails_the_check(tmp_path, corrupt):
    wl = tiny()
    bench = run.Run(wl, 0, tmp_path)
    wl.write_configs(bench.out_root)
    report = run.run_child(bench.job(True), tmp_path, deadline=time.monotonic() + 120)
    assert run.score(wl, report, bench.out_root)[0] == 0

    copy = tmp_path / "copy"
    shutil.copytree(bench.out_root, copy)
    enumerate_json = copy / "enumerate" / "enumerate.json"
    wl.golden["enumerate/enumerate.json"] = workloads.sha256(enumerate_json)
    text = enumerate_json.read_text()
    if corrupt == "flip_digit":  # still valid JSON: only the digest catches it
        i = next(i for i, ch in enumerate(text) if ch.isdigit())
        enumerate_json.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :])
    elif corrupt == "truncate":
        enumerate_json.write_text(text[: len(text) // 2])
        wl.golden.clear()
    else:
        enumerate_json.unlink()
    failed, problems, _ = run.score(wl, report, copy)
    assert failed == 1, problems


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_binding_and_reports_renamed_functions():
    # In a fresh interpreter: installing wrappers changes the memwalk modules.
    script = f"""
import sys
sys.path[:0] = [{str(run.ROOT / "src")!r}, {str(run.HERE)!r}]
import memwalk.cli, memwalk.analysis, memwalk.engine, memwalk.experiments
import spans
spans.GROUPS["engine.step"] += ("engine.renamed_step",)
original = memwalk.engine.evolve
tracer = spans.Tracer("test")
tracer.install()
assert tracer.missing == ["engine.renamed_step"], tracer.missing
for mod in (memwalk, memwalk.engine, memwalk.analysis, memwalk.experiments):
    assert mod.evolve is not original and mod.evolve.__wrapped__ is original, mod
assert memwalk.cli.run_sweep.__wrapped__ is not None
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

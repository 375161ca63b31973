"""Acceptance suite: one test per shipped guarantee, each timed and logged.

Every test appends a single PASS or FAIL line (with the measured numbers)
to the report echoed at the end of the run.  Criteria 6, 7 and 9 share one
20-seed sweep; its wall time is charged to criterion 6.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from memwalk import (
    ConstraintViolationError,
    balanced_origin_terms,
    build_shift_operator,
    carried_coin_shift,
    directional_partition,
    enumerate_coin_shifts,
    evolve,
    hadamard_coin,
    iterate_line_digraph,
    make_bidirected_cycle,
    minimal_window,
    named_partition,
    random_coin_shift,
    random_dicycle_factorization,
    random_partition,
    recycled_coin_shift,
    recycled_coin_walk,
    reflect_transmit_partition,
    reflect_transmit_walk,
    state_from_terms,
    validate_coin_shift,
)
from memwalk import analysis
from memwalk.coin_shift import CoinShift
from memwalk.constants import (
    BALLISTIC_RATIO_RANGE,
    DIFFUSIVE_RATIO_RANGE,
    LOCALIZATION_FLOOR,
    NO_LOCALIZATION_CEILING,
    OCCUPANCY_RATE_FLOOR,
)
from memwalk.experiments import (
    WALK_CLASSES,
    ExperimentSpec,
    _class_spec,
    _paired_origin_state,
    _paired_reflect_transmit_state,
    _spread,
    equivalence_report,
    resolve_spec,
    run_history,
    run_sweep,
)

BALLISTIC_CLASSES = (
    "directional+recycled",
    "reflect_transmit+recycled",
    "reflect_transmit+carried",
    "random_dicycle+carried",
)
DIFFUSIVE_CLASSES = ("random+recycled", "random_dicycle+recycled")


@contextmanager
def criterion(num: int, name: str, budget: float, log: list[str]):
    """Time a criterion body; record one PASS/FAIL line; enforce the budget.

    The body may set info["detail"] (free-form measurements) and
    info["charge"] (extra seconds to count against the budget, used for
    work shared through fixtures).
    """
    info: dict = {"detail": "", "charge": 0.0}
    start = time.monotonic()
    try:
        yield info
        elapsed = time.monotonic() - start + info["charge"]
        if elapsed >= budget:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds budget {budget:.0f}s")
    except BaseException as exc:
        first = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        line = f"criterion {num:02d} {name}: FAIL ({first})"
        log.append(line)
        print(line)
        raise
    line = (
        f"criterion {num:02d} {name}: PASS"
        f" ({info['detail']}; {elapsed:.2f}s < {budget:.0f}s)"
    )
    log.append(line)
    print(line)


def class_pair(host, walk_class: str, seed: int = 0):
    partition_kind, shift_kind = walk_class.split("+")
    p = named_partition(host, partition_kind, seed)
    gc = recycled_coin_shift(p) if shift_kind == "recycled" else carried_coin_shift(p)
    return p, gc


@pytest.fixture(scope="module")
def class_sweep(tmp_path_factory):
    """The 20-seed six-class sweep shared by criteria 6, 7 and 9."""
    template = ExperimentSpec.from_json_dict(
        {"t_max": 200, "outputs": ["variance", "occrate", "origin-series"]}
    )
    out = tmp_path_factory.mktemp("sweep")
    start = time.monotonic()
    report = run_sweep(template, list(WALK_CLASSES), list(range(20)), out)
    elapsed = time.monotonic() - start
    return report, elapsed, out


def test_criterion_01_recycled_oracle_correspondence(acceptance_log):
    with criterion(1, "recycled-coin oracle correspondence", 2.0, acceptance_log) as info:
        worst = 0.0
        for depth in (1, 2):
            window = minimal_window(50, depth)
            host = iterate_line_digraph(make_bidirected_cycle(window), depth)
            p = directional_partition(host)
            gc = recycled_coin_shift(p)
            for i in range(10):
                terms, oracle_terms = _paired_origin_state(depth, seed=1000 * depth + i)
                states = evolve(
                    p, gc, hadamard_coin(), state_from_terms(host, terms), 50
                )
                oracle = recycled_coin_walk(
                    depth, hadamard_coin(), oracle_terms, 50, window
                )
                for t, s in enumerate(states):
                    diff = np.abs(analysis.position_marginal(s).probs - oracle[t]).max()
                    worst = max(worst, float(diff))
        assert worst < 1e-12
        info["detail"] = f"depths 1-2, 10 states each, max diff {worst:.2e}"


def test_criterion_02_reflect_transmit_oracle_correspondence(acceptance_log):
    with criterion(2, "reflect/transmit oracle correspondence", 1.0, acceptance_log) as info:
        window = minimal_window(50, 1)
        host = iterate_line_digraph(make_bidirected_cycle(window), 1)
        p = reflect_transmit_partition(host)
        gc = carried_coin_shift(p)
        worst = 0.0
        for i in range(10):
            terms, oracle_terms = _paired_reflect_transmit_state(seed=2000 + i)
            states = evolve(p, gc, hadamard_coin(), state_from_terms(host, terms), 50)
            oracle = reflect_transmit_walk(hadamard_coin(), oracle_terms, 50, window)
            for t, s in enumerate(states):
                diff = np.abs(analysis.position_marginal(s).probs - oracle[t]).max()
                worst = max(worst, float(diff))
        assert worst < 1e-12
        info["detail"] = f"10 states, max diff {worst:.2e}"


def test_criterion_03_field_equivalence(acceptance_log):
    with criterion(3, "amplitude-field equivalence", 2.0, acceptance_log) as info:
        report = equivalence_report(t_max=100)
        assert report["applicable"]
        assert report["constraint_residual_max"] < 1e-12
        assert report["engine_field_diff_max"] < 1e-12
        assert report["alpha_reconstruction_diff_max"] < 1e-10
        assert report["distribution_tv_max"] < 1e-10
        assert report["passed"]
        info["detail"] = (
            f"constraint {report['constraint_residual_max']:.2e},"
            f" reconstruction {report['alpha_reconstruction_diff_max']:.2e},"
            f" tv {report['distribution_tv_max']:.2e}"
        )


def test_criterion_04_unitarity(acceptance_log):
    with criterion(4, "shift unitarity and norm drift", 5.0, acceptance_log) as info:
        small = iterate_line_digraph(make_bidirected_cycle(minimal_window(30, 1)), 1)

        def assert_permutation(p, gc):
            shift = build_shift_operator(p, gc)
            counts = np.bincount(shift, minlength=shift.size)
            assert (counts == 1).all()

        for walk_class in WALK_CLASSES:
            assert_permutation(*class_pair(small, walk_class, seed=0))
        for seed in range(100):
            p = random_partition(small, seed)
            assert_permutation(p, random_coin_shift(p, seed))

        big = iterate_line_digraph(make_bidirected_cycle(minimal_window(200, 1)), 1)
        drift = 0.0
        for walk_class in WALK_CLASSES:
            p, gc = class_pair(big, walk_class, seed=0)
            start = state_from_terms(big, balanced_origin_terms(big))
            for s in evolve(p, gc, hadamard_coin(), start, 200):
                drift = max(drift, abs(s.norm_squared() - 1.0))
        # the per-step resampled variants re-check unitarity inside run_history
        for walk_class in DIFFUSIVE_CLASSES:
            template = ExperimentSpec.from_json_dict(
                {"t_max": 200, "outputs": ["variance"]}
            )
            resolved = resolve_spec(_class_spec(template, walk_class, 0))
            for s in run_history(resolved):
                drift = max(drift, abs(s.norm_squared() - 1.0))
        assert drift < 1e-12
        info["detail"] = f"6 classes + 100 random pairs exact, drift {drift:.2e}"


def test_criterion_05_coin_shift_gating(acceptance_log):
    with criterion(5, "coin-shift gating and enumeration", 10.0, acceptance_log) as info:
        host = iterate_line_digraph(make_bidirected_cycle(minimal_window(30, 1)), 1)
        needs_dicycle = {
            "directional": False,
            "reflect_transmit": True,
            "random": False,
            "random_dicycle": True,
        }
        partitions = {
            "directional": directional_partition(host),
            "reflect_transmit": reflect_transmit_partition(host),
            "random": random_partition(host, 0),
            "random_dicycle": random_dicycle_factorization(host, 0),
        }
        for kind, p in partitions.items():
            recycled_coin_shift(p)  # raises on failure
            if needs_dicycle[kind]:
                carried_coin_shift(p)
            else:
                with pytest.raises(ConstraintViolationError):
                    carried_coin_shift(p)

        tiny = iterate_line_digraph(make_bidirected_cycle(3), 1)
        p = reflect_transmit_partition(tiny)
        enumerated = {gc.table.tobytes() for gc in enumerate_coin_shifts(p)}
        assert len(enumerated) == 2**tiny.n_vertices

        def bijective(table):
            flat = p.succ * p.degree + table
            return np.unique(flat).size == flat.size

        brute_valid = 0
        for entries in itertools.product(
            range(p.degree), repeat=tiny.n_vertices * p.degree
        ):
            table = np.array(entries, dtype=np.int64).reshape(tiny.n_vertices, p.degree)
            ok = validate_coin_shift(p, CoinShift(tiny, table)).ok
            assert ok == bijective(table)
            if ok:
                brute_valid += 1
                assert table.tobytes() in enumerated
        assert brute_valid == len(enumerated)
        info["detail"] = (
            f"gating as required, {brute_valid}/{4**tiny.n_vertices} tables valid,"
            " validator matches bijectivity"
        )


def test_criterion_06_scaling_classes(class_sweep, acceptance_log):
    report, sweep_seconds, _ = class_sweep
    with criterion(6, "ballistic/diffusive classification", 60.0, acceptance_log) as info:
        info["charge"] = sweep_seconds
        ratios = {}
        for walk_class in BALLISTIC_CLASSES:
            ratio = report["classes"][walk_class]["variance_ratio"]
            ratios[walk_class] = ratio
            lo, hi = BALLISTIC_RATIO_RANGE
            assert lo <= ratio <= hi, f"{walk_class}: ratio {ratio:.3f} not ballistic"
        for walk_class in DIFFUSIVE_CLASSES:
            ratio = report["classes"][walk_class]["variance_ratio"]
            ratios[walk_class] = ratio
            lo, hi = DIFFUSIVE_RATIO_RANGE
            assert lo <= ratio <= hi, f"{walk_class}: ratio {ratio:.3f} not diffusive"
        info["detail"] = "ratios " + ", ".join(
            f"{c.split('+')[0][:7]}+{c.split('+')[1][:4]}={r:.2f}"
            for c, r in ratios.items()
        )


def test_class_sweep_bytes_are_pinned(class_sweep):
    # Job order, job deduplication and the worker count must not change a
    # byte of the sweep's outputs.
    _, _, out = class_sweep
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
        for name in ("sweep_summary.json", "comparison.csv")
    }
    assert digests == {
        "sweep_summary.json": "37d6d0f975783fd5",
        "comparison.csv": "606589c26369ceab",
    }


def test_criterion_07_occupancy_floor(class_sweep, acceptance_log):
    report, _, _ = class_sweep
    with criterion(7, "occupancy-rate floor", 60.0, acceptance_log) as info:
        worst = 1.0
        for walk_class in WALK_CLASSES:
            occ = report["classes"][walk_class]["occupancy_at"]
            for t in ("50", "100", "200"):
                assert occ[t] >= OCCUPANCY_RATE_FLOOR, (
                    f"{walk_class} at t={t}: {occ[t]:.4f} < {OCCUPANCY_RATE_FLOOR}"
                )
                worst = min(worst, occ[t])
        info["detail"] = (
            f"sweep shared with criterion 6; min occupancy {worst:.3f}"
            f" >= {OCCUPANCY_RATE_FLOOR}"
        )


def test_criterion_08_distinct_walk_census(acceptance_log):
    with criterion(8, "distinct dicycle walk census", 10.0, acceptance_log) as info:
        host = iterate_line_digraph(make_bidirected_cycle(minimal_window(30, 1)), 1)
        census = analysis.count_distinct_dicycle_carried_walks(
            host, list(range(50)), 30, partial(_spread, n=1)
        )
        assert census.n_classes <= 8
        assert census.keys_consistent
        info["detail"] = (
            f"{census.n_classes} classes over 50 seeds,"
            " center key predicts class exactly"
        )


def test_criterion_09_localization(class_sweep, acceptance_log):
    report, _, _ = class_sweep
    with criterion(9, "late-time origin localization", 30.0, acceptance_log) as info:
        late = {
            c: report["classes"][c]["origin_late_average"]
            for c in (
                "reflect_transmit+recycled",
                "reflect_transmit+carried",
                "directional+recycled",
            )
        }
        assert late["reflect_transmit+recycled"] < NO_LOCALIZATION_CEILING
        assert late["reflect_transmit+carried"] > LOCALIZATION_FLOOR
        assert late["directional+recycled"] > LOCALIZATION_FLOOR
        info["detail"] = (
            "sweep shared with criterion 6; late P(0)"
            f" rt+rec={late['reflect_transmit+recycled']:.4f}"
            f" rt+car={late['reflect_transmit+carried']:.3f}"
            f" dir+rec={late['directional+recycled']:.3f}"
        )


def test_criterion_10_cli_determinism(tmp_path, acceptance_log):
    with criterion(10, "byte-identical CLI outputs", 5.0, acceptance_log) as info:
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "partition": {"kind": "random_dicycle", "seed": 11},
                    "coin_shift": {"kind": "carried"},
                    "t_max": 60,
                    "outputs": ["distribution", "variance", "origin-series"],
                }
            )
        )
        exe = shutil.which("memwalk")
        base = [exe] if exe else [sys.executable, "-m", "memwalk.cli"]
        for out in ("a", "b"):
            proc = subprocess.run(
                base
                + ["simulate", "--config", str(config), "--out", str(tmp_path / out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("summary.json", "distributions.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        info["detail"] = "two runs, summary.json and distributions.csv identical"

from __future__ import annotations

import dataclasses
import os
from functools import partial

import numpy as np
import pytest

from memwalk import (
    NumericalCheckError,
    ValidationError,
    balanced_origin_terms,
    carried_coin_shift,
    directional_partition,
    equivalence_initial_terms,
    evolve,
    hadamard_coin,
    iterate_line_digraph,
    make_bidirected_cycle,
    minimal_window,
    origin_basis_terms,
    random_dicycle_factorization,
    recycled_coin_shift,
    reflect_transmit_partition,
    state_from_terms,
    walk_states,
)
from memwalk import analysis, engine, experiments
from memwalk.analysis import (
    PositionDistribution,
    alpha_distribution,
    alpha_from_beta,
    beta_distribution,
    beta_from_walk_state,
    beta_recurrence_step,
    check_beta_constraint,
    classify_scaling,
    count_distinct_dicycle_carried_walks,
    equivalence_initial_beta,
    marginal_history,
    max_distribution_difference,
    occupancy_rate,
    partition_center_key,
    position_marginal,
    qwom_initial_alpha,
    qwom_step,
    total_variation,
    variance,
)
from memwalk.analysis import BetaField
from memwalk.cli import main

one_process = partial(experiments._spread, n=1)


def dist(positions, probs, time=0):
    return PositionDistribution(np.array(positions), np.array(probs, dtype=float), time)


def test_distribution_prob_lookup():
    d = dist([-1, 0, 1], [0.25, 0.5, 0.25])
    assert d.prob(0) == 0.5
    assert d.prob(7) == 0.0


def test_distribution_shape_guard():
    with pytest.raises(ValidationError):
        dist([0, 1], [1.0])


def test_position_marginal_sums_register(host_d1):
    terms = [((-1, 0), 1, 0.5), ((-1, 0), -1, 0.5), ((1, 0), 1, np.sqrt(0.5))]
    d = position_marginal(state_from_terms(host_d1, terms))
    assert d.prob(0) == pytest.approx(1.0)
    assert variance(d) == pytest.approx(0.0)


def test_variance_exact():
    d = dist([-2, 0, 2], [0.25, 0.5, 0.25])
    assert variance(d) == pytest.approx(2.0)
    shifted = dist([0, 1], [0.5, 0.5])
    assert variance(shifted) == pytest.approx(0.25)


def test_occupancy_rate_counts_loaded_sites():
    d = dist([-2, -1, 0, 1, 2], [0.4, 0.1, 0.0, 0.1, 0.4])
    assert occupancy_rate(d, 5) == pytest.approx(2 / 5)
    assert occupancy_rate(d, 10) == pytest.approx(4 / 10)
    assert type(occupancy_rate(d, 5)) is float
    with pytest.raises(ValidationError):
        occupancy_rate(d, 0)


def test_distribution_comparison_aligns_positions():
    # Distributions are compared cell by cell, so their positions must agree.
    a = dist([-1, 0, 1], [0.2, 0.5, 0.3])
    b = dist([-1, 0, 1], [0.0, 0.5, 0.5])
    assert max_distribution_difference(a, b) == pytest.approx(0.2)
    assert total_variation(a, b) == pytest.approx(0.2)
    assert total_variation(a, a) == 0.0
    shifted = dist([0, 1, 2], [0.5, 0.3, 0.2])
    with pytest.raises(ValidationError, match="different positions"):
        max_distribution_difference(a, shifted)
    with pytest.raises(ValidationError, match="different positions"):
        total_variation(a, shifted)


def test_classify_scaling_quadratic():
    t = np.arange(20, 81, dtype=float)
    fit = classify_scaling(t, 0.3 * t**2)
    assert fit.verdict == "ballistic"
    assert fit.k2 == pytest.approx(0.3, abs=1e-9)
    assert fit.residual < 1e-8


def test_classify_scaling_linear():
    t = np.arange(20, 81, dtype=float)
    fit = classify_scaling(t, 2.0 * t + 5.0)
    assert fit.verdict == "diffusive"
    assert fit.k1 == pytest.approx(2.0, abs=1e-9)


def test_classify_scaling_needs_long_series():
    t = np.arange(10, 30, dtype=float)
    with pytest.raises(ValidationError):
        classify_scaling(t, t**2)
    with pytest.raises(ValidationError):
        classify_scaling(np.arange(20, 81), np.arange(10))


def test_equivalence_beta_start():
    b = equivalence_initial_beta(9)
    assert b.amps[0, 0, 0] == 0.5
    assert b.amps[0, 1, 0] == -0.5
    assert check_beta_constraint(b) == 0.0
    assert beta_distribution(b).prob(0) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        equivalence_initial_beta(8)


@pytest.mark.parametrize("shift", [-1, 1])
def test_field_roll_matches_np_roll(rng, shift):
    for n in (3, 5, 203):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert analysis._rolled(a, shift).tobytes() == np.roll(a, shift).tobytes()


def test_beta_constraint_detects_perturbation():
    b = equivalence_initial_beta(9)
    amps = b.amps.copy()
    amps[2, 0, 0] += 0.1
    assert check_beta_constraint(BetaField(amps, 0)) >= 0.05


def test_beta_recurrence_matches_engine(host_d1):
    p = reflect_transmit_partition(host_d1)
    state = state_from_terms(host_d1, equivalence_initial_terms(host_d1))
    history = evolve(p, carried_coin_shift(p), hadamard_coin(), state, 20)
    field = equivalence_initial_beta(host_d1.base_n)
    for s in history:
        packed = beta_from_walk_state(s)
        assert np.abs(packed.amps - field.amps).max() < 1e-12
        assert check_beta_constraint(field) < 1e-12
        field = beta_recurrence_step(field)


def _beta_by_vertex(state):
    """The field layout, filled one vertex at a time: the reference."""
    host = state.host
    n = host.base_n
    amps = np.zeros((n, 2, 2), dtype=np.complex128)
    for v, (prev, cur) in enumerate(host.labels):
        r = 0 if (cur - prev) % n == 1 else 1
        amps[cur % n, r, :] = state.amps[v, :]
    return amps


@pytest.mark.parametrize("window", [3, 5, 9, 65])
def test_beta_from_walk_state_matches_a_per_vertex_loop(rng, window):
    host = iterate_line_digraph(make_bidirected_cycle(window), 1)
    shape = (host.n_vertices, host.degree)
    for time in (0, 7):
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        state = engine.WalkState(host, amps, time)
        packed = beta_from_walk_state(state)
        assert packed.time == time
        assert packed.amps.tobytes() == _beta_by_vertex(state).tobytes()


def test_beta_from_walk_state_needs_a_depth_1_host(host_d2):
    state = state_from_terms(host_d2, origin_basis_terms(host_d2)[0])
    with pytest.raises(ValidationError, match="depth-1 host"):
        beta_from_walk_state(state)


def test_alpha_reconstruction_tracks_memoryless_walk():
    field = equivalence_initial_beta(65)
    alpha = qwom_initial_alpha(65)
    for _ in range(21):
        rebuilt = alpha_from_beta(field)
        assert np.abs(rebuilt.amps - alpha.amps).max() < 1e-10
        assert (
            total_variation(alpha_distribution(rebuilt), alpha_distribution(alpha))
            < 1e-10
        )
        field = beta_recurrence_step(field)
        alpha = qwom_step(alpha)


def test_alpha_map_rejects_off_sublattice():
    amps = np.zeros((9, 2, 2), dtype=np.complex128)
    amps[0, 0, 0] = 1.0  # x = 0 occupied at odd time
    with pytest.raises(ValidationError):
        alpha_from_beta(BetaField(amps, 1))


def test_qwom_step_preserves_norm():
    a = qwom_initial_alpha(33)
    for _ in range(15):
        a = qwom_step(a)
    assert (np.abs(a.amps) ** 2).sum() == pytest.approx(1.0)


def test_walk_respects_parity(host_d1):
    p = directional_partition(host_d1)
    state = state_from_terms(host_d1, [((-1, 0), 1, 1.0)])
    history = evolve(p, recycled_coin_shift(p), hadamard_coin(), state, 15)
    for t, d in enumerate(marginal_history(history)):
        occupied = d.positions[d.probs > 1e-15]
        assert ((occupied + t) % 2 == 0).all()


def test_partition_center_key(host_d1):
    assert partition_center_key(reflect_transmit_partition(host_d1)) == (1, 1, 1)
    assert partition_center_key(directional_partition(host_d1)) == (0, 0, 0)


@pytest.mark.parametrize("host_name", ["host_d1", "host_d2"])
@pytest.mark.parametrize("walk_class", ["random_dicycle+carried", "directional+recycled"])
def test_stacked_marginals_equal_per_state_marginals(request, host_name, walk_class):
    host = request.getfixturevalue(host_name)
    if walk_class == "random_dicycle+carried":
        p = random_dicycle_factorization(host, 11)
        gc = carried_coin_shift(p)
    else:
        p = directional_partition(host)
        gc = recycled_coin_shift(p)
    hists = [
        evolve(p, gc, hadamard_coin(), state_from_terms(host, terms), 25)
        for terms in origin_basis_terms(host)
    ]
    stacked = analysis._position_probs(host, np.stack([[s.amps for s in h] for h in hists]))
    assert stacked.shape == (len(hists), 26, host.base_n)
    for row, hist in zip(stacked, hists, strict=True):
        assert np.array_equal(row, np.stack([position_marginal(s).probs for s in hist]))


def per_probe_census(host, seeds, t_max):
    """The census with one position_marginal call per probe state and step."""
    probes = list(origin_basis_terms(host))
    ((lo, _, _),), ((hi, _, _),) = probes[0], probes[2]
    probes.append([(lo, 1, 0.5), (lo, -1, 0.5j), (hi, 1, 0.5), (hi, -1, -0.5)])
    signatures, class_of, key_of = {}, {}, {}
    for seed in seeds:
        p = random_dicycle_factorization(host, seed)
        gc = carried_coin_shift(p)
        blocks = []
        for terms in probes:
            hist = evolve(p, gc, hadamard_coin(), state_from_terms(host, terms), t_max)
            blocks.append(np.stack([position_marginal(s).probs for s in hist]))
        signature = np.round(np.stack(blocks), 10).tobytes()
        class_of[seed] = signatures.setdefault(signature, len(signatures))
        key_of[seed] = partition_center_key(p)
    return len(signatures), class_of, key_of


def test_census_matches_per_probe_census():
    host = iterate_line_digraph(make_bidirected_cycle(minimal_window(30, 1)), 1)
    seeds = list(range(200))
    report = count_distinct_dicycle_carried_walks(host, seeds, 30, one_process)
    assert (report.n_classes, report.class_of, report.key_of) == per_probe_census(
        host, seeds, 30
    )


@pytest.mark.parametrize("key", ["constant", "seed"])
def test_census_keys_are_consistent_only_one_to_one_with_classes(host_d1, monkeypatch, key):
    # One key for every class, or one class spread over several keys, is
    # not a one-to-one correspondence.
    keys = iter(range(10**6))
    fake = (lambda p: ()) if key == "constant" else (lambda p: (next(keys),))
    monkeypatch.setattr(analysis, "partition_center_key", fake)
    report = count_distinct_dicycle_carried_walks(host_d1, list(range(12)), 10, one_process)
    assert 1 < report.n_classes < 12
    assert not report.keys_consistent


def test_census_builds_each_seed_shift_once(host_d1, monkeypatch):
    built = []
    real = analysis.build_shift_operator

    def counting(p, gc):
        built.append(p.seed)
        return real(p, gc)

    monkeypatch.setattr(analysis, "build_shift_operator", counting)
    seeds = list(range(6))
    count_distinct_dicycle_carried_walks(host_d1, seeds, 10, one_process)
    assert built == seeds


def test_census_checks_its_coin_once_and_every_probe_start(host_d1, monkeypatch):
    checked, started = [], []
    real_check, real_start = engine.check_unitary, analysis._start_check

    def counting_check(a, *args):
        checked.append(a.shape)
        return real_check(a, *args)

    def counting_start(initial, t_max, enforce_window):
        started.append(t_max)
        return real_start(initial, t_max, enforce_window)

    monkeypatch.setattr(engine, "check_unitary", counting_check)
    monkeypatch.setattr(analysis, "_start_check", counting_start)
    # With two processes, this one still checks each once.
    for spread in (one_process, partial(experiments._spread, n=2)):
        checked.clear()
        started.clear()
        count_distinct_dicycle_carried_walks(host_d1, list(range(6)), 10, spread)
        assert checked == [(2, 2)]
        assert started == [10] * 5


def test_dicycle_census_small(host_d1):
    report = count_distinct_dicycle_carried_walks(host_d1, list(range(12)), 30, one_process)
    assert report.n_classes <= 8
    assert report.keys_consistent
    assert set(report.class_of) == set(range(12))
    assert all(len(k) == 3 for k in report.key_of.values())


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seeds", [list(range(8)), [0, 1, 0]])
def test_two_process_census_matches_one_process(tmp_path, monkeypatch, forks, two_cpus, seeds):
    host = iterate_line_digraph(make_bidirected_cycle(minimal_window(20, 1)), 1)
    one = count_distinct_dicycle_carried_walks(host, seeds, 20, one_process)
    two = count_distinct_dicycle_carried_walks(host, seeds, 20, partial(experiments._spread, n=2))
    assert len(forks) == 1
    _no_child_left()
    assert two == one

    # enumerate refuses a repeated seed, so the report lists each seed once.
    written = []
    for gate in (float("inf"), 0):
        monkeypatch.setattr(experiments, "CENSUS_FORK_MIN_SEED_STEPS", gate)
        experiments.run_enumerate(tmp_path / str(gate), 3, list(dict.fromkeys(seeds)), 20)
        written.append((tmp_path / str(gate) / "enumerate.json").read_bytes())
    assert len(forks) == 2
    _no_child_left()
    assert written[1] == written[0]


@pytest.mark.parametrize("n_seeds, t_max", [(3, 30), (6, 10)])
def test_a_small_census_forks_nothing(tmp_path, forks, two_cpus, n_seeds, t_max):
    assert n_seeds * t_max < experiments.CENSUS_FORK_MIN_SEED_STEPS
    experiments.run_enumerate(tmp_path, 3, list(range(n_seeds)), t_max)
    assert forks == []
    _no_child_left()


@pytest.mark.parametrize("failing, first", [({1}, 1), ({1, 2}, 1), ({2, 3}, 2)])
def test_a_failing_census_seed_fails_as_in_one_process(
    tmp_path, monkeypatch, capsys, forks, two_cpus, failing, first
):
    # Seeds 0..3 over two processes: the forked one walks seeds 1 and 3.
    real_key = analysis.partition_center_key

    def key(p):
        if p.seed in failing:
            raise NumericalCheckError(f"seed {p.seed} failed")
        return real_key(p)

    monkeypatch.setattr(analysis, "partition_center_key", key)
    runs = []
    for gate in (float("inf"), 0):
        monkeypatch.setattr(experiments, "CENSUS_FORK_MIN_SEED_STEPS", gate)
        out = tmp_path / "out"
        code = main(["enumerate", "--seeds", "0,1,2,3", "--t-max", "10", "--out", str(out)])
        runs.append((code, capsys.readouterr().err))
        assert not out.exists()
    assert runs[0] == runs[1] == (4, f"error: numerical check failed: seed {first} failed\n")
    assert len(forks) == 1
    _no_child_left()


def _reference_position_probs(host, amps):
    """The marginal from a sum over the coin axis and one bincount per state."""
    weights = (np.abs(amps) ** 2).sum(axis=-1)
    rows = weights.reshape(-1, host.n_vertices)
    probs = [np.bincount(host.position_index, weights=row, minlength=host.base_n) for row in rows]
    return np.stack(probs).reshape(weights.shape[:-1] + (host.base_n,))


@pytest.mark.parametrize("lead", [(), (5, 31)])
def test_position_probs_match_a_coin_axis_sum_bitwise(host_d1, rng, lead):
    shape = lead + (host_d1.n_vertices, 2)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = analysis._position_probs(host_d1, amps)
    assert np.array_equal(got, _reference_position_probs(host_d1, amps))


# The fold's statistics as they were written before each took its window's
# constants from the host; the fold must keep returning their exact bits.


def _written_out_marginal(host, amps):
    w = np.abs(amps) ** 2
    weights = w[..., 0]
    for c in range(1, w.shape[-1]):
        weights = weights + w[..., c]
    rows = weights.reshape(-1, host.n_vertices)
    index = host.position_index + host.base_n * np.arange(len(rows))[:, None]
    n_bins = len(rows) * host.base_n
    probs = np.bincount(index.ravel(), weights=rows.ravel(), minlength=n_bins)
    return probs.reshape(weights.shape[:-1] + (host.base_n,))


def _written_out_variance(positions, probs):
    mean = float(np.dot(probs, positions))
    return float(np.dot(probs, positions.astype(float) ** 2)) - mean**2


def _written_out_prob(positions, probs, x):
    hits = np.flatnonzero(positions == x)
    return float(probs[hits[0]]) if hits.size else 0.0


@pytest.mark.parametrize("host_name", ["host_d1", "host_d2", "even_window"])
def test_fold_statistics_equal_their_written_out_expressions(request, host_name):
    if host_name == "even_window":
        # Not centered: positions 0..39, so the origin is the first entry.
        host = iterate_line_digraph(make_bidirected_cycle(40), 1)
        assert not host.centered
    else:
        host = request.getfixturevalue(host_name)
    p = random_dicycle_factorization(host, 3)
    start = state_from_terms(host, balanced_origin_terms(host))
    outside = (int(host.positions[0]) - 1, int(host.positions[-1]) + 1, 10**6)
    # The even host is not centered, so no window check can run on it.
    for state in walk_states(p, carried_coin_shift(p), hadamard_coin(), start, 30, False):
        d = position_marginal(state)
        probs = _written_out_marginal(host, state.amps)
        assert d.probs.tobytes() == probs.tobytes()
        assert d.positions is host.positions
        for x in (0, 1, -1, int(host.positions[-1])) + outside:
            assert d.prob(x) == _written_out_prob(host.positions, probs, x)
        assert all(d.prob(x) == 0.0 for x in outside)
        # Without the host's window, variance computes the window's constants.
        plain = PositionDistribution(host.positions.copy(), probs, state.time)
        for got in (d, plain):
            assert variance(got) == _written_out_variance(host.positions, probs)
            for n_range in (1, 2 * state.time + 1, host.base_n):
                want = float(np.count_nonzero(probs >= 1.0 / n_range)) / n_range
                assert occupancy_rate(got, n_range) == want


def test_a_position_window_must_come_from_the_positions(host_d1, host_d2):
    d = position_marginal(state_from_terms(host_d1, balanced_origin_terms(host_d1)))
    with pytest.raises(ValidationError, match="other positions"):
        dataclasses.replace(d, positions=host_d1.positions.copy())
    probs = np.zeros(host_d2.positions.shape)
    with pytest.raises(ValidationError, match="other positions"):
        PositionDistribution(host_d2.positions, probs, 0, host_d1.position_window)
    assert variance(dataclasses.replace(d, probs=d.probs.copy())) == variance(d)

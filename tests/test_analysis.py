from __future__ import annotations

import numpy as np
import pytest

from memwalk import (
    ValidationError,
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
)
from memwalk import analysis
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
    report = count_distinct_dicycle_carried_walks(host, seeds, 30)
    assert (report.n_classes, report.class_of, report.key_of) == per_probe_census(
        host, seeds, 30
    )


def test_census_builds_each_seed_shift_once(host_d1, monkeypatch):
    built = []
    real = analysis.build_shift_operator

    def counting(p, gc):
        built.append(p.seed)
        return real(p, gc)

    monkeypatch.setattr(analysis, "build_shift_operator", counting)
    seeds = list(range(6))
    count_distinct_dicycle_carried_walks(host_d1, seeds, 10)
    assert built == seeds


def test_dicycle_census_small(host_d1):
    report = count_distinct_dicycle_carried_walks(host_d1, list(range(12)), 30)
    assert report.n_classes <= 8
    assert report.keys_consistent
    assert set(report.class_of) == set(range(12))
    assert all(len(k) == 3 for k in report.key_of.values())


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

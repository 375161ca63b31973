from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memwalk import (
    ConstraintViolationError,
    ValidationError,
    balanced_origin_terms,
    build_shift_operator,
    carried_coin_shift,
    coin_step,
    directional_partition,
    equivalence_initial_terms,
    evolve,
    hadamard_coin,
    iterate_line_digraph,
    make_bidirected_cycle,
    minimal_window,
    origin_basis_terms,
    random_coin_shift,
    random_partition,
    recycled_coin_shift,
    recycled_coin_walk,
    reflect_transmit_partition,
    reflect_transmit_walk,
    shift_step,
    state_from_terms,
    validate_coin_shift,
    walk_states,
)
from memwalk.coin_shift import CoinShift
from memwalk.engine import WalkState, check_unitary
from memwalk import NumericalCheckError, analysis, engine


def test_hadamard_is_unitary():
    h = hadamard_coin()
    check_unitary(h)
    assert h[1, 1] == pytest.approx(-1 / np.sqrt(2))


def test_check_unitary_rejects_non_unitary():
    with pytest.raises(ValidationError):
        check_unitary(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_check_unitary_rejects_non_finite_coins(bad):
    coin = hadamard_coin()
    coin[1, 0] = bad
    with pytest.raises(ValidationError):
        check_unitary(coin)


def test_nan_coin_is_rejected_before_any_step(host_d1, monkeypatch):
    p = directional_partition(host_d1)
    gc = recycled_coin_shift(p)
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    coin = hadamard_coin()
    coin[0, 0] = np.nan
    stepped = []
    monkeypatch.setattr(engine, "coin_step", lambda state, c: stepped.append(state.time))
    with pytest.raises(ValidationError):
        evolve(p, gc, coin, s, 5)
    with pytest.raises(ValidationError):
        next(walk_states(lambda t: build_shift_operator(p, gc), coin, s, 5))
    assert stepped == []


def test_coin_of_the_wrong_dimension_is_rejected(host_d1):
    p = directional_partition(host_d1)
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    with pytest.raises(ValidationError, match="coin dimension"):
        evolve(p, recycled_coin_shift(p), np.eye(3, dtype=np.complex128), s, 5)


def test_state_from_terms_places_amplitudes(host_d1):
    s = state_from_terms(host_d1, [((-1, 0), 1, 1.0)])
    v = host_d1.index_of((-1, 0))
    assert s.amps[v, 0] == 1.0
    assert s.norm_squared() == pytest.approx(1.0)
    assert s.time == 0


def test_state_from_terms_rejects_unknown_tuple(host_d1):
    with pytest.raises(KeyError):
        state_from_terms(host_d1, [((500, 501), 1, 1.0)])


def test_state_norm_must_be_one(host_d1):
    with pytest.raises(ValidationError):
        state_from_terms(host_d1, [((-1, 0), 1, 0.5)])


def test_origin_basis_terms_order(host_d1):
    states = origin_basis_terms(host_d1)
    assert len(states) == 4
    labels = [(terms[0][0], terms[0][1]) for terms in states]
    assert labels == [((-1, 0), 1), ((-1, 0), -1), ((1, 0), 1), ((1, 0), -1)]


def test_origin_basis_terms_depth_2(host_d2):
    states = origin_basis_terms(host_d2)
    assert len(states) == 8
    for terms in states:
        assert terms[0][0][-1] == 0


def test_balanced_origin_state_normalizes(host_d1):
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    assert s.norm_squared() == pytest.approx(1.0)


def test_equivalence_initial_terms(host_d1):
    terms = dict(((path, coin), amp) for path, coin, amp in equivalence_initial_terms(host_d1))
    assert terms[((-1, 0), 1)] == pytest.approx(0.5)
    assert terms[((-1, 0), -1)] == pytest.approx(-0.5)
    assert terms[((1, 0), 1)] == pytest.approx(-0.5)
    assert terms[((1, 0), -1)] == pytest.approx(0.5)


def test_shift_operator_is_permutation(host_d1):
    p = directional_partition(host_d1)
    op = build_shift_operator(p, recycled_coin_shift(p))
    counts = np.bincount(op.perm, minlength=op.perm.size)
    assert (counts == 1).all()
    assert np.array_equal(op.perm[op.inverse_perm], np.arange(op.perm.size))
    assert np.array_equal(op.inverse_perm, np.argsort(op.perm))
    assert not op.inverse_perm.flags.writeable


def test_shift_operator_rejects_invalid_pair(host_d1):
    p = directional_partition(host_d1)
    gc = CoinShift(host_d1, np.zeros((host_d1.n_vertices, 2), dtype=np.int64))
    with pytest.raises(ConstraintViolationError) as err:
        build_shift_operator(p, gc)
    assert err.value.violations
    assert err.value.violations == validate_coin_shift(p, gc).violations


def test_coin_step_mixes_in_place(host_d1):
    s = state_from_terms(host_d1, [((-1, 0), 1, 1.0)])
    mixed = coin_step(s, hadamard_coin())
    v = host_d1.index_of((-1, 0))
    assert mixed.amps[v, 0] == pytest.approx(1 / np.sqrt(2))
    assert mixed.amps[v, 1] == pytest.approx(1 / np.sqrt(2))
    assert abs(mixed.amps).sum() == pytest.approx(np.sqrt(2))
    assert mixed.time == s.time  # coin does not advance time


def test_shift_step_moves_and_updates_memory(host_d1):
    p = directional_partition(host_d1)
    op = build_shift_operator(p, recycled_coin_shift(p))
    s = state_from_terms(host_d1, [((-1, 0), 1, 1.0)])
    moved = shift_step(s, op)
    w = host_d1.index_of((0, 1))
    # coin +1 moved up; the recycled coin re-emits the tuple's old +1 step
    assert moved.amps[w, 0] == pytest.approx(1.0)
    assert moved.time == 1


def test_evolve_t0_returns_initial(host_d1):
    p = directional_partition(host_d1)
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    history = evolve(p, recycled_coin_shift(p), hadamard_coin(), s, 0)
    assert len(history) == 1
    assert history[0] is s


def test_evolve_window_guard():
    host = iterate_line_digraph(make_bidirected_cycle(9), 1)
    p = directional_partition(host)
    s = state_from_terms(host, [((-1, 0), 1, 1.0)])
    with pytest.raises(ValidationError) as err:
        evolve(p, recycled_coin_shift(p), hadamard_coin(), s, 50)
    assert "window" in str(err.value)
    evolve(p, recycled_coin_shift(p), hadamard_coin(), s, 2)  # fits


def test_evolve_keeps_edges_empty(host_d1):
    p = directional_partition(host_d1)
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    history = evolve(p, recycled_coin_shift(p), hadamard_coin(), s, 30)
    for state in history:
        dist = analysis.position_marginal(state)
        assert dist.probs[0] == 0.0
        assert dist.probs[-1] == 0.0


def test_evolve_rejects_foreign_state(host_d1, host_d2):
    p = directional_partition(host_d1)
    s = state_from_terms(host_d2, [((0, 1, 0), 1, 1.0)])
    with pytest.raises(ValidationError):
        evolve(p, recycled_coin_shift(p), hadamard_coin(), s, 1)


def test_walk_states_is_lazy(host_d1, monkeypatch):
    p = directional_partition(host_d1)
    op = build_shift_operator(p, recycled_coin_shift(p))
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    stepped = []
    real_coin_step = engine.coin_step

    def counting_coin_step(state, coin):
        stepped.append(state.time)
        return real_coin_step(state, coin)

    monkeypatch.setattr(engine, "coin_step", counting_coin_step)
    stream = walk_states(lambda t: op, hadamard_coin(), s, 30)
    assert stepped == []
    assert next(stream) is s
    assert stepped == []
    assert next(stream).time == 1
    assert stepped == [0]


def test_walk_states_takes_a_per_step_shift(host_d1):
    p = directional_partition(host_d1)
    op = build_shift_operator(p, recycled_coin_shift(p))
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    asked = []

    def schedule(t):
        asked.append(t)
        return op

    streamed = list(walk_states(schedule, hadamard_coin(), s, 12))
    kept = evolve(p, recycled_coin_shift(p), hadamard_coin(), s, 12)
    assert asked == list(range(1, 13))
    assert [state.time for state in streamed] == list(range(13))
    for a, b in zip(streamed, kept):
        assert np.array_equal(a.amps, b.amps)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_norm_preserved_along_random_walks(host_d1, seed):
    rng = np.random.default_rng(seed)
    p = random_partition(host_d1, seed)
    gc = random_coin_shift(p, seed)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    states = origin_basis_terms(host_d1)
    terms = [
        (path, coin, complex(a))
        for ((path, coin, _),), a in zip(states, amps)
    ]
    history = evolve(p, gc, hadamard_coin(), state_from_terms(host_d1, terms), 12)
    for s in history:
        assert abs(s.norm_squared() - 1.0) < 1e-12


def test_recycled_oracle_identity_coin_streams():
    # identity coin keeps re-playing the +1 memory: point mass at x = t
    dists = recycled_coin_walk(1, np.eye(2, dtype=np.complex128), [(0, (1, 1), 1.0)], 3, 21)
    positions = list(range(-10, 11))
    assert dists[3][positions.index(3)] == pytest.approx(1.0)


def test_reflect_transmit_oracle_pure_transmit():
    dists = reflect_transmit_walk(np.eye(2, dtype=np.complex128), [(0, -1, -1, 1.0)], 3, 21)
    positions = list(range(-10, 11))
    assert dists[3][positions.index(3)] == pytest.approx(1.0)


def test_reflect_transmit_oracle_pure_reflect():
    # coin +1 with identity coin bounces between 0 and -1 forever
    dists = reflect_transmit_walk(np.eye(2, dtype=np.complex128), [(0, -1, 1, 1.0)], 4, 21)
    positions = list(range(-10, 11))
    assert dists[1][positions.index(-1)] == pytest.approx(1.0)
    assert dists[2][positions.index(0)] == pytest.approx(1.0)
    assert dists[3][positions.index(-1)] == pytest.approx(1.0)


def test_engine_matches_recycled_oracle(host_d1):
    p = directional_partition(host_d1)
    gc = recycled_coin_shift(p)
    terms = [((-1, 0), 1, 1.0)]
    history = evolve(p, gc, hadamard_coin(), state_from_terms(host_d1, terms), 25)
    oracle = recycled_coin_walk(
        1, hadamard_coin(), [(0, (1, 1), 1.0)], 25, host_d1.base_n
    )
    for t, s in enumerate(history):
        assert np.abs(analysis.position_marginal(s).probs - oracle[t]).max() < 1e-12


def test_engine_matches_reflect_transmit_oracle(host_d1):
    p = reflect_transmit_partition(host_d1)
    gc = carried_coin_shift(p)
    terms = [((-1, 0), 1, np.sqrt(0.5)), ((1, 0), -1, np.sqrt(0.5) * 1j)]
    history = evolve(p, gc, hadamard_coin(), state_from_terms(host_d1, terms), 25)
    oracle = reflect_transmit_walk(
        hadamard_coin(),
        [(0, -1, 1, np.sqrt(0.5)), (0, 1, -1, np.sqrt(0.5) * 1j)],
        25,
        host_d1.base_n,
    )
    for t, s in enumerate(history):
        assert np.abs(analysis.position_marginal(s).probs - oracle[t]).max() < 1e-12


def test_walk_state_shape_guard(host_d1):
    with pytest.raises(ValidationError):
        WalkState(host_d1, np.zeros((3, 2), dtype=complex), 0)


@pytest.mark.parametrize("factor", [1.5, np.nan])
def test_unnormalized_start_state_is_rejected_when_run(host_d1, factor):
    p = directional_partition(host_d1)
    amps = state_from_terms(host_d1, balanced_origin_terms(host_d1)).amps * factor
    start = WalkState(host_d1, amps)  # only the shape is checked here
    with pytest.raises(ValidationError, match="norm"):
        evolve(p, recycled_coin_shift(p), hadamard_coin(), start, 5)


@pytest.mark.parametrize("factor", [1.0 + 1e-9, np.nan])
def test_norm_drift_stops_the_run(host_d1, monkeypatch, factor):
    p = directional_partition(host_d1)
    op = build_shift_operator(p, recycled_coin_shift(p))
    start = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    real_shift_step = engine.shift_step

    def leaky_shift_step(state, shift):
        moved = real_shift_step(state, shift)
        if moved.time < 3:
            return moved
        return WalkState(moved.host, moved.amps * factor, moved.time)

    monkeypatch.setattr(engine, "shift_step", leaky_shift_step)
    stream = walk_states(lambda t: op, hadamard_coin(), start, 10)
    assert [next(stream).time for _ in range(3)] == [0, 1, 2]
    with pytest.raises(NumericalCheckError, match="t=3"):
        next(stream)


@pytest.mark.parametrize("window", [65, minimal_window(1500, 1)], ids=["260", "12020"])
def test_norm_squared_agrees_with_a_complex_dot_product(rng, window):
    # 260 amplitudes: a census probe state; 12,020: the host of a
    # --t-max 1500 simulate run, where OpenBLAS would thread the dot product.
    host = iterate_line_digraph(make_bidirected_cycle(window), 1)
    for _ in range(5):
        amps = rng.standard_normal((host.n_vertices, 2)) + 1j * rng.standard_normal(
            (host.n_vertices, 2)
        )
        amps /= np.linalg.norm(amps)
        state = WalkState(host, amps)
        assert amps.size in (260, 12020)
        assert abs(state.norm_squared() - np.vdot(amps, amps).real) <= 1e-14

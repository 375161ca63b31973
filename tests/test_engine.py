from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

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
from memwalk.graphs import RegularDigraph
from memwalk.partitions import Partition
from memwalk.engine import WalkState, check_unitary
from memwalk import NumericalCheckError, analysis, engine

from conftest import random_coin_shift, reference_hosts


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
        walk_states(p, gc, coin, s, 5)
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


def _origin_basis_by_vertex(host, labels) -> list[list[tuple]]:
    """origin_basis_terms, built one vertex at a time: the reference."""
    out = []
    for lab in labels:
        if lab[-1] != 0:
            continue
        for c in range(host.degree):
            label = (1 if c == 0 else -1) if host.degree == 2 else c + 1
            out.append([(lab, label, 1.0 + 0.0j)])
    return out


def test_origin_basis_terms_match_the_per_vertex_reference():
    for host, labels in reference_hosts():
        got = origin_basis_terms(host)
        assert got == _origin_basis_by_vertex(host, labels)
        # plain ints, as the path tuples held
        assert all(type(x) is int for ((path, _, _),) in got for x in path)


def test_balanced_origin_state_normalizes(host_d1):
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    assert s.norm_squared() == pytest.approx(1.0)


def test_degree_3_balanced_origin_state_is_built_and_normalized():
    # An 11-vertex circulant whose vertex v sits at position v: coin labels
    # are 1..3 at m = 3, and the start puts 1/sqrt(3) on each of vertex 0's
    # coins, the first real and the others in quadrature.
    n = 11
    idx = np.arange(n)
    out = np.stack([(idx + 1) % n, (idx + 2) % n, (idx + 5) % n], axis=1)
    host = RegularDigraph(out.astype(np.int64), idx[:, None], base_n=n)
    assert [terms[0][1] for terms in origin_basis_terms(host)] == [1, 2, 3]
    s = state_from_terms(host, balanced_origin_terms(host))
    assert s.norm_squared() == pytest.approx(1.0)
    amp = 1 / np.sqrt(3)
    assert np.allclose(s.amps[0], [amp, 1j * amp, 1j * amp])
    assert not s.amps[1:].any()


def test_equivalence_initial_terms(host_d1):
    terms = dict(((path, coin), amp) for path, coin, amp in equivalence_initial_terms(host_d1))
    assert terms[((-1, 0), 1)] == pytest.approx(0.5)
    assert terms[((-1, 0), -1)] == pytest.approx(-0.5)
    assert terms[((1, 0), 1)] == pytest.approx(-0.5)
    assert terms[((1, 0), -1)] == pytest.approx(0.5)


def test_shift_operator_is_permutation(host_d1):
    p = directional_partition(host_d1)
    gc = recycled_coin_shift(p)
    shift = build_shift_operator(p, gc)
    assert shift.dtype == np.intp
    counts = np.bincount(shift, minlength=shift.size)
    assert (counts == 1).all()
    # The forward map sends cell (v, c) to (succ[v, c], table[v, c]); the
    # gather index is its inverse.
    forward = (p.succ * p.degree + gc.table).ravel()
    assert np.array_equal(forward[shift], np.arange(forward.size))
    assert np.array_equal(shift, np.argsort(forward))
    assert not shift.flags.writeable


def test_shift_operator_rejects_invalid_pair(host_d1):
    p = directional_partition(host_d1)
    gc = CoinShift(host_d1, np.zeros((host_d1.n_vertices, 2), dtype=np.int64))
    with pytest.raises(ConstraintViolationError) as err:
        build_shift_operator(p, gc)
    assert err.value.violations
    assert err.value.violations == validate_coin_shift(p, gc).violations


@given(data=st.data())
def test_shift_build_on_an_in_range_table_is_a_permutation_or_a_violation(small_host, data):
    # Any in-range successor table with the recycled shift or any coin table
    # builds a bijection or reports the violating targets; no bare numpy
    # error escapes from the check.
    v, m = small_host.n_vertices, small_host.degree
    if data.draw(st.booleans()):
        succ = random_partition(small_host, data.draw(st.integers(0, 2**31 - 1))).succ
    else:
        cells = data.draw(st.lists(st.integers(0, v - 1), min_size=v * m, max_size=v * m))
        succ = np.array(cells, dtype=np.int64).reshape(v, m)
    p = Partition(small_host, succ)
    if data.draw(st.booleans()):
        gc = recycled_coin_shift(p)
    else:
        coins = data.draw(st.lists(st.integers(0, m - 1), min_size=v * m, max_size=v * m))
        gc = CoinShift(small_host, np.array(coins, dtype=np.int64).reshape(v, m))
    try:
        shift = build_shift_operator(p, gc)
    except ConstraintViolationError as err:
        assert err.violations == validate_coin_shift(p, gc).violations != []
    else:
        assert np.array_equal(np.sort(shift), np.arange(v * m))


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
    shift = build_shift_operator(p, recycled_coin_shift(p))
    s = state_from_terms(host_d1, [((-1, 0), 1, 1.0)])
    moved = shift_step(s, shift)
    w = host_d1.index_of((0, 1))
    # coin +1 moved up; the recycled coin re-emits the tuple's old +1 step
    assert moved.amps[w, 0] == pytest.approx(1.0)
    assert moved.time == 1


def test_step_results_are_read_only_states_of_the_same_host(host_d1):
    p = directional_partition(host_d1)
    shift = build_shift_operator(p, recycled_coin_shift(p))
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    mixed = coin_step(s, hadamard_coin())
    moved = shift_step(mixed, shift)
    for state, time in ((mixed, 0), (moved, 1)):
        assert type(state) is WalkState
        assert state.host is host_d1
        assert state.time == time
        assert state.amps.shape == (host_d1.n_vertices, 2)
        assert not state.amps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.amps[0, 0] = 1.0
    # A coin of another width makes amplitudes of another shape, refused as
    # WalkState refuses them.
    wide = np.ones((2, 3), dtype=np.complex128)
    v = host_d1.n_vertices
    expected = re.escape(f"amplitude array shape ({v}, 3), expected ({v}, 2)")
    with pytest.raises(ValidationError, match=expected):
        coin_step(s, wide)
    with pytest.raises(ValidationError, match=expected):
        WalkState(host_d1, s.amps @ wide)


def test_walk_states_calls_each_step_function_once_a_step(host_d1, step_calls):
    p = directional_partition(host_d1)
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    states = list(walk_states(p, recycled_coin_shift(p), hadamard_coin(), s, 17))
    assert [state.time for state in states] == list(range(18))
    assert step_calls == {"coin_step": 17, "shift_step": 17}


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


def test_evolve_rejects_a_coin_shift_from_an_equal_host():
    # Two window-21 hosts have the same shape, so only identity tells them apart.
    host, other = (iterate_line_digraph(make_bidirected_cycle(21), 1) for _ in range(2))
    p = directional_partition(host)
    foreign_gc = recycled_coin_shift(directional_partition(other))
    s = state_from_terms(host, balanced_origin_terms(host))
    with pytest.raises(ValidationError, match="coin shift lives on a different host"):
        evolve(p, foreign_gc, hadamard_coin(), s, 2)


def test_walk_states_rejects_a_partition_from_another_host_of_equal_size():
    # Depth 2 over a 15-cycle and depth 1 over a 30-cycle both have 60 vertices.
    host = iterate_line_digraph(make_bidirected_cycle(15), 2)
    other = iterate_line_digraph(make_bidirected_cycle(30), 1)
    assert host.n_vertices == other.n_vertices == 60
    p = directional_partition(host)
    gc = recycled_coin_shift(p)
    foreign = directional_partition(other)
    s = state_from_terms(host, balanced_origin_terms(host))
    with pytest.raises(ValidationError, match="partition and coin shift live on different hosts"):
        walk_states(foreign, gc, hadamard_coin(), s, 4)
    stream = walk_states(lambda t: foreign if t == 3 else p, gc, hadamard_coin(), s, 4)
    assert [next(stream).time for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ValidationError, match="partition and coin shift live on different hosts"):
        next(stream)


def test_walk_states_checks_the_start_and_the_window():
    # From the origin a window-9 host holds 2 steps: 40 would wrap around.
    host = iterate_line_digraph(make_bidirected_cycle(9), 1)
    p = reflect_transmit_partition(host)
    gc = carried_coin_shift(p)
    s = state_from_terms(host, balanced_origin_terms(host))
    for run in (
        lambda: walk_states(p, gc, hadamard_coin(), s, 40),
        lambda: evolve(p, gc, hadamard_coin(), s, 40),
    ):
        with pytest.raises(ValidationError, match="window 9 too small"):
            run()
    unchecked = walk_states(p, gc, hadamard_coin(), s, 40, enforce_window=False)
    assert len(list(unchecked)) == 41
    assert len(list(walk_states(p, gc, hadamard_coin(), s, 2))) == 3
    with pytest.raises(ValidationError, match="state norm"):
        walk_states(p, gc, hadamard_coin(), WalkState(host, 2 * s.amps, 0), 2)
    with pytest.raises(ValidationError, match="t_max must be >= 0"):
        walk_states(p, gc, hadamard_coin(), s, -1)


def test_walk_states_is_lazy(host_d1, monkeypatch):
    p = directional_partition(host_d1)
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    stepped = []
    real_coin_step = engine.coin_step

    def counting_coin_step(state, coin):
        stepped.append(state.time)
        return real_coin_step(state, coin)

    monkeypatch.setattr(engine, "coin_step", counting_coin_step)
    stream = walk_states(p, recycled_coin_shift(p), hadamard_coin(), s, 30)
    assert stepped == []
    assert next(stream) is s
    assert stepped == []
    assert next(stream).time == 1
    assert stepped == [0]


def test_walk_states_takes_a_per_step_partition(host_d1):
    p = directional_partition(host_d1)
    gc = recycled_coin_shift(p)
    s = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    asked = []

    def schedule(t):
        asked.append(t)
        return p

    stream = walk_states(schedule, gc, hadamard_coin(), s, 12)
    # Step 1's partition is checked at the call; each later one is asked
    # for just before its step.
    assert asked == [1]
    streamed = list(stream)
    kept = evolve(p, gc, hadamard_coin(), s, 12)
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


def _np_roll_recycled_walk(d, coin, initial, t_max, window):
    """recycled_coin_walk written with np.tensordot and np.roll."""
    psi = np.zeros((window,) + (2,) * (d + 1), dtype=np.complex128)
    for x, regs, amp in initial:
        psi[(x % window,) + tuple(0 if r == 1 else 1 for r in regs)] += amp
    out = [psi]
    for _ in range(t_max):
        psi = np.tensordot(psi, coin, axes=([d + 1], [0]))
        moved = np.empty_like(psi)
        for j, step in enumerate((1, -1)):
            moved[:, j, ...] = np.roll(psi[..., j], step, axis=0)
        psi = moved
        out.append(psi)
    return out


def _np_roll_reflect_transmit_walk(coin, initial, t_max, window):
    """reflect_transmit_walk written with np.tensordot and np.roll."""
    psi = np.zeros((window, 2, 2), dtype=np.complex128)
    for x0, x1, label, amp in initial:
        psi[x0 % window, 0 if x1 < x0 else 1, 0 if label == 1 else 1] += amp
    out = [psi]
    for _ in range(t_max):
        psi = np.tensordot(psi, coin, axes=([2], [0]))
        moved = np.empty_like(psi)
        moved[:, 1, 0] = np.roll(psi[:, 0, 0], -1)
        moved[:, 0, 0] = np.roll(psi[:, 1, 0], 1)
        moved[:, 0, 1] = np.roll(psi[:, 0, 1], 1)
        moved[:, 1, 1] = np.roll(psi[:, 1, 1], -1)
        psi = moved
        out.append(psi)
    return out


def _marginals(psis):
    return [engine._probabilities(psi) for psi in psis]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_oracle_walkers_equal_their_np_roll_form_bitwise(rng, d):
    # The walkers move amplitudes by slice copies and apply the coin through
    # one np.dot; both must give np.roll's and np.tensordot's exact bits.
    coin = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    n_regs = 2 ** (d + 1)
    amps = rng.normal(size=n_regs) + 1j * rng.normal(size=n_regs)
    amps /= np.linalg.norm(amps)
    regs = [tuple(1 - 2 * b for b in np.unravel_index(i, (2,) * (d + 1))) for i in range(n_regs)]
    initial = [(0, r, complex(a)) for r, a in zip(regs, amps)]
    got = recycled_coin_walk(d, coin, initial, 30, 71)
    want = _marginals(_np_roll_recycled_walk(d, coin, initial, 30, 71))
    assert np.stack(got).tobytes() == np.stack(want).tobytes()

    cells = [(-1, 1), (-1, -1), (1, 1), (1, -1)]
    amps = amps[:4] / np.linalg.norm(amps[:4])
    initial = [(0, x1, label, complex(a)) for (x1, label), a in zip(cells, amps)]
    got = reflect_transmit_walk(coin, initial, 30, 71)
    want = _marginals(_np_roll_reflect_transmit_walk(coin, initial, 30, 71))
    assert np.stack(got).tobytes() == np.stack(want).tobytes()


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


# A start state's norm^2 may be off by up to 100 * UNITARY_ATOL = 1e-10.
START_OFFSETS = pytest.mark.parametrize(
    "offset, refused", [(5e-11, False), (5e-10, True)], ids=["5e-11", "5e-10"]
)


@START_OFFSETS
def test_a_start_state_is_held_to_its_norm_bound(host_d1, offset, refused):
    scale = np.sqrt(1 + offset)
    terms = [(path, label, a * scale) for path, label, a in balanced_origin_terms(host_d1)]
    p = reflect_transmit_partition(host_d1)
    gc = carried_coin_shift(p)
    amps = state_from_terms(host_d1, balanced_origin_terms(host_d1)).amps
    start = WalkState(host_d1, amps * scale)  # only the shape is checked here
    for run in (
        lambda: state_from_terms(host_d1, terms),
        lambda: walk_states(p, gc, hadamard_coin(), start, 2),
    ):
        if refused:
            with pytest.raises(ValidationError, match="state norm"):
                run()
        else:
            run()


@START_OFFSETS
def test_the_oracle_walkers_hold_their_start_to_its_norm_bound(offset, refused):
    amp = np.sqrt(1 + offset)
    coin = hadamard_coin()
    for run in (
        lambda: recycled_coin_walk(1, coin, [(0, (1, 1), amp)], 3, 9),
        lambda: reflect_transmit_walk(coin, [(0, -1, 1, amp)], 3, 9),
    ):
        if refused:
            with pytest.raises(ValidationError, match="not normalized"):
                run()
        else:
            assert len(run()) == 4


@pytest.mark.parametrize("window, refused", [(81, True), (83, True), (85, False)])
def test_the_window_check_admits_minimal_window_and_nothing_below(window, refused):
    # At t_max 40 an origin start at depth 1 reaches +-41: minimal_window is 85.
    assert minimal_window(40, 1) == 85
    host = iterate_line_digraph(make_bidirected_cycle(window), 1)
    p = reflect_transmit_partition(host)
    start = state_from_terms(host, balanced_origin_terms(host))

    def run():
        return walk_states(p, carried_coin_shift(p), hadamard_coin(), start, 40)

    if refused:
        with pytest.raises(ValidationError, match=f"window {window} too small"):
            run()
    else:
        run()


@pytest.mark.parametrize("factor", [1.0 + 1e-9, np.nan])
def test_norm_drift_stops_the_run(host_d1, monkeypatch, factor):
    p = directional_partition(host_d1)
    start = state_from_terms(host_d1, balanced_origin_terms(host_d1))
    real_shift_step = engine.shift_step

    def leaky_shift_step(state, shift):
        moved = real_shift_step(state, shift)
        if moved.time < 3:
            return moved
        return WalkState(moved.host, moved.amps * factor, moved.time)

    monkeypatch.setattr(engine, "shift_step", leaky_shift_step)
    stream = walk_states(p, recycled_coin_shift(p), hadamard_coin(), start, 10)
    assert [next(stream).time for _ in range(3)] == [0, 1, 2]
    with pytest.raises(NumericalCheckError, match="t=3"):
        next(stream)


@pytest.mark.parametrize("window", [65, minimal_window(1500, 1)], ids=["260", "12020"])
def test_norm_squared_agrees_with_a_sum_of_squares(rng, window):
    # 260 amplitudes: a census probe state; 12,020: the host of a
    # --t-max 1500 simulate run, where a threaded OpenBLAS would split the
    # dot product.
    host = iterate_line_digraph(make_bidirected_cycle(window), 1)
    for _ in range(5):
        amps = rng.standard_normal((host.n_vertices, 2)) + 1j * rng.standard_normal(
            (host.n_vertices, 2)
        )
        amps /= np.linalg.norm(amps)
        state = WalkState(host, amps)
        assert amps.size in (260, 12020)
        want = np.add.reduce(np.square(amps.ravel().view(np.float64)))
        assert abs(state.norm_squared() - want) <= 1e-14


_OPENBLAS = sorted(
    (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so")
)


def _run_with_two_blas_threads(code: str) -> str:
    """Run ``code`` in a fresh interpreter after numpy's bundled OpenBLAS has
    been set to two threads, before memwalk is imported, and return its
    stdout.  ``blas`` and ``threads()`` read the library's thread count."""
    if not _OPENBLAS:
        pytest.skip("this numpy has no bundled OpenBLAS")
    setup = (
        "import ctypes, numpy\n"
        f"blas = ctypes.CDLL({str(_OPENBLAS[0])!r})\n"
        "blas.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]\n"
        "blas.scipy_openblas_set_num_threads64_.restype = None\n"
        "blas.scipy_openblas_get_num_threads64_.restype = ctypes.c_int\n"
        "threads = blas.scipy_openblas_get_num_threads64_\n"
        "blas.scipy_openblas_set_num_threads64_(2)\n"
        "assert threads() == 2\n"
    )
    src = Path(engine.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", setup + code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    return result.stdout


def test_a_walk_caps_numpys_openblas_at_one_thread():
    # The cap is set once, when memwalk.engine is imported.
    assert _run_with_two_blas_threads("import memwalk\nprint(threads())").split() == ["1"]


def test_a_forked_walk_runs_without_openblas_worker_threads():
    # The job walks a host of 12,020 cells, whose norm checks a threaded
    # OpenBLAS would split: after a fork its pool would start again, and its
    # worker would spin beside the walk.
    code = """
import os
from memwalk import (
    balanced_origin_terms, carried_coin_shift, experiments, hadamard_coin,
    iterate_line_digraph, make_bidirected_cycle, minimal_window,
    reflect_transmit_partition, state_from_terms, walk_states,
)
host = iterate_line_digraph(make_bidirected_cycle(minimal_window(1500, 1)), 1)
start = state_from_terms(host, balanced_origin_terms(host))
p = reflect_transmit_partition(host)
gc = carried_coin_shift(p)

def walk(job):
    for _ in walk_states(p, gc, hadamard_coin(), start, 3):
        pass
    return threads(), len(os.listdir("/proc/self/task"))

# Job 1 runs in the forked process, whose only thread runs the walk.
print(*experiments._spread(walk, [0, 1], 2)[1])
"""
    assert _run_with_two_blas_threads(code).split() == ["1", "1"]

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memwalk import (
    ConstraintViolationError,
    ValidationError,
    carried_coin_shift,
    directional_partition,
    enumerate_coin_shifts,
    named_partition,
    random_coin_shift,
    random_dicycle_factorization,
    random_partition,
    recycled_coin_shift,
    reflect_transmit_partition,
    validate_coin_shift,
)
from memwalk.coin_shift import CoinShift
from memwalk.partitions import PARTITION_KINDS


def test_recycled_is_vertex_only(host_d1):
    gc = recycled_coin_shift(directional_partition(host_d1))
    assert (gc.table[:, 0] == gc.table[:, 1]).all()


def test_recycled_emits_oldest_step(host_d1):
    gc = recycled_coin_shift(directional_partition(host_d1))
    v_up = host_d1.index_of((2, 3))    # oldest move +1
    v_down = host_d1.index_of((3, 2))  # oldest move -1
    assert gc.table[v_up, 0] == 0
    assert gc.table[v_down, 0] == 1


def test_recycled_valid_for_every_partition_kind(host_d1):
    # validity must not depend on the partition; sample widely
    for kind in PARTITION_KINDS:
        for seed in range(25):
            p = named_partition(host_d1, kind, seed)
            assert validate_coin_shift(p, recycled_coin_shift(p)).ok


@pytest.mark.parametrize("entry", [-1, 2])
def test_table_entries_outside_the_coin_range_are_rejected(host_d1, entry):
    table = np.zeros((host_d1.n_vertices, 2), dtype=np.int64)
    table[3, 1] = entry
    with pytest.raises(ValidationError, match="0..1"):
        CoinShift(host_d1, table)


def test_carried_is_identity_table(host_d1):
    p = reflect_transmit_partition(host_d1)
    gc = carried_coin_shift(p)
    assert (gc.table == np.arange(2)).all()
    assert validate_coin_shift(p, gc).ok


def test_carried_rejects_non_dicycle(host_d1):
    with pytest.raises(ConstraintViolationError) as err:
        carried_coin_shift(directional_partition(host_d1))
    assert len(err.value.violations) > 0
    with pytest.raises(ConstraintViolationError):
        carried_coin_shift(random_partition(host_d1, 0))


def test_carried_accepts_random_dicycles(host_d1):
    for seed in range(10):
        p = random_dicycle_factorization(host_d1, seed)
        assert validate_coin_shift(p, carried_coin_shift(p)).ok


def test_validator_counts_violating_targets(host_d1):
    p = reflect_transmit_partition(host_d1)
    table = np.zeros((host_d1.n_vertices, 2), dtype=np.int64)  # constant coin
    report = validate_coin_shift(p, CoinShift(host_d1, table))
    assert not report.ok
    # a constant coin shift starves every target of one coin value
    assert len(report.violations) == host_d1.n_vertices


def test_validator_equals_bijectivity(small_host, rng):
    # the validator must agree with flat-map bijectivity on arbitrary tables
    p = reflect_transmit_partition(small_host)
    v, m = small_host.n_vertices, 2
    for _ in range(300):
        table = rng.integers(0, m, size=(v, m))
        flat = p.succ * m + table
        bijective = len(np.unique(flat)) == v * m
        assert validate_coin_shift(p, CoinShift(small_host, table)).ok == bijective


def test_enumeration_count_and_brute_force(small_host):
    p = reflect_transmit_partition(small_host)
    shifts = enumerate_coin_shifts(p)
    v = small_host.n_vertices
    assert len(shifts) == 2**v
    enumerated = {s.table.tobytes() for s in shifts}
    assert len(enumerated) == 2**v
    # independent brute force over every possible table
    valid = 0
    for bits in itertools.product((0, 1), repeat=2 * v):
        table = np.array(bits, dtype=np.int64).reshape(v, 2)
        report = validate_coin_shift(p, CoinShift(small_host, table))
        if report.ok:
            valid += 1
            assert table.tobytes() in enumerated
    assert valid == len(shifts)


def test_enumeration_guard(host_d1):
    with pytest.raises(ValidationError):
        enumerate_coin_shifts(reflect_transmit_partition(host_d1))


def test_random_coin_shift_valid_and_deterministic(host_d1):
    p = random_partition(host_d1, 5)
    a = random_coin_shift(p, 99)
    b = random_coin_shift(p, 99)
    assert np.array_equal(a.table, b.table)
    assert validate_coin_shift(p, a).ok


def test_paired_vertices_share_out_neighborhoods(host_d1):
    v_count = host_d1.n_vertices
    for v in range(v_count):
        w = host_d1.twins[v]
        assert w != v
        assert w == (v + v_count // 2) % v_count  # the block labeling's pairs
        assert host_d1.twins[w] == v
        assert sorted(host_d1.out_neighbors[v]) == sorted(host_d1.out_neighbors[w])


def test_paired_vertices_differ_in_oldest_entry(host_d1):
    for v in range(host_d1.n_vertices):
        w = host_d1.twins[v]
        assert host_d1.labels[v][1:] == host_d1.labels[w][1:]
        assert host_d1.labels[v][0] != host_d1.labels[w][0]


def test_recycled_opposite_at_paired_vertices(host_d1):
    # the two in-neighbors of any target emit opposite coins, which is why
    # the recycled shift validates against every partition
    gc = recycled_coin_shift(directional_partition(host_d1))
    for v in range(host_d1.n_vertices):
        w = host_d1.twins[v]
        assert gc.table[v, 0] != gc.table[w, 0]


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_random_pairs_validate(small_host, seed):
    p = random_partition(small_host, seed)
    gc = random_coin_shift(p, seed + 1)
    assert validate_coin_shift(p, gc).ok

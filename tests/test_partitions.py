from __future__ import annotations

import itertools

import numpy as np
import pytest

from memwalk import (
    ValidationError,
    directional_partition,
    iterate_line_digraph,
    make_bidirected_cycle,
    named_partition,
    random_dicycle_factorization,
    random_partition,
    reflect_transmit_partition,
)
from memwalk.partitions import PARTITION_KINDS, Partition, coin_index


def covers_out_arcs(p: Partition) -> bool:
    """Each vertex's classes take its out-arcs exactly once."""
    return np.array_equal(np.sort(p.succ, 1), np.sort(p.host.out_neighbors, 1))


def test_coin_index_of_labels():
    assert coin_index(1, 2) == 0
    assert coin_index(-1, 2) == 1
    assert coin_index(3, 3) == 2
    with pytest.raises(ValidationError):
        coin_index(2, 2)
    with pytest.raises(ValidationError):
        coin_index(0, 3)


def test_directional_successors(host_d1):
    p = directional_partition(host_d1)
    n = host_d1.base_n
    v = host_d1.index_of((-1, 0))
    # class 0 advances the current position by +1, class 1 by -1
    assert host_d1.labels[p.succ[v, 0]] == (0, 1)
    assert host_d1.labels[p.succ[v, 1]] == (0, -1)
    v2 = host_d1.index_of((3, 2))
    assert host_d1.labels[p.succ[v2, 0]] == (2, 3)
    assert host_d1.labels[p.succ[v2, 1]] == (2, 1)
    assert p.kind == "directional"
    assert n % 2 == 1


def test_directional_lifts_to_depth_2(host_d2):
    p = directional_partition(host_d2)
    v = host_d2.index_of((-2, -1, 0))
    assert host_d2.labels[p.succ[v, 0]] == (-1, 0, 1)
    assert host_d2.labels[p.succ[v, 1]] == (-1, 0, -1)


def test_reflect_transmit_successors(host_d1):
    p = reflect_transmit_partition(host_d1)
    v = host_d1.index_of((-1, 0))
    # coin +1 reflects back toward where it came from
    assert host_d1.labels[p.succ[v, 0]] == (0, -1)
    # coin -1 transmits straight through
    assert host_d1.labels[p.succ[v, 1]] == (0, 1)
    w = host_d1.index_of((1, 0))
    assert host_d1.labels[p.succ[w, 0]] == (0, 1)
    assert host_d1.labels[p.succ[w, 1]] == (0, -1)


def test_reflect_transmit_needs_depth_1(host_d2):
    with pytest.raises(ValidationError):
        reflect_transmit_partition(host_d2)


def test_named_partition_dispatch(host_d1):
    assert named_partition(host_d1, "directional").kind == "directional"
    assert named_partition(host_d1, "reflect_transmit").kind == "reflect_transmit"
    p = named_partition(host_d1, "random", 7)
    assert (p.kind, p.seed) == ("random", 7)
    assert np.array_equal(p.succ, random_partition(host_d1, 7).succ)
    p = named_partition(host_d1, "random_dicycle", 7)
    assert (p.kind, p.seed) == ("random_dicycle", 7)
    assert np.array_equal(p.succ, random_dicycle_factorization(host_d1, 7).succ)
    with pytest.raises(ValidationError, match="needs a seed"):
        named_partition(host_d1, "random")
    with pytest.raises(ValidationError):
        named_partition(host_d1, "nope")


def test_dicycle_flags(host_d1):
    assert reflect_transmit_partition(host_d1).is_dicycle
    assert not directional_partition(host_d1).is_dicycle
    assert random_dicycle_factorization(host_d1, 3).is_dicycle


def test_validate_partition_all_kinds(host_d1):
    for kind in PARTITION_KINDS:
        assert covers_out_arcs(named_partition(host_d1, kind, 1))


def test_random_partition_deterministic(host_d1):
    a = random_partition(host_d1, 7)
    b = random_partition(host_d1, 7)
    assert np.array_equal(a.succ, b.succ)
    assert not np.array_equal(a.succ, random_partition(host_d1, 8).succ)


def test_random_partition_rows_are_out_neighbor_bijections(host_d1):
    p = random_partition(host_d1, 11)
    for v in range(host_d1.n_vertices):
        assert sorted(p.succ[v]) == sorted(host_d1.out_neighbors[v])


def test_random_partition_choice_frequencies(small_host):
    # with m=2 each vertex picks one of two bijections; check both appear
    # at close to equal rates across seeds
    flips = []
    for seed in range(400):
        p = random_partition(small_host, seed)
        flips.extend(p.succ[:, 0] == small_host.out_neighbors[:, 0])
    rate = np.mean(flips)
    assert abs(rate - 0.5) < 0.05


def test_partition_count_matches_enumeration(small_host):
    # all per-vertex bijections on the 6-vertex host: 2^6 valid partitions
    v = small_host.n_vertices
    count = 0
    for choice in itertools.product((False, True), repeat=v):
        succ = small_host.out_neighbors.copy()
        for i, flip in enumerate(choice):
            if flip:
                succ[i] = succ[i, ::-1]
        assert covers_out_arcs(Partition(small_host, succ, kind="custom"))
        count += 1
    assert count == 2**v


def test_random_dicycle_deterministic(host_d1):
    a = random_dicycle_factorization(host_d1, 13)
    b = random_dicycle_factorization(host_d1, 13)
    assert np.array_equal(a.succ, b.succ)


def test_class_matrix_sums_to_adjacency(host_d1):
    assert covers_out_arcs(reflect_transmit_partition(host_d1))


def test_partition_rejects_wrong_shape(host_d1):
    with pytest.raises(ValidationError):
        Partition(host_d1, np.zeros((3, 2), dtype=np.int64), kind="custom")

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from memwalk import graphs
from memwalk.graphs import RegularDigraph
from memwalk.partitions import PARTITION_KINDS, Partition, coin_index

from conftest import advance_label, reference_hosts, step_direction


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
    at = host_d1.index_of
    v = at((-1, 0))
    # class 0 advances the current position by +1, class 1 by -1
    assert p.succ[v].tolist() == [at((0, 1)), at((0, -1))]
    v2 = at((3, 2))
    assert p.succ[v2].tolist() == [at((2, 3)), at((2, 1))]
    assert p.kind == "directional"
    assert n % 2 == 1


def test_directional_lifts_to_depth_2(host_d2):
    p = directional_partition(host_d2)
    at = host_d2.index_of
    assert p.succ[at((-2, -1, 0))].tolist() == [at((-1, 0, 1)), at((-1, 0, -1))]


def test_reflect_transmit_successors(host_d1):
    p = reflect_transmit_partition(host_d1)
    at = host_d1.index_of
    # coin +1 reflects back toward where it came from, coin -1 transmits
    # straight through
    assert p.succ[at((-1, 0))].tolist() == [at((0, -1)), at((0, 1))]
    assert p.succ[at((1, 0))].tolist() == [at((0, 1)), at((0, -1))]


def test_reflect_transmit_needs_depth_1(host_d2):
    with pytest.raises(ValidationError):
        reflect_transmit_partition(host_d2)


def _directional_by_vertex(host, labels) -> np.ndarray:
    """The directional classes, built one vertex at a time: the reference."""
    index = {lab: i for i, lab in enumerate(labels)}
    n = host.base_n
    succ = np.empty((host.n_vertices, 2), dtype=np.int64)
    for v, lab in enumerate(labels):
        for k, s in enumerate((1, -1)):
            succ[v, k] = index[lab[1:] + (advance_label(lab[-1], s, n, host.centered),)]
    return succ


def _reflect_transmit_by_vertex(host, labels) -> np.ndarray:
    """The reflect/transmit classes, built one vertex at a time: the reference."""
    index = {lab: i for i, lab in enumerate(labels)}
    n = host.base_n
    succ = np.empty((host.n_vertices, 2), dtype=np.int64)
    for v, (a, b) in enumerate(labels):
        direction = step_direction(a, b, n)
        succ[v, 0] = index[(b, a)]
        succ[v, 1] = index[(b, advance_label(b, direction, n, host.centered))]
    return succ


def test_partitions_match_the_per_vertex_references():
    for host, labels in reference_hosts():
        if host.depth == 0:
            continue
        assert np.array_equal(directional_partition(host).succ, _directional_by_vertex(host, labels))
        if host.depth == 1:
            want = _reflect_transmit_by_vertex(host, labels)
            assert np.array_equal(reflect_transmit_partition(host).succ, want)


@pytest.mark.parametrize("build", [directional_partition, reflect_transmit_partition])
def test_position_partitions_refuse_a_host_that_is_no_line_digraph(build):
    # Depth 1 and degree 2, but both successors of each vertex lie a step up.
    out = np.array([[1, 1], [0, 0]], dtype=np.int64)
    host = RegularDigraph(out, np.array([[0, 1], [1, 2]]), base_n=5)
    with pytest.raises(ValidationError, match="not a line digraph of a cycle"):
        build(host)


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


def test_random_partition_matches_default_argsort_gather(host_d1):
    # The two-arc swap (m = 2) and the stable sort with its flat gather
    # (m = 3 here) reproduce the default-kind argsort and take_along_axis,
    # seed for seed, with Generator(PCG64(seed)) drawing default_rng(seed)'s
    # stream past 2^63 too.
    n = 7
    out = np.stack([(np.arange(n) + k) % n for k in (1, 2, 3)], axis=1)
    circulant = RegularDigraph(out, np.arange(n)[:, None], base_n=n)
    for host in (host_d1, circulant):
        for seed in [*range(100), 2**63 + 12345, 2**64 - 1]:
            draws = np.random.default_rng(seed).random((host.n_vertices, host.degree))
            perms = np.argsort(draws, axis=1)
            want = np.take_along_axis(host.out_neighbors, perms, axis=1).astype(np.int64)
            got = random_partition(host, seed).succ
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


def test_is_dicycle_rejects_out_of_range_entries(host_d1):
    # An out-of-range or non-integer table never becomes a Partition, so
    # is_dicycle only ever sees successors in 0..V-1.
    good = reflect_transmit_partition(host_d1).succ
    for bad in (-1, host_d1.n_vertices):
        succ = good.copy()
        succ[0, 0] = bad
        with pytest.raises(ValidationError, match="must lie in"):
            Partition(host_d1, succ, kind="custom")
    for dtype in (np.float64, np.uint64):
        with pytest.raises(ValidationError, match="signed integers"):
            Partition(host_d1, good.astype(dtype), kind="custom")


@given(data=st.data())
def test_partition_accepts_exactly_the_signed_tables_in_range(small_host, data):
    v, m = small_host.n_vertices, small_host.degree
    cells = data.draw(st.lists(st.integers(-2, v + 1), min_size=v * m, max_size=v * m))
    dtype = data.draw(st.sampled_from([np.int64, np.int32, np.int8, np.uint64, np.float64]))
    succ = np.array(cells).reshape(v, m).astype(dtype)
    if np.issubdtype(dtype, np.signedinteger) and all(0 <= c < v for c in cells):
        assert np.array_equal(Partition(small_host, succ).succ, succ)
    else:
        with pytest.raises(ValidationError):
            Partition(small_host, succ)


@pytest.mark.parametrize("bad", ["shared head", "out of range"])
def test_random_dicycle_rejects_a_matching_that_is_not_a_dicycle(monkeypatch, host_d1, bad):
    # A broken matching fails as a ValidationError: a shared head at the
    # dicycle check, an out-of-range successor when its Partition is built.
    out = host_d1.out_neighbors
    if bad == "shared head":
        # Twins share out-neighbor rows, so each column hits its heads twice.
        classes = [out[:, 0].copy(), out[:, 1].copy()]
    else:
        first = reflect_transmit_partition(host_d1).succ[:, 0].copy()
        second = reflect_transmit_partition(host_d1).succ[:, 1].copy()
        first[0] = -1
        classes = [first, second]
    monkeypatch.setattr(graphs, "dicycle_factorize_base", lambda g, seed=None: classes)
    message = "non-dicycle" if bad == "shared head" else "must lie in"
    with pytest.raises(ValidationError, match=message):
        random_dicycle_factorization(host_d1, 0)

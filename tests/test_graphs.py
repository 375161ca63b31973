from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memwalk import (
    InvalidGraphError,
    dicycle_factorize_base,
    iterate_line_digraph,
    line_digraph,
    make_bidirected_cycle,
    minimal_window,
    random_dicycle_factorization,
)
from memwalk.graphs import (
    RegularDigraph,
    _perfect_matching,
    advance_label,
    centered_label,
    centered_positions,
    current_position,
    step_direction,
)


def test_bidirected_cycle_adjacency_c3():
    g = make_bidirected_cycle(3)
    # every pair of distinct vertices is adjacent both ways on C3
    assert np.array_equal(np.sort(g.out_neighbors, 1), [[1, 2], [0, 2], [0, 1]])


def test_bidirected_cycle_adjacency_c5():
    g = make_bidirected_cycle(5)
    x = np.arange(5)
    assert np.array_equal(g.out_neighbors, np.stack([(x + 1) % 5, (x - 1) % 5], 1))
    assert g.degree == 2
    assert g.depth == 0


def test_too_small_cycle_rejected():
    with pytest.raises(InvalidGraphError):
        make_bidirected_cycle(2)


def test_centered_labels_odd_cycle():
    g = make_bidirected_cycle(5)
    assert [lab[0] for lab in g.labels] == [0, 1, 2, -2, -1]
    assert g.centered


def test_centered_label_helper():
    assert centered_label(0, 7) == 0
    assert centered_label(3, 7) == 3
    assert centered_label(4, 7) == -3
    assert centered_label(6, 7) == -1


def test_step_direction():
    assert step_direction(0, 1, 7) == 1
    assert step_direction(1, 0, 7) == -1
    assert step_direction(3, -3, 7) == 1  # wraps through the centered edge
    with pytest.raises(ValueError):
        step_direction(0, 2, 7)


def test_advance_label_centered():
    assert advance_label(3, 1, 7, True) == -3
    assert advance_label(-3, -1, 7, True) == 3
    assert advance_label(2, 1, 9, True) == 3


def test_minimal_window_is_odd_and_sufficient():
    for t_max in (0, 1, 10, 200):
        for d in (1, 2, 3):
            n = minimal_window(t_max, d)
            assert n % 2 == 1
            # the farthest initial tuple entry d plus t_max steps stays inside
            assert d + t_max <= n // 2 - 1


def test_line_digraph_vertex_count_and_labels(cycle5):
    lg = line_digraph(cycle5, dicycle_factorize_base(cycle5))
    assert lg.n_vertices == 10  # one vertex per arc of C5
    assert lg.degree == 2
    assert lg.depth == 1
    # labels are (tail, head) pairs of adjacent positions
    for a, b in lg.labels:
        assert step_direction(a, b, 5) in (-1, 1)
    assert len(set(lg.labels)) == 10


def test_line_digraph_arcs_match_direct_construction(cycle5):
    # independent definition: vertices are arcs (a, b); (a, b) -> (b, c)
    lg = line_digraph(cycle5, dicycle_factorize_base(cycle5))
    expected = set()
    for a, b in lg.labels:
        for k in range(2):
            c = advance_label(b, 1 if k == 0 else -1, 5, True)
            expected.add(((a, b), (b, c)))
    actual = set()
    for v in range(lg.n_vertices):
        for w in lg.out_neighbors[v]:
            actual.add((lg.labels[v], lg.labels[int(w)]))
    assert actual == expected


def test_line_digraph_block_rows_identical(cycle5):
    # vertices u and u + N share out-neighborhoods by construction
    lg = line_digraph(cycle5, dicycle_factorize_base(cycle5))
    rows = lg.out_neighbors
    n = cycle5.n_vertices
    for k in range(1, lg.degree):
        assert np.array_equal(rows[k * n : (k + 1) * n], rows[:n])


def test_iterated_line_digraph_counts(cycle5):
    for d in (1, 2, 3):
        g = iterate_line_digraph(cycle5, d)
        assert g.n_vertices == 5 * 2**d
        assert g.depth == d
        assert all(len(lab) == d + 1 for lab in g.labels)


def test_iterate_depth_zero_is_identity(cycle5):
    assert iterate_line_digraph(cycle5, 0) is cycle5


def test_tuple_labels_trace_adjacent_paths(host_d2):
    n = host_d2.base_n
    for lab in host_d2.labels:
        for a, b in zip(lab, lab[1:]):
            assert step_direction(a, b, n) in (-1, 1)
    assert len(set(host_d2.labels)) == host_d2.n_vertices


def test_line_digraph_edges_follow_path_overlap(host_d1):
    # arc u -> w exists iff w's tuple is u's tuple shifted by one step
    for v in range(host_d1.n_vertices):
        for w in host_d1.out_neighbors[v]:
            assert host_d1.labels[int(w)][:-1] == host_d1.labels[v][1:]


def test_dicycle_factorization_classes_are_permutations(cycle5):
    classes = dicycle_factorize_base(cycle5)
    assert len(classes) == 2
    arcs = set()
    for perm in classes:
        assert sorted(perm) == list(range(5))
        for u, w in enumerate(perm):
            assert int(w) in cycle5.out_neighbors[u]
            arcs.add((u, int(w)))
    assert len(arcs) == 10  # exact partition of the arc set


def test_dicycle_factorization_seeded_deterministic(cycle5):
    a = dicycle_factorize_base(cycle5, seed=5)
    b = dicycle_factorize_base(cycle5, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_dicycle_factorization_on_line_digraph_brute_check():
    host = iterate_line_digraph(make_bidirected_cycle(7), 1)
    for seed in range(5):
        classes = dicycle_factorize_base(host, seed=seed)
        for perm in classes:
            # each column of the class matrix carries exactly one arc
            counts = np.bincount(perm, minlength=host.n_vertices)
            assert (counts == 1).all()


def test_class_matrices_sum_to_adjacency(cycle5):
    host = iterate_line_digraph(cycle5, 1)
    classes = dicycle_factorize_base(host, seed=0)
    # together the classes take each vertex's out-arcs exactly once
    arcs = np.sort(np.stack(classes, axis=1), axis=1)
    assert np.array_equal(arcs, np.sort(host.out_neighbors, axis=1))


def test_centered_positions():
    assert list(centered_positions(7)) == [-3, -2, -1, 0, 1, 2, 3]


def test_current_position(host_d2):
    for lab in host_d2.labels:
        assert current_position(lab) == lab[-1]


def test_index_of_roundtrip(host_d1):
    for v, lab in enumerate(host_d1.labels):
        assert host_d1.index_of(lab) == v
    with pytest.raises(KeyError):
        host_d1.index_of((999, 1000))


@given(
    n=st.integers(min_value=5, max_value=31).filter(lambda v: v % 2 == 1),
    d=st.integers(min_value=1, max_value=2),
)
def test_iterated_hosts_are_regular_both_ways(n, d):
    g = iterate_line_digraph(make_bidirected_cycle(n), d)
    assert g.out_neighbors.shape == (n * 2**d, 2)
    indeg = np.bincount(g.out_neighbors.ravel(), minlength=g.n_vertices)
    assert (indeg == 2).all()


# -- pinned sampler streams ------------------------------------------------------
# Seeded samplers keep their exact random stream.  The digests below were
# recorded from the original Kuhn-matching sampler (per-row rng.permutation
# shuffles, numpy visited arrays), before it was rewritten for speed; any
# change to them means a seed now yields a different factorization.


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def test_random_dicycle_stream_is_pinned():
    host = iterate_line_digraph(make_bidirected_cycle(minimal_window(200, 1)), 1)
    succs = [random_dicycle_factorization(host, s).succ for s in range(50)]
    assert _digest(succs) == (
        "b00768db5b6ae53daf43a7e49baffa2c06dd28384781fd5c339970d930e42fa8"
    )


def test_unseeded_factorization_is_pinned():
    # seed=None is the path iterate_line_digraph takes for every host
    host = iterate_line_digraph(make_bidirected_cycle(minimal_window(200, 1)), 1)
    assert _digest(dicycle_factorize_base(host)) == (
        "887efb54d0373cf4182f5e6dfadb8cdbfebdee916170844485290696d4628448"
    )
    d2 = iterate_line_digraph(make_bidirected_cycle(minimal_window(30, 2)), 2)
    h = hashlib.sha256(np.ascontiguousarray(d2.out_neighbors, dtype="<i8").tobytes())
    h.update(repr(d2.labels).encode())
    assert h.hexdigest() == (
        "152ab311404d6a391cd77787e1c5762f14c7720a81d4b0ba00a5cb7afb5107d9"
    )


def test_degree_3_factorization_stream_is_pinned():
    # rows of width 3, 2 and 1 are shuffled in turn on an m = 3 host
    n = 11
    idx = np.arange(n)
    out = np.stack([(idx + 1) % n, (idx + 2) % n, (idx + 5) % n], axis=1)
    g = RegularDigraph(out.astype(np.int64), tuple((int(x),) for x in idx), base_n=n)
    perms = [perm for s in [None, *range(50)] for perm in dicycle_factorize_base(g, s)]
    assert _digest(perms) == (
        "c1376b75a5ff2eb595d990198a267baef21b49ae7cec048394ce715260f74b87"
    )


def test_host_caches_match_labels(host_d2):
    offset = (host_d2.base_n - 1) // 2
    for v, lab in enumerate(host_d2.labels):
        assert host_d2.position_index[v] == current_position(lab) + offset
        assert host_d2.oldest_steps[v] == step_direction(lab[0], lab[1], host_d2.base_n)
    assert host_d2.position_index is host_d2.position_index


def _circulant_3(n: int = 11) -> RegularDigraph:
    idx = np.arange(n)
    out = np.stack([(idx + 1) % n, (idx + 2) % n, (idx + 5) % n], axis=1)
    return RegularDigraph(out.astype(np.int64), tuple((int(x),) for x in idx), base_n=n)


def _kuhn_factorization(g: RegularDigraph, seed: int | None) -> list[np.ndarray]:
    # The sampler as it was: one Kuhn matching per class, each removing its
    # matched arcs before the next.
    rng = np.random.default_rng(seed) if seed is not None else None
    remaining = g.out_neighbors.tolist()
    classes = []
    for _ in range(g.degree):
        perm = _perfect_matching(remaining, rng)
        classes.append(perm)
        for row, w in zip(remaining, perm.tolist()):
            row.remove(w)
    return classes


@pytest.mark.parametrize(
    "window, depth, base_seed",
    [(65, 1, None), (8, 1, None), (9, 2, 3), (4, 2, None), (21, 3, 7), (7, 0, None)],
)
def test_factorization_matches_kuhn_reference(window, depth, base_seed):
    host = iterate_line_digraph(make_bidirected_cycle(window), depth, seed=base_seed)
    assert (host.twins is None) == (depth == 0)
    # Past 2^63 too: the sampler builds Generator(PCG64(seed)), the
    # reference default_rng(seed).
    for seed in [None, *range(200), 2**63 + 12345, 2**64 - 1]:
        got = dicycle_factorize_base(host, seed)
        want = _kuhn_factorization(host, seed)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == np.int64
            assert np.array_equal(a, b), (seed, window, depth)


def test_degree_3_factorization_matches_kuhn_reference():
    g = _circulant_3()
    for seed in [None, *range(50), 2**63 + 12345, 2**64 - 1]:
        for a, b in zip(dicycle_factorize_base(g, seed), _kuhn_factorization(g, seed)):
            assert np.array_equal(a, b)


def test_twins_only_on_k22_block_hosts(host_d1):
    assert make_bidirected_cycle(5).twins is None
    assert make_bidirected_cycle(7).twins is None
    assert _circulant_3().twins is None
    twins = host_d1.twins
    assert twins is host_d1.twins
    assert not twins.flags.writeable
    with pytest.raises(ValueError):
        twins[0] = 0


def test_line_digraph_factorizations_are_uniform():
    # 3 K_{2,2} blocks, 8 factorizations, each drawn with probability 1/8
    host = iterate_line_digraph(make_bidirected_cycle(3), 1)
    counts: dict[bytes, int] = {}
    for seed in range(4000):
        key = random_dicycle_factorization(host, seed).succ.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 8
    assert all(400 <= c <= 600 for c in counts.values()), sorted(counts.values())

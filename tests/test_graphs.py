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
from memwalk.errors import FactorizationError
from memwalk.graphs import (
    RegularDigraph,
    _check_factorization,
    _perfect_matching,
    centered_positions,
)

from conftest import advance_label, reference_hosts, seeded_host, step_direction


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
    assert g.paths.tolist() == [[0], [1], [2], [-2], [-1]]
    assert g.centered
    assert make_bidirected_cycle(4).paths.tolist() == [[0], [1], [2], [3]]


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
    # paths are (tail, head) pairs of adjacent positions
    assert lg.paths.shape == (10, 2)
    for a, b in lg.paths.tolist():
        assert step_direction(a, b, 5) in (-1, 1)
    assert len(np.unique(lg.paths, axis=0)) == 10


def test_line_digraph_arcs_match_direct_construction(cycle5):
    # independent definition: vertices are arcs (a, b); (a, b) -> (b, c)
    lg = line_digraph(cycle5, dicycle_factorize_base(cycle5))
    labels = [tuple(path) for path in lg.paths.tolist()]
    expected = set()
    for a, b in labels:
        for k in range(2):
            c = advance_label(b, 1 if k == 0 else -1, 5, True)
            expected.add(((a, b), (b, c)))
    actual = set()
    for v in range(lg.n_vertices):
        for w in lg.out_neighbors[v]:
            actual.add((labels[v], labels[int(w)]))
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
        assert g.paths.shape == (5 * 2**d, d + 1)


def test_iterate_depth_zero_is_identity(cycle5):
    assert iterate_line_digraph(cycle5, 0) is cycle5


def test_tuple_labels_trace_adjacent_paths(host_d2):
    n = host_d2.base_n
    for path in host_d2.paths.tolist():
        for a, b in zip(path, path[1:]):
            assert step_direction(a, b, n) in (-1, 1)
    assert len(np.unique(host_d2.paths, axis=0)) == host_d2.n_vertices


def test_line_digraph_edges_follow_path_overlap(host_d1):
    # arc u -> w exists iff w's path is u's path shifted by one step
    paths = host_d1.paths
    for v in range(host_d1.n_vertices):
        for w in host_d1.out_neighbors[v]:
            assert paths[w, :-1].tolist() == paths[v, 1:].tolist()


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


def test_index_of_roundtrip(host_d1):
    for v, path in enumerate(host_d1.paths.tolist()):
        assert host_d1.index_of(path) == v
        assert host_d1.index_of(tuple(path)) == v


@pytest.mark.parametrize(
    "path",
    [(999, 1000), (0, 2), (0,), (-1, 0, 1), (), (10**30, 0), (2**63, 0), ("a", 0)],
    ids=["absent", "not-adjacent", "too-short", "too-long", "empty", "past-int64",
         "past-int64-by-one", "not-a-number"],
)
def test_index_of_raises_key_error_for_a_path_no_vertex_has(host_d1, path):
    with pytest.raises(KeyError):
        host_d1.index_of(path)


def test_paths_are_read_only_and_one_per_vertex(cycle5):
    assert not cycle5.paths.flags.writeable
    with pytest.raises(ValueError):
        cycle5.paths[0, 0] = 1
    out = np.array(cycle5.out_neighbors)
    for paths in (np.zeros((4, 1), np.int64), np.zeros((5, 0), np.int64), np.zeros(5, np.int64)):
        with pytest.raises(InvalidGraphError):
            RegularDigraph(out, paths, base_n=5)


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
    h.update(repr(tuple(map(tuple, d2.paths.tolist()))).encode())
    assert h.hexdigest() == (
        "152ab311404d6a391cd77787e1c5762f14c7720a81d4b0ba00a5cb7afb5107d9"
    )


def test_degree_3_factorization_stream_is_pinned():
    # rows of width 3, 2 and 1 are shuffled in turn on an m = 3 host
    n = 11
    idx = np.arange(n)
    out = np.stack([(idx + 1) % n, (idx + 2) % n, (idx + 5) % n], axis=1)
    g = RegularDigraph(out.astype(np.int64), idx[:, None], base_n=n)
    perms = [perm for s in [None, *range(50)] for perm in dicycle_factorize_base(g, s)]
    assert _digest(perms) == (
        "c1376b75a5ff2eb595d990198a267baef21b49ae7cec048394ce715260f74b87"
    )


def test_host_caches_match_labels(host_d2):
    offset = (host_d2.base_n - 1) // 2
    for v, lab in enumerate(host_d2.paths.tolist()):
        assert host_d2.position_index[v] == lab[-1] + offset
        assert host_d2.oldest_steps[v] == step_direction(lab[0], lab[1], host_d2.base_n)
    assert host_d2.position_index is host_d2.position_index
    assert host_d2.oldest_steps is host_d2.oldest_steps


def test_hosts_match_the_path_tuple_references():
    for host, labels in reference_hosts():
        n, depth = host.base_n, host.depth
        assert host.paths.dtype == np.int64
        assert tuple(map(tuple, host.paths.tolist())) == labels, (n, depth)
        # a vertex's index from its path, as the tuple-to-index dict gave it
        assert [host.index_of(lab) for lab in labels] == list(range(len(labels)))
        offset = (n - 1) // 2 if host.centered else 0
        assert host.position_index.tolist() == [lab[-1] + offset for lab in labels]
        if depth:
            want = [step_direction(lab[0], lab[1], n) for lab in labels]
            assert host.oldest_steps.tolist() == want


def test_oldest_steps_refuse_non_adjacent_entries():
    out = np.array([[1, 2], [2, 0], [0, 1]], dtype=np.int64)
    host = RegularDigraph(out, np.array([[0, 1], [1, 2], [0, 2]]), base_n=7)
    with pytest.raises(ValueError, match="labels 0 and 2 are not adjacent on a 7-cycle"):
        host.oldest_steps


@pytest.mark.parametrize(
    "classes, message",
    [
        (lambda c: c[:1], "expected 2 classes, got 1"),
        (lambda c: [c[0][:-1], c[1]], "class size does not match vertex count"),
        (lambda c: [np.zeros(5, np.int64), c[1]], "class is not a permutation"),
        # vertices 2 and 3 both leave on a non-arc: the first is reported
        (lambda c: [c[0][[0, 1, 3, 2, 4]], c[1]], r"\(2, 4\) is not an arc"),
        (lambda c: [c[0], c[0]], "classes do not partition the arc set"),
    ],
    ids=["count", "size", "permutation", "arc", "partition"],
)
def test_check_factorization_messages(cycle5, classes, message):
    with pytest.raises(FactorizationError, match=message):
        _check_factorization(cycle5, classes(dicycle_factorize_base(cycle5)))


def _circulant_3(n: int = 11) -> RegularDigraph:
    idx = np.arange(n)
    out = np.stack([(idx + 1) % n, (idx + 2) % n, (idx + 5) % n], axis=1)
    return RegularDigraph(out.astype(np.int64), idx[:, None], base_n=n)


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
    host = seeded_host(make_bidirected_cycle(window), depth, base_seed)
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

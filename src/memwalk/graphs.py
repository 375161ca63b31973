"""Regular digraphs, dicycle factorizations, and iterated line digraphs.

A line-digraph vertex is a d-step walk of the base graph, stored as one row
of the host's ``paths`` array (oldest position first).  Construction uses a
block labeling derived from a dicycle factorization {D_1, ..., D_m} of the
current level: block k, offset u holds the arc of D_k that ends at u.  Under
that labeling the adjacency matrix of the next level consists of m identical
block-rows (M(D_1) ... M(D_m)), which is what the coin-shift pairing logic in
the rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FactorizationError, InvalidGraphError, ValidationError

__all__ = [
    "RegularDigraph",
    "make_bidirected_cycle",
    "dicycle_factorize_base",
    "line_digraph",
    "iterate_line_digraph",
    "minimal_window",
    "centered_positions",
]


@dataclass(frozen=True, eq=False)
class RegularDigraph:
    """A simple m-in/m-out-regular digraph with ordered out-neighbor lists.

    Attributes
    ----------
    out_neighbors:
        Integer array of shape (V, m); row v lists v's out-neighbors.  The
        column order is part of the graph's identity (it fixes the block
        labeling of deeper line digraphs).
    paths:
        Integer array of shape (V, d + 1); row v is the walk vertex v
        abbreviates, oldest base-graph position first.  Entries are
        base-graph positions, in centered coordinates when ``centered`` is
        set.  Depth-0 vertices are one-entry rows.
    base_n:
        Vertex count of the underlying base graph the paths refer to.
    centered:
        Whether base positions are reported in a centered window
        [-(base_n-1)/2, (base_n-1)/2] (odd base_n only).
    """

    out_neighbors: np.ndarray
    paths: np.ndarray
    base_n: int
    centered: bool = False

    def __post_init__(self):
        if self.paths.ndim != 2 or self.paths.shape[1] < 1 or (
            self.paths.shape[0] != self.out_neighbors.shape[0]
        ):
            raise InvalidGraphError(
                f"paths of shape {self.paths.shape} do not give one path per"
                f" vertex of {self.out_neighbors.shape[0]}"
            )
        self.out_neighbors.flags.writeable = False
        self.paths.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return self.out_neighbors.shape[0]

    @property
    def degree(self) -> int:
        return self.out_neighbors.shape[1]

    @property
    def depth(self) -> int:
        """How many line-digraph iterations produced this graph."""
        return self.paths.shape[1] - 1

    def index_of(self, path) -> int:
        """Vertex index of a path, oldest position first; KeyError if no
        vertex has it, including a path of another length and one with an
        entry outside int64 (which numpy holds as an object)."""
        row = np.asarray(path)
        if row.shape == self.paths.shape[1:] and row.dtype.kind in "biuf":
            hits = np.flatnonzero((self.paths == row).all(axis=1))
            if hits.size:
                return int(hits[0])
        raise KeyError(tuple(path))

    @cached_property
    def oldest_steps(self) -> np.ndarray:
        """Direction (+1 or -1) of each vertex's oldest recorded cycle step.

        Needs depth >= 1 over a cycle; ValueError if a path's first two
        entries are not cycle-adjacent.
        """
        n = self.base_n
        a, b = self.paths[:, 0], self.paths[:, 1]
        delta = (b - a) % n
        bad = np.flatnonzero((delta != 1) & (delta != n - 1))
        if bad.size:
            v = bad[0]
            raise ValueError(f"labels {a[v]} and {b[v]} are not adjacent on a {n}-cycle")
        steps = np.where(delta == 1, 1, -1)
        steps.flags.writeable = False
        return steps

    @cached_property
    def center_arcs(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """The vertices (x-1, x) and, in a tuple, (x, x+1) for x = -1, 0, +1:
        the arcs into and out of the three center positions of a depth-1
        host.  ValidationError if the host is not depth 1 or lacks one."""
        if self.depth != 1:
            raise ValidationError(f"center arcs need a depth-1 host, got depth {self.depth}")
        try:
            sources = np.array([self.index_of((x - 1, x)) for x in (-1, 0, 1)])
            targets = tuple(self.index_of((x, x + 1)) for x in (-1, 0, 1))
        except KeyError as missing:
            raise ValidationError(f"host has no vertex {missing.args[0]}") from None
        sources.flags.writeable = False
        return sources, targets

    @cached_property
    def position_index(self) -> np.ndarray:
        """Each vertex's current position as an index into ``positions``."""
        offset = (self.base_n - 1) // 2 if self.centered else 0
        idx = (self.paths[:, -1] + offset).astype(np.intp)
        idx.flags.writeable = False
        return idx

    @cached_property
    def positions(self) -> np.ndarray:
        """The sorted position window: centered_positions(base_n) for
        centered hosts, 0..base_n-1 otherwise."""
        positions = (
            centered_positions(self.base_n) if self.centered else np.arange(self.base_n)
        )
        positions.flags.writeable = False
        return positions

    @cached_property
    def columns(self) -> np.ndarray:
        """columns[v, k] = k: the column index of each cell of a (V, m) table
        laid out like ``out_neighbors``."""
        cols = np.tile(np.arange(self.degree, dtype=np.int64), (self.n_vertices, 1))
        cols.flags.writeable = False
        return cols

    @cached_property
    def twins(self) -> np.ndarray | None:
        """The other vertex of each vertex's K_{2,2} block, or None.

        On an m = 2 host where vertices pair up with equal out-neighbor sets
        and every in-degree is 2, the out/in incidence graph is a disjoint
        union of K_{2,2} blocks, one per shared out-neighbor set; twins[v] is
        the vertex v shares its block with.  Every line digraph of an m = 2
        digraph has this shape (the two arcs into a head share its
        continuations); a bidirected cycle with more than four vertices does
        not.
        """
        n = self.n_vertices
        if self.degree != 2 or n % 2:
            return None
        if (np.bincount(self.out_neighbors.ravel(), minlength=n) != 2).any():
            return None
        rows = np.sort(self.out_neighbors, axis=1)
        order = np.lexsort((rows[:, 1], rows[:, 0]))
        keys = rows[order]
        if (keys[0::2] != keys[1::2]).any():
            return None
        if (keys[1:-1:2] == keys[2::2]).all(axis=1).any():
            return None  # a third row shares a key
        twins = np.empty(n, dtype=np.int64)
        twins[order[0::2]] = order[1::2]
        twins[order[1::2]] = order[0::2]
        twins.flags.writeable = False
        return twins


# -- position bookkeeping on the cycle surrogate -------------------------------


def minimal_window(t_max: int, depth: int) -> int:
    """Smallest window that keeps a t_max-step origin walk off the seam."""
    return 2 * t_max + 2 * depth + 3


def centered_positions(n: int) -> np.ndarray:
    """Sorted centered positions of an odd-n window."""
    if n % 2 == 0:
        raise InvalidGraphError(f"centered windows need odd n, got {n}")
    half = (n - 1) // 2
    return np.arange(-half, half + 1)


# -- constructors ---------------------------------------------------------------


def make_bidirected_cycle(n: int) -> RegularDigraph:
    """The 2-regular digraph on n vertices with arcs x -> x+-1 (mod n).

    Odd n yields a centered line surrogate: positions are reported in
    [-(n-1)/2, (n-1)/2] and walks that never reach the seam behave exactly
    like walks on the infinite line.
    """
    if n < 3:
        raise InvalidGraphError(f"bidirected cycle needs n >= 3, got {n}")
    idx = np.arange(n, dtype=np.int64)
    out = np.stack([(idx + 1) % n, (idx - 1) % n], axis=1)
    centered = n % 2 == 1
    # A centered window reports the vertices past (n-1)/2 as negative.
    paths = np.where(idx > (n - 1) // 2, idx - n, idx) if centered else idx
    return RegularDigraph(out, paths[:, None], base_n=n, centered=centered)


# -- dicycle factorization -------------------------------------------------------


def _perfect_matching(adj: list[list[int]], rng: np.random.Generator | None) -> np.ndarray:
    """One perfect matching of the bipartite out/in incidence graph.

    adj[u] lists the still-unassigned out-neighbors of u.  Kuhn's augmenting
    paths with an explicit stack; regular bipartite graphs always admit a
    perfect matching, so failure indicates a caller bug.
    """
    n = len(adj)
    if rng is not None:
        # Shuffles each row in turn: the same draws as rng.permutation per row.
        adj = rng.permuted(np.array(adj, dtype=np.int64), axis=1).tolist()
        order = rng.permutation(n).tolist()
    else:
        order = range(n)

    match_left = [-1] * n   # left u -> right w
    match_right = [-1] * n  # right w -> left u
    # visited[w] == stamp marks w as seen by the current start's search.
    visited = [0] * n

    for stamp, start in enumerate(order, 1):
        if match_left[start] >= 0:
            continue
        # Iterative DFS over alternating paths: stack holds (left vertex,
        # index of the next neighbor to try).
        stack = [(start, 0)]
        path: list[tuple[int, int]] = []  # (left, right) tentative pairs
        while stack:
            u, i = stack.pop()
            advanced = False
            while i < len(adj[u]):
                w = adj[u][i]
                i += 1
                if visited[w] == stamp:
                    continue
                visited[w] = stamp
                path.append((u, w))
                if match_right[w] < 0:
                    # Augment along the recorded path.
                    for lu, rw in path:
                        match_left[lu] = rw
                        match_right[rw] = lu
                    stack.clear()
                    path.clear()
                    advanced = True
                    break
                stack.append((u, i))
                stack.append((match_right[w], 0))
                advanced = True
                break
            if not advanced and path:
                path.pop()
        if match_left[start] < 0:
            raise FactorizationError("no perfect matching in a regular graph (bug)")
    return np.array(match_left, dtype=np.int64)


def _twin_factorization(
    g: RegularDigraph, twins: np.ndarray, rng: np.random.Generator | None
) -> list[np.ndarray]:
    """_perfect_matching's first class and its complement, in closed form.

    Kuhn runs on each K_{2,2} block of the incidence graph on its own.  The
    earlier twin in the augmenting order takes the first entry of its
    shuffled row; the later twin then takes the first entry of its own row,
    and when that arc is the earlier twin's, Kuhn's augmenting path moves
    the earlier twin to its other arc.  So the later twin keeps its first
    entry and the earlier twin takes the remaining arc.  The draws are
    _perfect_matching's, so every seed gives the same factorization.
    """
    n = g.n_vertices
    adj = np.asarray(g.out_neighbors, dtype=np.int64)
    if rng is None:
        rank = np.arange(n)
    else:
        adj = rng.permuted(adj, axis=1)
        rank = np.empty(n, dtype=np.int64)
        rank[rng.permutation(n)] = np.arange(n)
    head = adj[:, 0]
    rowsum = head + adj[:, 1]  # twins exist only at m = 2
    first = np.where(rank > rank[twins], head, rowsum - head[twins])
    return [first, rowsum - first]


def dicycle_factorize_base(g: RegularDigraph, seed: int | None = None) -> list[np.ndarray]:
    """Split E(g) into m arc-disjoint spanning permutations (dicycles).

    Returns m arrays perm_k with perm_k[v] the class-k successor of v.  With
    seed=None the extraction is deterministic (greedy in natural order): on a
    bidirected cycle this yields the two rotations.  A seed randomizes the
    augmenting order, sampling other factorizations where they exist.

    Hosts made of K_{2,2} blocks (``g.twins``, every line digraph of an
    m = 2 host) take a closed form of the matching; other hosts run Kuhn's
    matching for the first m - 1 classes, and the last class is the one arc
    each vertex has left.
    """
    # default_rng(seed)'s stream, minus its argument checks.
    rng = np.random.Generator(np.random.PCG64(seed)) if seed is not None else None
    twins = g.twins
    if twins is not None:
        return _twin_factorization(g, twins, rng)
    remaining = g.out_neighbors.tolist()
    classes: list[np.ndarray] = []
    for _ in range(g.degree - 1):
        perm = _perfect_matching(remaining, rng)
        classes.append(perm)
        for row, w in zip(remaining, perm.tolist()):
            row.remove(w)
    classes.append(np.array([row[0] for row in remaining], dtype=np.int64))
    return classes


def _check_factorization(g: RegularDigraph, classes: list[np.ndarray]) -> None:
    if len(classes) != g.degree:
        raise FactorizationError(
            f"expected {g.degree} classes, got {len(classes)}"
        )
    for perm in classes:
        if len(perm) != g.n_vertices:
            raise FactorizationError("class size does not match vertex count")
        if not np.array_equal(np.sort(perm), np.arange(g.n_vertices)):
            raise FactorizationError("class is not a permutation of the vertices")
        off_arc = np.flatnonzero(~(g.out_neighbors == np.asarray(perm)[:, None]).any(axis=1))
        if off_arc.size:
            v = off_arc[0]
            raise FactorizationError(f"({v}, {int(perm[v])}) is not an arc")
    # Each vertex's successors over the classes must be distinct.
    succ = np.sort(np.column_stack(classes), axis=1)
    if (succ[:, 1:] == succ[:, :-1]).any():
        raise FactorizationError("classes do not partition the arc set")


# -- line digraphs -----------------------------------------------------------------


def line_digraph(g: RegularDigraph, factorization: list[np.ndarray]) -> RegularDigraph:
    """The line digraph of g under the block labeling.

    Vertex k*V + u of the result is the arc of class D_k ending at u, i.e.
    the path of D_k^{-1}(u) extended by u's last position.  Out-neighbor
    column l points at class D_l's continuation, so all vertices sharing a
    head have identical ordered out-neighbor rows.  ``factorization`` is a
    dicycle factorization of g, such as dicycle_factorize_base returns.
    """
    _check_factorization(g, factorization)

    n, m = g.n_vertices, g.degree
    inverses = [np.argsort(perm) for perm in factorization]

    out = np.empty((m * n, m), dtype=np.int64)
    for l, perm in enumerate(factorization):
        # Identical for every block k: the head alone fixes the successors.
        out[:, l] = np.tile(l * n + perm, m)

    paths = np.concatenate(
        [np.hstack([g.paths[inverse], g.paths[:, -1:]]) for inverse in inverses]
    )
    return RegularDigraph(out, paths, base_n=g.base_n, centered=g.centered)


def _lift_factorization(
    n_prev: int, m: int, classes: list[np.ndarray]
) -> list[np.ndarray]:
    """Dicycle factorization of the line digraph from the previous level's.

    Class s sends block-k vertex (k, u) to ((k+s) mod m, D_{(k+s) mod m}(u)):
    the diagonal-pattern recombination of the level below.  Each class is a
    permutation, so the result factorizes the new level.
    """
    lifted = []
    for s in range(m):
        perm = np.empty(m * n_prev, dtype=np.int64)
        for k in range(m):
            j = (k + s) % m
            perm[k * n_prev : (k + 1) * n_prev] = j * n_prev + classes[j]
        lifted.append(perm)
    return lifted


def iterate_line_digraph(g: RegularDigraph, d: int) -> RegularDigraph:
    """Apply the line-digraph construction d times (d = 0 returns g).

    The base level is factorized by dicycle_factorize_base; each deeper
    level reuses the lifted factorization, keeping the block labeling
    consistent all the way up.
    """
    if d < 0:
        raise InvalidGraphError(f"depth must be >= 0, got {d}")
    cur = g
    classes = None
    for _ in range(d):
        if classes is None:
            classes = dicycle_factorize_base(cur)
        nxt = line_digraph(cur, classes)
        classes = _lift_factorization(cur.n_vertices, cur.degree, classes)
        cur = nxt
    return cur

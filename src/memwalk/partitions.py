"""Arc partitions of a host digraph into per-vertex coin-labeled classes.

A partition assigns every out-arc of the host to exactly one of m classes
so that each vertex has out-degree 1 in each class; equivalently, each
vertex carries a bijection from coin indices to its out-arcs.  A partition
whose classes are all spanning permutations (in-degree 1 per class as well)
is a dicycle factorization.

Coin indices are 0-based internally; for m = 2 hosts index 0 renders as
coin +1 and index 1 as coin -1 in serialized form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .graphs import RegularDigraph
from . import graphs as _graphs

__all__ = [
    "Partition",
    "directional_partition",
    "reflect_transmit_partition",
    "named_partition",
    "random_partition",
    "random_dicycle_factorization",
]

PARTITION_KINDS = ("directional", "reflect_transmit", "random", "random_dicycle")


def coin_index(label: int, m: int) -> int:
    """0-based coin index of a serialized coin label: +1/-1 for m = 2, else 1..m."""
    if m == 2:
        if label == 1:
            return 0
        if label == -1:
            return 1
        raise ValidationError(f"coin label must be +1 or -1, got {label}")
    if not 1 <= label <= m:
        raise ValidationError(f"coin label must be in 1..{m}, got {label}")
    return label - 1


@dataclass(frozen=True, eq=False)
class Partition:
    """An arc partition: succ[v, c] is the class-c successor of vertex v."""

    host: RegularDigraph
    succ: np.ndarray
    kind: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        succ, v = self.succ, self.host.n_vertices
        if succ.shape != (v, self.host.degree):
            raise ValidationError(
                f"successor table shape {succ.shape} does not match host"
            )
        # Signed only: a uint64 table times m plus an int64 coin is float64.
        if not np.issubdtype(succ.dtype, np.signedinteger):
            raise ValidationError(
                f"successor table must hold signed integers, got {succ.dtype}"
            )
        if succ.min() < 0 or succ.max() >= v:
            raise ValidationError(f"successor table entries must lie in 0..{v - 1}")
        succ.flags.writeable = False

    @property
    def degree(self) -> int:
        return self.host.degree

    @cached_property
    def is_dicycle(self) -> bool:
        """True when every class is a spanning permutation of the host.

        A class is one iff each vertex 0..V-1 is hit exactly once.  One
        bincount covers every class: cell (v, k) counts into bin
        succ[v, k] * m + k.  Construction keeps every entry in 0..V-1, so the
        V * m cells fill the V * m bins and each bin holds exactly one iff
        none is empty.
        """
        host, succ = self.host, self.succ
        bins = (succ * host.degree + host.columns).ravel()
        return bool(np.bincount(bins, minlength=succ.size).all())


def _require_cycle_host(host: RegularDigraph) -> None:
    if host.degree != 2:
        raise ValidationError(f"need a 2-regular host, got degree {host.degree}")
    if host.depth < 1:
        raise ValidationError(f"need a line digraph of depth >= 1, got {host.depth}")


def _marked_first(host: RegularDigraph, first: np.ndarray) -> np.ndarray:
    """Each vertex's two out-neighbors, the one ``first`` marks in column 0.

    ``first[v]`` marks each out-neighbor of v (True or False) and must mark
    exactly one: the partitions below place a vertex's successors by their
    position, which tells them apart on any line digraph of a cycle.
    """
    if (first[:, 0] == first[:, 1]).any():
        raise ValidationError("host is not a line digraph of a cycle")
    out = host.out_neighbors
    return np.where(first[:, :1], out, out[:, ::-1])


def directional_partition(host: RegularDigraph) -> Partition:
    """Classes move in a fixed direction: coin index k appends step +1 or -1.

    At any depth d >= 1 over the cycle, class k sends the walk
    (p_0, ..., p_d) to (p_1, ..., p_d, p_d + s_k) with s_0 = +1, s_1 = -1:
    class 0 takes the out-neighbor one step up, class 1 the one a step down.
    Both arcs into a given target come from the same class, so this is never
    a dicycle factorization.
    """
    _require_cycle_host(host)
    heads = host.paths[host.out_neighbors, -1]
    up = (heads - host.paths[:, -1:]) % host.base_n == 1
    return Partition(host, _marked_first(host, up), kind="directional")


def reflect_transmit_partition(host: RegularDigraph) -> Partition:
    """Coin +1 reverses the last step, coin -1 continues it.

    Defined on depth-1 hosts: vertex (a, b) goes to (b, a) under reflect and
    to (b, 2b - a) under transmit.  Class 0 takes the out-neighbor whose
    position is the vertex's previous one, class 1 the other.  Both classes
    are spanning permutations, so this is a dicycle factorization.
    """
    _require_cycle_host(host)
    if host.depth != 1:
        raise ValidationError(
            f"reflect/transmit classes need a depth-1 host, got depth {host.depth}"
        )
    back = host.paths[host.out_neighbors, -1] == host.paths[:, :1]
    return Partition(host, _marked_first(host, back), kind="reflect_transmit")


def named_partition(
    host: RegularDigraph, kind: str, seed: int | None = None
) -> Partition:
    """The partition of a given kind on ``host``: the one place that turns
    (kind, host, seed) into a Partition.  The random kinds need a seed; the
    other two ignore it."""
    if kind == "directional":
        return directional_partition(host)
    if kind == "reflect_transmit":
        return reflect_transmit_partition(host)
    if kind not in PARTITION_KINDS:
        raise ValidationError(
            f"unknown partition kind {kind!r}; expected one of {PARTITION_KINDS}"
        )
    if seed is None:
        raise ValidationError(f"partition kind {kind!r} needs a seed")
    if kind == "random":
        return random_partition(host, seed)
    return random_dicycle_factorization(host, seed)


def random_partition(host: RegularDigraph, seed: int) -> Partition:
    """Uniform independent per-vertex coin->arc bijections."""
    # default_rng(seed)'s stream, minus its argument checks: the sweep draws
    # one partition per annealed step.
    rng = np.random.Generator(np.random.PCG64(seed))
    v, m = host.n_vertices, host.degree
    draws = rng.random((v, m))
    out = host.out_neighbors
    if m == 2:
        # Row v's coins take its arcs in the order of a stable sort of its
        # two draws, which swaps them exactly where the second is smaller.
        succ = np.where((draws[:, 1] < draws[:, 0])[:, None], out[:, ::-1], out)
    else:
        # A stable sort orders each row's distinct draws as any sort does (a
        # tie keeps coin order); one flat gather then picks row v's arcs.
        perms = np.argsort(draws, axis=1, kind="stable")
        succ = out.ravel()[perms + m * np.arange(v)[:, None]]
    return Partition(host, succ, kind="random", seed=seed)


def random_dicycle_factorization(host: RegularDigraph, seed: int) -> Partition:
    """A seeded random dicycle factorization via repeated perfect matching.

    On hosts made of K_{2,2} blocks (``host.twins``, every line digraph of
    an m = 2 host) sampling is exactly uniform over the 2^(V/2)
    factorizations: each block picks one of its two matchings with
    probability 1/2, independently of the other blocks.  On other hosts the
    matching order biases it.  Either way it is deterministic per seed.
    """
    classes = _graphs.dicycle_factorize_base(host, seed=seed)
    succ = np.column_stack(classes)
    p = Partition(host, succ, kind="random_dicycle", seed=seed)
    if not p.is_dicycle:
        raise ValidationError("matching produced a non-dicycle result (bug)")
    return p

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
from .graphs import RegularDigraph, advance_label, step_direction
from . import graphs as _graphs

__all__ = [
    "Partition",
    "directional_partition",
    "reflect_transmit_partition",
    "named_partition",
    "random_partition",
    "random_dicycle_factorization",
    "coin_index",
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
        if self.succ.shape != (self.host.n_vertices, self.host.degree):
            raise ValidationError(
                f"successor table shape {self.succ.shape} does not match host"
            )
        self.succ.flags.writeable = False

    @property
    def degree(self) -> int:
        return self.host.degree

    @cached_property
    def is_dicycle(self) -> bool:
        """True when every class is a spanning permutation of the host."""
        v = self.host.n_vertices
        return all(
            np.array_equal(np.sort(self.succ[:, k]), np.arange(v))
            for k in range(self.degree)
        )


def _require_cycle_host(host: RegularDigraph, min_depth: int = 1) -> None:
    if host.degree != 2:
        raise ValidationError(f"need a 2-regular host, got degree {host.degree}")
    if host.depth < min_depth:
        raise ValidationError(
            f"need a line digraph of depth >= {min_depth}, got {host.depth}"
        )


def directional_partition(host: RegularDigraph) -> Partition:
    """Classes move in a fixed direction: coin index k appends step +1 or -1.

    At any depth d >= 1 over the cycle, class k sends the walk
    (p_0, ..., p_d) to (p_1, ..., p_d, p_d + s_k) with s_0 = +1, s_1 = -1.
    Both arcs into a given target come from the same class, so this is never
    a dicycle factorization.
    """
    _require_cycle_host(host)
    n = host.base_n
    succ = np.empty((host.n_vertices, 2), dtype=np.int64)
    for v, lab in enumerate(host.labels):
        tail = lab[1:]
        for k, s in enumerate((1, -1)):
            succ[v, k] = host.index_of(
                tail + (advance_label(lab[-1], s, n, host.centered),)
            )
    return Partition(host, succ, kind="directional")


def reflect_transmit_partition(host: RegularDigraph) -> Partition:
    """Coin +1 reverses the last step, coin -1 continues it.

    Defined on depth-1 hosts: vertex (a, b) goes to (b, a) under reflect and
    to (b, 2b - a) under transmit.  Both classes are spanning permutations,
    so this is a dicycle factorization.
    """
    _require_cycle_host(host)
    if host.depth != 1:
        raise ValidationError(
            f"reflect/transmit classes need a depth-1 host, got depth {host.depth}"
        )
    n = host.base_n
    succ = np.empty((host.n_vertices, 2), dtype=np.int64)
    for v, (a, b) in enumerate(host.labels):
        direction = step_direction(a, b, n)
        succ[v, 0] = host.index_of((b, a))
        succ[v, 1] = host.index_of((b, advance_label(b, direction, n, host.centered)))
    return Partition(host, succ, kind="reflect_transmit")


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
    rng = np.random.default_rng(seed)
    perms = np.argsort(rng.random((host.n_vertices, host.degree)), axis=1)
    succ = np.take_along_axis(host.out_neighbors, perms, axis=1).astype(np.int64)
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
    succ = np.stack(classes, axis=1).astype(np.int64)
    p = Partition(host, succ, kind="random_dicycle", seed=seed)
    if not p.is_dicycle:
        raise ValidationError("matching produced a non-dicycle result (bug)")
    return p

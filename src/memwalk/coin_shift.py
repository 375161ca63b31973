"""Coin-shift tables: the coin label emitted after each conditional move.

A coin shift gc maps (vertex, incoming coin) to an outgoing coin.  Together
with a partition it assembles into the shift step |v, c> -> |f_c(v), gc(v, c)>,
which is unitary exactly when, for every target vertex, the coins emitted by
its m incoming (vertex, coin) pairs form a permutation of all m coins.

Two constructions cover the walks this package studies on 2-regular hosts:

* recycled_coin_shift: the emitted coin is the oldest step recorded in the
  vertex's path tuple, independent of the incoming coin.  The two vertices
  sharing any out-neighborhood have opposite oldest steps, so this satisfies
  the constraint for every partition.
* carried_coin_shift: the coin label rides through the move unchanged.
  Valid precisely on dicycle factorizations, where each target's two in-arcs
  always arrive via different classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from .errors import ConstraintViolationError, ValidationError
from .graphs import RegularDigraph
from .partitions import Partition

__all__ = [
    "CoinShift",
    "CoinShiftReport",
    "recycled_coin_shift",
    "carried_coin_shift",
    "validate_coin_shift",
    "enumerate_coin_shifts",
    "random_coin_shift",
]

#: Hosts whose full gc table exceeds this many cells refuse exhaustive
#: enumeration (the count grows as (m!)^V).
ENUMERATION_CELL_LIMIT = 24


@dataclass(frozen=True, eq=False)
class CoinShift:
    """table[v, c_in] = c_out, coin indices 0..m-1."""

    host: RegularDigraph
    table: np.ndarray

    def __post_init__(self):
        if self.table.shape != (self.host.n_vertices, self.host.degree):
            raise ValidationError(
                f"coin-shift table shape {self.table.shape} does not match host"
            )
        m = self.host.degree
        if not (0 <= self.table.min() and self.table.max() < m):
            raise ValidationError(f"coin-shift table entries must lie in 0..{m - 1}")
        self.table.flags.writeable = False


class CoinShiftReport(NamedTuple):
    ok: bool
    violations: list[int]


def validate_coin_shift(p: Partition, gc: CoinShift) -> CoinShiftReport:
    """Check the per-target permutation constraint.

    Counts, for each (target vertex, emitted coin), how many (vertex, coin)
    pairs land there, as one bincount over the flat targets succ * m + table
    (exact because CoinShift keeps every table entry in 0..m-1); the shift is
    a bijection iff every count is exactly 1.  Returns the violating target
    vertices (deterministic ascending order).
    """
    v, m = p.host.n_vertices, p.degree
    counts = np.bincount((p.succ * m + gc.table).ravel(), minlength=v * m)
    if (counts == 1).all():
        return CoinShiftReport(True, [])
    bad = np.flatnonzero((counts.reshape(v, m) != 1).any(axis=1))
    return CoinShiftReport(False, [int(b) for b in bad])


def recycled_coin_shift(p: Partition) -> CoinShift:
    """Emit the oldest recorded step of the path tuple, whatever coin came in.

    Needs a 2-regular host of depth >= 1 over a cycle, where each tuple's
    first two entries are adjacent and their step direction is +-1.
    """
    host = p.host
    if host.degree != 2:
        raise ValidationError(
            f"recycled coin shift supports m=2 hosts only, got m={host.degree}"
        )
    if host.depth < 1:
        raise ValidationError("recycled coin shift needs a depth >= 1 line digraph")
    # Coin index 0 is the +1 step; the host caches its oldest steps, so a
    # per-step redraw only builds the table.  build_shift_operator checks it.
    coins = (host.oldest_steps != 1).astype(np.int64)
    return CoinShift(host, np.repeat(coins[:, None], 2, axis=1))


def carried_coin_shift(p: Partition) -> CoinShift:
    """Pass the coin label through the move unchanged.

    Only dicycle factorizations route each target's in-arcs via distinct
    classes, so anything else is rejected with the violating targets.
    """
    host = p.host
    table = np.tile(np.arange(host.degree, dtype=np.int64), (host.n_vertices, 1))
    gc = CoinShift(host, table)
    if not p.is_dicycle:
        report = validate_coin_shift(p, gc)
        raise ConstraintViolationError(
            "carried coin shift needs a dicycle factorization; "
            f"{len(report.violations)} target(s) violate the permutation constraint",
            report.violations,
        )
    return gc


def _target_groups(p: Partition) -> list[list[tuple[int, int]]]:
    """Cells (v, c_in) grouped by target vertex, deterministically ordered."""
    host = p.host
    groups: list[list[tuple[int, int]]] = [[] for _ in range(host.n_vertices)]
    for v in range(host.n_vertices):
        for c in range(host.degree):
            groups[int(p.succ[v, c])].append((v, c))
    return groups


def enumerate_coin_shifts(p: Partition) -> list[CoinShift]:
    """All valid coin-shift tables for a partition, in deterministic order.

    The constraint splits cell-wise by target vertex: each target's m cells
    must receive a permutation of the coins, independently of every other
    target.  The count is therefore (m!)^V; hosts beyond
    ENUMERATION_CELL_LIMIT cells are refused.
    """
    host = p.host
    v, m = host.n_vertices, host.degree
    if v * m > ENUMERATION_CELL_LIMIT:
        raise ValidationError(
            f"host has {v * m} gc cells; enumeration is limited to "
            f"{ENUMERATION_CELL_LIMIT}"
        )
    groups = _target_groups(p)
    perms = list(permutations(range(m)))
    shifts = []
    for assignment in product(perms, repeat=v):
        table = np.empty((v, m), dtype=np.int64)
        for group, perm in zip(groups, assignment):
            for (vertex, c_in), c_out in zip(group, perm):
                table[vertex, c_in] = c_out
        shifts.append(CoinShift(host, table))
    return shifts


def random_coin_shift(p: Partition, seed: int) -> CoinShift:
    """A uniformly random valid coin shift (independent per-target permutations)."""
    rng = np.random.default_rng(seed)
    host = p.host
    table = np.empty((host.n_vertices, host.degree), dtype=np.int64)
    for group in _target_groups(p):
        perm = rng.permutation(host.degree)
        for (vertex, c_in), c_out in zip(group, perm):
            table[vertex, c_in] = c_out
    return CoinShift(host, table)


"""Coin-shift tables: the coin label emitted after each conditional move.

A coin shift gc maps (vertex, incoming coin) to an outgoing coin.  Together
with a partition it assembles into the shift step |v, c> -> |f_c(v), gc(v, c)>,
which is unitary exactly when, for every target vertex, the coins emitted by
its m incoming (vertex, coin) pairs form a permutation of all m coins.

Two constructions cover the walks this package studies on 2-regular hosts:

* recycled_coin_shift: the emitted coin is the oldest step recorded in the
  vertex's path, independent of the incoming coin.  The two vertices
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
    "recycled_coin_shift",
    "carried_coin_shift",
    "validate_coin_shift",
    "enumerate_coin_shifts",
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
        if not np.issubdtype(self.table.dtype, np.signedinteger):
            raise ValidationError(
                f"coin-shift table must hold signed integers, got {self.table.dtype}"
            )
        m = self.host.degree
        if not (0 <= self.table.min() and self.table.max() < m):
            raise ValidationError(f"coin-shift table entries must lie in 0..{m - 1}")
        self.table.flags.writeable = False


class CoinShiftReport(NamedTuple):
    ok: bool
    violations: list[int]


def validate_coin_shift(
    p: Partition, gc: CoinShift, inverse: np.ndarray | None = None
) -> CoinShiftReport:
    """Check the per-target permutation constraint.

    ``p`` and ``gc`` must live on one host object: a host of the same shape
    is another host.  Cell (v, c) lands on the flat (target vertex, emitted
    coin) index succ * m + table, which lies in 0..V*m-1 because Partition
    keeps every successor in 0..V-1 and CoinShift every table entry in
    0..m-1.  One scatter of the cell indices into ``inverse``, filled with
    -1 first, leaves no -1 iff the shift is a bijection; ``inverse`` then
    holds the cell landing on each target, the shift's gather index.  Pass
    a length V*m intp array as ``inverse`` to keep it.  Otherwise a
    bincount of the targets finds the violating target vertices
    (deterministic ascending order).
    """
    if gc.host is not p.host:
        raise ValidationError("partition and coin shift live on different hosts")
    v, m = p.host.n_vertices, p.degree
    targets = (p.succ * m + gc.table).ravel()
    if inverse is None:
        inverse = np.empty(v * m, dtype=np.intp)
    inverse.fill(-1)
    inverse[targets] = np.arange(v * m)
    if inverse.min() >= 0:
        return CoinShiftReport(True, [])
    counts = np.bincount(targets, minlength=v * m)
    bad = np.flatnonzero((counts.reshape(v, m) != 1).any(axis=1))
    return CoinShiftReport(False, [int(b) for b in bad])


def recycled_coin_shift(p: Partition) -> CoinShift:
    """Emit the oldest recorded step of the vertex's path, whatever coin came in.

    Needs a 2-regular host of depth >= 1 over a cycle, where each path's
    first two entries are adjacent and their step direction is +-1.
    """
    host = p.host
    if host.degree != 2:
        raise ValidationError(
            f"recycled coin shift supports m=2 hosts only, got m={host.degree}"
        )
    if host.depth < 1:
        raise ValidationError("recycled coin shift needs a depth >= 1 line digraph")
    # Coin index 0 is the +1 step.  The table does not depend on the
    # partition; build_shift_operator checks it against each one.
    coins = (host.oldest_steps != 1).astype(np.int64)
    return CoinShift(host, np.repeat(coins[:, None], 2, axis=1))


def carried_coin_shift(p: Partition) -> CoinShift:
    """Pass the coin label through the move unchanged.

    Only dicycle factorizations route each target's in-arcs via distinct
    classes, so anything else is rejected with the violating targets.
    """
    gc = CoinShift(p.host, p.host.columns)
    if not p.is_dicycle:
        report = validate_coin_shift(p, gc)
        raise ConstraintViolationError(
            "carried coin shift needs a dicycle factorization; "
            f"{len(report.violations)} target(s) violate the permutation constraint",
            report.violations,
        )
    return gc


def _target_groups(p: Partition) -> list[list[tuple[int, int]]]:
    """Cells (v, c_in) grouped by target vertex, deterministically ordered.

    Partition checks only that each successor is a vertex of the host.  The
    callers fill their tables one group at a time, so every target must
    receive exactly m cells for every cell to be filled.
    """
    host = p.host
    groups: list[list[tuple[int, int]]] = [[] for _ in range(host.n_vertices)]
    for v in range(host.n_vertices):
        for c in range(host.degree):
            groups[int(p.succ[v, c])].append((v, c))
    for target, group in enumerate(groups):
        if len(group) != host.degree:
            raise ValidationError(
                f"partition sends {len(group)} cells to vertex {target};"
                f" every vertex must receive exactly {host.degree}"
            )
    return groups


def check_enumeration_size(cells: int) -> None:
    """Refuse to enumerate a gc table of more than ENUMERATION_CELL_LIMIT cells."""
    if cells > ENUMERATION_CELL_LIMIT:
        raise ValidationError(
            f"host has {cells} gc cells; enumeration is limited to "
            f"{ENUMERATION_CELL_LIMIT}"
        )


def enumerate_coin_shifts(p: Partition) -> list[CoinShift]:
    """All valid coin-shift tables for a partition, in deterministic order.

    The constraint splits cell-wise by target vertex: each target's m cells
    must receive a permutation of the coins, independently of every other
    target.  The count is therefore (m!)^V; hosts beyond
    ENUMERATION_CELL_LIMIT cells are refused.
    """
    host = p.host
    v, m = host.n_vertices, host.degree
    check_enumeration_size(v * m)
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

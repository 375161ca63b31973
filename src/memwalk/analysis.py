"""Position statistics and the amplitude-field equivalence oracles.

The first half turns walk states into position distributions and summary
statistics (variance, occupancy rate, origin-probability series, scaling
verdicts).  The second half implements, independently of the engine, the
closed-form update of the reflect/transmit Hadamard walk's amplitude field
and its phase map onto the memoryless Hadamard walk, both used to
cross-check the engine.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .coin_shift import carried_coin_shift
from .constants import (
    SCALING_BALLISTIC_FACTOR,
    SCALING_DIFFUSIVE_FACTOR,
    UNITARY_ATOL,
)
from .engine import (
    WalkState,
    _coin_check,
    _start_check,
    _steps,
    build_shift_operator,
    # Unused here since the census builds each seed's shift once; still bound
    # because perfbench/test_smoke.py checks that the tracer wraps this name
    # in every memwalk module that binds it.
    evolve,  # noqa: F401
    hadamard_coin,
    origin_basis_terms,
    state_from_terms,
)
from .errors import ValidationError
from .graphs import RegularDigraph, centered_positions
from .partitions import Partition, random_dicycle_factorization

__all__ = [
    "PositionDistribution",
    "position_marginal",
    "marginal_history",
    "variance",
    "occupancy_rate",
    "max_distribution_difference",
    "total_variation",
    "classify_scaling",
    "BetaField",
    "equivalence_initial_beta",
    "beta_recurrence_step",
    "check_beta_constraint",
    "beta_from_walk_state",
    "beta_distribution",
    "AlphaField",
    "qwom_initial_alpha",
    "qwom_step",
    "alpha_from_beta",
    "alpha_distribution",
    "partition_center_key",
    "count_distinct_dicycle_carried_walks",
]

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class PositionDistribution:
    """Probability over positions at one time step (dense, sorted positions)."""

    positions: np.ndarray
    probs: np.ndarray
    time: int

    def __post_init__(self):
        if self.positions.shape != self.probs.shape:
            raise ValidationError("positions and probabilities differ in length")
        self.positions.flags.writeable = False
        self.probs.flags.writeable = False

    def prob(self, x: int) -> float:
        # In sorted positions the first entry not below x is the first that
        # can equal it.
        i = self.positions.searchsorted(x)
        hit = i < self.positions.size and self.positions[i] == x
        return float(self.probs[i]) if hit else 0.0


def _position_probs(host: RegularDigraph, amps: np.ndarray) -> np.ndarray:
    """Sum |amplitude|^2 over everything sharing a current position.

    ``amps`` holds one state per row of its leading axes, shape (..., V, m);
    the result has shape (..., n).  One bincount covers every row: row r
    counts into bins r*n .. r*n + n - 1 (a single row needs no offsets, so
    it counts by ``position_index`` itself), and bincount adds the weights in
    vertex order, like a plain loop would, so each row's probabilities are
    bitwise those of that state alone.  The coin columns are added one at a
    time: on the length-m axis that is much cheaper than ``.sum(axis=-1)``,
    and at m = 2 it is the same single addition, so bitwise equal.
    """
    w = np.abs(amps) ** 2
    weights = w[..., 0]
    for c in range(1, w.shape[-1]):
        weights = weights + w[..., c]
    rows = weights.reshape(-1, host.n_vertices)
    index = host.position_index
    if len(rows) > 1:
        index = index + host.base_n * np.arange(len(rows))[:, None]
    n_bins = len(rows) * host.base_n
    probs = np.bincount(index.ravel(), weights=rows.ravel(), minlength=n_bins)
    return probs.reshape(weights.shape[:-1] + (host.base_n,))


def position_marginal(state: WalkState) -> PositionDistribution:
    """Sum |amplitude|^2 over everything sharing a current position."""
    host = state.host
    probs = _position_probs(host, state.amps)
    return PositionDistribution(host.positions, probs, state.time)


def marginal_history(states: list[WalkState]) -> list[PositionDistribution]:
    return [position_marginal(s) for s in states]


def variance(dist: PositionDistribution) -> float:
    # One cast serves both dots (np.dot makes the same one of integer
    # positions); the squares are exact, as MAX_VERTICES keeps |x| below 2^19.
    x = dist.positions.astype(float)
    mean = float(np.dot(dist.probs, x))
    return float(np.dot(dist.probs, x * x)) - mean**2


def occupancy_rate(dist: PositionDistribution, n_range: int) -> float:
    """Fraction of an n_range-site window holding at least 1/n_range each."""
    if n_range < 1:
        raise ValidationError(f"range must be >= 1, got {n_range}")
    return float(np.count_nonzero(dist.probs >= 1.0 / n_range)) / n_range


def _aligned(a: PositionDistribution, b: PositionDistribution) -> tuple[np.ndarray, np.ndarray]:
    if not np.array_equal(a.positions, b.positions):
        raise ValidationError("distributions over different positions cannot be compared")
    return a.probs, b.probs


def max_distribution_difference(a: PositionDistribution, b: PositionDistribution) -> float:
    pa, pb = _aligned(a, b)
    return float(np.abs(pa - pb).max())


def total_variation(a: PositionDistribution, b: PositionDistribution) -> float:
    pa, pb = _aligned(a, b)
    return 0.5 * float(np.abs(pa - pb).sum())


@dataclass(frozen=True)
class ScalingFit:
    k2: float
    k1: float
    k0_sq: float
    residual: float
    verdict: str


def classify_scaling(times: np.ndarray, variances: np.ndarray) -> ScalingFit:
    """Least-squares fit var(t) ~ k2*t^2 + k1*t + k0^2 with a verdict.

    ballistic: the quadratic term beats the linear one by
    SCALING_BALLISTIC_FACTOR at the right endpoint; diffusive: it falls
    below SCALING_DIFFUSIVE_FACTOR of the linear term there; otherwise
    indeterminate.
    """
    times = np.asarray(times, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if times.shape != variances.shape or times.ndim != 1:
        raise ValidationError("times and variances must be equal-length 1-d arrays")
    t1, t2 = float(times.min()), float(times.max())
    if not (t2 >= 2 * t1 >= 40):
        raise ValidationError(
            f"series too short for a stable fit: need t2 >= 2*t1 >= 40, "
            f"got t1={t1}, t2={t2}"
        )
    design = np.stack([times**2, times, np.ones_like(times)], axis=1)
    coef, *_ = np.linalg.lstsq(design, variances, rcond=None)
    k2, k1, k0_sq = (float(c) for c in coef)
    residual = float(np.abs(design @ coef - variances).max())
    quad, lin = k2 * t2 * t2, abs(k1) * t2
    if quad > SCALING_BALLISTIC_FACTOR * lin:
        verdict = "ballistic"
    elif abs(k2) * t2 * t2 < SCALING_DIFFUSIVE_FACTOR * lin:
        verdict = "diffusive"
    else:
        verdict = "indeterminate"
    return ScalingFit(k2, k1, k0_sq, residual, verdict)


# -- reflect/transmit amplitude field --------------------------------------------
#
# The field stores one amplitude per (previous position, current position,
# coin) with |previous - current| = 1, laid out as beta[x, r, c] where x is
# the current position (raw window index), r = 0 means previous = x - 1,
# r = 1 means previous = x + 1, and c indexes coins (+1, -1).


@dataclass(frozen=True, eq=False)
class BetaField:
    amps: np.ndarray  # (window, 2, 2) complex
    time: int

    def __post_init__(self):
        if self.amps.ndim != 3 or self.amps.shape[1:] != (2, 2):
            raise ValidationError(f"field shape {self.amps.shape}, expected (n, 2, 2)")
        if self.amps.shape[0] % 2 == 0:
            raise ValidationError("field window must be odd")
        self.amps.flags.writeable = False

    @property
    def window(self) -> int:
        return self.amps.shape[0]


def _rolled(a: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(a, shift) for a 1-d array and |shift| < len(a).  The fields
    roll eight times a step; np.roll's general-axis set-up costs several
    times this one concatenate on a window of a few hundred cells."""
    return np.concatenate((a[-shift:], a[:-shift]))


def _centered_order(arr: np.ndarray) -> np.ndarray:
    half = (arr.shape[0] - 1) // 2
    return np.concatenate([arr[-half:], arr[: half + 1]])


def equivalence_initial_beta(window: int) -> BetaField:
    """Alternating-sign start at the origin: +-1/2 on the four states there."""
    if window % 2 == 0 or window < 3:
        raise ValidationError(f"window must be odd and >= 3, got {window}")
    amps = np.zeros((window, 2, 2), dtype=np.complex128)
    amps[0, 0, 0] = 0.5    # previous -1, coin +1
    amps[0, 0, 1] = -0.5   # previous -1, coin -1
    amps[0, 1, 0] = -0.5   # previous +1, coin +1
    amps[0, 1, 1] = 0.5    # previous +1, coin -1
    return BetaField(amps, 0)


def beta_recurrence_step(b: BetaField) -> BetaField:
    """One Hadamard reflect/transmit update of the amplitude field.

    Derived update, written directly against the array layout:
      new[x+1, 0, +1] = (old[x, 1, +1] + old[x, 1, -1]) / sqrt(2)
      new[x-1, 1, +1] = (old[x, 0, +1] + old[x, 0, -1]) / sqrt(2)
      new[x-1, 1, -1] = (old[x, 1, +1] - old[x, 1, -1]) / sqrt(2)
      new[x+1, 0, -1] = (old[x, 0, +1] - old[x, 0, -1]) / sqrt(2)
    """
    old = b.amps
    new = np.empty_like(old)
    new[:, 0, 0] = _rolled(old[:, 1, 0] + old[:, 1, 1], 1) / SQRT2
    new[:, 1, 0] = _rolled(old[:, 0, 0] + old[:, 0, 1], -1) / SQRT2
    new[:, 1, 1] = _rolled(old[:, 1, 0] - old[:, 1, 1], -1) / SQRT2
    new[:, 0, 1] = _rolled(old[:, 0, 0] - old[:, 0, 1], 1) / SQRT2
    return BetaField(new, b.time + 1)


def check_beta_constraint(b: BetaField) -> float:
    """Residual of the two linear identities the equivalence start preserves.

    For every position x: the four amplitudes whose previous position is x
    sum to zero, and the two coin +1 amplitudes currently at x cancel.
    Returns the largest absolute violation.
    """
    a = b.amps
    leaving = _rolled(a[:, 0, 0] + a[:, 0, 1], -1) + _rolled(a[:, 1, 0] + a[:, 1, 1], 1)
    standing = a[:, 1, 0] + a[:, 0, 0]
    return float(max(np.abs(leaving).max(), np.abs(standing).max()))


def beta_from_walk_state(state: WalkState) -> BetaField:
    """Repack engine amplitudes on a depth-1 host into the field layout.

    Vertex (prev, cur) lands in row cur mod n (the raw window index of its
    current position), at r = 0 when it stepped up to cur and r = 1 when it
    stepped down.  Distinct vertices fill distinct cells, so one scatter
    copies every amplitude unchanged.
    """
    host = state.host
    if host.depth != 1 or host.degree != 2:
        raise ValidationError("need a depth-1 host of a cycle")
    n = host.base_n
    rows = host.positions[host.position_index] % n
    r = (host.oldest_steps != 1).astype(np.intp)
    amps = np.zeros((n, 2, 2), dtype=np.complex128)
    amps[rows, r] = state.amps
    return BetaField(amps, state.time)


def beta_distribution(b: BetaField) -> PositionDistribution:
    probs = (np.abs(b.amps) ** 2).sum(axis=(1, 2))
    return PositionDistribution(centered_positions(b.window), _centered_order(probs), b.time)


# -- memoryless Hadamard walk and the phase map -----------------------------------


@dataclass(frozen=True, eq=False)
class AlphaField:
    amps: np.ndarray  # (window, 2) complex
    time: int

    def __post_init__(self):
        if self.amps.ndim != 2 or self.amps.shape[1] != 2:
            raise ValidationError(f"field shape {self.amps.shape}, expected (n, 2)")
        self.amps.flags.writeable = False

    @property
    def window(self) -> int:
        return self.amps.shape[0]


def qwom_initial_alpha(window: int) -> AlphaField:
    """Balanced origin start (1, i)/sqrt(2) of the memoryless walk."""
    amps = np.zeros((window, 2), dtype=np.complex128)
    amps[0, 0] = 1 / SQRT2
    amps[0, 1] = 1j / SQRT2
    return AlphaField(amps, 0)


def qwom_step(a: AlphaField) -> AlphaField:
    """One Hadamard step of the memoryless walk: coin, then move by the coin."""
    old = a.amps
    new = np.empty_like(old)
    new[:, 0] = _rolled(old[:, 0] + old[:, 1], 1) / SQRT2
    new[:, 1] = _rolled(old[:, 0] - old[:, 1], -1) / SQRT2
    return AlphaField(new, a.time + 1)


@lru_cache(maxsize=4)
def _phase_map(n: int, t_mod_4: int) -> tuple[np.ndarray, np.ndarray]:
    """alpha_from_beta's constants on an n-cell window at times t = t_mod_4
    mod 4, in raw window order: the off-sublattice mask and the phase
    (-1)^((t+x)/2) e^{i pi/4}.  Both depend on t only through t mod 4, so
    one window's walk reuses four of these; they are read-only."""
    half = (n - 1) // 2
    x = np.concatenate([np.arange(0, half + 1), np.arange(-half, 0)])  # raw order
    off_lattice = (x + t_mod_4) % 2 != 0
    sign = np.where(((x + t_mod_4) // 2) % 2 == 0, 1.0, -1.0)
    phase = np.exp(1j * np.pi / 4) * sign
    off_lattice.flags.writeable = False
    phase.flags.writeable = False
    return off_lattice, phase


def alpha_from_beta(b: BetaField) -> AlphaField:
    """Phase map from the reflect/transmit field to the memoryless walk.

    On the sublattice x + t even:
      alpha[x, +1] = (-1)^((t+x)/2) e^{i pi/4} (-i beta[x, 0, +1] - beta[x, 0, -1])
      alpha[x, -1] = (-1)^((t+x)/2) e^{i pi/4} (-beta[x, 1, +1] + i beta[x, 1, -1])
    Off-sublattice field amplitudes must vanish.
    """
    n = b.window
    off_lattice, phase = _phase_map(n, b.time % 4)
    if np.abs(b.amps[off_lattice]).max(initial=0.0) > UNITARY_ATOL:
        raise ValidationError("field is not supported on the even sublattice")
    amps = np.zeros((n, 2), dtype=np.complex128)
    amps[:, 0] = phase * (-1j * b.amps[:, 0, 0] - b.amps[:, 0, 1])
    amps[:, 1] = phase * (-b.amps[:, 1, 0] + 1j * b.amps[:, 1, 1])
    amps[off_lattice] = 0.0
    return AlphaField(amps, b.time)


def alpha_distribution(a: AlphaField) -> PositionDistribution:
    probs = (np.abs(a.amps) ** 2).sum(axis=1)
    return PositionDistribution(centered_positions(a.window), _centered_order(probs), a.time)


# -- distinct dicycle walks under the carried coin ---------------------------------


def partition_center_key(p: Partition) -> tuple[int, ...]:
    """Routing bits of a depth-1 partition at positions -1, 0, +1.

    Bit at position x is the coin index whose class carries the vertex
    (x-1, x) to (x, x+1).  For dicycle factorizations this bit determines
    the whole assignment at that position's vertex pair.
    """
    sources, targets = p.host.center_arcs
    bits = []
    for x, row, target in zip((-1, 0, 1), p.succ[sources].tolist(), targets):
        if row.count(target) != 1:
            raise ValidationError(f"no unique class routes ({x - 1},{x}) to ({x},{x + 1})")
        bits.append(row.index(target))
    return tuple(bits)


#: One seed's census result: the digest of its signature and its center
#: routing bits.
_Sighting = tuple[bytes, tuple[int, ...]]

#: Steps of the census's five probe walks held at a time; a seed's signature
#: is hashed one chunk of this many states at a time.
CENSUS_CHUNK_STEPS = 64


@dataclass(frozen=True)
class DistinctWalkReport:
    n_classes: int
    class_of: dict[int, int]       # seed -> class id (order of first sighting)
    key_of: dict[int, tuple]       # seed -> center routing bits
    keys_consistent: bool          # same key <=> same class, over all seeds


def count_distinct_dicycle_carried_walks(
    host: RegularDigraph,
    seeds: list[int],
    t_max: int,
    spread: Callable[[Callable[[int], _Sighting], list[int]], list[_Sighting]],
) -> DistinctWalkReport:
    """Group seeded dicycle factorizations by their carried-coin walk output.

    Each seed's walk is run from a fixed probe set of origin states; two
    seeds fall in the same class when all their distribution histories agree
    to 1e-10.  The probe set is the four origin basis states plus one
    memory-and-coin superposition: basis states alone cannot see the routing
    bit at the origin itself (the first coin mix feeds both of its arcs
    equal-modulus amplitudes), so without the superposition the census
    merges classes pairwise.

    A seed's signature is the SHA-256 digest of its rounded distributions,
    laid out (probe, time, position) and hashed CENSUS_CHUNK_STEPS states
    at a time, so a seed holds 32 bytes and the walk one chunk.

    ``spread(walk, seeds)`` returns ``[walk(s) for s in seeds]``;
    enumerate_report passes one that shares the seeds out over several
    processes.  Classes are numbered by first sighting in seed order, so the
    report does not depend on how the seeds were shared out.  A host that
    is not depth 1 raises ValidationError before any seed is walked.
    """
    import hashlib  # here, so that importing memwalk loads no OpenSSL

    host.center_arcs  # looked up once, here, so that a host without them fails first
    probes = list(origin_basis_terms(host))
    ((lo, _, _),), ((hi, _, _),) = probes[0], probes[2]
    probes.append(
        [(lo, 1, 0.5), (lo, -1, 0.5j), (hi, 1, 0.5), (hi, -1, -0.5)]
    )
    starts = [state_from_terms(host, terms) for terms in probes]
    for start in starts:
        _start_check(start, t_max, True)
    coin = hadamard_coin()
    _coin_check(coin, host)
    # Every seed's walks fill the same (probe, time, vertex, coin) chunk.
    chunk_steps = min(t_max + 1, CENSUS_CHUNK_STEPS)
    chunk = np.empty((len(starts), chunk_steps, host.n_vertices, host.degree), np.complex128)

    def walk(seed: int) -> _Sighting:
        p = random_dicycle_factorization(host, seed)
        op = build_shift_operator(p, carried_coin_shift(p))
        # Every probe walks through the seed's one checked shift, with the
        # coin checked above, all five in step.
        walks = [_steps(repeat(op), coin, start, t_max) for start in starts]
        signature = hashlib.sha256()
        for t, states in enumerate(zip(*walks)):
            k = t % chunk_steps
            for probe, s in zip(chunk, states):
                probe[k] = s.amps
            if k == chunk_steps - 1 or t == t_max:
                probs = _position_probs(host, chunk[:, : k + 1])
                signature.update(np.round(probs, 10).tobytes())
        return signature.digest(), partition_center_key(p)

    sightings = spread(walk, seeds)
    signatures: dict[bytes, int] = {}
    class_of: dict[int, int] = {}
    key_of: dict[int, tuple] = {}
    for seed, (signature, key) in zip(seeds, sightings):
        class_of[seed] = signatures.setdefault(signature, len(signatures))
        key_of[seed] = key

    # Keys and classes correspond one to one iff there are as many distinct
    # (class, key) pairs as classes and as keys.
    pairs = {(class_of[seed], key_of[seed]) for seed in seeds}
    consistent = len(pairs) == len(signatures) == len(set(key_of.values()))
    return DistinctWalkReport(len(signatures), class_of, key_of, consistent)

"""Coined-walk engine on partitioned hosts, plus independent memory-walk oracles.

State layout: a complex amplitude per (vertex, coin index), shape (V, m).
One step applies the coin and then the shift:

* coin:  amp'[v, j] = sum_c A[c, j] * amp[v, c]   (row = incoming coin)
* shift: |v, c> -> |f_c(v), gc(v, c)>, an exact basis permutation applied
  as a single gather, never as a matrix multiply.

The two oracle walkers at the bottom evolve the corresponding walks with
explicit position-and-memory registers on a bounded window.  They share no
code with the engine on purpose: they exist to cross-check it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coin_shift import CoinShift, validate_coin_shift
from .constants import UNITARY_ATOL
from .errors import (
    ConstraintViolationError,
    NumericalCheckError,
    ValidationError,
)
from .graphs import RegularDigraph, centered_label, current_position, minimal_window
from .partitions import Partition, coin_index

__all__ = [
    "hadamard_coin",
    "check_unitary",
    "ShiftOp",
    "WalkState",
    "state_from_terms",
    "origin_basis_terms",
    "equivalence_initial_terms",
    "balanced_origin_terms",
    "build_shift_operator",
    "coin_step",
    "shift_step",
    "walk_states",
    "evolve",
    "recycled_coin_walk",
    "reflect_transmit_walk",
]


def hadamard_coin() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


def check_unitary(a: np.ndarray, atol: float = UNITARY_ATOL) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"coin matrix must be square, got shape {a.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf entries
        residual = np.abs(a.conj().T @ a - np.eye(a.shape[0])).max()
    # Written so that a NaN residual fails too.
    if not residual <= atol:
        raise ValidationError(f"coin matrix is not unitary (residual {residual:.3e})")


@dataclass(frozen=True, eq=False)
class ShiftOp:
    """A basis permutation over (vertex, coin) pairs, flat-indexed v*m + c."""

    host: RegularDigraph
    perm: np.ndarray

    def __post_init__(self):
        self.perm.flags.writeable = False

    @cached_property
    def inverse_perm(self) -> np.ndarray:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        inv.flags.writeable = False
        return inv


@dataclass(frozen=True, eq=False)
class WalkState:
    """Amplitudes of one walk, shape (V, m).

    Only the shape is checked here.  Normalization is checked where a state
    enters a run (``state_from_terms`` and the start of ``evolve`` and
    ``experiments.iter_history``), and the loop checks the norm drift after
    every step, so a step computes the norm once.
    """

    host: RegularDigraph
    amps: np.ndarray
    time: int = 0

    def __post_init__(self):
        expected = (self.host.n_vertices, self.host.degree)
        if self.amps.shape != expected:
            raise ValidationError(
                f"amplitude array shape {self.amps.shape}, expected {expected}"
            )
        self.amps.flags.writeable = False

    def norm_squared(self) -> float:
        # A plain numpy reduction, not np.vdot: above 10,000 amplitudes
        # OpenBLAS runs a dot product on its worker threads, which then spin
        # on a second core for every step's check.
        x = self.amps.ravel().view(np.float64)
        return float(np.add.reduce(np.square(x)))


def _check_normalized(state: WalkState) -> None:
    norm = state.norm_squared()
    # Written so that a NaN norm fails too.
    if not abs(norm - 1.0) <= 100 * UNITARY_ATOL:
        raise ValidationError(f"state norm^2 = {norm!r}, expected 1")


def state_from_terms(
    host: RegularDigraph,
    terms: list[tuple[tuple[int, ...], int, complex]],
    time: int = 0,
) -> WalkState:
    """Build a state from (path tuple, coin label, amplitude) terms.

    Coin labels follow the rendered convention (+1/-1 for m = 2).  The
    resulting state must already be normalized; nothing is rescaled here.
    """
    amps = np.zeros((host.n_vertices, host.degree), dtype=np.complex128)
    for path, label, amplitude in terms:
        amps[host.index_of(tuple(path)), coin_index(label, host.degree)] += amplitude
    state = WalkState(host, amps, time)
    _check_normalized(state)
    return state


def origin_basis_terms(host: RegularDigraph) -> list[list[tuple]]:
    """Single-term states spanning everything currently at position 0.

    Deterministic order: vertices by index, coins by +1 before -1.
    """
    out = []
    for v, lab in enumerate(host.labels):
        if current_position(lab) != 0:
            continue
        for c in range(host.degree):
            label = 1 if c == 0 else -1
            out.append([(lab, label, 1.0 + 0.0j)])
    if not out:
        raise ValidationError("host has no vertex at position 0")
    return out


def equivalence_initial_terms(host: RegularDigraph) -> list[tuple]:
    """The alternating-sign origin state used by the equivalence pipeline.

    Amplitudes +-1/2 on ((-1, 0), +1), ((-1, 0), -1), ((1, 0), +1),
    ((1, 0), -1); its walk under reflect/transmit classes with the carried
    coin reproduces the memoryless Hadamard walk distribution exactly.
    """
    if host.depth != 1:
        raise ValidationError("equivalence initial state needs a depth-1 host")
    return [
        ((-1, 0), 1, 0.5),
        ((-1, 0), -1, -0.5),
        ((1, 0), 1, -0.5),
        ((1, 0), -1, 0.5),
    ]


def balanced_origin_terms(host: RegularDigraph) -> list[tuple]:
    """Documented default start for statistics sweeps: every origin basis
    state weighted equally, coin -1 components in quadrature."""
    terms = []
    states = origin_basis_terms(host)
    amp = 1.0 / np.sqrt(len(states))
    for ((path, label, _),) in states:
        phase = 1.0 if label == 1 else 1.0j
        terms.append((path, label, amp * phase))
    return terms


def build_shift_operator(p: Partition, gc: CoinShift) -> ShiftOp:
    """Assemble the conditional move into a checked basis permutation."""
    if gc.table.shape != p.succ.shape:
        raise ValidationError("partition and coin shift live on different hosts")
    report = validate_coin_shift(p, gc)
    if not report.ok:
        raise ConstraintViolationError(
            f"coin shift violates the permutation constraint at "
            f"{len(report.violations)} target(s)",
            report.violations,
        )
    return ShiftOp(p.host, (p.succ * p.degree + gc.table).ravel())


def coin_step(state: WalkState, coin: np.ndarray) -> WalkState:
    """Apply the coin at every vertex.  ``walk_states`` checks the coin once
    per run, so it is not checked here."""
    return WalkState(state.host, state.amps @ coin, state.time)


def shift_step(state: WalkState, op: ShiftOp) -> WalkState:
    flat = state.amps.ravel()
    moved = flat[op.inverse_perm].reshape(state.amps.shape)
    return WalkState(state.host, moved, state.time + 1)


def _window_check(host: RegularDigraph, initial: WalkState, t_max: int) -> None:
    if not host.centered:
        raise ValidationError("window enforcement needs a centered host")
    half = (host.base_n - 1) // 2
    support = np.flatnonzero(np.abs(initial.amps).sum(axis=1) > 0)
    start = max(
        abs(entry) for v in support for entry in host.labels[int(v)]
    )
    reach = start + t_max
    if reach > half - 1:
        raise ValidationError(
            f"window {host.base_n} too small: support may reach +-{reach}, "
            f"need window >= {minimal_window(t_max, host.depth)} for an "
            f"origin start"
        )


def _start_check(
    host: RegularDigraph, initial: WalkState, t_max: int, enforce_window: bool
) -> None:
    """Checks made before a run's shift is built: t_max, host, the start
    state's normalization and the window."""
    if t_max < 0:
        raise ValidationError(f"t_max must be >= 0, got {t_max}")
    if initial.host is not host:
        raise ValidationError("initial state lives on a different host")
    _check_normalized(initial)
    if enforce_window:
        _window_check(host, initial, t_max)


def walk_states(
    shift: Callable[[int], ShiftOp],
    coin: np.ndarray,
    initial: WalkState,
    t_max: int,
) -> Iterator[WalkState]:
    """Yield the states for t = 0..t_max of coin-then-shift evolution.

    ``shift(t)`` is the ShiftOp moving the walk from t-1 to t (t = 1..t_max).
    The coin is checked once, when this is called, so a bad coin fails
    before the caller writes anything; the norm drift is checked after
    every step.  Callers check t_max, the host, normalization and the window
    first (``evolve`` and ``experiments.iter_history`` do).  Only the current
    state is held, so memory does not grow with t_max.
    """
    check_unitary(coin)
    if coin.shape[0] != initial.host.degree:
        raise ValidationError(
            f"coin dimension {coin.shape[0]} != host degree {initial.host.degree}"
        )
    return _steps(shift, coin, initial, t_max)


def _steps(
    shift: Callable[[int], ShiftOp],
    coin: np.ndarray,
    initial: WalkState,
    t_max: int,
) -> Iterator[WalkState]:
    yield initial
    state = initial
    for t in range(1, t_max + 1):
        state = shift_step(coin_step(state, coin), shift(t))
        drift = abs(state.norm_squared() - 1.0)
        # Written so that a NaN norm fails too.
        if not drift <= UNITARY_ATOL:
            raise NumericalCheckError(
                f"norm drift {drift:.3e} at t={state.time} exceeds {UNITARY_ATOL}"
            )
        yield state


def evolve(
    partition: Partition,
    gc: CoinShift,
    coin: np.ndarray,
    initial: WalkState,
    t_max: int,
    enforce_window: bool = True,
) -> list[WalkState]:
    """Run t_max steps of coin-then-shift; returns states for t = 0..t_max.

    Checks the start state's normalization and the no-wrap window up front
    (line-surrogate semantics) and norm preservation after every step.  The
    whole history is kept; stream ``walk_states`` instead when only a
    per-step summary is needed.
    """
    _start_check(partition.host, initial, t_max, enforce_window)
    op = build_shift_operator(partition, gc)
    return list(walk_states(lambda t: op, coin, initial, t_max))


# -- independent oracle walkers ------------------------------------------------
#
# Both walkers keep explicit registers on a centered window of odd size n and
# return one position-probability vector per time step, aligned with
# graphs.centered_positions(n).  Array axis conventions are local to each
# walker; they are deliberately not shared with the engine.


def _window_index(x: int, n: int) -> int:
    return x % n


def _probabilities(psi: np.ndarray) -> np.ndarray:
    flat = np.abs(psi.reshape(psi.shape[0], -1)) ** 2
    probs = flat.sum(axis=1)
    half = (probs.shape[0] - 1) // 2
    # Reorder raw window indices into centered order -half..+half.
    return np.concatenate([probs[-half:], probs[: half + 1]])


def recycled_coin_walk(
    d: int,
    coin: np.ndarray,
    initial: list[tuple[int, tuple[int, ...], complex]],
    t_max: int,
    window: int,
) -> list[np.ndarray]:
    """Walk with d remembered steps and a recycled coin register.

    State basis |x, c_1, ..., c_d, c>: c_i is the step taken i steps ago and
    c is the active coin.  Each step applies the coin to c, then moves by c,
    pushes c to the front of the memory and recycles the oldest entry c_d
    into the coin register.  ``initial`` lists (x, (c_1..c_d, c), amplitude)
    with x centered and every c_i in {+1, -1}.
    """
    if d < 1:
        raise ValidationError(f"memory depth must be >= 1, got {d}")
    if window % 2 == 0 or window < 3:
        raise ValidationError(f"window must be odd and >= 3, got {window}")
    check_unitary(coin)
    if coin.shape != (2, 2):
        raise ValidationError("recycled-coin walker is two-state only")

    shape = (window,) + (2,) * (d + 1)
    psi = np.zeros(shape, dtype=np.complex128)
    for x, regs, amp in initial:
        if len(regs) != d + 1:
            raise ValidationError(f"expected {d + 1} coin registers, got {len(regs)}")
        idx = (_window_index(x, window),) + tuple(0 if r == 1 else 1 for r in regs)
        psi[idx] += amp
    if abs(np.vdot(psi, psi).real - 1.0) > 100 * UNITARY_ATOL:
        raise ValidationError("initial oracle state is not normalized")

    out = [_probabilities(psi)]
    for _ in range(t_max):
        psi = np.tensordot(psi, coin, axes=([d + 1], [0]))
        moved = np.empty_like(psi)
        for j, step in enumerate((1, -1)):
            # New memory front = the coin just used; the oldest memory entry
            # lands in the coin register by pure axis alignment.
            moved[:, j, ...] = np.roll(psi[..., j], step, axis=0)
        psi = moved
        out.append(_probabilities(psi))
    return out


def reflect_transmit_walk(
    coin: np.ndarray,
    initial: list[tuple[int, int, int, complex]],
    t_max: int,
    window: int,
) -> list[np.ndarray]:
    """Walk remembering its previous position, reflecting or transmitting.

    State basis |x0, x1, c> with current position x0 and previous position
    x1 = x0 -+ 1.  After the coin acts, coin +1 returns the walker to x1
    (reflect) and coin -1 carries it straight through to 2*x0 - x1
    (transmit).  ``initial`` lists (x0, x1, coin label, amplitude).
    """
    if window % 2 == 0 or window < 3:
        raise ValidationError(f"window must be odd and >= 3, got {window}")
    check_unitary(coin)
    if coin.shape != (2, 2):
        raise ValidationError("reflect/transmit walker is two-state only")

    # Axis 1 encodes the previous position relative to the current one:
    # r = 0 means x1 = x0 - 1, r = 1 means x1 = x0 + 1.
    psi = np.zeros((window, 2, 2), dtype=np.complex128)
    for x0, x1, label, amp in initial:
        rel = (x1 - x0) % window
        if rel == window - 1:
            r = 0
        elif rel == 1:
            r = 1
        else:
            raise ValidationError(f"positions {x0}, {x1} are not adjacent")
        psi[_window_index(x0, window), r, 0 if label == 1 else 1] += amp
    if abs(np.vdot(psi, psi).real - 1.0) > 100 * UNITARY_ATOL:
        raise ValidationError("initial oracle state is not normalized")

    out = [_probabilities(psi)]
    for _ in range(t_max):
        psi = np.tensordot(psi, coin, axes=([2], [0]))
        moved = np.empty_like(psi)
        # reflect (coin +1): (x, r=0) -> (x-1, r=1); (x, r=1) -> (x+1, r=0)
        moved[:, 1, 0] = np.roll(psi[:, 0, 0], -1)
        moved[:, 0, 0] = np.roll(psi[:, 1, 0], 1)
        # transmit (coin -1): (x, r=0) -> (x+1, r=0); (x, r=1) -> (x-1, r=1)
        moved[:, 0, 1] = np.roll(psi[:, 0, 1], 1)
        moved[:, 1, 1] = np.roll(psi[:, 1, 1], -1)
        psi = moved
        out.append(_probabilities(psi))
    return out

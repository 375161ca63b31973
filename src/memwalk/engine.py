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

import ctypes
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .coin_shift import CoinShift, validate_coin_shift
from .constants import UNITARY_ATOL
from .errors import (
    ConstraintViolationError,
    NumericalCheckError,
    ValidationError,
)
from .graphs import RegularDigraph, minimal_window
from .partitions import Partition, coin_index

__all__ = [
    "hadamard_coin",
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


def check_unitary(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"coin matrix must be square, got shape {a.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf entries
        residual = np.abs(a.conj().T @ a - np.eye(a.shape[0])).max()
    # Written so that a NaN residual fails too.
    if not residual <= UNITARY_ATOL:
        raise ValidationError(f"coin matrix is not unitary (residual {residual:.3e})")


class WalkState:
    """Amplitudes of one walk, shape (V, m); ``amps`` is made read-only.

    Only the shape is checked here.  ``coin_step`` and ``shift_step`` build
    their states through ``_derived``, which checks the shape against the
    parent state's instead.  Normalization is checked where a state enters a
    run (``state_from_terms`` and the start of ``walk_states``), and the loop
    checks the norm drift after every step, so a step computes the norm once.
    """

    __slots__ = ("host", "amps", "time")

    def __init__(self, host: RegularDigraph, amps: np.ndarray, time: int = 0):
        # out_neighbors has shape (n_vertices, degree); reading it directly
        # skips two property calls on every step's two states.
        expected = host.out_neighbors.shape
        if amps.shape != expected:
            raise ValidationError(f"amplitude array shape {amps.shape}, expected {expected}")
        amps.flags.writeable = False
        self.host = host
        self.amps = amps
        self.time = time

    def norm_squared(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def _one_blas_thread() -> None:
    """Cap numpy's bundled OpenBLAS at one thread, for the whole process.

    Above 10,000 elements OpenBLAS splits a dot product over its worker
    threads, which sum in another order, so a statistic would depend on the
    CPU count, and the workers would spin on a second core for every step's
    norm check.  OPENBLAS_NUM_THREADS would act only if set before numpy
    loads.  A numpy without the bundled library is left as it is.  Called
    once, below, when this module is imported: every memwalk BLAS call and
    every fork comes after it.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_-*.so")):
        set_num_threads = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
        set_num_threads(1)
        return


_one_blas_thread()


def _check_normalized(state: WalkState) -> None:
    norm = state.norm_squared()
    # Written so that a NaN norm fails too.
    if not abs(norm - 1.0) <= 100 * UNITARY_ATOL:
        raise ValidationError(f"state norm^2 = {norm!r}, expected 1")


def state_from_terms(
    host: RegularDigraph,
    terms: list[tuple[tuple[int, ...], int, complex]],
) -> WalkState:
    """Build a state from (path, coin label, amplitude) terms.

    Coin labels follow the rendered convention (+1/-1 for m = 2).  The
    resulting state must already be normalized; nothing is rescaled here.
    """
    amps = np.zeros((host.n_vertices, host.degree), dtype=np.complex128)
    for path, label, amplitude in terms:
        amps[host.index_of(path), coin_index(label, host.degree)] += amplitude
    state = WalkState(host, amps)
    _check_normalized(state)
    return state


def origin_basis_terms(host: RegularDigraph) -> list[list[tuple]]:
    """Single-term states spanning everything currently at position 0.

    Deterministic order: vertices by index, then coins by index, labelled as
    coin_index reads them: +1 before -1 at m = 2, else 1..m.
    """
    paths = host.paths[host.paths[:, -1] == 0].tolist()
    if not paths:
        raise ValidationError("host has no vertex at position 0")
    labels = [1, -1] if host.degree == 2 else list(range(1, host.degree + 1))
    return [[(tuple(path), label, 1.0 + 0.0j)] for path in paths for label in labels]


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
    state weighted equally, every coin but the first (label -1 at m = 2) in
    quadrature."""
    terms = []
    states = origin_basis_terms(host)
    amp = 1.0 / np.sqrt(len(states))
    for ((path, label, _),) in states:
        phase = 1.0 if label == 1 else 1.0j
        terms.append((path, label, amp * phase))
    return terms


def build_shift_operator(p: Partition, gc: CoinShift) -> np.ndarray:
    """Assemble the conditional move into a checked basis permutation.

    Returns the permutation over (vertex, coin) cells, flat-indexed v*m + c,
    as the read-only gather index shift_step uses: entry j is the cell whose
    amplitude moves to j.  validate_coin_shift's check fills it in.
    """
    inverse = np.empty(p.succ.size, dtype=np.intp)
    report = validate_coin_shift(p, gc, inverse)
    if not report.ok:
        raise ConstraintViolationError(
            f"coin shift violates the permutation constraint at "
            f"{len(report.violations)} target(s)",
            report.violations,
        )
    inverse.flags.writeable = False
    return inverse


def _derived(state: WalkState, amps: np.ndarray, time: int) -> WalkState:
    """The state one step makes from ``state``: its host, ``amps`` and ``time``.

    ``state``'s shape was checked against its host when it was built, so a
    derived state checks only that ``amps`` keeps that shape (a coin of
    another width would not), without ``WalkState.__init__``'s host lookup.
    """
    if amps.shape != state.amps.shape:
        raise ValidationError(f"amplitude array shape {amps.shape}, expected {state.amps.shape}")
    amps.setflags(write=False)  # half the cost of amps.flags.writeable = False
    new = object.__new__(WalkState)
    new.host, new.amps, new.time = state.host, amps, time
    return new


def coin_step(state: WalkState, coin: np.ndarray) -> WalkState:
    """Apply the coin at every vertex.  ``walk_states`` checks the coin once
    per run, so it is not checked here."""
    return _derived(state, state.amps @ coin, state.time)


def shift_step(state: WalkState, shift: np.ndarray) -> WalkState:
    """Gather through ``shift``, a gather index from build_shift_operator."""
    amps = state.amps
    return _derived(state, amps.ravel()[shift].reshape(amps.shape), state.time + 1)


def _window_check(initial: WalkState, t_max: int) -> None:
    host = initial.host
    if not host.centered:
        raise ValidationError("window enforcement needs a centered host")
    half = (host.base_n - 1) // 2
    support = np.flatnonzero(np.abs(initial.amps).sum(axis=1) > 0)
    reach = int(np.abs(host.paths[support]).max()) + t_max
    if reach > half - 1:
        raise ValidationError(
            f"window {host.base_n} too small: support may reach +-{reach}, "
            f"need window >= {minimal_window(t_max, host.depth)} for an "
            f"origin start"
        )


def _start_check(initial: WalkState, t_max: int, enforce_window: bool) -> None:
    """The checks of a run's start: t_max, the start state's normalization
    and, when ``enforce_window``, the no-wrap window."""
    if t_max < 0:
        raise ValidationError(f"t_max must be >= 0, got {t_max}")
    _check_normalized(initial)
    if enforce_window:
        _window_check(initial, t_max)


def walk_states(
    partition: Partition | Callable[[int], Partition],
    gc: CoinShift,
    coin: np.ndarray,
    initial: WalkState,
    t_max: int,
    enforce_window: bool = True,
) -> Iterator[WalkState]:
    """Yield the states for t = 0..t_max of coin-then-shift evolution.

    ``partition`` is the walk's Partition, or a function of t returning the
    Partition that moves the walk from t-1 to t (t = 1..t_max); ``gc`` is
    the coin shift of every step.  Checked when this is called, in order:
    t_max, the start state's normalization, the no-wrap window
    (line-surrogate semantics; pass ``enforce_window=False`` on a cycle),
    the coin, that ``gc`` and step 1's partition live on the start state's
    host, and step 1's shift, so a bad start fails before the caller writes
    anything.  A function is asked for each later partition just before its
    step, whose host and shift are checked then.  The norm drift is checked
    after every step.  Only the current state is held.
    """
    _start_check(initial, t_max, enforce_window)
    _coin_check(coin, initial.host)
    if gc.host is not initial.host:
        raise ValidationError("coin shift lives on a different host from the start state")
    # build_shift_operator checks that each partition lives on gc's host.
    if isinstance(partition, Partition):
        shifts = repeat(build_shift_operator(partition, gc))
    else:
        later = (build_shift_operator(partition(t), gc) for t in range(2, t_max + 1))
        shifts = chain([build_shift_operator(partition(1), gc)], later)
    return _steps(shifts, coin, initial, t_max)


def _coin_check(coin: np.ndarray, host: RegularDigraph) -> None:
    """The coin is unitary and acts on the host's coin space.  A caller that
    walks one coin from many starts checks it once and runs ``_steps``."""
    check_unitary(coin)
    if coin.shape[0] != host.degree:
        raise ValidationError(f"coin dimension {coin.shape[0]} != host degree {host.degree}")


def _steps(
    shifts: Iterable[np.ndarray],
    coin: np.ndarray,
    initial: WalkState,
    t_max: int,
) -> Iterator[WalkState]:
    yield initial
    state = initial
    # zip draws from the range first, so no shift is drawn past t_max.
    for _, shift in zip(range(t_max), shifts):
        state = shift_step(coin_step(state, coin), shift)
        drift = abs(np.vdot(state.amps, state.amps).real - 1.0)
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
) -> list[WalkState]:
    """Run t_max steps of coin-then-shift; returns states for t = 0..t_max.

    Makes ``walk_states``'s checks.  The whole history is kept; stream
    ``walk_states`` instead when only a per-step summary is needed.
    """
    return list(walk_states(partition, gc, coin, initial, t_max))


# -- independent oracle walkers ------------------------------------------------
#
# Both walkers keep explicit registers on a centered window of odd size n and
# return one position-probability vector per time step, aligned with
# graphs.centered_positions(n).  Array axis conventions are local to each
# walker; they are deliberately not shared with the engine.


def _window_index(x: int, n: int) -> int:
    return x % n


def _roll_into(dest: np.ndarray, src: np.ndarray, step: int) -> None:
    """dest[...] = np.roll(src, step, axis=0) for step +1 or -1, as two slice
    copies, without np.roll's general set-up."""
    if step == 1:
        dest[1:], dest[0] = src[:-1], src[-1]
    else:
        dest[:-1], dest[-1] = src[1:], src[0]


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
        # The coin on the last axis, as np.tensordot computes it.
        psi = np.dot(psi.reshape(-1, 2), coin).reshape(psi.shape)
        moved = np.empty_like(psi)
        for j, step in enumerate((1, -1)):
            # New memory front = the coin just used; the oldest memory entry
            # lands in the coin register by pure axis alignment.
            _roll_into(moved[:, j, ...], psi[..., j], step)
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
        # The coin on the last axis, as np.tensordot computes it.
        psi = np.dot(psi.reshape(-1, 2), coin).reshape(psi.shape)
        moved = np.empty_like(psi)
        # reflect (coin +1): (x, r=0) -> (x-1, r=1); (x, r=1) -> (x+1, r=0)
        _roll_into(moved[:, 1, 0], psi[:, 0, 0], -1)
        _roll_into(moved[:, 0, 0], psi[:, 1, 0], 1)
        # transmit (coin -1): (x, r=0) -> (x+1, r=0); (x, r=1) -> (x-1, r=1)
        _roll_into(moved[:, 0, 1], psi[:, 0, 1], 1)
        _roll_into(moved[:, 1, 1], psi[:, 1, 1], -1)
        psi = moved
        out.append(_probabilities(psi))
    return out

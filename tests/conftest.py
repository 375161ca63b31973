from __future__ import annotations

import math
import os
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from memwalk import (
    CoinShift,
    Partition,
    dicycle_factorize_base,
    engine,
    experiments,
    iterate_line_digraph,
    line_digraph,
    make_bidirected_cycle,
    minimal_window,
)
from memwalk.coin_shift import _target_groups
from memwalk.graphs import RegularDigraph, _lift_factorization

settings.register_profile(
    "memwalk",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("memwalk")

# one line per acceptance criterion, echoed after the run
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return acceptance_lines


@pytest.fixture(scope="session")
def cycle5():
    return make_bidirected_cycle(5)


@pytest.fixture(scope="session")
def small_host():
    # 6 vertices: the smallest depth-1 host, used by enumeration tests
    return iterate_line_digraph(make_bidirected_cycle(3), 1)


@pytest.fixture(scope="session")
def host_d1():
    # roomy enough for t <= 30 without wrap
    return iterate_line_digraph(make_bidirected_cycle(minimal_window(30, 1)), 1)


@pytest.fixture(scope="session")
def host_d2():
    return iterate_line_digraph(make_bidirected_cycle(minimal_window(30, 2)), 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs in the affinity mask and no cgroup CPU quota."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(experiments, "_cgroup_cpu_quota", lambda: math.inf)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked while the test runs."""
    real_fork = os.fork
    pids = []

    def fork():
        pid = real_fork()
        if pid != 0:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def step_calls(monkeypatch):
    """Calls of engine.coin_step and engine.shift_step while the test runs;
    perfbench counts engine.coin_step calls as walk steps."""
    calls = {"coin_step": 0, "shift_step": 0}
    for name in calls:
        real = getattr(engine, name)

        def counting(state, arg, name=name, real=real):
            calls[name] += 1
            return real(state, arg)

        monkeypatch.setattr(engine, name, counting)
    return calls


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


# -- path-tuple references ---------------------------------------------------------
# Per-vertex builders over path tuples: the references that the array-built
# hosts, partitions and start states are compared with.


def centered_label(raw: int, n: int) -> int:
    """Map a raw cycle vertex 0..n-1 to the centered window (odd n)."""
    raw %= n
    return raw if raw <= (n - 1) // 2 else raw - n


def step_direction(a: int, b: int, n: int) -> int:
    """Direction (+1 or -1) of the cycle step from a to b."""
    delta = (b - a) % n
    if delta == 1:
        return 1
    if delta == n - 1:
        return -1
    raise ValueError(f"labels {a} and {b} are not adjacent on a {n}-cycle")


def advance_label(label: int, delta: int, n: int, centered: bool) -> int:
    """Move a cycle label by delta steps, staying in the label convention."""
    raw = (label + delta) % n
    return centered_label(raw, n) if centered else raw


def seeded_host(base: RegularDigraph, depth: int, seed: int | None) -> RegularDigraph:
    """iterate_line_digraph(base, depth), but built on the base
    factorization dicycle_factorize_base(base, seed) draws."""
    if seed is None:
        return iterate_line_digraph(base, depth)
    host, classes = base, dicycle_factorize_base(base, seed)
    for _ in range(depth):
        lifted = _lift_factorization(host.n_vertices, host.degree, classes)
        host, classes = line_digraph(host, classes), lifted
    return host


@cache
def reference_host(
    window: int, depth: int, seed: int | None
) -> tuple[RegularDigraph, tuple[tuple[int, ...], ...]]:
    """seeded_host's host on a window-cycle, and its path tuples as
    line_digraph's label loop built them from the same factorizations."""
    centered = window % 2 == 1
    labels = [(centered_label(x, window),) if centered else (x,) for x in range(window)]
    base = make_bidirected_cycle(window)
    classes = dicycle_factorize_base(base, seed) if depth else None
    for _ in range(depth):
        n = len(labels)
        inverses = [np.argsort(perm) for perm in classes]
        labels = [labels[int(inv[u])] + (labels[u][-1],) for inv in inverses for u in range(n)]
        classes = _lift_factorization(n, 2, classes)
    return seeded_host(base, depth, seed), tuple(labels)


def reference_hosts():
    """reference_host for base windows 3-41 of both parities, depths 0-3 and
    base-factorization seeds None, 3 and 7."""
    for depth in range(4):
        for seed in (None, 3, 7):
            for window in range(3, 42):
                yield reference_host(window, depth, seed)

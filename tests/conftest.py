from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from memwalk import experiments, iterate_line_digraph, make_bidirected_cycle, minimal_window

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

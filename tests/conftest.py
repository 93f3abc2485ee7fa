"""Shared fixtures for the test suite, and a resource-leak guard around every test.

The guard records this process's open file descriptors, the ``/dev/shm``
entries and the live ``multiprocessing`` children before each test.  After
the test it waits up to :data:`LEAK_WAIT_S` seconds for all three to return
to that record (pool workers exit asynchronously after ``shutdown``), and
fails the test at teardown naming whatever is still open: a pool that was
never shut down, a shared-memory segment that was never unlinked, a file
descriptor that was never closed.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import shared_memory
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph

#: how long a test's resources get to wind down before they count as leaked
LEAK_WAIT_S = 5.0

Resources = Tuple[Dict[int, str], Set[str], Dict[int, str]]


def _open_fds() -> Dict[int, str]:
    fds = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            fds[int(name)] = os.readlink(f"/proc/self/fd/{name}")
        except OSError:  # the listing's own directory fd, closed by now
            pass
    return fds


def _resources() -> Resources:
    children = {p.pid: p.name for p in multiprocessing.active_children()}
    return _open_fds(), set(os.listdir("/dev/shm")), children


def _leaks(before: Resources, after: Resources) -> List[str]:
    """What ``after`` holds that ``before`` did not, one line per resource."""
    fds_then, shm_then, children_then = before
    fds_now, shm_now, children_now = after
    return (
        [f"fd {fd} -> {path}" for fd, path in sorted(fds_now.items()) if fds_then.get(fd) != path]
        + [f"/dev/shm/{name}" for name in sorted(shm_now - shm_then)]
        + [
            f"child process {pid} ({name})"
            for pid, name in sorted(children_now.items())
            if pid not in children_then
        ]
    )


@pytest.fixture(scope="session")
def _resource_tracker() -> None:
    """Start multiprocessing's resource tracker before the first record.

    The tracker starts on the first shared-memory segment and keeps a pipe
    open for the rest of the interpreter's life, which would otherwise read
    as a leak of whichever test created the first segment.
    """
    segment = shared_memory.SharedMemory(create=True, size=1)
    segment.close()
    segment.unlink()


def _still_open(before: Resources, wait_s: float = LEAK_WAIT_S) -> List[str]:
    """Wait up to ``wait_s`` for resources to return to ``before``; list what did not."""
    deadline = time.monotonic() + wait_s
    while leaked := _leaks(before, _resources()):
        if time.monotonic() > deadline:
            return leaked
        time.sleep(0.02)
    return []


@pytest.fixture(autouse=True)
def _no_leaked_resources(_resource_tracker: None):
    before = _resources()
    yield
    leaked = _still_open(before)
    if leaked:
        pytest.fail(
            f"test left resources open after {LEAK_WAIT_S:g} s: " + ", ".join(leaked),
            pytrace=False,
        )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_cycle() -> DynamicGraph:
    """A 12-node cycle: connected, sparse, minimum degree 2."""
    return generators.cycle_graph(12)


@pytest.fixture
def small_path() -> DynamicGraph:
    """A 10-node path: connected, minimum degree 1."""
    return generators.path_graph(10)


@pytest.fixture
def small_star() -> DynamicGraph:
    """A 9-node star: diameter 2, very uneven degrees."""
    return generators.star_graph(9)


@pytest.fixture
def small_digraph() -> DynamicDiGraph:
    """A 8-node directed cycle (strongly connected, out-degree 1)."""
    from repro.graphs import directed_generators

    return directed_generators.directed_cycle(8)

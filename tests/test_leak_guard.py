"""The resource-leak guard of ``tests/conftest.py`` sees the leaks it exists for.

Each test records the resources, re-creates one leak (or one thing that
must not read as a leak), checks what the guard's diff reports, and then
cleans up so that the autouse guard around the test itself stays quiet.
The leaks are the ones the guard replaced a static rule for: a pool that
is never shut down, a shared-memory segment closed but never unlinked, and
the temp-file descriptor of an atomic write left open.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory

from conftest import _leaks, _open_fds, _resources, _still_open
from repro.simulation import io


def test_untouched_resources_read_as_no_leak():
    assert _leaks(_resources(), _resources()) == []


def test_unclosed_file_is_named(tmp_path):
    path = (tmp_path / "held.txt").resolve()
    before = _resources()
    handle = open(path, "w")
    fd = handle.fileno()
    try:
        leaked = _still_open(before, wait_s=0.05)
    finally:
        handle.close()
    assert leaked == [f"fd {fd} -> {path}"]
    assert _still_open(before) == []


def test_fd_number_reused_for_another_file_is_named():
    before = ({3: "/tmp/a"}, set(), {})
    assert _leaks(before, ({3: "/tmp/b"}, set(), {})) == ["fd 3 -> /tmp/b"]


def test_closing_a_recorded_fd_is_not_a_leak():
    before = ({3: "/tmp/a", 4: "/tmp/b"}, {"psm_x"}, {11: "ForkProcess-1"})
    assert _leaks(before, ({3: "/tmp/a"}, set(), {})) == []


def test_segment_closed_but_not_unlinked_is_named():
    before = _resources()
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()  # closed, but never unlinked
    try:
        assert _leaks(before, _resources()) == [f"/dev/shm/{segment.name.lstrip('/')}"]
    finally:
        segment.unlink()
    assert _still_open(before) == []


def test_resource_tracker_is_running_before_the_first_record():
    before = _resources()
    segment = shared_memory.SharedMemory(create=True, size=1)
    segment.close()
    segment.unlink()
    assert _leaks(before, _resources()) == []


def test_atomic_write_that_keeps_its_fd_is_named(tmp_path, monkeypatch):
    target = (tmp_path / "result.bin").resolve()
    monkeypatch.setattr(os, "fdopen", functools.partial(os.fdopen, closefd=False))
    before = _resources()
    io.atomic_write_bytes(target, b"payload")
    kept = sorted(set(_open_fds()) - set(before[0]))
    try:
        assert _leaks(before, _resources()) == [f"fd {kept[0]} -> {target}"]
    finally:
        for fd in kept:
            os.close(fd)
    assert target.read_bytes() == b"payload"


def test_pool_left_running_is_named():
    before = _resources()
    pool = ProcessPoolExecutor(max_workers=1)
    try:
        assert pool.submit(abs, -3).result() == 3
        leaked = _leaks(before, _resources())
    finally:
        pool.shutdown(wait=True)
    assert any(line.startswith("child process") for line in leaked)
    assert _still_open(before) == []


def test_child_that_exits_within_the_wait_is_not_a_leak():
    before = _resources()
    pool = ProcessPoolExecutor(max_workers=1)
    pool.submit(time.sleep, 0.1)
    pool.shutdown(wait=False)  # workers wind down after the test body returns
    assert _still_open(before) == []

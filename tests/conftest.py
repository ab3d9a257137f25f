"""Checks every test in this directory gets."""

from __future__ import annotations

import threading

import pytest


def _pool_threads() -> set[threading.Thread]:
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("ThreadPoolExecutor-")
    }


@pytest.fixture(autouse=True)
def no_pool_thread_outlives_the_test():
    """Fail a test that leaves a `ThreadPoolExecutor` worker alive, such as a
    fan-out helper that is never joined. Threads are picked by that name
    prefix, so the HTTP test servers' threads do not count."""
    before = _pool_threads()
    yield
    left = _pool_threads() - before
    assert not left, f"executor threads still alive: {sorted(t.name for t in left)}"

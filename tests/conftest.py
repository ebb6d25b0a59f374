"""Checks shared by every test module."""

import multiprocessing
import signal

import pytest


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Every process a test starts is gone when it returns, so each test
    that runs the harness at jobs > 1 also checks that its workers ended.
    A stray is ended before the test fails, so that it cannot hold up the
    tests after it or the suite's exit."""
    yield
    stray = multiprocessing.active_children()
    for child in stray:
        child.terminate()
        child.join()
    assert stray == []


@pytest.fixture
def deadline():
    """Fail a test that runs past 60 s instead of hanging the suite: for
    tests whose failure mode is a wait on a worker process that never ends."""
    def expire(signum, frame):
        raise AssertionError("still running after 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)

"""Checks shared by every test module."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Every process a test starts is gone when it returns, so each test
    that runs the harness at jobs > 1 also checks that the pool shut down."""
    yield
    assert multiprocessing.active_children() == []

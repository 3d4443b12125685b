"""Shared fixtures."""

import os

import pytest

from levyprey import parallel


@pytest.fixture
def cores(monkeypatch):
    """cores(n) makes the package see n usable cores and spread any work,
    however small, over them; cores(1) runs everything in-process."""
    monkeypatch.setattr(parallel, "_FORK_MIN", 0)

    def pin(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return pin


def assert_no_children() -> None:
    """Every child process this one started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

"""Shared fixtures."""

import os

import numpy as np
import pytest

from levyprey import oracle, parallel


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


def rk4_self_convergence(p, d, h, dts, t_end):
    """The reference solver against itself: the max-norm error of its
    solution at each dt (descending) against its solution at min(dts) / 4,
    with the observed order."""
    ref_dt = min(dts) / 4.0
    ref = oracle.solve_deterministic(p, d, h, ref_dt, t_end).states
    errs = []
    for dt in dts:
        states = oracle.solve_deterministic(p, d, h, dt, t_end).states
        errs.append(float(np.max(np.abs(states - ref[::round(dt / ref_dt)]))))
    return oracle._order_table(dts, errs)

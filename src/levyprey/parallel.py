"""Independent tasks spread over the usable cores, with results in task order.

run_tasks splits a list of tasks into contiguous shares, one per usable core
(``len(os.sched_getaffinity(0))``) and at most one per task. The calling
process runs the first share itself; forked children run the others. A task
is a closure that a child sees as the caller's memory stood at the fork, so
the numbers are the ones the caller would have computed. Two things cross a
child's pipe: first the ``fill`` arrays of its share's tasks, in task order,
as raw bytes that the caller reads in place into the same arrays (no pickled
copy, so the caller's memory does not grow by them), then its tasks' results
and fault, pickled. A child points its stdout and stderr, both the
descriptors and sys.stdout and sys.stderr, at os.devnull, so it never writes
to the caller's, and leaves through os._exit, so no buffer, exit hook or
``finally`` of the caller runs twice. There are no helper threads. Every
child is reaped before run_tasks returns or raises, also on
KeyboardInterrupt. A task may itself call run_tasks: on Linux a child dies
with its parent (prctl PR_SET_PDEATHSIG), and a spread splits among its
shares the processes its caller may keep running, twice the cores at the top.

The tasks run in the calling process, one after another, when one core is
usable, os.fork is missing, another Python thread runs (a child would get
only the forking thread, and any lock another thread held stays held),
their work is below _FORK_MIN step-replicates, or the shares would hold
more memory together than the caller gives them room for.
On a 2-core Xeon VM the bare fork and reap of the 36 MB process take 2.5 ms,
and with the pipe and the child's first writes to its copied pages a fork
costs 3 to 8 ms. Persist ensembles, in-process against forked (median wall
time of 40 alternating runs), cross over between 5000 and 10000
step-replicates: with 2 replicates 4.4 vs 12.4 ms at 1000, 16.7 vs 26.9 ms at
5000, 32.3 vs 31.2 ms at 10000 and 62.2 vs 44.4 ms at 20000; with 8
replicates 5.8 vs 9.7, 17.9 vs 21.7 and 34.9 vs 27.7 ms at the first three.
_FORK_MIN = 10000 is the first round number past the crossover.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import threading
from typing import Any, Callable, Sequence, TypeVar

T = TypeVar("T")

# the fewest step-replicates whose tasks are spread over the cores
_FORK_MIN = 10000

# the processes this one and its descendants may run at once (None: twice the cores)
_budget: int | None = None


def _run(tasks: Sequence[Callable[[], T]], budget: int | None) -> tuple[list[T], Exception | None]:
    """Run tasks in turn under budget, up to the first that raises: (results, its exception or None)."""
    global _budget
    outer, _budget = _budget, budget
    results = []
    try:
        for task in tasks:
            results.append(task())
    except Exception as exc:
        return results, exc
    finally:
        _budget = outer
    return results, None


def _spawn(tasks: Sequence[Callable[[], T]], arrays: list[memoryview], budget: int):
    """Fork a child that runs tasks under budget, sends arrays and then (results,
    fault) through a pipe and exits; returns its pid and the pipe's read end."""
    r, w = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    code = 1
    try:
        os.close(r)
        if sys.platform == "linux":  # PR_SET_PDEATHSIG: SIGKILL when the caller dies
            import ctypes
            with contextlib.suppress(AttributeError, OSError):  # no prctl: it outlives a killed caller
                ctypes.CDLL(None).prctl(1, ctypes.c_ulong(signal.SIGKILL))
        if os.getppid() != parent:  # the caller died before that took hold
            return
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        sys.stdout = sys.stderr = open(null, "w")  # they may write to other descriptors
        results, fault = _run(tasks, budget)
        try:
            pickle.loads(pickle.dumps(fault))
        except Exception:  # an exception that does not survive pickling keeps its text
            fault = RuntimeError(f"{type(fault).__name__}: {fault}")
        with os.fdopen(w, "wb") as fh:
            for view in arrays:
                fh.write(view)
            pickle.dump((results, fault), fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _cores() -> int:
    """The usable cores: at least as many as the shares of any spread."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _shares(n_tasks: int, work: int) -> int:
    """The shares run_tasks splits n_tasks tasks of ``work`` step-replicates
    into when their memory fits, 1 when they would run here one after
    another anyway: a share per usable core, within the process budget and
    at most one per task."""
    if work < _FORK_MIN or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(_cores(), _budget or 2 * _cores(), n_tasks)


def run_tasks(
    tasks: Sequence[Callable[[], T]],
    work: int,
    held: int,
    room: int,
    fill: Sequence[Sequence[Any]] = (),
) -> tuple[list[T], Exception | None]:
    """Run every task (a zero-argument callable) and return (done, fault).

    ``done`` holds the results of the tasks before the lowest-index task that
    raised, in task order (every result when none raised), and ``fault`` is
    that task's exception, or None. A share stops at its first fault, as a
    loop over the tasks would stop there, and the results of later tasks are
    dropped. ``work`` counts the step-replicates of all the tasks. The tasks
    spread only while ``n_shares * held <= room``: ``held`` is the bytes one
    process holds while it runs a task, ``room`` the bytes the shares may
    hold together. ``fill[i]``, when given, is the tuple of C-contiguous
    arrays that task i writes into instead of returning what it writes, and
    they come back from a child into the caller's arrays. After a fault, the
    arrays of the tasks from the fault on are undefined.
    """
    n_shares = _shares(len(tasks), work)
    if n_shares < 2 or n_shares * held > room:
        return _run(tasks, _budget)
    budget = _budget or 2 * _cores()
    bounds = [-(-len(tasks) * i // n_shares) for i in range(n_shares + 1)]
    parts = [budget // n_shares + (i < budget % n_shares) for i in range(n_shares)]
    children = []
    try:
        for a, b, part in zip(bounds[1:-1], bounds[2:], parts[1:]):
            share = [memoryview(array).cast("B") for arrays in fill[a:b] for array in arrays]
            children.append((*_spawn(tasks[a:b], share, part), share))
        outcomes = [_run(tasks[: bounds[1]], parts[0])]
        for pid, pipe, share in children:
            data = pipe.read() if all(pipe.readinto(view) == len(view) for view in share) else b""
            lost = ChildProcessError(f"worker process {pid} ended without its results")
            outcomes.append(pickle.loads(data) if data else ([], lost))
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # a child that sent its results is exiting anyway
            os.waitpid(pid, 0)
    done: list[T] = []
    for results, fault in outcomes:
        done += results
        if fault is not None:
            break
    return done, fault

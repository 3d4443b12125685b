"""Independent tasks spread over the usable cores, with results in task order.

run_tasks splits a list of tasks into contiguous shares, one per usable core
(``len(os.sched_getaffinity(0))``) and at most one per task. The calling
process runs the first share itself; forked children run the others, and
each sends its results back, pickled, through a pipe. A task is a closure
that a child sees as the caller's memory stood at the fork, so only results
and exceptions are pickled, and the numbers are the ones the caller would
have computed. A child points its stdout and stderr, both the descriptors
and sys.stdout and sys.stderr, at os.devnull, so it never writes to the
caller's, and leaves through os._exit, so no buffer, exit hook or
``finally`` of the caller runs twice. There are no helper threads. Every
child is reaped before run_tasks returns or raises, also on
KeyboardInterrupt.

The tasks run in the calling process, one after another, when one core is
usable, os.fork is missing, another Python thread runs (a child would get
only the forking thread, and any lock another thread held stays held), or
their work is below _FORK_MIN step-replicates.
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

import os
import pickle
import signal
import sys
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# the fewest step-replicates whose tasks are spread over the cores
_FORK_MIN = 10000


def _run(tasks: Sequence[Callable[[], T]]) -> tuple[list[T], Exception | None]:
    """Run tasks in turn, stopping at the first that raises: (results, its exception or None)."""
    results = []
    for task in tasks:
        try:
            results.append(task())
        except Exception as exc:
            return results, exc
    return results, None


def _child(tasks: Sequence[Callable[[], T]], fd: int) -> None:
    """In a forked child: run the share, send (results, fault) through fd, exit."""
    code = 1
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        sys.stdout = sys.stderr = open(null, "w")  # they may write to other descriptors
        results, fault = _run(tasks)
        try:
            pickle.loads(pickle.dumps(fault))
        except Exception:  # an exception that does not survive pickling keeps its text
            fault = RuntimeError(f"{type(fault).__name__}: {fault}")
        with os.fdopen(fd, "wb") as fh:
            pickle.dump((results, fault), fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _spawn(tasks: Sequence[Callable[[], T]]):
    """Fork a child that runs tasks; returns its pid and the read end of its pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        os.close(r)
        _child(tasks, w)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def run_tasks(
    tasks: Sequence[Callable[[], T]], work: int, undo: Callable[[T], object] | None = None
) -> tuple[list[T], Exception | None]:
    """Run every task (a zero-argument callable) and return (done, fault).

    ``done`` holds the results of the tasks before the lowest-index task that
    raised, in task order (every result when none raised), and ``fault`` is
    that task's exception, or None. A share stops at its first fault, as a
    loop over the tasks would stop there. ``undo`` is called on the result of
    every task after the fault that a child ran, so that a fault leaves
    behind what the loop would have. ``work`` counts the step-replicates of
    all the tasks.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_shares = min(cores, len(tasks))
    if n_shares < 2 or work < _FORK_MIN or not hasattr(os, "fork") or threading.active_count() > 1:
        return _run(tasks)
    bounds = [-(-len(tasks) * i // n_shares) for i in range(n_shares + 1)]
    children = []
    try:
        for a, b in zip(bounds[1:-1], bounds[2:]):
            children.append(_spawn(tasks[a:b]))
        outcomes = [_run(tasks[: bounds[1]])]
        for pid, pipe in children:
            data = pipe.read()
            lost = ChildProcessError(f"worker process {pid} ended without its results")
            outcomes.append(pickle.loads(data) if data else ([], lost))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # a child that sent its results is exiting anyway
            os.waitpid(pid, 0)
    done: list[T] = []
    fault = None
    for results, exc in outcomes:
        if fault is None:
            done += results
            fault = exc
        elif undo is not None:
            for result in results:
                undo(result)
    return done, fault

"""Unit tests for spreading independent tasks over the usable cores."""

import os
import threading
import time
from functools import partial

import pytest

from conftest import assert_no_children
from levyprey import parallel
from levyprey.model import FieldError


def _value(i):
    return i * i


def _fail(i):
    raise FieldError("StepConfig", "dt", "must be > 0", -i)


@pytest.mark.parametrize("n_cores", [2, 3])
def test_results_come_back_in_task_order(cores, n_cores):
    cores(n_cores)
    parent = os.getpid()
    done, fault = parallel.run_tasks([partial(_value, i) for i in range(7)] + [os.getpid], 1)
    assert done[:7] == [i * i for i in range(7)] and fault is None
    assert done[7] != parent  # the last share ran in a child
    assert_no_children()


def test_below_the_threshold_tasks_run_in_process(cores, monkeypatch):
    cores(2)
    monkeypatch.setattr(parallel, "_FORK_MIN", 10)
    assert parallel.run_tasks([os.getpid, os.getpid], 9) == ([os.getpid()] * 2, None)


def test_beside_another_thread_tasks_run_in_process(cores):
    cores(2)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(30,))
    waiting.start()
    try:
        assert parallel.run_tasks([os.getpid, os.getpid], 1) == ([os.getpid()] * 2, None)
    finally:
        release.set()
        waiting.join(30)
    assert not waiting.is_alive()


@pytest.mark.parametrize("n_cores", [1, 2])
def test_lowest_fault_wins_and_later_results_are_undone(cores, n_cores):
    # shares [0, 1, 2] and [3, 4, 5]: task 4 faults in the child, task 1 in
    # the parent; task 1 is reported, with the type and message it has
    # in-process, and the child's results before its fault are undone
    cores(n_cores)
    tasks = [partial(_value, i) for i in range(6)]
    tasks[1], tasks[4] = partial(_fail, 1), partial(_fail, 4)
    undone = []
    done, fault = parallel.run_tasks(tasks, 1, undo=undone.append)
    assert done == [0]
    assert type(fault) is FieldError and str(fault) == "StepConfig.dt must be > 0, got -1"
    assert (fault.field, fault.value) == ("dt", -1)
    assert undone == ([9] if n_cores == 2 else [])
    assert_no_children()


def _noisy(i):
    print(f"task {i} on stdout", flush=True)
    os.write(2, b"task on fd 2\n")
    return i


def test_children_write_nothing_to_stdout_or_stderr(cores, capfd):
    cores(2)
    assert parallel.run_tasks([partial(_value, 1), partial(_noisy, 2)], 1) == ([1, 2], None)
    assert capfd.readouterr() == ("", "")
    assert_no_children()


def test_keyboard_interrupt_reaps_the_children(cores):
    cores(2)

    def interrupted():
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel.run_tasks([interrupted, partial(time.sleep, 60)], 1)
    assert time.monotonic() - start < 30  # the sleeping child was killed, not waited for
    assert_no_children()


def test_a_child_that_dies_is_a_runtime_fault(cores):
    cores(2)
    done, fault = parallel.run_tasks([partial(_value, 2), partial(os._exit, 3)], 1)
    assert done == [4]
    assert isinstance(fault, ChildProcessError) and "ended without its results" in str(fault)
    assert_no_children()

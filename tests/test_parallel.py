"""Unit tests for spreading independent tasks over the usable cores."""

import os
import sys
import threading
import time
from functools import partial

import numpy as np
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
    done, fault = parallel.run_tasks([partial(_value, i) for i in range(7)] + [os.getpid], 1, 0, 0)
    assert done[:7] == [i * i for i in range(7)] and fault is None
    assert done[7] != parent  # the last share ran in a child
    assert_no_children()


@pytest.mark.parametrize("n_cores", [1, 2, 3])
def test_filled_rows_come_back_in_place(cores, n_cores):
    # task i writes its own slices, rows rows[i] to rows[i + 1] - 1 of both
    # arrays; a child's slices are read into the caller's arrays, which are
    # never replaced
    cores(n_cores)
    grid, flat = np.zeros((7, 2, 3)), np.zeros(7)
    rows = [0, 3, 4, 7]
    fill = [(grid[a:b], flat[a:b]) for a, b in zip(rows, rows[1:])]

    def write(i):
        fill[i][0][:] = i + 1
        fill[i][1][:] = -(i + 1)
        return os.getpid()

    pids, fault = parallel.run_tasks([partial(write, i) for i in range(3)], 1, 0, 0, fill=fill)
    assert fault is None and len(set(pids)) == min(n_cores, 3)
    want = np.repeat([1.0, 2.0, 3.0], [3, 1, 3])
    assert np.array_equal(grid, np.broadcast_to(want[:, None, None], grid.shape))
    assert np.array_equal(flat, -want)
    assert_no_children()


def test_below_the_threshold_tasks_run_in_process(cores, monkeypatch):
    cores(2)
    monkeypatch.setattr(parallel, "_FORK_MIN", 10)
    assert parallel.run_tasks([os.getpid, os.getpid], 9, 0, 0) == ([os.getpid()] * 2, None)


def test_shares_over_the_memory_room_run_in_process(cores):
    # two shares each holding held bytes spread while they fit in room
    cores(2)
    pids, fault = parallel.run_tasks([os.getpid] * 2, 1, 100, 200)
    assert fault is None and pids[0] == os.getpid() != pids[1]
    assert parallel.run_tasks([os.getpid] * 2, 1, 100, 199) == ([os.getpid()] * 2, None)
    assert_no_children()


def test_beside_another_thread_tasks_run_in_process(cores):
    cores(2)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(30,))
    waiting.start()
    try:
        assert parallel.run_tasks([os.getpid, os.getpid], 1, 0, 0) == ([os.getpid()] * 2, None)
    finally:
        release.set()
        waiting.join(30)
    assert not waiting.is_alive()


@pytest.mark.parametrize("n_cores", [1, 2])
def test_lowest_fault_wins_with_its_type_and_message(cores, n_cores):
    # shares [0, 1, 2] and [3, 4, 5]: task 4 faults in the child, task 1 in
    # the parent; task 1 is reported, with the type and message it has
    # in-process, and no result after it comes back
    cores(n_cores)
    tasks = [partial(_value, i) for i in range(6)]
    tasks[1], tasks[4] = partial(_fail, 1), partial(_fail, 4)
    done, fault = parallel.run_tasks(tasks, 1, 0, 0)
    assert done == [0]
    assert type(fault) is FieldError and str(fault) == "StepConfig.dt must be > 0, got -1"
    assert (fault.field, fault.value) == ("dt", -1)
    assert_no_children()


def _noisy(i):
    print(f"task {i} on stdout", flush=True)
    os.write(2, b"task on fd 2\n")
    return i


def test_children_write_nothing_to_stdout_or_stderr(cores, capfd):
    cores(2)
    assert parallel.run_tasks([partial(_value, 1), partial(_noisy, 2)], 1, 0, 0) == ([1, 2], None)
    assert capfd.readouterr() == ("", "")
    assert_no_children()


def test_keyboard_interrupt_reaps_the_children(cores):
    cores(2)

    def interrupted():
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel.run_tasks([interrupted, partial(time.sleep, 60)], 1, 0, 0)
    assert time.monotonic() - start < 30  # the sleeping child was killed, not waited for
    assert_no_children()


def test_a_child_that_dies_is_a_runtime_fault(cores):
    cores(2)
    done, fault = parallel.run_tasks([partial(_value, 2), partial(os._exit, 3)], 1, 0, 0)
    assert done == [4]
    assert isinstance(fault, ChildProcessError) and "ended without its results" in str(fault)
    assert_no_children()


@pytest.mark.parametrize("n_cores", [1, 2])
def test_a_task_may_spread_its_own_tasks(cores, n_cores):
    # each of four tasks fills its row through a nested run_tasks over the
    # row's two halves; the inner results and rows come back through both
    # levels, and on two cores the child's tasks spread to grandchildren
    cores(n_cores)
    grid = np.zeros((4, 6))

    def inner(i, j):
        grid[i, 3 * j:3 * j + 3] = 10 * i + j
        return 10 * i + j, os.getpid()

    def outer(i):
        halves = [(grid[i, :3],), (grid[i, 3:],)]
        return parallel.run_tasks([partial(inner, i, j) for j in range(2)], 1, 0, 0, fill=halves)

    done, fault = parallel.run_tasks([partial(outer, i) for i in range(4)], 1, 0, 0,
                                     fill=[(row,) for row in grid])
    assert fault is None and [exc for _, exc in done] == [None] * 4
    assert [[value for value, _ in results] for results, _ in done] == [[0, 1], [10, 11], [20, 21], [30, 31]]
    assert np.array_equal(grid, np.repeat([[0, 1], [10, 11], [20, 21], [30, 31]], 3, axis=1))
    pids = [[pid for _, pid in results] for results, _ in done]
    if n_cores == 2:  # task 3 ran in a child, which forked its second half
        assert len({os.getpid(), *pids[3]}) == 3
    else:
        assert {pid for pair in pids for pid in pair} == {os.getpid()}
    assert_no_children()


def _sleep_named(folder, seconds):
    (folder / str(os.getpid())).touch()
    time.sleep(seconds)


def _running(pid):
    """Whether process pid exists and is neither a zombie nor dead."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            state = next(line for line in fh if line.startswith("State:"))
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state.split()[1] not in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc; the child's death signal is Linux's")
def test_an_interrupted_nested_spread_leaves_no_process_running(cores, tmp_path):
    # the child's task spreads two sleepers, one in the child and one in a
    # grandchild, each naming a file after its pid; this process's share
    # waits for both and is interrupted, and the child it kills takes the
    # grandchild with it
    cores(2)

    def spread():
        parallel.run_tasks([partial(_sleep_named, tmp_path, 60)] * 2, 1, 0, 0)

    def interrupted():
        deadline = time.monotonic() + 30
        while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        parallel.run_tasks([interrupted, spread], 1, 0, 0)
    assert_no_children()
    pids = [int(p.name) for p in tmp_path.iterdir()]
    assert len(pids) == 2 and os.getpid() not in pids
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(map(_running, pids))


def test_nested_spreads_run_at_most_twice_the_cores(cores):
    # four shares on four cores may keep eight processes running: each outer
    # task's spread of four gets two of them, not four
    cores(4)

    def outer():
        return parallel.run_tasks([os.getpid] * 4, 1, 0, 0)[0]

    done, fault = parallel.run_tasks([outer] * 4, 1, 0, 0)
    assert fault is None
    assert [len(set(pids)) for pids in done] == [2] * 4
    assert len({pid for pids in done for pid in pids}) == 8
    assert_no_children()

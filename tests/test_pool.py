"""hubertune.pool.map_items: this process and forked workers share the items.

Items that must run on a given side synchronize through a log file: the
caller's items wait until a worker has logged one, so both sides take
items whatever the scheduling, and the log tells which side ran which.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

import hubertune.pool
from hubertune.pool import map_items


class ItemError(Exception):
    """Raised for one item; args[0] is the item's index."""


def _log(path, *fields):
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, (" ".join(map(str, fields)) + "\n").encode())
    finally:
        os.close(fd)


def _entries(path):
    """[(pid, index)] of every logged item."""
    with open(path) as log:
        return [tuple(map(int, line.split())) for line in log]


def _wait_for_a_worker(path, main_pid):
    deadline = time.monotonic() + 60
    while not any(pid != main_pid for pid, _ in _entries(path)):
        assert time.monotonic() < deadline, "no worker took an item"
        time.sleep(0.005)


def _sided(path, main_pid, worker_action, caller_action, i):
    """Item i: logged, then the action of the side that runs it."""
    _log(path, os.getpid(), i)
    if os.getpid() != main_pid:
        return worker_action(i)
    _wait_for_a_worker(path, main_pid)
    return caller_action(i)


def _square(i):
    return i * i


def _raise(i):
    raise ItemError(i)


def _kill(i):
    os.kill(os.getpid(), signal.SIGKILL)


def _hang(i):
    time.sleep(600)


def _interrupt(i):
    raise KeyboardInterrupt


def _unpicklable(i):
    return lambda: i


def _pid(i):
    return os.getpid()


def _scaled(scale, offset, item):
    return scale * np.asarray(item, dtype=float) + offset


def run_sided(tmp_path, worker_action, caller_action, items=8, jobs=2):
    log = tmp_path / "items.log"
    shared = (log, os.getpid(), worker_action, caller_action)
    return log, lambda: map_items(_sided, shared, range(items), jobs)


@pytest.mark.parametrize("raising", ["worker", "caller"])
def test_the_first_exception_in_item_order_is_raised(tmp_path, raising):
    actions = {"worker": _raise, "caller": _square}
    if raising == "caller":
        actions = {"worker": _square, "caller": _raise}
    log, call = run_sided(tmp_path, actions["worker"], actions["caller"])
    with pytest.raises(ItemError) as info:
        call()
    main_pid = os.getpid()
    raised = [i for pid, i in _entries(log) if (pid != main_pid) == (raising == "worker")]
    assert raised and info.value.args[0] == min(raised)
    assert multiprocessing.active_children() == []


def test_a_killed_worker_raises_its_exit_code(tmp_path):
    _, call = run_sided(tmp_path, _kill, _square)
    with pytest.raises(RuntimeError, match=f"code {-signal.SIGKILL}") as info:
        call()
    # cli.main reports an OSError as an unwritable output path.
    assert not isinstance(info.value, OSError)
    assert multiprocessing.active_children() == []


def test_results_that_do_not_pickle_raise_the_exit_code(tmp_path):
    _, call = run_sided(tmp_path, _unpicklable, _square)
    with pytest.raises(RuntimeError, match="code 1 "):
        call()
    assert multiprocessing.active_children() == []


def test_the_caller_raising_leaves_no_worker(tmp_path):
    log, call = run_sided(tmp_path, _hang, _interrupt, items=4, jobs=3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        call()
    # The hanging workers were stopped, not waited for.
    assert time.monotonic() - start < 60
    assert multiprocessing.active_children() == []
    workers = {pid for pid, _ in _entries(log)} - {os.getpid()}
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("jobs, items, processes", [(5, 2, 2), (3, 1, 0), (1, 4, 0)])
def test_no_more_processes_work_than_there_are_items(
    tmp_path, monkeypatch, jobs, items, processes
):
    """Every process of a pool calls _take once; one job or one item
    starts none and runs here."""
    log = tmp_path / "starts.log"
    take = hubertune.pool._take

    def logged_take(*args):
        _log(log, os.getpid(), 0)
        return take(*args)

    monkeypatch.setattr(hubertune.pool, "_take", logged_take)
    assert map_items(_square, (), range(items), jobs) == [i * i for i in range(items)]
    starts = _entries(log) if log.exists() else []
    assert len({pid for pid, _ in starts}) == len(starts) == processes


@pytest.mark.parametrize("count", [7, 2500])
def test_results_are_equal_for_every_jobs_count(count):
    """2500 items need more tickets than one pipe write holds, so a ticket
    then covers several items."""
    items = [(i, -i) for i in range(count)]
    shared = (2.5, np.arange(2.0))
    expected = [_scaled(*shared, item) for item in items]
    for jobs in (1, 2, 3):
        found = map_items(_scaled, shared, items, jobs)
        assert len(found) == count
        for a, b in zip(expected, found):
            np.testing.assert_array_equal(a, b)


def test_without_fork_every_item_runs_here(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    pids = map_items(_pid, (), range(4), 2)
    assert pids == [os.getpid()] * 4

"""Independent work items on this process and forked workers.

``map_items(fn, shared, items, jobs)`` returns
``[fn(*shared, item) for item in items]``. ``jobs`` counts the calling
process: with more than one job and more than one item it forks up to
``jobs - 1`` workers through multiprocessing's fork context, and then
every process, this one included, takes item indices from one ticket pipe
until the pipe is empty. The workers inherit ``shared`` (a grid's Dataset,
options and eta, say), the items and the thread count of the parent's
numpy OpenBLAS through fork, so nothing is pickled on the way out; each
worker pickles its results once, when the tickets run out, and writes them
to a pipe of its own. Results come back in item order, so the jobs count
changes wall time only. Where the platform cannot fork, every item runs in
this process, as one job does.

``multiprocessing`` is imported only when workers may start: a serial run
never loads it.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Iterable

from .blas import get_threads


def default_jobs() -> int:
    """Processes that fill the usable CPUs at the current BLAS thread count.

    The usable CPUs are this process's affinity set (os.cpu_count() where
    the platform has none); each process runs the current thread count of
    numpy's OpenBLAS, which is one under the command's thread policy.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, cpus // (get_threads() or 1))


def _take(fn, shared, items, tickets, step) -> list:
    """(index, raised, value) of every item this process takes from the pipe.

    A ticket is the 4-byte index of the first of ``step`` items. Reads of
    at most PIPE_BUF bytes are atomic, so every item runs exactly once.
    """
    done = []
    while ticket := os.read(tickets, 4):
        start = int.from_bytes(ticket, "little")
        for i in range(start, min(start + step, len(items))):
            try:
                done.append((i, False, fn(*shared, items[i])))
            except Exception as exc:
                done.append((i, True, exc))
    return done


def _work(fn, shared, items, tickets, step, out) -> None:
    """A forked worker: its share of the items, pickled once to ``out``."""
    data = pickle.dumps(_take(fn, shared, items, tickets, step), pickle.HIGHEST_PROTOCOL)
    with open(out, "wb") as pipe:
        pipe.write(data)


def map_items(fn: Callable, shared: tuple, items: Iterable, jobs: int = 1) -> list:
    """[fn(*shared, item) for item in items], on up to ``jobs`` processes.

    This process is one of them, and no more processes work than there are
    items; one job or one item runs here alone. An exception raised for an
    item is raised here, the first in item order. A worker that exits
    without returning its results raises RuntimeError with its exit code.
    Whatever is raised, no worker is left running.
    """
    items = list(items)
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [fn(*shared, item) for item in items]
    import multiprocessing
    import select

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(*shared, item) for item in items]
    # Every ticket is written before any process reads, in one write that
    # fits the pipe; past PIPE_BUF / 4 items, a ticket covers several.
    step = -(-4 * len(items) // select.PIPE_BUF)
    tickets, write = os.pipe()
    os.write(write, b"".join(i.to_bytes(4, "little") for i in range(0, len(items), step)))
    os.close(write)
    context = multiprocessing.get_context("fork")
    args = (fn, shared, items, tickets, step)
    workers, reads = [], []
    try:
        for _ in range(jobs - 1):
            read, write = os.pipe()
            reads.append(read)
            worker = context.Process(target=_work, args=args + (write,), daemon=True)
            try:
                worker.start()
            finally:
                os.close(write)
            workers.append(worker)
        done = _take(fn, shared, items, tickets, step)
        for worker, read in zip(workers, reads):
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            worker.join()
            if worker.exitcode != 0 or not data:
                raise RuntimeError(
                    f"a pool worker exited with code {worker.exitcode} "
                    "before returning its results"
                )
            done += pickle.loads(data)
    finally:
        for worker in workers:
            if worker.exitcode is None:
                worker.terminate()
            worker.join()
        for fd in (tickets, *reads):
            os.close(fd)
    done.sort(key=lambda entry: entry[0])
    for _, raised, value in done:
        if raised:
            raise value
    return [value for _, _, value in done]

"""Independent work items on a pool of worker processes.

``map_items(fn, shared, items, jobs)`` returns
``[fn(*shared, item) for item in items]``. With more than one job and more
than one item it runs the items on up to ``jobs`` worker processes of a
``concurrent.futures`` pool, started with the platform's default method.
``shared`` (a grid's Dataset, options and eta, say) reaches each worker
once, through the pool initializer, never once per item; the initializer
also gives each worker its parent's OpenBLAS thread count, whatever the
start method. Results come back in item order, so the jobs count changes
wall time only. ``fn`` must be a module-level function, so that a spawned
worker can import it.

``concurrent.futures`` and ``multiprocessing`` are imported only when a
pool starts: a serial run never loads them.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from .blas import get_threads, set_threads

# (fn, shared) of the pool this process works for; set by _start_worker.
_task = None


def default_jobs() -> int:
    """Workers that fill the usable CPUs at the current BLAS thread count.

    The usable CPUs are this process's affinity set (os.cpu_count() where
    the platform has none); each worker runs the current OpenBLAS thread
    count, which is one under the command's thread policy.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, cpus // (get_threads() or 1))


def _start_worker(threads, fn, shared) -> None:
    global _task
    set_threads(threads)
    _task = (fn, shared)


def _run_item(item):
    fn, shared = _task
    return fn(*shared, item)


def map_items(fn: Callable, shared: tuple, items: Iterable, jobs: int = 1) -> list:
    """[fn(*shared, item) for item in items], on up to ``jobs`` processes.

    No more workers start than there are items; one job or one item runs
    in this process. An exception raised for an item is raised here, the
    first in item order.
    """
    items = list(items)
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [fn(*shared, item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_start_worker,
        initargs=(get_threads(), fn, shared),
    ) as pool:
        return list(pool.map(_run_item, items))

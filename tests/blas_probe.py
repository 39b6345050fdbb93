"""Run one `hubertune` CLI call and report the OpenBLAS thread counts it sees.

    python tests/blas_probe.py [--set N] [--start-method M] [--no-fork] CLI_ARGS...

--set gives every loaded OpenBLAS N threads before the call, as an
in-process caller might. --start-method sets multiprocessing's global start
method before the call. --no-fork makes multiprocessing report that the
platform cannot fork. Prints one JSON object per line:

    {"at": "before", "pid": ..., "threads": [...]}
    {"at": "start", "pid": ..., "threads": [...]}  one per process of a pool
    {"at": "call", "pid": ..., "threads": [...]}   one per simulate replication
    {"at": "cell", "pid": ..., "threads": [...]}   one per grid cell
    {"at": "after", "pid": ..., "threads": [...]}
    {"exit": code}

A "start" line comes from every process that takes items under --jobs,
the calling one and each forked worker, once, before its first item.
"call" lines come from inside each replication and "cell" lines from inside
each cell of a `select` grid (and of each replication's grid), in whichever
process runs it. The counts are read here with ctypes, one per loaded
OpenBLAS, independently of the code under test.
"""

import argparse
import ctypes
import json
import multiprocessing
import os
import sys

import hubertune.criterion
import hubertune.pool
import hubertune.simulate
from hubertune.cli import main

_GET = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_SET = tuple(name.replace("_get_", "_set_") for name in _GET)

_replication_records = hubertune.simulate._replication_records
_cell_candidate = hubertune.criterion._cell_candidate
_take = hubertune.pool._take


def _libraries():
    with open("/proc/self/maps") as maps:
        paths = sorted(
            {
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in maps)
                if len(fields) == 6 and "openblas" in fields[5].rsplit("/", 1)[-1]
            }
        )
    return [ctypes.CDLL(path) for path in paths]


def _call(lib, names, *args):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int] * len(args)
            fn.restype = ctypes.c_int if not args else None
            return fn(*args)
    raise LookupError(f"no thread symbol in {lib}")


def threads():
    return [_call(lib, _GET) for lib in _libraries()]


def report(**fields):
    # One write per line, so lines from concurrent workers never interleave.
    os.write(sys.stdout.fileno(), (json.dumps(fields) + "\n").encode())


def probed_records(*args):
    report(at="call", pid=os.getpid(), threads=threads())
    return _replication_records(*args)


def probed_cell(data, options, eta, cell):
    report(at="cell", pid=os.getpid(), threads=threads())
    return _cell_candidate(data, options, eta, cell)


def probed_take(*args):
    report(at="start", pid=os.getpid(), threads=threads())
    return _take(*args)


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--set", type=int, default=None)
    parser.add_argument("--start-method", default=None)
    parser.add_argument("--no-fork", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.start_method is not None:
        multiprocessing.set_start_method(args.start_method)
    if args.no_fork:
        multiprocessing.get_all_start_methods = lambda: ["spawn", "forkserver"]
    if args.set is not None:
        for lib in _libraries():
            _call(lib, _SET, args.set)
    hubertune.simulate._replication_records = probed_records
    hubertune.criterion._cell_candidate = probed_cell
    hubertune.pool._take = probed_take
    report(at="before", pid=os.getpid(), threads=threads())
    code = main(args.cli_args)
    report(at="after", pid=os.getpid(), threads=threads())
    report(exit=code)
    sys.exit(0)

"""Run one `hubertune` CLI call and report the OpenBLAS thread counts it sees.

    python tests/blas_probe.py [--set N] [--start-method M] CLI_ARGS...

--set gives every loaded OpenBLAS N threads before the call, as an
in-process caller might. --start-method picks how `simulate --jobs`
starts its workers. Prints one JSON object per line:

    {"at": "before", "pid": ..., "threads": [...]}
    {"at": "call", "pid": ..., "threads": [...]}   one per simulate replication
    {"at": "after", "pid": ..., "threads": [...]}
    {"exit": code}

"call" lines come from inside the replication worker, in the worker
process under --jobs. The counts are read here with ctypes, one per loaded
OpenBLAS, independently of the code under test.
"""

import argparse
import ctypes
import json
import multiprocessing
import os
import sys

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


def probed_records(config, options, rep):
    report(at="call", pid=os.getpid(), threads=threads())
    return _replication_records(config, options, rep)


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--set", type=int, default=None)
    parser.add_argument("--start-method", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.start_method is not None:
        multiprocessing.set_start_method(args.start_method)
    if args.set is not None:
        for lib in _libraries():
            _call(lib, _SET, args.set)
    hubertune.simulate._replication_records = probed_records
    report(at="before", pid=os.getpid(), threads=threads())
    code = main(args.cli_args)
    report(at="after", pid=os.getpid(), threads=threads())
    report(exit=code)
    sys.exit(0)

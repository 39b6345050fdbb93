"""Benchmark of the `hubertune` command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

It drives the CLI as users do: one fresh process per call, one call at a
time (a closed loop with a single client), for S seconds. The process
environment is inherited; the benchmark adds `src` to PYTHONPATH and sets
no BLAS thread variable. Every call's outputs are checked for correctness.

With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics. With --trace 1 calls alternate between the plain CLI
and the tracing launcher (perfbench/tracing.py), and the result carries the
per-layer metrics plus the tracing overhead. --smoke runs every workload
at a tiny size in both modes and exits non-zero if any check fails.

Workloads and the reasons for them are in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import envinfo
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = Path(__file__).resolve().parent / "_work"

# The `hubertune` console script, spelled out so no install is needed.
CLI = "import sys; from hubertune.cli import main; sys.exit(main())"
SETUP = "import hubertune.cli"
SETUP_MIN = {"full": 5, "smoke": 1}
CALL_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Sample:
    wall_s: float
    peak_rss_mb: float
    failed_ops: int
    problems: tuple
    notes: tuple
    traced: bool
    layers: dict


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed_process(argv, env, stdout, stderr) -> tuple:
    """Run argv to completion; (wall seconds, exit code, peak RSS in MB).

    The peak RSS is the largest of the process and the children it waited
    for, such as `simulate --jobs` workers (wait4 reports the maximum). A
    call that outlives CALL_TIMEOUT_S is killed with its whole process group.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr,
                            start_new_session=True)
    watchdog = threading.Timer(CALL_TIMEOUT_S, _kill_group, (proc.pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_seconds(env) -> float:
    wall, code, _ = timed_process([sys.executable, "-c", SETUP], env, None, None)
    if code != 0:
        raise RuntimeError(f"importing hubertune.cli failed with exit code {code}")
    return wall


def run_call(call, env, work: Path, traced: bool) -> Sample:
    for path in call.outputs.values():  # stale outputs must not pass the checks
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)
    spans = work / "spans"
    shutil.rmtree(spans, ignore_errors=True)
    if traced:
        spans.mkdir()
        argv = [sys.executable, str(Path(tracing.__file__).resolve()), str(spans), *call.argv]
    else:
        argv = [sys.executable, "-c", CLI, *call.argv]
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        wall, code, rss = timed_process(argv, env, out, err)
    outcome = checks.check(ROOT, call, code)
    if code != 0:
        tail = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        outcome.problems.extend(f"stderr: {line}" for line in tail)
    layers = tracing.layer_metrics(tracing.load_spans(spans)) if traced else {}
    return Sample(wall, rss, outcome.failed, tuple(outcome.problems), tuple(outcome.notes),
                  traced, layers)


def tail_percentile(values, higher_is_better=False) -> tuple:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    "Beyond" is the bad side: above it for times, below it for rates. Below
    20 samples that percentile would sit under the median, so there is none.
    """
    xs = sorted(values, reverse=higher_is_better)
    if len(xs) < 20:
        return None, None
    k = len(xs) - 11
    return 100.0 * (k + 1) / len(xs), xs[k]


def describe(name, unit, values, higher_is_better=False) -> str:
    """One line: the median, the tail percentile and the sample count."""
    pct, tail = tail_percentile(values, higher_is_better)
    tail_text = (
        f"p{pct:.0f} {tail:.6g}"
        if tail is not None
        else "no tail percentile (needs 20 samples)"
    )
    return (
        f"{name:<16} {statistics.median(values):>12.6g} {unit:<6} median; "
        f"{tail_text}; {len(values)} samples"
    )


def end_to_end(call, samples, setups, lines) -> dict:
    walls = [s.wall_s for s in samples]
    rates = [call.ops / w for w in walls]
    rss = [s.peak_rss_mb for s in samples]
    attempted = call.ops * len(samples)
    failed = sum(s.failed_ops for s in samples)
    lines.append(describe("setup_s", "s", setups))
    lines.append(describe("call_s", "s", walls))
    lines.append(describe("ops_per_s", "ops/s", rates, higher_is_better=True))
    lines.append(describe("peak_rss_mb", "MB", rss))
    lines.append("call_s samples: " + " ".join(f"{w:.4f}" for w in walls))
    lines.append("setup_s samples: " + " ".join(f"{w:.4f}" for w in setups))
    lines.append(
        f"{'ok_share':<16} {(attempted - failed) / attempted:>12.6g} ratio  "
        f"fail_share {failed / attempted:.6g} ({failed} of {attempted} operations failed)"
    )
    return {
        "setup_s": (statistics.median(setups), "s"),
        "call_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(rates), "ops/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(samples, env_record, lines) -> dict:
    traced = [s for s in samples if s.traced]
    plain = [s.wall_s for s in samples if not s.traced]
    layer = tracing.median_metrics([s.layers for s in traced])
    traced_wall = statistics.median(s.wall_s for s in traced)
    untraced_wall = statistics.median(plain)
    layer["trace.wall_s"] = traced_wall
    layer["trace.untraced_wall_s"] = untraced_wall
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer["trace.unaccounted_s"] = untraced_wall - layer["trace.accounted_s"]
    layer["env.blas_threads"] = envinfo.blas_threads(env_record)
    # The result carries the metrics BENCHMARK.json lists; the lines show all.
    listed = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    for name, value in layer.items():
        lines.append(f"{name:<48} {value:>14.6g} {tracing.unit(name)}")
    metrics = {name: (v, tracing.unit(name)) for name, v in layer.items() if name in listed}
    lines.append(
        f"accounting: untraced wall {untraced_wall:.4f} s, launcher-process self times "
        f"{layer['trace.accounted_s']:.4f} s, unaccounted {layer['trace.unaccounted_s']:.4f} s, "
        f"tracing overhead {layer['trace.overhead_s']:.4f} s "
        f"({len(traced)} traced and {len(plain)} untraced calls)"
    )
    return metrics


def run(workload, seed, seconds, trace, size="full", jobs=2) -> dict:
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env()
        env_record = envinfo.environment(ROOT)
        calls = workloads.prepare(workload, seed, work / "io", size, jobs)
        if trace:
            # One input set, so that counters repeat exactly and traced and
            # untraced calls time the same work.
            calls = calls[:1]

        # Set-up is timed between calls, so that its samples span the run
        # the way the calls do. Traced runs report no end-to-end metric.
        samples, setups = [], []
        start = time.perf_counter()
        while True:
            if not trace:
                setups.append(setup_seconds(env))
            traced = bool(trace) and len(samples) % 2 == 1
            call = calls[len(samples) % len(calls)]
            samples.append(run_call(call, env, work, traced))
            if len(samples) < (2 if trace else 1):
                continue
            # Start no call that would end after the measuring time.
            typical = statistics.median(s.wall_s for s in samples)
            typical += statistics.median(setups) if setups else 0.0
            if time.perf_counter() - start + typical > seconds:
                break
        elapsed = time.perf_counter() - start
        while not trace and len(setups) < SETUP_MIN[size]:
            setups.append(setup_seconds(env))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [
        f"workload {workload} seed {seed} size {size} jobs {call.jobs}: "
        f"{len(samples)} calls of {call.ops} operations in {elapsed:.1f} of {seconds:g} s, "
        "closed loop, one client",
        "env " + json.dumps(env_record, sort_keys=True),
    ]
    if trace:
        metrics = per_layer(samples, env_record, lines)
    else:
        metrics = end_to_end(call, samples, setups, lines)
    problems = [p for s in samples for p in s.problems]
    notes = [n for s in samples for n in s.notes]
    lines.append("checks: " + ("all passed" if not problems else f"{len(problems)} problems"))
    lines.extend(f"  {p}" for p in problems[:20])
    lines.extend(f"  failed operation: {n}" for n in notes[:20])
    result = {
        "correct": not problems,
        "attempted": call.ops * len(samples),
        "failed": sum(s.failed_ops for s in samples),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"lines": lines, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=2,
                        help="simulate_heavy workers (the workload uses 2)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, tiny inputs, both modes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hubertune" / "cli.py").is_file():
        print(f"error: no hubertune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        ok = True
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                out = run(name, args.seed, 0.0, trace, "smoke", args.jobs)
                print("\n".join(out["lines"]))
                print(json.dumps(out["result"]))
                ok = ok and out["result"]["correct"]
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    out = run(args.workload, args.seed, args.seconds, args.trace, "full", args.jobs)
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

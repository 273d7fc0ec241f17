"""Benchmark of stratavol: cold-process workloads, end to end and per layer.

    python3 perfbench/run.py --workload tables --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --quick          # self-test at tiny sizes
    python3 perfbench/run.py --print-pins     # hashes to pin in pins.json

Each run of a workload is one fresh Python process (child.py) that imports
the package from this checkout's ``src`` and runs the workload's fixed
list of operations one after another.  The child starts without
``STRATAVOL_CACHE``, in isolated mode, without site packages and with
bytecode writing off, so nothing outside the process changes a value and
nothing is written.

With ``--trace 0`` the benchmark runs children back to back for
``--seconds``, each after a few children that only import the package,
and prints the medians of the end-to-end metrics.  With ``--trace 1`` it
runs one untraced child and one traced child, and prints the per-layer
metrics of the traced run.  Units and the metric lists come from
BENCHMARK.json at the checkout root.  Lines starting with ``#`` report
the environment, the samples and every metric with its unit.

Every operation's output is hashed with SHA-256.  An operation fails on an
exception, a nonzero exit code, or a hash that differs from its pin in
pins.json (operations at the default seed) or, for an unpinned operation,
from its first run in this set.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("tables", "inversion", "census", "ribbon")
SEEDED = ("ribbon",)  # the other workloads have fixed inputs
DEFAULT_SEED = 0
SETUP_SAMPLES = 4  # set-up-only children before each run
# A child still running this long after its set started is killed, so that
# every invocation ends within 180 s.
DEADLINE_S = 165.0


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


@dataclass
class Run:
    """One child process, as seen from outside."""

    setup: float  # CPU time of the child once the package is imported
    setup_wall: float  # spawn until the package is imported
    wall: float  # import done until the last operation's output
    cpu: float  # user + sys of the whole child
    rss_mib: float
    exit_code: int
    planned: int  # operations the child announced
    ops: list
    trace: dict | None


def run_child(mode: str, workload: str, seed: int, size: str, deadline: float) -> Run:
    """Start one child, read its protocol lines and reap it with its rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", "-B", str(CHILD), str(SRC), mode, workload, str(seed), size],
        stdout=subprocess.PIPE,
        text=True,
        env={k: v for k, v in os.environ.items() if k != "STRATAVOL_CACHE"},
        cwd=ROOT,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    ready = last = None
    planned = 0
    ops, trace = [], None
    try:
        for line in proc.stdout:
            now = time.perf_counter()
            message = json.loads(line)
            if "ready" in message:
                ready, imported, planned = now, message["ready"], message["ops"]
                setup = message["setup_cpu"]
            elif "op" in message:
                ops.append(message)
                last = now
            else:
                trace = message
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if ready is None:
        raise BenchError(
            f"{mode} child of {workload} exited with {proc.returncode} before importing stratavol"
        )
    if not Path(imported).is_relative_to(SRC):
        raise BenchError(f"the child imported stratavol from {imported}, not from {SRC}")
    return Run(
        setup=setup,
        setup_wall=ready - start,
        wall=(last - ready) if last is not None else 0.0,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,
        exit_code=proc.returncode,
        planned=planned,
        ops=ops,
        trace=trace,
    )


class Checker:
    """Output identity across one set of runs."""

    def __init__(self, strict: bool = False) -> None:
        self.pins = json.loads(PINS.read_text())
        self.first: dict[str, str] = {}
        self.strict = strict  # every operation must have a pin
        self.attempted = 0
        self.failed: list[str] = []

    def check_ops(self, ops: list) -> None:
        for op in ops:
            self.attempted += 1
            key = op["op"]
            if self.strict and key not in self.pins:
                self.fail(key, "no pinned hash")
                continue
            want = self.pins.get(key) or self.first.setdefault(key, op["sha256"])
            if op["error"]:
                self.fail(key, op["error"])
            elif op["code"] != 0:
                self.fail(key, f"exit code {op['code']}")
            elif op["sha256"] != want:
                self.fail(key, f"output hash {op['sha256'][:12]} != {want[:12]}")

    def check_run(self, run: Run) -> None:
        self.check_ops(run.ops)
        missing = max(run.planned - len(run.ops), 0) if run.trace is None else 0
        for _ in range(missing):
            self.attempted += 1
            self.fail("child", f"exit code {run.exit_code} before its last operation")
        if run.exit_code != 0 and not missing:
            self.attempted += 1
            self.fail("child", f"exit code {run.exit_code}")
        if run.trace is not None:
            self.attempted += run.trace["attempted"]
            for failure in run.trace["failures"]:
                self.fail("trace", failure)

    def fail(self, name: str, why: str) -> None:
        self.failed.append(name)
        print(f"FAILED {name}: {why}", file=sys.stderr)


def environment(workload: str, seed: int) -> dict:
    """Facts recorded with each set of runs."""

    def git(*args):
        if not (ROOT / ".git").exists():  # an exported checkout has no history
            return None
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": workload in SEEDED,
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }


def end_to_end(
    workload: str, seed: int, size: str, seconds: float, setups: int, checker: Checker
) -> dict:
    """Cold runs back to back for `seconds`, each after a few set-up-only
    children, so that set-up is sampled across the whole set; medians.

    Set-up is the child's CPU time when the import is done: on a shared
    host the wall time of a 0.1 s start-up swings with time stolen by
    other guests.  Its wall time is reported alongside.
    """
    deadline = time.perf_counter() + DEADLINE_S
    setups_run: list[Run] = []
    runs: list[Run] = []
    start = time.perf_counter()
    while True:
        setups_run += [run_child("setup", workload, seed, size, deadline) for _ in range(setups)]
        run = run_child("ops", workload, seed, size, deadline)
        checker.check_run(run)
        runs.append(run)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > seconds:  # the next run would overrun
            break
    setups_run += runs
    error_rate = len(checker.failed) / checker.attempted
    print(f"# runs {len(runs)}  set-up samples {len(setups_run)}  wall_s of each run "
          + " ".join(f"{r.wall:.4f}" for r in runs))
    print(f"# set-up wall time {statistics.median(r.setup_wall for r in setups_run):.6g} s")
    print(f"# error_rate {error_rate:.6g} ratio")
    return {
        "wall_s": statistics.median(r.wall for r in runs),
        "cpu_s": statistics.median(r.cpu for r in runs),
        "setup_s": statistics.median(r.setup for r in setups_run),
        "peak_rss_mib": statistics.median(r.rss_mib for r in runs),
        # Declared metrics are never 0, so error_rate is declared by its complement.
        "success_rate": 1 - error_rate,
    }


def per_layer(workload: str, seed: int, size: str, names: list, checker: Checker) -> dict:
    """One untraced and one traced cold run; span totals and counts by name."""
    deadline = time.perf_counter() + DEADLINE_S
    plain = run_child("ops", workload, seed, size, deadline)
    checker.check_run(plain)
    traced = run_child("trace", workload, seed, size, deadline)
    if traced.trace is None:
        raise BenchError(f"traced child of {workload} ended without its spans")
    checker.check_run(traced)
    trace = traced.trace
    print(json.dumps({"spans": trace["spans"]}))
    totals: dict[str, float] = {}
    for span in trace["spans"]:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["end"] - span["start"]
    values = {}
    for name in names:
        if name in trace["absent"]:
            print(f"absent: {name} (its public functions are gone)", file=sys.stderr)
        elif name == "trace_overhead_s":
            values[name] = totals["trace"] - plain.wall
        elif name.endswith("_s"):
            values[name] = totals.get(name, 0.0)
        else:
            values[name] = trace["counts"].get(name, 0)
    return values


def measure(workload: str, seed: int, size: str, seconds: float, trace: bool,
            setups: int = SETUP_SAMPLES, strict: bool = False) -> dict:
    """Run one set and return the result object, after printing a report."""
    spec = json.loads(SPEC.read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    checker = Checker(strict)
    print("# env " + json.dumps(environment(workload, seed)))
    if workload not in SEEDED:
        print(f"# workload {workload} has fixed inputs: seed {seed} is ignored")
    if trace:
        values = per_layer(workload, seed, size, list(units), checker)
    else:
        values = end_to_end(workload, seed, size, seconds, setups, checker)
    for name, value in values.items():
        print(f"# {name} {value:.6g} {units[name]}")
    return {
        "correct": not checker.failed,
        "attempted": checker.attempted,
        "failed": len(checker.failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def quick() -> int:
    """Every workload at tiny sizes: all metrics present, pins match, no failures."""
    spec = json.loads(SPEC.read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, DEFAULT_SEED, "quick", 0, trace, setups=1, strict=True)
            declared = spec["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload}: metric {m['name']} missing or without its unit")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload}: {result['failed']} failed operations")
    for problem in problems:
        print(f"quick: {problem}", file=sys.stderr)
    print("quick: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def print_pins() -> int:
    """Hashes of every operation at the default seed, both sizes, as JSON."""
    deadline = time.perf_counter() + 10 * DEADLINE_S
    pins = {}
    for size in ("full", "quick"):
        for workload in WORKLOADS:
            run = run_child("ops", workload, DEFAULT_SEED, size, deadline)
            for op in run.ops:
                if op["error"] or op["code"] != 0:
                    raise BenchError(f"{op['op']} failed; refusing to pin it")
                pins[op["op"]] = op["sha256"]
    print(json.dumps(pins, indent=1, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--print-pins", action="store_true")
    args = parser.parse_args()
    if not (SRC / "stratavol" / "__init__.py").is_file():
        raise BenchError(f"no stratavol sources under {SRC}")
    if args.quick:
        return quick()
    if args.print_pins:
        return print_pins()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, "full", args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

"""Process runner, measurement loops and statistics for the benchmark.

Every measured invocation is a fresh child process started with
`posix_spawn` and reaped with `os.wait4`, so its CPU time and peak RSS are
its own.  (`getrusage(RUSAGE_CHILDREN)` would not do: its `ru_maxrss` is a
maximum over every child reaped so far.)  `posix_spawn` shares this
process's memory until the exec, and Linux carries the peak RSS of that
memory into the child's `ru_maxrss`; so this process never holds an output
or numpy in memory while it measures, and its own peak stays below every
child's.

The load is a closed loop with one client: one child at a time.  The package
may use the BLAS threads it picks by default; thread settings are recorded,
not pinned.
"""
from __future__ import annotations

import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import tracer
from workloads import BENCH_DIR, ROOT, SETUP_ARGV, SETUP_OUTPUT, WORKLOADS

RESULTS_DIR = BENCH_DIR / "results"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
JACO = (sys.executable, "-m", "jaco_gutman")
TRACE_CHILD = (sys.executable, str(BENCH_DIR / "tracer.py"))

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# The sequences module is on no workload's path: its self time is recorded
# in the results file but is not a metric.
PER_LAYER_UNITS = {
    **{name: "s" for name in tracer.SELF_TIME_METRIC.values() if name != "sequences.self_s"},
    **tracer.COUNTER_UNITS,
    "trace.main_s": "s",
    "trace.untraced_main_s": "s",
    "trace.overhead_s": "s",
}

# A checker gets a workload name, the seed and the file holding the output;
# it returns None for a correct output and the reason otherwise.
Checker = Callable[[str, int, Path], "str | None"]


@dataclass
class Invocation:
    workload: str
    kind: str  # main | setup | traced | untraced
    round: int  # -1 for the discarded warm-up round
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problem: str | None  # None when exit code and output are correct
    report: dict | None = None  # the tracer child's report


class Runner:
    """Runs child processes one at a time under a hard deadline."""

    def __init__(self, deadline: float, invocation_timeout: float = 120.0):
        self.deadline = deadline
        self.invocation_timeout = invocation_timeout
        self.scratch = RESULTS_DIR / f"tmp-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.out_path = self.scratch / "stdout"
        self.err_path = self.scratch / "stderr"

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def spawn(self, argv: list[str]) -> tuple[float, float, float, str | None]:
        """Run argv to completion; return wall s, CPU s, peak RSS MB and a failure."""
        timeout = max(1.0, min(self.invocation_timeout, self.deadline - time.monotonic()))
        expired = threading.Event()
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, CHILD_ENV, file_actions=actions)

            def expire() -> None:
                expired.set()
                os.kill(pid, signal.SIGKILL)

            timer = threading.Timer(timeout, expire)
            timer.start()
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        problem = None
        if expired.is_set():
            problem = f"timed out after {timeout:.0f} s"
        elif os.WIFSIGNALED(status):
            problem = f"killed by signal {os.WTERMSIG(status)}"
        elif os.WEXITSTATUS(status) != 0:
            stderr = self.err_path.read_bytes()[-300:].decode(errors="replace").strip()
            problem = f"exit code {os.WEXITSTATUS(status)}: {stderr}"
        return wall, cpu, rss_mb, problem

    def jaco(self, workload: str, kind: str, argv: list[str], expect: Callable[[Path], str | None], round_no: int) -> Invocation:
        wall, cpu, rss, problem = self.spawn([*JACO, *argv])
        if problem is None:
            problem = expect(self.out_path)
        return Invocation(workload, kind, round_no, wall, cpu, rss, problem)

    def trace_child(self, workload: str, traced: bool, argv: list[str], expect, spans_file: Path | None, round_no: int) -> Invocation:
        captured = self.scratch / "captured"
        child = [*TRACE_CHILD, "--traced", str(int(traced)), "--stdout-file", str(captured)]
        if spans_file is not None:
            child += ["--spans-file", str(spans_file)]
        wall, cpu, rss, problem = self.spawn([*child, "--", *argv])
        report = None
        if problem is None:
            report = json.loads(self.out_path.read_bytes().splitlines()[-1])
            if report["exit_code"] != 0:
                problem = f"cli.main returned {report['exit_code']}"
            else:
                problem = expect(captured)
        if problem is None and traced:
            layer_sum = sum(report["layers"].values())
            if abs(layer_sum - report["main_s"]) > 1e-6:
                problem = f"layer self times sum to {layer_sum} s, cli.main took {report['main_s']} s"
        kind = "traced" if traced else "untraced"
        return Invocation(workload, kind, round_no, wall, cpu, rss, problem, report)


def _expect_setup(out: Path) -> str | None:
    text = out.read_bytes()
    return None if text == SETUP_OUTPUT else f"setup output {text[:40]!r}"


def _rounds(items: list, seed: int, seconds: float, min_rounds: int, runner: Runner, run_item) -> list[Invocation]:
    """A discarded warm-up, then shuffled rounds of `items` for about `seconds`.

    The warm-up is three setup probes: the first process compiles the
    package's .pyc files (where bytecode writing is on), and the probes load
    numpy and the package into the page cache.  A new round starts only while it is expected to end within
    half a round of `seconds`, so a run lasts about `seconds` whatever the
    round length.  `run_item` returns the invocations of one item.
    """
    rng = random.Random(seed)
    done = [runner.jaco("setup", "setup", list(SETUP_ARGV), _expect_setup, -1) for _ in range(3)]
    start = time.monotonic()
    round_no = 0
    while True:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            done.extend(run_item(item, round_no))
        round_no += 1
        now = time.monotonic()
        per_round = (now - start) / round_no
        if now + per_round > runner.deadline:
            break
        if round_no >= min_rounds and now - start + per_round / 2 > seconds:
            break
    return done


def measure_end_to_end(names, seed, seconds, check: Checker, runner: Runner, *, tiny=False, setup_probes=1, min_rounds=2):
    """Rounds of every workload plus setup probes, interleaved in seeded order."""
    items = [(name, "main") for name in names] + [(name, "setup") for name in names] * setup_probes

    def run_item(item, round_no):
        name, kind = item
        if kind == "setup":
            return [runner.jaco(name, kind, list(SETUP_ARGV), _expect_setup, round_no)]
        expect = lambda out: check(name, seed, out)
        return [runner.jaco(name, kind, WORKLOADS[name].argv(seed, tiny), expect, round_no)]

    return _rounds(items, seed, seconds, min_rounds, runner, run_item)


def measure_trace(names, seed, seconds, check: Checker, runner: Runner, *, tiny=False, spans_prefix: str | None = None):
    """Per workload, untraced, traced, traced, untraced in-process runs of cli.main.

    The symmetric order cancels host drift that is linear over the four
    runs from the overhead, traced minus untraced.  Workloads are shuffled.
    """

    def run_item(name, round_no):
        expect = lambda out: check(name, seed, out)
        argv = WORKLOADS[name].argv(seed, tiny)
        spans = RESULTS_DIR / f"{spans_prefix}-{name}.spans.json" if spans_prefix else None
        return [
            runner.trace_child(name, traced, argv, expect, spans if traced else None, round_no)
            for traced in (False, True, True, False)
        ]

    return _rounds(names, seed, seconds, 1, runner, run_item)


def describe(values: list[float]) -> dict | None:
    if not values:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end_metrics(invocations: list[Invocation], name: str) -> dict[str, dict]:
    """Median, quartiles and sample count of each end-to-end metric of one workload."""
    ok = [i for i in invocations if i.workload == name and i.round >= 0 and i.problem is None]
    main = [i for i in ok if i.kind == "main"]
    mine = [i for i in invocations if i.workload == name]
    stats = {
        "wall_s": describe([i.wall_s for i in main]),
        "cpu_s": describe([i.cpu_s for i in main]),
        "peak_rss_mb": describe([i.peak_rss_mb for i in main]),
        "setup_s": describe([i.wall_s for i in ok if i.kind == "setup"]),
    }
    for metric, stat in stats.items():
        if stat is not None:
            stat["unit"] = END_TO_END_UNITS[metric]
    failed = sum(1 for i in mine if i.problem is not None)
    stats["fail_ratio"] = {"value": failed / len(mine), "failed": failed, "attempted": len(mine), "unit": "1"}
    return stats


def per_layer_metrics(invocations: list[Invocation], name: str) -> dict[str, dict]:
    """Medians over the traced (and untraced) repetitions of one workload."""
    ok = [i for i in invocations if i.workload == name and i.round >= 0 and i.problem is None]
    traced = [i.report for i in ok if i.kind == "traced"]
    untraced = [i.report["main_s"] for i in ok if i.kind == "untraced"]
    if not traced or not untraced:
        return {}
    values = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
    values.update({key: statistics.median(r["counters"][key] for r in traced) for key in traced[0]["counters"]})
    values["trace.main_s"] = statistics.median(r["main_s"] for r in traced)
    values["trace.untraced_main_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.main_s"] - values["trace.untraced_main_s"]
    return {key: {"value": value, "unit": PER_LAYER_UNITS.get(key, "s"), "n": len(traced)} for key, value in values.items()}


def calibration_s(iterations: int = 2_000_000) -> float:
    """Time of a fixed single-thread Python loop, a probe for host drift."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return time.perf_counter() - start


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) clock ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as handle:
            ticks = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def machine_facts() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy older than 1.26
        blas = {"name": "unknown", "version": None}
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in threads},
    }


def write_results(label: str, payload: dict, invocations: list[Invocation]) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{label}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    payload = dict(payload, invocations=[asdict(inv) for inv in invocations])
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path

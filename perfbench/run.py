#!/usr/bin/env python3
"""Benchmark of the pointdamp command line, run the way a user runs it.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 44 --trace 0

Run from the repository root.  Every invocation is ``python -m pointdamp.cli``
in a fresh interpreter with ``PYTHONPATH=src``, one at a time: a closed loop
with one client.  The workload's invocations (see ``workloads.py``) run in
order, round after round, for as many whole rounds as fit into ``--seconds`` at
the baseline pace (``workloads.ROUND_S``).  Each invocation gets the
workload seed as ``--seed``, is timed from spawn to exit, has its peak RSS
read from ``os.wait4``, and has its output checked.

With ``--trace 0`` the last line reports the end-to-end metrics:

    setup_s      fastest time of a fresh ``python -c "import pointdamp.cli"``
    wall_s       sum over the workload's invocations of their fastest wall time
    peak_rss_mb  largest median peak RSS of any invocation
    out_mb       bytes one round of the workload writes, in MB

With ``--trace 1`` every invocation also runs under ``tracer.py`` and the last
line reports the per-layer metrics of ``tracer.PER_LAYER`` for one round.
Lines before it show every metric with its unit, plus ``steps_per_s``,
``solves_per_s`` and ``fail_ratio``.

An invocation fails on a nonzero exit, a timeout, or a failed output check.
``correct`` is false when any failure is not one of ``workloads.KNOWN_DEFECTS``.
Exit code 2 means the benchmark could not run (no ``src/pointdamp`` here).
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
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_run"
SETUP_SAMPLES = 5  # import-only set-up samples per run
SETUP_NOMINAL_S = 0.9  # seconds one of them takes on the baseline machine
INVOCATION_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # no invocation may still run this long after the start
MIN_TIMEOUT_S = 10.0  # nothing new starts with less than this left before RUN_LIMIT_S
# One BLAS thread per invocation: with two vCPUs shared with other tenants, a
# second OpenBLAS thread spinning beside the interpreter measures the scheduler.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "out_mb": "MB"}


@dataclass
class Sample:
    invocation: int
    traced: bool
    wall_s: float
    rss_mb: float
    problems: list[tuple[str, str]] = field(default_factory=list)
    out_bytes: int = 0
    steps: int = 0
    solves: int = 0
    totals: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def spawn(cmd: list[str], log: Path, timeout: float) -> tuple[float, float, int, bool]:
    """Runs cmd from the repository root; returns wall seconds, peak RSS in MB,
    exit code and whether it was killed for running past timeout."""
    env = dict(os.environ, PYTHONPATH="src", **CHILD_THREADS)
    killed = threading.Event()
    with log.open("wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)

        def kill() -> None:
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, killed.is_set()


def time_setup(work: Path, timeout: float) -> float:
    """Spawn-to-exit time of a fresh interpreter that only imports the CLI."""
    log = work / "setup.log"
    wall, _, code, _ = spawn([sys.executable, "-c", "import pointdamp.cli"], log, timeout)
    if code != 0:
        raise RuntimeError("import pointdamp.cli failed: "
                           + log.read_text(errors="replace")[-500:])
    return wall


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass(frozen=True)
class Settings:
    workload: str
    seed: int
    seconds: int
    trace: bool


def run_invocation(tracer, inv, index: int, traced: bool, seed: int, work: Path,
                   timeout: float) -> Sample:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    spans = work / "spans.json"
    spans.unlink(missing_ok=True)
    cli_args = [*inv.argv, "--out", str(out.relative_to(ROOT)), "--seed", str(seed)]
    if traced:
        cmd = [sys.executable, str(Path(tracer.__file__)), str(spans), str(index), *cli_args]
    else:
        cmd = [sys.executable, "-m", "pointdamp.cli", *cli_args]
    log = work / "invocation.log"
    wall, rss, code, timed_out = spawn(cmd, log, timeout)
    sample = Sample(index, traced, wall, rss)
    if timed_out:
        sample.problems.append(("timeout", f"killed after {timeout:.0f} s"))
    elif code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        sample.problems.append(("exit", f"exit code {code}: {' '.join(tail)}"))
    else:
        sample.out_bytes = _tree_bytes(out)
        try:
            outcome = inv.check(out, seed)
        except Exception as exc:  # a missing or malformed output file
            sample.problems.append(("check-error", f"{type(exc).__name__}: {exc}"))
        else:
            sample.problems += outcome.problems
            sample.steps, sample.solves = outcome.steps, outcome.solves
        if traced:
            data = json.loads(spans.read_text(encoding="utf-8"))
            sample.totals = tracer.invocation_totals(data["spans"], data["import_s"])
    shutil.rmtree(out, ignore_errors=True)
    return sample


def rounds_for(workloads, run: Settings) -> int:
    """Whole rounds of the workload in one run: as many as fit into --seconds
    at the baseline pace, after the set-up samples.  A traced round runs every
    invocation twice, so a traced run makes half as many.  The count depends
    on the arguments only, so every run of the same arguments attempts the
    same invocations."""
    budget = run.seconds - SETUP_SAMPLES * SETUP_NOMINAL_S
    rounds = max(1, round(budget / workloads.ROUND_S[run.workload]))
    return max(1, rounds // 2) if run.trace else rounds


def run_workload(workloads, tracer, run: Settings, work: Path,
                 run_started: float) -> tuple[list[Sample], list[float]]:
    """Runs the workload's invocations, round after round.

    SETUP_SAMPLES import-only set-up samples are spread evenly between the
    invocations, so that they see the same machine as the workload.  Returns
    the invocation samples and the set-up times.
    """
    invs = workloads.WORKLOADS[run.workload]
    slots = [(i, traced) for _ in range(rounds_for(workloads, run)) for i in range(len(invs))
             for traced in ((False, True) if run.trace else (False,))]
    samples: list[Sample] = []
    setup_times: list[float] = []

    def timeout() -> float:
        return min(INVOCATION_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - run_started))

    time_setup(work, timeout())  # not counted: the first import writes bytecode caches
    for k, slot in enumerate(slots):
        if timeout() < MIN_TIMEOUT_S:
            break
        due = (k + 1) * SETUP_SAMPLES // len(slots) - k * SETUP_SAMPLES // len(slots)
        for _ in range(due):
            setup_times.append(time_setup(work, timeout()))
        samples.append(run_invocation(tracer, invs[slot[0]], *slot, run.seed, work, timeout()))
    return samples, setup_times


def _by_invocation(samples: list[Sample], value, reduce=statistics.median) -> dict[int, float]:
    groups: dict[int, list[float]] = {}
    for s in samples:
        groups.setdefault(s.invocation, []).append(value(s))
    return {i: reduce(v) for i, v in groups.items()}


def end_to_end(samples: list[Sample], setup_times: list[float]) -> dict[str, float]:
    plain = [s for s in samples if not s.traced]
    return {
        "setup_s": min(setup_times),
        "wall_s": sum(_by_invocation(plain, lambda s: s.wall_s, min).values()),
        "peak_rss_mb": max(_by_invocation(plain, lambda s: s.rss_mb).values()),
        "out_mb": sum(_by_invocation(plain, lambda s: s.out_bytes).values()) / 1e6,
    }


def rates(samples: list[Sample]) -> dict[str, float]:
    """steps_per_s and solves_per_s of the fastest untraced invocation that did that work."""
    plain = [s for s in samples if not s.traced]
    out = {}
    for name, work in (("steps_per_s", lambda s: s.steps), ("solves_per_s", lambda s: s.solves)):
        values = [work(s) / s.wall_s for s in plain if work(s)]
        if values:
            out[name] = max(values)
    return out


def per_layer(tracer, samples: list[Sample]) -> dict[str, float]:
    traced = [s for s in samples if s.traced and s.totals is not None]
    invocations = sorted({s.invocation for s in traced})
    totals = [
        {key: statistics.median(s.totals[key] for s in traced if s.invocation == i)
         for key in tracer.TOTAL_KEYS}
        for i in invocations
    ]
    plain_wall = _by_invocation([s for s in samples if not s.traced], lambda s: s.wall_s)
    traced_wall = _by_invocation(traced, lambda s: s.wall_s)
    overhead = sum(traced_wall[i] - plain_wall[i] for i in invocations if i in plain_wall)
    return tracer.layer_metrics(totals, overhead)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workloads, tracer, run: Settings, samples: list[Sample],
           setup_times: list[float]) -> dict:
    invs = workloads.WORKLOADS[run.workload]
    print("  set-up: import only " + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    for i, inv in enumerate(invs):
        mine = [s for s in samples if s.invocation == i]
        walls = ", ".join(f"{s.wall_s:.3f}{'t' if s.traced else ''}" for s in mine)
        print(f"  {inv.label}: wall {walls} s")
        problems = dict.fromkeys(p for s in mine for p in s.problems)
        for key, message in problems:
            known = " (known defect)" if key in workloads.KNOWN_DEFECTS else ""
            print(f"    FAILED {key}{known}: {message}")

    failed = sum(s.failed for s in samples)
    e2e = end_to_end(samples, setup_times)
    shown = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
    for name, value in rates(samples).items():
        shown[name] = (value, "1/s")
    shown["fail_ratio"] = (failed / len(samples), "ratio")
    print(f"end to end, {run.workload} (setup_s: fastest of {len(setup_times)}; "
          f"{len([s for s in samples if not s.traced])} untraced invocations):")
    for name, (value, unit) in shown.items():
        print(f"  {name:<14} {_fmt(value):>12} {unit}")

    if run.trace:
        metrics = per_layer(tracer, samples)
        print(f"per layer, one round of {run.workload} -> end-to-end metric it should move:")
        for name, value in metrics.items():
            unit, moves = tracer.PER_LAYER[name]
            print(f"  {name:<34} {_fmt(value):>12} {unit:<10} -> {moves}")
        units = {name: tracer.PER_LAYER[name][0] for name in metrics}
    else:
        metrics, units = e2e, END_TO_END_UNITS

    unexplained = [key for s in samples for key, _ in s.problems
                   if key not in workloads.KNOWN_DEFECTS]
    return {
        "correct": not unexplained,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_started = time.perf_counter()

    if not (ROOT / "src" / "pointdamp" / "cli.py").is_file():
        print(f"perfbench: no src/pointdamp under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.update(CHILD_THREADS)  # the output checks' own BLAS calls too
    import numpy
    import scipy

    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    run = Settings(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"perfbench {run.workload} seed={run.seed} seconds={run.seconds} "
          f"trace={int(run.trace)}: python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
          f"invocations run with OPENBLAS_NUM_THREADS={CHILD_THREADS['OPENBLAS_NUM_THREADS']}")
    work = WORK / f"{run.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        samples, setup_times = run_workload(workloads, tracer, run, work, run_started)
        result = report(workloads, tracer, run, samples, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it, or it holds something else
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

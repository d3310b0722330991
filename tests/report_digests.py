"""Digests of every file a fixed list of CLI invocations writes.

Runs each invocation in this process through ``pointdamp.cli.main``, with a
relative ``--out`` (``run00``, ``run01``, ...) under one directory, since the
reports echo their ``--out``, and where the list names a count, with
``os.sched_getaffinity`` reading that many usable CPUs; then prints ``sha256  bytes  path`` for every
file written, paths relative to that directory, in sorted order.  A JSON
file that is not standard JSON (a NaN or an Infinity in it) stops it with a
ValueError.  Two trees
whose reports and tables are byte-identical print the same lines, and where
they differ the sizes show by how much:

    PYTHONPATH=src python3 tests/report_digests.py DIRECTORY > digests.txt

With ``--compare``, it reads two such listings instead and prints
``path  old bytes -> new bytes (change)`` for each file whose digest moved,
``-`` standing for a file that one listing lacks; it exits 1 when any moved:

    python3 tests/report_digests.py --compare parent.txt change.txt

The list covers the benchmark's invocations (perfbench/workloads.py) at two
seeds, each task at its defaults, one sweep of each task over its default
grid, a classify sweep of positions with an exact form (golden, 1/3,
355/1131), which the sweep must hand to its jobs exactly, carleman-verify
with the exponential weight, and a classify sweep of typed decimals (0.1,
0.3, 0.375, 0.9, 0.011), whose doubles expand to their canonical endings,
carleman-verify at golden over 32 modes, and classify at golden with
poly_eps=3 (a strip check that is not refuted) and with k1=0 (an exp_grid
refuted for every position), then each task's default sweep again on two
usable CPUs and the simulate sweep on three, which write what the first
copies, run on one, write, and two small simulate runs that differ only in
``sample_every`` (1 and 100), whose ``final_state.csv`` is the same, and
carleman-verify at 0.99999, whose right side is 1e-5 long, and
carleman-verify at golden with weight=exp:6 and with check_h=1e-3, whose
dual routes run on tens of thousands of cells, and simulate at golden on 300
cells to t_final=200, whose decay fits rank a power law first, then classify
with its traces at golden and at 1/3 (there under a power_log Liouville
weight), simulate without fits or final state, and simulate to t_final=0.05,
whose two samples above the fit floor leave a fit_note in place of fits,
then classify configured by a --config file alone, simulate from a bump
placed by center and width (which check tests for a mesh node inside its
support), classify under an exponential Liouville weight, and carleman-verify
at golden over 128 modes and 3 h, a constant on more rows than the dual route
samples, whose route matches the default run's, then resolvent-scan at
golden with probes=1 (the near-resonant probe alone, no probe basis) and at
0.3 on 47 cells a side with probes=6 to mu_max=20 (five random probes a
frequency, their input norms from a Gram matrix under the last-interval
Simpson weights), so both of the scan's fills run split and serial.  A --config
names a file of CONFIG_FILES, which digests writes into that run's
directory, where the listing shows it, and passes by its path there.
New invocations go at the end, so the run numbers of the earlier ones hold.
Only resolvent-scan draws random numbers, so at the two seeds every other
task's files differ in the echoed seed alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

# the benchmark's positions: golden, sqrt(2) - 1 (partial quotients all 2), 1/2
POSITIONS = ("golden", "0.41421356237309515", "1/2")
BENCHMARK = (
    [["simulate", "--xi", "golden", "--set", "t_final=5"],
     ["resolvent-scan", "--xi", "golden", "--set", "mu_max=200"]]
    + [["classify", "--xi", p] for p in POSITIONS]
    + [["spectrum", "--xi", p, "--set", "re_max=2000"] for p in POSITIONS]
    + [["carleman-verify", "--xi", p] for p in POSITIONS]
    + [["sweep", "--set", "task=simulate", "--set", "xi_list=" + ",".join(POSITIONS)]]
)
TASKS = ("classify", "resolvent-scan", "spectrum", "carleman-verify", "simulate")
SWEEPS = [["sweep", "--set", f"task={task}"] for task in TASKS]
# (usable CPUs, or None for the host's own, and the arguments)
INVOCATIONS = (
    [(None, args + ["--seed", str(seed)]) for seed in (1, 2) for args in BENCHMARK]
    + [(None, [task, "--xi", "golden"]) for task in TASKS]
    + [(1, args) for args in SWEEPS]
    + [(None, args) for args in (
        ["sweep", "--set", "task=classify", "--set", "xi_list=golden,1/3,355/1131"],
        ["carleman-verify", "--xi", "1/3", "--set", "weight=exp:3"],
        ["sweep", "--set", "task=classify", "--set", "xi_list=0.1,0.3,0.375,0.9,0.011"],
        ["carleman-verify", "--xi", "golden", "--set", "n_modes=32"],
        ["classify", "--xi", "golden", "--set", "poly_eps=3"],
        ["classify", "--xi", "golden", "--set", "k1=0"],
    )]
    + [(2, args) for args in SWEEPS]
    + [(3, SWEEPS[-1])]
    + [(None, ["simulate", "--xi", "golden", "--set", "cells=40", "--set", "t_final=0.5",
               "--set", f"sample_every={every}"]) for every in (1, 100)]
    + [(None, ["carleman-verify", "--xi", "0.99999"])]
    + [(None, ["carleman-verify", "--xi", "golden", "--set", setting])
       for setting in ("weight=exp:6", "check_h=1e-3")]
    + [(None, ["simulate", "--xi", "golden", "--set", "cells=300", "--set", "t_final=200",
               "--set", "dt=0.002"])]
    + [(None, args) for args in (
        ["classify", "--xi", "golden", "--set", "keep_trace=true"],
        ["classify", "--xi", "1/3", "--set", "keep_trace=true",
         "--set", "liouville_phi=power_log:1,0.5"],
        ["simulate", "--xi", "golden", "--set", "cells=40", "--set", "t_final=0.5",
         "--set", "fit=false", "--set", "save_state=false"],
        ["simulate", "--xi", "golden", "--set", "cells=40", "--set", "t_final=0.05"],
        ["classify", "--config", "classify.cfg"],
        ["simulate", "--xi", "golden", "--set", "cells=40", "--set", "t_final=0.5",
         "--set", "center=0.3", "--set", "width=0.2"],
        ["classify", "--xi", "golden", "--set", "liouville_phi=exponential:0.5"],
        ["carleman-verify", "--xi", "golden", "--set", "n_modes=128", "--set", "h_count=3"],
        ["resolvent-scan", "--xi", "golden", "--set", "probes=1"],
        ["resolvent-scan", "--xi", "0.3", "--set", "cells=47", "--set", "probes=6",
         "--set", "mu_max=20"],
    )]
)
CONFIG_FILES = {
    "classify.cfg": "# classify at 1/3 over a short range, traces kept\n"
                    "xi = 1/3\n\nmu_max = 50\nkeep_trace = true\n",
}


def digests(directory: Path, invocations: list[tuple[int | None, list[str]]]) -> list[str]:
    """Run each (cpus, args) with --out runNN inside directory; a line per file written."""
    from pointdamp.cli import main

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cwd, affinity = os.getcwd(), os.sched_getaffinity
    os.chdir(directory)
    try:
        for i, (cpus, args) in enumerate(invocations):
            run = Path(f"run{i:02d}")
            if "--config" in args:
                k = args.index("--config") + 1
                run.mkdir()
                (run / args[k]).write_text(CONFIG_FILES[args[k]])
                args = [*args[:k], str(run / args[k]), *args[k + 1:]]
            if cpus is not None:
                os.sched_getaffinity = lambda pid, cpus=cpus: set(range(cpus))
            code = main([*args, "--out", str(run)])
            os.sched_getaffinity = affinity
            if code != 0:
                raise RuntimeError(f"exit {code}: {' '.join(args)}")
    finally:
        os.chdir(cwd)
        os.sched_getaffinity = affinity
    lines = []
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.suffix == ".json":
                json.loads(data, parse_constant=_refuse)
            digest = hashlib.sha256(data).hexdigest()
            lines.append(f"{digest}  {len(data)}  {path.relative_to(directory)}")
    return lines


def _refuse(constant: str):
    raise ValueError(f"not standard JSON: {constant}")


def compare(old: list[str], new: list[str]) -> list[str]:
    """A line per file whose digest moved between two listings, with its byte change."""

    def entries(lines):
        return {path: (digest, int(size))
                for digest, size, path in (line.split("  ", 2) for line in lines if line)}

    before, after = entries(old), entries(new)
    moved = []
    for path in sorted(before.keys() | after.keys()):
        a, b = before.get(path), after.get(path)
        if a == b:
            continue
        size_a, size_b = (str(entry[1]) if entry else "-" for entry in (a, b))
        change = f" ({b[1] - a[1]:+d})" if a and b else ""
        moved.append(f"{path}  {size_a} -> {size_b}{change}")
    return moved


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        moved = compare(*(Path(name).read_text().splitlines() for name in sys.argv[2:]))
        if moved:
            print("\n".join(moved))
        sys.exit(1 if moved else 0)
    if len(sys.argv) != 2:
        sys.exit("usage: report_digests.py DIRECTORY | --compare OLD NEW")
    # main prints the paths it wrote on stdout; keep stdout for the digests
    with contextlib.redirect_stdout(sys.stderr):
        lines = digests(Path(sys.argv[1]), INVOCATIONS)
    print("\n".join(lines))

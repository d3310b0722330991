"""Digests of every file a fixed list of CLI invocations writes.

Runs each invocation in this process through ``pointdamp.cli.main``, with a
relative ``--out`` (``run00``, ``run01``, ...) under one directory, since the
reports echo their ``--out``; then prints ``sha256  bytes  path`` for every
file written, paths relative to that directory, in sorted order.  Two trees
whose reports and tables are byte-identical print the same lines, and where
they differ the sizes show by how much:

    PYTHONPATH=src python3 tests/report_digests.py DIRECTORY > digests.txt

The list covers the benchmark's invocations (perfbench/workloads.py) at two
seeds, each task at its defaults, one sweep of each task over its default
grid, and a classify sweep of positions with an exact form (golden, 1/3,
355/1131), which the sweep must hand to its jobs exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
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
INVOCATIONS = (
    [args + ["--seed", str(seed)] for seed in (1, 2) for args in BENCHMARK]
    + [[task, "--xi", "golden"] for task in TASKS]
    + [["sweep", "--set", f"task={task}"] for task in TASKS]
    + [["sweep", "--set", "task=classify", "--set", "xi_list=golden,1/3,355/1131"]]
)


def digests(directory: Path, invocations: list[list[str]]) -> list[str]:
    """Run each invocation with --out runNN inside directory; a line per file written."""
    from pointdamp.cli import main

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for i, args in enumerate(invocations):
            code = main([*args, "--out", f"run{i:02d}"])
            if code != 0:
                raise RuntimeError(f"exit {code}: {' '.join(args)}")
    finally:
        os.chdir(cwd)
    lines = []
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            lines.append(f"{digest}  {len(data)}  {path.relative_to(directory)}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: report_digests.py DIRECTORY")
    # main prints the paths it wrote on stdout; keep stdout for the digests
    with contextlib.redirect_stdout(sys.stderr):
        lines = digests(Path(sys.argv[1]), INVOCATIONS)
    print("\n".join(lines))

"""The sweep task: one task's summary row at each of a list or a grid of positions.

Checks every position, exact form kept, with the swept task's own check before
the first job starts; each job hands the task's run its position and the plan
that check returned there, so no position is checked twice.  The task imports
its own layers.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from .. import cli  # cli.write_csv and cli.write_json_report are looked up at each call
from .. import processes
from ..cli import (
    ConfigError, Limit, Position, _report_skeleton, all_of, at_least, at_most, one_of,
)

MAX_SWEEP_POSITIONS = 10**4
# the most processes a sweep runs at once, itself included
MAX_WORKERS = 32

_xi_list_length = Limit(
    f"at most {MAX_SWEEP_POSITIONS} comma-separated positions",
    lambda value: value.count(",") < MAX_SWEEP_POSITIONS,
)

SCHEMA = {
    "task": ("spectrum", one_of(*(name for name in cli.COMMANDS if name != "sweep"))),
    "xi_min": (0.05, None),
    "xi_max": (0.95, None),
    "xi_count": (19, all_of(at_least(1), at_most(MAX_SWEEP_POSITIONS))),
    "xi_list": ("", _xi_list_length),
    "workers": (1, all_of(at_least(1), at_most(MAX_WORKERS))),
}


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """count evenly spaced values from start to stop, bit for bit numpy.linspace's."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [i * step + start for i in range(count - 1)] + [stop]


def check(cfg: dict, xi: None) -> list[tuple[Position, object]]:
    """(position, the swept task's plan there) for each position; the sweep has no xi of its own."""
    if cfg["xi_list"].strip():
        positions = [cli.parse_position(token) for token in cfg["xi_list"].split(",")]
    else:
        grid = _linspace(cfg["xi_min"], cfg["xi_max"], cfg["xi_count"])
        positions = [Position(v, None) for v in grid]
    task = cli._task(cfg["task"])
    plans = []
    for position in positions:
        if not 0.0 < position.value < 1.0:
            raise ConfigError(f"sweep xi {position.value} outside (0,1)")
        plans.append((position, task.check(cfg["task_config"], position)))
    return plans


def run(cfg: dict, xi: None, plan: list[tuple[Position, object]]) -> list[tuple[float, dict]]:
    """(xi, the task's sweep row) at each of check's positions, in increasing xi.

    With workers = k > 1, where processes.may_fork() allows it, the first job
    runs here alone; the other jobs then split into min(k, jobs - 1)
    contiguous parts, the first run here and each other in a forked child,
    which sends its (xi, row) pairs back pickled.  Nothing a job calls then
    forks, so no more than k processes compute at once.
    """
    task = cli._task(cfg["task"])
    task_cfg = dict(cfg["task_config"], seed=cfg["seed"])
    if task.USES_NUMPY and "numpy" not in sys.modules:
        # one OpenBLAS thread per process, whatever workers: pools of one thread per CPU
        # contend, and simulate's rows depend on the count.  Read as the first job loads numpy
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    def rows(start: int, stop: int) -> list[tuple[float, dict]]:
        return [(position.value, task.row(task.run(task_cfg, position, task_plan)))
                for position, task_plan in plan[start:stop]]

    parts = min(cfg["workers"], len(plan) - 1) if processes.may_fork() else 1
    if parts <= 1:
        results = rows(0, len(plan))
    else:
        import pickle

        # the first job runs before any fork, as a part of its own: the
        # children inherit the layers it imports (numpy's ~80 ms among them)
        # instead of importing them each
        [results] = processes.split(1, lambda part: rows(0, 1))
        bounds = [1 + (len(plan) - 1) * part // parts for part in range(parts + 1)]

        def part_rows(part: int):
            found = rows(bounds[part], bounds[part + 1])
            return found if part == 0 else pickle.dumps(found)

        here, *sent = processes.split(parts, part_rows)
        results += here + [pair for payload in sent for pair in pickle.loads(payload)]
    return sorted(results, key=lambda pair: pair[0])


def write(cfg: dict, results: list[tuple[float, dict]]) -> list[Path]:
    task = cfg["task"]
    columns = ["xi"] + list(results[0][1].keys())
    rows = [[v] + [summary[c] for c in columns[1:]] for v, summary in results]
    out = Path(cfg["out"])
    csv_path = out / f"sweep_{task}.csv"
    cli.write_csv(csv_path, f"sweep-{task}", columns, rows)
    payload = _report_skeleton("sweep", cfg, cli._task(task).USES_NUMPY)
    payload["result"] = {
        "task": task,
        "n_points": len(results),
        "rows": [dict(summary, xi=v) for v, summary in results],
    }
    json_path = out / f"sweep_{task}.json"
    cli.write_json_report(json_path, payload)
    return [csv_path, json_path]

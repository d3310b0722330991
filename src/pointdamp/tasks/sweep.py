"""The sweep task: one task's summary row at each of a list or a grid of positions.

Checks every position, exact form kept, with the swept task's own check before
the first job starts; each job hands the task's run its position and the plan
that check returned there, so no position is checked twice.  The task imports
its own layers.
"""

from __future__ import annotations

from .. import cli, processes
from ..cli import ConfigError, Limit, Position, all_of, at_least, at_most, one_of

MAX_SWEEP_POSITIONS = 10**4

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

    The first job runs here alone, in a split of its own, so the layers it
    imports (numpy's ~80 ms among them) load once and every child inherits
    them; processes.split then runs the other jobs in contiguous parts, one
    job or more each.  Every job runs inside a split: nothing it calls forks,
    and once numpy has loaded it computes on one BLAS thread, so the rows
    are the same bit for bit in any number of processes.
    """
    task = cli._task(cfg["task"])
    task_cfg = dict(cfg["task_config"], seed=cfg["seed"])

    def rows(jobs: list[tuple[Position, object]]) -> list[tuple[float, dict]]:
        return [(position.value, task.row(task.run(task_cfg, position, task_plan)))
                for position, task_plan in jobs]

    first, rest = plan[:1], plan[1:]
    parts = processes.split(1, lambda run: rows(first))
    parts += processes.split(len(rest), lambda run: rows([rest[j] for j in run]))
    return sorted((pair for part in parts for pair in part), key=lambda pair: pair[0])


def files(cfg: dict, results: list[tuple[float, dict]]) -> tuple:
    task = cfg["task"]
    columns = ["xi"] + list(results[0][1].keys())
    rows = [[v] + [summary[c] for c in columns[1:]] for v, summary in results]
    report = {
        "task": task,
        "n_points": len(results),
        "rows": [dict(summary, xi=v) for v, summary in results],
    }
    return f"sweep_{task}.json", report, [(f"sweep_{task}.csv", f"sweep-{task}", columns, rows, 1)]

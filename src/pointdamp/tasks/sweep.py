"""The sweep task: one task's summary row at each of a list or a grid of positions.

Checks every position, exact form kept, with the swept task's own check before
the first job hands it to the task's run; that task imports its own layers.
"""

from __future__ import annotations

from pathlib import Path

from .. import cli  # cli.write_csv and cli.write_json_report are looked up at each call
from ..cli import (
    ConfigError, Limit, Position, _report_skeleton, all_of, at_least, at_most, one_of,
)

MAX_SWEEP_POSITIONS = 10**4
# a process pool starts all its workers at once, however few the jobs
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


def _sweep_worker(job: tuple) -> tuple[float, dict]:
    name, xi, task_cfg, seed = job
    task = cli._task(name)
    return xi.value, task.row(task.run(dict(task_cfg, seed=seed), xi))


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """count evenly spaced values from start to stop, bit for bit numpy.linspace's."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [i * step + start for i in range(count - 1)] + [stop]


def check(cfg: dict, xi: None) -> list[Position]:
    """The positions, each checked by the swept task; the sweep has no xi of its own."""
    if cfg["xi_list"].strip():
        positions = [cli.parse_position(token) for token in cfg["xi_list"].split(",")]
    else:
        grid = _linspace(cfg["xi_min"], cfg["xi_max"], cfg["xi_count"])
        positions = [Position(v, None) for v in grid]
    task = cli._task(cfg["task"])
    for position in positions:
        if not 0.0 < position.value < 1.0:
            raise ConfigError(f"sweep xi {position.value} outside (0,1)")
        task.check(cfg["task_config"], position)
    return positions


def run(cfg: dict, xi: None) -> list[tuple[float, dict]]:
    """(xi, the task's sweep row) at each position, in increasing xi."""
    jobs = [(cfg["task"], p, cfg["task_config"], cfg["seed"]) for p in check(cfg, xi)]
    workers = min(cfg["workers"], len(jobs))
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]
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

"""Batch front end for the laboratory.

Subcommands: classify | resolvent-scan | spectrum | carleman-verify |
simulate | sweep.  Configuration comes from an optional flat key=value file
plus repeatable --set KEY=VALUE overrides; a few common keys (--xi, --out,
--seed) have direct flags.  Reports are JSON with sorted keys, tables are
CSV with a schema-version header comment, and every file is written
atomically (temp file plus rename).  Outputs are byte-identical for
identical (config, seed) on one platform; wall-clock goes to stderr only.

Exit codes: 0 success, 2 configuration error, 3 computation error.

This module is the task-agnostic core: the configuration schemas and their
checks, the report and CSV writers, the sweep, the parser and main.  Each
subcommand lives in its own module, pointdamp.tasks.<name> (the command with
"_" for "-"), which defines _check_<name>, run_<name>, write_<name> and
_<name>_row and is imported on first use, so an invocation compiles the core
and its own task only.  The tasks call write_csv and write_json_report
through this module at each call, so replacing either here sees every file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

# every task parses xi with the standard library alone; the layers that
# compute, numpy among them, are imported by the tasks that use them, after
# their configuration checks, so a command loads only what it runs
from . import __version__
from .inputs import parse_actuator_position

CSV_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


# ----------------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------------


def _as_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _as_float(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {text!r}") from None


def _as_int(text) -> int:
    try:
        return int(str(text), 10)
    except (TypeError, ValueError):
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _as_str(text) -> str:
    return str(text)


_REQUIRED = object()


class Limit(NamedTuple):
    """The values a config key admits, and the phrase that names them."""

    text: str
    admits: Callable[[object], bool]


def at_least(n: int) -> Limit:
    return Limit(f"at least {n}", lambda value: value >= n)


def at_most(n: int) -> Limit:
    return Limit(f"at most {n}", lambda value: value <= n)


def all_of(*limits: Limit) -> Limit:
    return Limit(
        " and ".join(limit.text for limit in limits),
        lambda value: all(limit.admits(value) for limit in limits),
    )


def one_of(*choices: str) -> Limit:
    return Limit(f"one of {', '.join(choices)}", lambda value: value in choices)


positive = Limit("positive", lambda value: value > 0)
nonnegative = Limit("nonnegative", lambda value: value >= 0)
finite = Limit("finite", math.isfinite)
finite_positive = Limit("finite and positive", lambda value: 0 < value < math.inf)
finite_nonnegative = Limit("finite and nonnegative", lambda value: 0 <= value < math.inf)

# ceilings on the work one invocation may ask for, so an absurd size exits 2
# instead of exhausting memory
MAX_CELLS = 10**6
MAX_SIM_STEPS = 10**8
MAX_GRID_POINTS = 10**7
MAX_SWEEP_POSITIONS = 10**4
# a process pool starts all its workers at once, however few the jobs
MAX_WORKERS = 32
# lowest resolvent-scan frequency: D(mu) has a trivial zero at mu = 0, and
# below ~1e-7 |D|^2 falls under the resonance floor, so a bounded resolvent
# would read inf.  At golden and 512 cells the interface residuals are 7e-14
# at 1e-3, 1.4e-12 at 1e-4 and 2e-10 at 1e-6
SCAN_MU_MIN = 1e-3
# lowest classify frequency: the exp_grid and poly_grid indicators share that
# trivial zero, so below about one their infimum is the lobe around mu = 0,
# whatever xi is (golden exp_grid: 1e-16 at mu_min = 1e-8, 0.011 at 0.1,
# 0.38 at 0.5, 2.05 at 1)
CLASSIFY_MU_MIN = 1.0

_xi_list_length = Limit(
    f"at most {MAX_SWEEP_POSITIONS} comma-separated positions",
    lambda value: value.count(",") < MAX_SWEEP_POSITIONS,
)

# key -> (default, caster, Limit or None); _REQUIRED means the key must be provided.
# The limits are checked right after casting, before any work starts.
COMMAND_SCHEMAS: dict[str, dict] = {
    "classify": {
        "xi": (_REQUIRED, _as_str, None),
        "depth": (40, _as_int, at_least(1)),
        "rational_tol": (1e-12, _as_float, finite_nonnegative),
        "quotient_overflow": (1e12, _as_float, all_of(finite, at_least(1))),
        "constant_type_bound": (20, _as_int, None),
        "mu_min": (1.0, _as_float, all_of(finite, at_least(CLASSIFY_MU_MIN))),
        "mu_max": (500.0, _as_float, None),
        "k1": (1.0, _as_float, finite_nonnegative),
        "poly_eps": (1.0, _as_float, finite),
        "trend_factor": (10.0, _as_float, positive),
        "liouville_kappa": (0.2, _as_float, positive),
        "liouville_m_max": (1000, _as_int, all_of(at_least(1), at_most(MAX_GRID_POINTS))),
        "liouville_phi": ("identity", _as_str, None),
        "keep_trace": (False, _as_bool, None),
        "out": (".", _as_str, None),
        "seed": (0, _as_int, nonnegative),
    },
    "resolvent-scan": {
        "xi": (_REQUIRED, _as_str, None),
        "mu_min": (1.0, _as_float, all_of(finite, at_least(SCAN_MU_MIN))),
        "mu_max": (60.0, _as_float, None),
        "mu_step": (0.5, _as_float, finite_positive),
        "probes": (4, _as_int, at_least(1)),
        "cells": (512, _as_int, all_of(at_least(2), at_most(MAX_CELLS))),
        "out": (".", _as_str, None),
        "seed": (0, _as_int, nonnegative),
    },
    "spectrum": {
        "xi": (_REQUIRED, _as_str, None),
        "re_min": (0.5, _as_float, None),
        "re_max": (50.0, _as_float, None),
        "im_min": (-0.5, _as_float, None),
        "im_max": (3.0, _as_float, None),
        "tol": (1e-12, _as_float, nonnegative),
        "real_tol": (1e-10, _as_float, finite_nonnegative),
        "out": (".", _as_str, None),
        "seed": (0, _as_int, nonnegative),
    },
    "carleman-verify": {
        "xi": (_REQUIRED, _as_str, None),
        "side": ("both", _as_str, one_of("both", "left", "right")),
        "weight": ("default", _as_str, None),
        # the coarsest identity-check grid has cells // 4 cells, and its
        # one-sided second-derivative stencil needs at least 3 of them
        "cells": (2048, _as_int, all_of(at_least(12), at_most(MAX_CELLS))),
        "n_samples": (50, _as_int, at_least(1)),
        "n_modes": (8, _as_int, at_least(1)),
        "h_min": (1e-3, _as_float, finite_positive),
        "h_max": (1e-1, _as_float, finite_positive),
        "h_count": (13, _as_int, at_least(1)),
        "check_h": (0.05, _as_float, finite_positive),
        "out": (".", _as_str, None),
        "seed": (0, _as_int, nonnegative),
    },
    "simulate": {
        "xi": (_REQUIRED, _as_str, None),
        "cells": (1000, _as_int, all_of(at_least(2), at_most(MAX_CELLS))),
        "t_final": (200.0, _as_float, positive),
        "dt": (0.0, _as_float, finite_nonnegative),  # 0 means the default, min spacing / 2
        "sample_every": (100, _as_int, at_least(1)),
        "damped": (True, _as_bool, None),
        "initial": ("smooth_bump", _as_str, one_of("smooth_bump", "fourier_mode")),
        "mode": (2, _as_int, at_least(1)),
        "center": (math.nan, _as_float, None),  # NaN means the damped point
        "width": (0.1, _as_float, positive),
        "fit": (True, _as_bool, None),
        "save_state": (True, _as_bool, None),
        "out": (".", _as_str, None),
        "seed": (0, _as_int, nonnegative),
    },
    "sweep": {
        "task": ("spectrum", _as_str,
                 one_of("classify", "resolvent-scan", "spectrum", "carleman-verify", "simulate")),
        "xi_min": (0.05, _as_float, None),
        "xi_max": (0.95, _as_float, None),
        "xi_count": (19, _as_int, all_of(at_least(1), at_most(MAX_SWEEP_POSITIONS))),
        "xi_list": ("", _as_str, _xi_list_length),
        "workers": (1, _as_int, all_of(at_least(1), at_most(MAX_WORKERS))),
        "out": (".", _as_str, None),
        "seed": (0, _as_int, nonnegative),
    },
}

# lighter forwarded defaults so a default sweep finishes at desk scale
_SWEEP_TASK_OVERRIDES = {
    "simulate": {"cells": "300", "t_final": "50", "dt": "0.002", "sample_every": "100",
                 "save_state": "false", "fit": "false"},
    "carleman-verify": {"cells": "1024", "n_samples": "10"},
    "resolvent-scan": {"mu_max": "40", "cells": "256"},
    "classify": {"mu_max": "200", "keep_trace": "false"},
}


def load_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _setting(key: str, spec: tuple, text: str | None):
    """The value of one key: its default when text is None, else text cast and checked."""
    default, caster, limit = spec
    if text is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r} (e.g. --xi or --set {key}=...)")
        return default
    value = caster(text)
    if limit is not None and not limit.admits(value):
        raise ConfigError(f"{key} must be {limit.text}, got {text!r}")
    return value


def resolve_config(command: str, raw: dict[str, str]) -> dict:
    schema = COMMAND_SCHEMAS[command]
    cfg = {key: _setting(key, spec, raw.get(key)) for key, spec in schema.items()}
    forwarded = {}
    if command == "sweep":
        # the swept task's own keys, under lighter defaults; xi, out and seed
        # come from the sweep itself
        lighter = _SWEEP_TASK_OVERRIDES.get(cfg["task"], {})
        forwarded = {
            key: _setting(key, spec, raw.get(key, lighter.get(key)))
            for key, spec in COMMAND_SCHEMAS[cfg["task"]].items()
            if key not in ("xi", "out", "seed")
        }
        cfg["task_config"] = forwarded
    unknown = set(raw) - set(schema) - set(forwarded)
    if unknown:
        raise ConfigError(f"unknown key(s) for {command}: {', '.join(sorted(unknown))}")
    return cfg


def _parse_xi(text: str):
    """Returns (float value, exact form or None) from an xi config string."""
    try:
        return parse_actuator_position(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad xi: {exc}") from None


# ----------------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------------


def _pyify(obj):
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    fractions = sys.modules.get("fractions")  # no Fraction exists before fractions loads
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return str(obj)
    if hasattr(obj, "dtype"):  # a numpy array or scalar, recognised without importing numpy
        if obj.ndim:
            return [_pyify(v) for v in obj.tolist()]
        obj = obj.item()  # a numpy float keeps a nan as nan
        return _pyify(obj) if isinstance(obj, complex) else obj
    if isinstance(obj, complex):
        return {"real": float(obj.real), "imag": float(obj.imag)}
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _write_atomic(path: Path, chunks) -> None:
    """Write the text chunks to a temporary file, then move it into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        # the chunks may fail mid-stream: leave no partial file behind
        tmp.unlink(missing_ok=True)
        raise


def write_json_report(path: Path, payload: dict) -> None:
    body = json.dumps(_pyify(payload), sort_keys=True, indent=2, ensure_ascii=False)
    _write_atomic(path, [body, "\n"])


def _csv_cell(value) -> str:
    # floats first: they fill almost every cell (no bool or int is a float)
    if isinstance(value, float):
        return f"{float(value):.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if hasattr(value, "dtype"):  # a numpy scalar reads as the Python number it holds
        return _csv_cell(value.item())
    return str(value)


# rows formatted per %-template: enough to amortise building the template,
# few enough that a chunk's text stays small
_CSV_CHUNK_ROWS = 2048


def _csv_column(values: tuple) -> tuple[str, tuple]:
    """The %-format of one column of a chunk of rows, and the values it takes.

    "%.17g" % x is f"{float(x):.17g}" for a float cell (numpy's float64 is a
    float); any other column is formatted cell by cell, exactly as _csv_cell
    does.
    """
    kinds = set(map(type, values))
    if all(issubclass(kind, float) for kind in kinds):
        return "%.17g", values
    return "%s", tuple(map(_csv_cell, values))


def _csv_chunk(chunk: list) -> str:
    """The lines of a chunk of rows, formatted with one %-template."""
    if len(set(map(len, chunk))) != 1:
        return "".join(",".join(map(_csv_cell, row)) + "\n" for row in chunk)
    specs, columns = zip(*map(_csv_column, zip(*chunk)))
    template = (",".join(specs) + "\n") * len(chunk)
    return template % tuple(itertools.chain.from_iterable(zip(*columns)))


def _csv_lines(schema: str, columns: list[str], rows):
    yield f"# pointdamp-csv schema={schema} version={CSV_SCHEMA_VERSION}\n"
    yield ",".join(columns) + "\n"
    rows = iter(rows)
    while chunk := list(map(tuple, itertools.islice(rows, _CSV_CHUNK_ROWS))):
        yield _csv_chunk(chunk)


def write_csv(path: Path, schema: str, columns: list[str], rows) -> None:
    """Stream the rows to the file a chunk at a time, under a schema comment.

    Every cell reads as _csv_cell writes it.
    """
    _write_atomic(path, _csv_lines(schema, columns, rows))


# the tasks that compute without numpy; their reports carry no numpy version
_NUMPY_FREE_TASKS = ("classify", "spectrum")


def _report_skeleton(command: str, cfg: dict) -> dict:
    echo = {k: v for k, v in cfg.items() if k != "task_config"}
    versions = {"pointdamp": __version__}
    if (cfg["task"] if command == "sweep" else command) not in _NUMPY_FREE_TASKS:
        import numpy

        versions["numpy"] = numpy.__version__
    return {"command": command, "config": _pyify(echo), "versions": versions}


# ----------------------------------------------------------------------------
# tasks
# ----------------------------------------------------------------------------


def _check_sizes(sizes: dict[str, int]) -> None:
    """Refuse a config when an array it sizes, named by its formula, would pass MAX_GRID_POINTS."""
    for formula, size in sizes.items():
        if size > MAX_GRID_POINTS:
            raise ConfigError(f"{formula} would exceed {MAX_GRID_POINTS}")


def _task(command: str) -> tuple[Callable, Callable, Callable, Callable]:
    """The task's (check, run, write, row) functions, its module imported on first use.

    check(cfg, xi) makes the checks across the task's keys at one position,
    which run(cfg) makes first and a sweep makes at every position before its
    first job; write(cfg, result) writes the task's files from run's result
    and row(result) picks its sweep row from it.
    """
    name = command.replace("-", "_")
    # __import__ runs the import in C, which python -X importtime logs;
    # importlib.import_module's pure-Python path goes unlisted
    module_name = f"pointdamp.tasks.{name}"
    __import__(module_name)
    module = sys.modules[module_name]
    return (getattr(module, f"_check_{name}"), getattr(module, f"run_{name}"),
            getattr(module, f"write_{name}"), getattr(module, f"_{name}_row"))


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------


def _sweep_worker(job: tuple) -> tuple[float, dict]:
    task, xi_value, task_cfg, seed = job
    cfg = dict(task_cfg, xi=repr(xi_value), seed=seed)
    _, run, _, row = _task(task)
    return xi_value, row(run(cfg))


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """count evenly spaced values from start to stop, bit for bit numpy.linspace's."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [i * step + start for i in range(count - 1)] + [stop]


def cmd_sweep(cfg: dict) -> list[Path]:
    task = cfg["task"]
    if cfg["xi_list"].strip():
        xi_values = [_parse_xi(token)[0] for token in cfg["xi_list"].split(",")]
    else:
        xi_values = _linspace(cfg["xi_min"], cfg["xi_max"], cfg["xi_count"])
    check = _task(task)[0]
    for v in xi_values:
        if not 0.0 < v < 1.0:
            raise ConfigError(f"sweep xi {v} outside (0,1)")
        check(cfg["task_config"], v)

    jobs = [(task, v, cfg["task_config"], cfg["seed"]) for v in xi_values]
    workers = min(cfg["workers"], len(jobs))
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]
    results.sort(key=lambda pair: pair[0])

    columns = ["xi"] + list(results[0][1].keys())
    rows = [[v] + [summary[c] for c in columns[1:]] for v, summary in results]
    out = Path(cfg["out"])
    csv_path = out / f"sweep_{task}.csv"
    write_csv(csv_path, f"sweep-{task}", columns, rows)
    payload = _report_skeleton("sweep", cfg)
    payload["config"]["task_config"] = _pyify(cfg["task_config"])
    payload["result"] = {
        "task": task,
        "n_points": len(results),
        "rows": [dict(summary, xi=v) for v, summary in results],
    }
    json_path = out / f"sweep_{task}.json"
    write_json_report(json_path, payload)
    return [csv_path, json_path]


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointdamp",
        description="Numerical laboratory for a string damped at one interior point.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMAND_SCHEMAS:
        p = sub.add_parser(name, help=f"run the {name} task")
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument(
            "--set",
            action="append",
            dest="overrides",
            default=[],
            metavar="KEY=VALUE",
            help="override one configuration key (repeatable)",
        )
        p.add_argument("--xi", help="actuator position: decimal, p/q, or 'golden'")
        p.add_argument("--out", help="output directory (default '.')")
        p.add_argument("--seed", type=int, help="seed for randomized probes/samples")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        raw: dict[str, str] = {}
        if args.config:
            raw.update(load_config_file(args.config))
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            raw[key.strip()] = value.strip()
        if args.xi is not None:
            raw["xi"] = args.xi
        if args.out is not None:
            raw["out"] = args.out
        if args.seed is not None:
            raw["seed"] = str(args.seed)
        cfg = resolve_config(args.command, raw)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "sweep":
            paths = cmd_sweep(cfg)
        else:
            _, run, write, _ = _task(args.command)
            paths = write(cfg, run(cfg))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure: report and signal exit 3
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for path in paths:
        print(path)
    elapsed = time.monotonic() - started
    print(
        f"elapsed: {elapsed:.3f}s (excludes interpreter start-up and the CLI's own imports;"
        " includes the task's)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    if vars(sys.modules[__name__]) is globals():
        # run as python -m pointdamp.cli: the task modules import this module
        # as pointdamp.cli, which would otherwise load (and compile) a second
        # copy with its own ConfigError
        sys.modules.setdefault("pointdamp.cli", sys.modules[__name__])
    else:
        # run by a tool that keeps its own module as __main__ (python -m
        # cProfile -m pointdamp.cli, for one): run the imported module, whose
        # ConfigError the task modules raise
        from pointdamp.cli import main
    sys.exit(main())

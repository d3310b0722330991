"""Batch front end for the laboratory.

One subcommand per task (COMMANDS), and a sweep of any of them over xi.
Configuration comes from an optional flat key=value file plus repeatable
--set KEY=VALUE overrides; a few common keys (--xi, --out, --seed) have
direct flags.  Reports are JSON with sorted keys, tables are CSV with a
schema-version header comment, and every file is written atomically (temp
file plus rename).  Outputs are byte-identical for identical (config, seed)
on one platform; wall-clock goes to stderr only.

Exit codes: 0 success, 2 configuration error, 3 computation error.

This module is the task-agnostic core: the casters and limits that schemas
are made of, config resolution, the report and CSV writers, the parser and
main, and the position xi, parsed once here for the task.  Each subcommand,
the sweep included, lives in its own module, pointdamp.tasks.<name> (the
command with "_" for "-"), which holds its other keys and is imported on
first use (see _task), so an invocation compiles the core and its own task
only.  The tasks call write_csv and write_json_report through this module at
each call, so replacing either here sees every file.
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

# the core parses xi with the standard library alone; the layers that
# compute, numpy among them, are imported by the tasks that use them, after
# their configuration checks, so a command loads only what it runs
from . import __version__
from .inputs import Position, parse_actuator_position


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


_REQUIRED = object()
# a key's text is cast by the type of its default; a required key is text
_CASTERS = {bool: _as_bool, int: _as_int, float: _as_float}


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

# the subcommands, each the module pointdamp.tasks.<name> with "_" for "-"
COMMANDS = ("classify", "resolvent-scan", "spectrum", "carleman-verify", "simulate", "sweep")

# the keys of every subcommand (xi: but the sweep) besides its module's SCHEMA,
# each (default, Limit or None), where a _REQUIRED default means the key must
# be provided; the limits are checked right after casting, before any work
COMMON_SCHEMA = {"out": (".", None), "seed": (0, nonnegative)}
POSITION_SCHEMA = {"xi": (_REQUIRED, None)}


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


def _settings(schema: dict, raw: dict[str, str]) -> dict:
    """The value of each key of the schema: its text in raw, cast and checked, else its default."""
    cfg = {}
    for key, (default, limit) in schema.items():
        text = raw.get(key)
        if text is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing key {key!r} (e.g. --xi or --set {key}=...)")
            cfg[key] = default
            continue
        cfg[key] = _CASTERS.get(type(default), str)(text)
        if limit is not None and not limit.admits(cfg[key]):
            raise ConfigError(f"{key} must be {limit.text}, got {text!r}")
    return cfg


def resolve_config(command: str, raw: dict[str, str]) -> dict:
    """The command's settings from raw, each key cast and checked.

    A command with a task key (the sweep) takes that task's own keys as well,
    under the task's SWEEP_DEFAULTS, into task_config.  xi stays its text.
    """
    schema = _task(command).SCHEMA | COMMON_SCHEMA
    if command != "sweep":  # the sweep runs its task at positions of its own
        schema = POSITION_SCHEMA | schema
    cfg = _settings(schema, raw)
    if "task" in cfg:
        task = _task(cfg["task"])
        cfg["task_config"] = _settings(task.SCHEMA, task.SWEEP_DEFAULTS | raw)
        schema = schema | task.SCHEMA
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) for {command}: {', '.join(sorted(unknown))}")
    return cfg


def parse_position(text: str) -> Position:
    """The actuator position an xi text names (decimal, p/q or golden), else a ConfigError."""
    try:
        return parse_actuator_position(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad xi: {exc}") from None


def _check_sizes(sizes: dict[str, int]) -> None:
    """Refuse a config when an array it sizes, named by its formula, would pass MAX_GRID_POINTS."""
    for formula, size in sizes.items():
        if size > MAX_GRID_POINTS:
            raise ConfigError(f"{formula} would exceed {MAX_GRID_POINTS}")


def _task(command: str):
    """The subcommand's module, imported on first use.

    It defines SCHEMA; check(cfg, xi), the checks across its keys at the
    Position xi, which run(cfg, xi) makes first; and write(cfg, result).  A
    task the sweep runs also defines USES_NUMPY, SWEEP_DEFAULTS and row(result).
    """
    # __import__ runs the import in C, which python -X importtime logs;
    # importlib.import_module's pure-Python path goes unlisted
    name = f"pointdamp.tasks.{command.replace('-', '_')}"
    __import__(name)
    return sys.modules[name]


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


def _csv_lines(schema: str, version: int, columns: list[str], rows):
    yield f"# pointdamp-csv schema={schema} version={version}\n"
    yield ",".join(columns) + "\n"
    rows = iter(rows)
    while chunk := list(map(tuple, itertools.islice(rows, _CSV_CHUNK_ROWS))):
        yield _csv_chunk(chunk)


def write_csv(path: Path, schema: str, columns: list[str], rows, *, version: int = 1) -> None:
    """Stream the rows to the file a chunk at a time, under a schema comment.

    Each schema carries its own version, raised when its columns change.
    Every cell reads as _csv_cell writes it.
    """
    _write_atomic(path, _csv_lines(schema, version, columns, rows))


def _report_skeleton(command: str, cfg: dict, uses_numpy: bool) -> dict:
    versions = {"pointdamp": __version__}
    if uses_numpy:
        import numpy

        versions["numpy"] = numpy.__version__
    return {"command": command, "config": _pyify(cfg), "versions": versions}


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointdamp",
        description="Numerical laboratory for a string damped at one interior point.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} task")
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--set", action="append", dest="overrides", default=[], metavar="KEY=VALUE",
                       help="override one configuration key (repeatable)")
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
        for key in ("xi", "out", "seed"):  # the keys with a flag of their own
            if getattr(args, key) is not None:
                raw[key] = str(getattr(args, key))
        cfg = resolve_config(args.command, raw)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        task = _task(args.command)
        xi = parse_position(cfg["xi"]) if "xi" in cfg else None
        paths = task.write(cfg, task.run(cfg, xi))
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

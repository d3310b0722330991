"""Batch front end for the laboratory.

One subcommand per task (COMMANDS), and a sweep of any of them over xi.
Configuration comes from an optional flat key=value file plus repeatable
--set KEY=VALUE overrides; a few common keys (--xi, --out, --seed) have
direct flags.  Reports are JSON with sorted keys, tables are CSV with a
schema-version header comment, and every file is written atomically (temp
file plus rename).  Outputs are byte-identical for identical (config, seed)
on one platform; wall-clock goes to stderr only.

Exit codes: 0 success, 2 configuration error, 3 computation error.  Run as
python -m pointdamp.cli, the module leaves through os._exit once every report
is closed and stdout and stderr are flushed, so no atexit hook runs; callers
of main(), and tools that set a trace or profile hook, get the normal exit.

This module is the task-agnostic core: the casters and limits that schemas
are made of, config resolution, the report and CSV writers, the parser and
main, and the position xi, parsed once here for the task, whose check main
runs once, handing the plan it returns to the task's run.  Each subcommand,
the sweep included, lives in its own module, pointdamp.tasks.<name> (the
command with "_" for "-"), which holds its other keys and is imported on
first use (see _task), so an invocation compiles the core and its own task
only.  A task describes the files it writes (its files), and write_files here
writes them through write_csv and write_json_report, looked up on this module
at each call, so replacing either here sees every file.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import sys
import threading
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


def _can_hold_reports(text: str) -> bool:
    """Whether the path is a directory or can be made one: its nearest existing ancestor is one."""
    path = Path(text)
    return next(p for p in (path, *path.parents) if p.exists()).is_dir()


# the keys of every subcommand (xi: but the sweep) besides its module's SCHEMA,
# each (default, Limit or None), where a _REQUIRED default means the key must
# be provided; the limits are checked right after casting, before any work
COMMON_SCHEMA = {
    "out": (".", Limit("a directory or a new path under one", _can_hold_reports)),
    "seed": (0, nonnegative),
}
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
        try:
            cfg[key] = _CASTERS.get(type(default), str)(text)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
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
    Position xi, which returns the plan they settle; run(cfg, xi, plan), its
    one compute path, which computes from that plan and checks nothing again;
    and files(cfg, result), which returns (report file name, the report's
    result block, tables) for write_files, each table a tuple (file name,
    schema, columns, rows, version).  A task the sweep runs also defines
    USES_NUMPY, SWEEP_DEFAULTS and row(result).
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
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # JSON has no nan or infinity
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
    body = json.dumps(_pyify(payload), sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False)
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


def _csv_chunk(chunk: list, width: int) -> str:
    """The lines of a chunk of rows, formatted with one %-template; each row holds width cells."""
    if set(map(len, chunk)) != {width}:
        raise ValueError(f"a row's cell count differs from the {width} columns")
    specs, columns = zip(*map(_csv_column, zip(*chunk)))
    template = (",".join(specs) + "\n") * len(chunk)
    return template % tuple(itertools.chain.from_iterable(zip(*columns)))


def _csv_lines(schema: str, version: int, columns: list[str], rows):
    yield f"# pointdamp-csv schema={schema} version={version}\n"
    yield ",".join(columns) + "\n"
    rows = iter(rows)
    while chunk := list(map(tuple, itertools.islice(rows, _CSV_CHUNK_ROWS))):
        yield _csv_chunk(chunk, len(columns))


def write_csv(path: Path, schema: str, columns: list[str], rows, *, version: int = 1) -> None:
    """Stream the rows to the file a chunk at a time, under a schema comment.

    Each schema carries its own version, raised when its columns change.
    Every cell reads as _csv_cell writes it.  A row whose cell count differs
    from the columns' raises a ValueError, and no file is left behind.
    """
    _write_atomic(path, _csv_lines(schema, version, columns, rows))


def write_files(command: str, cfg: dict, uses_numpy: bool, files: tuple) -> list[Path]:
    """Write a task's files under cfg["out"]: its tables in order, then its
    JSON report {command, config, versions, result}; returns their paths.

    files is the task's (report file name, result, tables).
    """
    report, result, tables = files
    out = Path(cfg["out"])
    paths = []
    for name, schema, columns, rows, version in tables:
        paths.append(out / name)
        write_csv(paths[-1], schema, columns, rows, version=version)
    versions = {"pointdamp": __version__}
    if uses_numpy:
        import numpy

        versions["numpy"] = numpy.__version__
    paths.append(out / report)
    write_json_report(paths[-1], {"command": command, "config": _pyify(cfg),
                                  "versions": versions, "result": result})
    return paths


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

class _Arguments(NamedTuple):
    """A parsed command line: the command, the option values given, each --set in order."""

    command: str
    config: str | None = None
    overrides: tuple[str, ...] = ()
    xi: str | None = None
    out: str | None = None
    seed: str | None = None


_USAGE = (
    "usage: pointdamp [-h] [--config FILE] [--set KEY=VALUE] [--xi XI] [--out DIR] [--seed N]\n"
    "                 {" + ",".join(COMMANDS) + "}\n"
)
_HELP = _USAGE + f"""
Numerical laboratory for a string damped at one interior point.

positional arguments:
  {{{",".join(COMMANDS)}}}
                    the task to run

options:
  -h, --help        show this help message and exit
  --config FILE     flat key=value configuration file
  --set KEY=VALUE   override one configuration key (repeatable)
  --xi XI           actuator position: decimal, p/q, or 'golden'
  --out DIR         output directory (default '.')
  --seed N          seed for resolvent-scan's random probes
"""
# the long options, each taking one value; --set repeats, the others keep their last value
_OPTIONS = ("--config", "--set", "--xi", "--out", "--seed")


class _Help(Exception):
    """-h or --help: print the help and exit 0."""


class _UsageError(Exception):
    """A command line the parser refuses: exit 2."""


def _option(text: str) -> str | None:
    """The option text names, exactly or by a unique prefix, or None.

    A prefix of more than one option is a _UsageError.
    """
    matches = [name for name in (*_OPTIONS, "--help") if name.startswith(text)]
    if text in matches:
        return text
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {text} could match {', '.join(matches)}")
    return matches[0] if matches else None


def _is_value(text: str) -> bool:
    """Whether text is a value rather than an option: "-", a negative number, or no leading "-"."""
    if not text.startswith("-") or text == "-":
        return True
    return re.fullmatch(r"-\d+|-\d*\.\d+", text) is not None


def _parse_args(argv) -> _Arguments:
    """command [--config F] [--set K=V]... [--xi X] [--out D] [--seed N], in any order.

    A value follows its option as the next argument or after "=", and an
    option may be shortened to any unique prefix; "--" ends the options.
    Raises _Help for -h or --help, and _UsageError for anything else it
    cannot read.
    """
    values: dict[str, str] = {}
    overrides: list[str] = []
    positionals: list[str] = []
    args = iter(argv)
    for arg in args:
        if arg == "--":
            positionals.extend(args)
            break
        if arg == "-h":
            raise _Help
        if _is_value(arg):
            positionals.append(arg)
            continue
        text, inline, value = arg.partition("=")
        option = _option(text) if arg.startswith("--") else None
        if option is None:
            raise _UsageError(f"unrecognized arguments: {arg}")
        if option == "--help":
            if inline:
                raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            raise _Help
        if not inline:
            value = next(args, None)
            if value is None or not _is_value(value):
                raise _UsageError(f"argument {option}: expected one argument")
        if option == "--set":
            overrides.append(value)
        else:
            values[option[2:]] = value
    if not positionals:
        raise _UsageError("the following arguments are required: command")
    command, *extra = positionals
    if command not in COMMANDS:
        raise _UsageError(
            f"argument command: invalid choice: {command!r} (choose from {', '.join(COMMANDS)})"
        )
    if extra:
        raise _UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return _Arguments(command, overrides=tuple(overrides), **values)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _Help:
        print(_HELP, end="")
        return 0
    except _UsageError as exc:
        print(f"{_USAGE}pointdamp: error: {exc}", file=sys.stderr)
        return 2
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
                raw[key] = getattr(args, key)
        cfg = resolve_config(args.command, raw)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    uses_numpy = _task(cfg.get("task", args.command)).USES_NUMPY
    if uses_numpy and "numpy" not in sys.modules:
        # OpenBLAS on one thread, unless the environment names a count: a
        # report then does not follow the host's CPUs (read as numpy loads)
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        task = _task(args.command)
        xi = parse_position(cfg["xi"]) if "xi" in cfg else None
        plan = task.check(cfg, xi)
        files = task.files(cfg, task.run(cfg, xi, plan))
        paths = write_files(args.command, cfg, uses_numpy, files)
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
        code = main()
        # main has closed every report and reaped every child it forked, and
        # nothing here registers an atexit hook: skip the teardown (~6 ms
        # with numpy) unless a tracer or another thread needs it
        if sys.gettrace() is None and sys.getprofile() is None and threading.active_count() == 1:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            except (OSError, ValueError):
                pass
            else:
                os._exit(code)
        sys.exit(code)
    else:
        # run by a tool that keeps its own module as __main__ (python -m
        # cProfile -m pointdamp.cli, for one): run the imported module, whose
        # ConfigError the task modules raise
        from pointdamp.cli import main
    sys.exit(main())

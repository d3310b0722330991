"""Batch front end for the laboratory.

Subcommands: classify | resolvent-scan | spectrum | carleman-verify |
simulate | sweep.  Configuration comes from an optional flat key=value file
plus repeatable --set KEY=VALUE overrides; a few common keys (--xi, --out,
--seed) have direct flags.  Reports are JSON with sorted keys, tables are
CSV with a schema-version header comment, and every file is written
atomically (temp file plus rename).  Outputs are byte-identical for
identical (config, seed) on one platform; wall-clock goes to stderr only.

Exit codes: 0 success, 2 configuration error, 3 computation error.
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
from .inputs import default_mu_grid, parse_actuator_position

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
        "mu_min": (1.0, _as_float, finite_positive),
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


def _condition_dict(report: diophantine.ConditionReport) -> dict:
    return {
        "condition_id": report.condition_id,
        "xi": report.xi,
        "verdict": report.verdict,
        "witness": report.witness,
        "fitted_constants": report.fitted_constants,
        "note": report.note,
    }


# ----------------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------------


def _growth_from_text(text: str) -> diophantine.GrowthFunction:
    from . import diophantine

    name, _, params = text.partition(":")
    name = name.strip().lower()
    if name == "identity":
        return diophantine.GrowthFunction.identity()
    if name == "power_log":
        try:
            alpha, eps = (float(p) for p in params.split(","))
        except ValueError:
            raise ConfigError("power_log needs parameters alpha,eps") from None
        return _growth(diophantine.GrowthFunction.power_log, alpha, eps)
    if name == "exponential":
        try:
            beta = float(params)
        except ValueError:
            raise ConfigError("exponential needs a parameter beta") from None
        return _growth(diophantine.GrowthFunction.exponential, beta)
    raise ConfigError(f"unknown growth function {text!r}")


def _growth(make: Callable, *params: float) -> diophantine.GrowthFunction:
    """make(*params), a parameter that would make phi decrease being a configuration error."""
    try:
        return make(*params)
    except ValueError as exc:
        raise ConfigError(f"liouville_phi: {exc}") from None


def _check_classify(cfg: dict, xi: float) -> diophantine.GrowthFunction:
    """The Liouville weight phi, once the mu range is known to be admissible."""
    if not cfg["mu_min"] <= cfg["mu_max"]:
        raise ConfigError("need mu_min <= mu_max")
    # one pi-strip per pi of the range, plus a part-strip at each end
    if (cfg["mu_max"] - cfg["mu_min"]) / math.pi + 2 > MAX_GRID_POINTS:
        raise ConfigError(f"the mu range would span over {MAX_GRID_POINTS} pi-strips")
    return _growth_from_text(cfg["liouville_phi"])


def run_classify(cfg: dict):
    """Returns (classification, cos-grid report, Liouville report, exact xi or None)."""
    value, exact = _parse_xi(cfg["xi"])
    phi = _check_classify(cfg, value)
    from . import diophantine

    settings = diophantine.ClassifySettings(
        **{k: cfg[k] for k in diophantine.ClassifySettings.__dataclass_fields__}
    )
    keep = cfg["keep_trace"]
    classification = diophantine.classify_actuator(
        exact if exact is not None else value, settings, keep
    )
    cos_rep = diophantine.check_cos_grid(
        value, cfg["mu_min"], cfg["mu_max"], cfg["k1"], cfg["trend_factor"], keep
    )
    liou_rep = diophantine.check_liouville_type(
        value, phi, cfg["liouville_kappa"], cfg["liouville_m_max"], keep
    )
    return classification, cos_rep, liou_rep, exact


def write_classify(cfg: dict, result) -> list[Path]:
    classification, cos_rep, liou_rep, exact = result
    out = Path(cfg["out"])
    cf = classification.continued_fraction
    grid_reps = {"exp": classification.exp_grid, "poly": classification.poly_grid, "cos": cos_rep}
    payload = _report_skeleton("classify", cfg)
    payload["result"] = {
        "xi": classification.xi,
        "exact_form": exact,
        "is_rational": classification.is_rational,
        "strongly_stable": classification.strongly_stable,
        "constant_type": classification.constant_type,
        "max_partial_quotient": classification.max_partial_quotient,
        "partial_quotients": cf.partial_quotients,
        "convergents": [[p, q] for p, q in cf.convergents],
        "truncated_by_precision": cf.truncated_by_precision,
        "conditions": {
            **{f"{name}_grid": _condition_dict(rep) for name, rep in grid_reps.items()},
            "liouville": _condition_dict(liou_rep),
        },
    }
    paths = [out / "classify_report.json"]
    write_json_report(paths[0], payload)
    if cfg["keep_trace"]:
        for name, rep in grid_reps.items():
            p = out / f"classify_trace_{name}.csv"
            write_csv(p, "classify-trace", ["mu", "expression", "weighted_expression"], rep.trace)
            paths.append(p)
        p = out / "classify_trace_liouville.csv"
        write_csv(p, "liouville-trace", ["m", "product"], liou_rep.trace)
        paths.append(p)
    return paths


def _classify_row(result) -> dict:
    cls = result[0]
    return {
        "is_rational": cls.is_rational,
        "constant_type": cls.constant_type,
        "max_partial_quotient": cls.max_partial_quotient,
        "exp_grid_verdict": cls.exp_grid.verdict,
        "poly_grid_verdict": cls.poly_grid.verdict,
    }


# ----------------------------------------------------------------------------
# resolvent scan
# ----------------------------------------------------------------------------


def _check_sizes(sizes: dict[str, int]) -> None:
    """Refuse a config when an array it sizes, named by its formula, would pass MAX_GRID_POINTS."""
    for formula, size in sizes.items():
        if size > MAX_GRID_POINTS:
            raise ConfigError(f"{formula} would exceed {MAX_GRID_POINTS}")


def _check_resolvent_scan(cfg: dict, xi: float) -> tuple[float, float, float]:
    """(mu_min, mu_max, mu_step) of the config's mu grid, refused past MAX_GRID_POINTS points."""
    if not cfg["mu_min"] < cfg["mu_max"]:
        raise ConfigError("need mu_min < mu_max")
    if (cfg["mu_max"] - cfg["mu_min"]) / cfg["mu_step"] + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"the mu grid would exceed {MAX_GRID_POINTS} points")
    # the probes of one frequency, over all nodes
    _check_sizes({"probes * (2 * cells + 1)": cfg["probes"] * (2 * cfg["cells"] + 1)})
    return cfg["mu_min"], cfg["mu_max"], cfg["mu_step"]


def run_resolvent_scan(cfg: dict) -> frequency.ScanResult:
    value, _ = _parse_xi(cfg["xi"])
    grid_args = _check_resolvent_scan(cfg, value)
    from . import frequency

    return frequency.scan_resolvent_growth(
        value,
        default_mu_grid(*grid_args),
        probes_per_mu=cfg["probes"],
        seed=cfg["seed"],
        cells_per_side=cfg["cells"],
    )


def _max_finite_norm(scan: frequency.ScanResult) -> float | None:
    import numpy as np

    finite = scan.norm_estimate[np.isfinite(scan.norm_estimate)]
    return float(np.max(finite)) if finite.size else None


def write_resolvent_scan(cfg: dict, scan: frequency.ScanResult) -> list[Path]:
    out = Path(cfg["out"])
    csv_path = out / "resolvent_scan.csv"
    write_csv(
        csv_path,
        "resolvent-scan",
        ["mu", "norm_estimate"],
        zip(scan.mu, scan.norm_estimate),
    )
    payload = _report_skeleton("resolvent-scan", cfg)
    payload["result"] = {
        "growth_constant": scan.growth_constant,
        "growth_rate": scan.growth_rate,
        "log_residual": scan.log_residual,
        "n_resonant": scan.n_resonant,
        "n_grid": int(scan.mu.size),
        "max_finite_norm": _max_finite_norm(scan),
    }
    json_path = out / "resolvent_scan.json"
    write_json_report(json_path, payload)
    return [csv_path, json_path]


def _resolvent_scan_row(scan: frequency.ScanResult) -> dict:
    max_norm = _max_finite_norm(scan)
    return {
        "growth_rate": scan.growth_rate,
        "growth_constant": scan.growth_constant,
        "max_norm": math.inf if max_norm is None else max_norm,
        "n_resonant": scan.n_resonant,
    }


# ----------------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------------


def _rectangle(cfg: dict) -> tuple[float, float, float, float]:
    return cfg["re_min"], cfg["re_max"], cfg["im_min"], cfg["im_max"]


def _check_spectrum(cfg: dict, xi: float) -> tuple[float, float, float, float]:
    """The configured rectangle, refused when degenerate or too wide."""
    re0, re1, im0, im1 = rect = _rectangle(cfg)
    if not (re1 > re0 and im1 > im0):
        raise ConfigError("spectrum rectangle is degenerate")
    from . import characteristic

    # one Newton per pi-strip of the rectangle, refused before any runs
    if not characteristic.strip_count(rect) <= MAX_GRID_POINTS:
        raise ConfigError(f"the spectrum rectangle would need over {MAX_GRID_POINTS} points")
    return rect


def run_spectrum(cfg: dict):
    """Returns (roots in the configured rectangle, their spectral abscissa)."""
    value, _ = _parse_xi(cfg["xi"])
    rect = _check_spectrum(cfg, value)
    from . import characteristic

    roots = characteristic.find_eigenvalues(value, rect, cfg["tol"])
    return roots, characteristic.abscissa_of_roots(roots, cfg["real_tol"])


def write_spectrum(cfg: dict, result) -> list[Path]:
    roots, abscissa = result
    out = Path(cfg["out"])
    csv_path = out / "spectrum.csv"
    write_csv(
        csv_path,
        "spectrum-roots",
        ["re_z", "im_z", "residual", "multiplicity"],
        ((r.z.real, r.z.imag, r.residual, r.multiplicity) for r in roots),
    )
    payload = _report_skeleton("spectrum", cfg)
    payload["result"] = {
        "rectangle": list(_rectangle(cfg)),
        "n_roots": len(roots),
        "total_multiplicity": sum(r.multiplicity for r in roots),
        "spectral_abscissa": abscissa if math.isfinite(abscissa) else None,
        "has_real_root": bool(any(abs(r.z.imag) <= cfg["real_tol"] for r in roots)),
    }
    json_path = out / "spectrum.json"
    write_json_report(json_path, payload)
    return [csv_path, json_path]


def _spectrum_row(result) -> dict:
    roots, abscissa = result
    return {
        "n_roots": len(roots),
        "spectral_abscissa": abscissa if math.isfinite(abscissa) else math.nan,
        "min_im": min((r.z.imag for r in roots), default=math.nan),
    }


# ----------------------------------------------------------------------------
# carleman verify
# ----------------------------------------------------------------------------


def _check_carleman_verify(cfg: dict, xi: float) -> float | None:
    """beta of a weight=exp:<beta> config, None for the default weights."""
    # the basis on the grid, the forms of every h once paired into real
    # 2m x 2m blocks, and the (n_samples, h_count) results and CSV rows
    _check_sizes({
        "n_modes * (cells + 1)": cfg["n_modes"] * (cfg["cells"] + 1),
        "h_count * (2 * n_modes)**2": cfg["h_count"] * (2 * cfg["n_modes"]) ** 2,
        "n_samples * h_count": cfg["n_samples"] * cfg["h_count"],
    })
    choice = cfg["weight"]
    if choice == "default":
        return None
    if not choice.startswith("exp:"):
        raise ConfigError(f"unknown weight {choice!r}")
    try:
        beta = float(choice.partition(":")[2])
    except ValueError:
        raise ConfigError("weight exp:<beta> needs a numeric beta") from None
    if not math.isfinite(beta):
        raise ConfigError(f"weight exp:<beta> needs a finite beta, got {choice!r}")
    return beta


def _carleman_weights(
    cfg: dict, xi: float, beta: float | None
) -> dict[str, carleman.WeightFunction]:
    from . import carleman

    sides = ("left", "right") if cfg["side"] == "both" else (cfg["side"],)
    weights = {}
    for side in sides:
        interval = (0.0, xi) if side == "left" else (xi, 1.0)
        if beta is None:
            weights[side] = (
                carleman.default_left_weight(xi)
                if side == "left"
                else carleman.default_right_weight(xi)
            )
        else:
            signed = beta if side == "left" else -beta
            weights[side] = carleman.WeightFunction.exponential(signed, interval)
    return weights


def _verify_carleman_side(
    cfg: dict, side: str, weight: carleman.WeightFunction
) -> tuple[dict, carleman.ConstantEstimate]:
    """Returns (the identity checks, the constant estimate) for one side."""
    import numpy as np

    from . import carleman

    check = carleman.validate_weight(weight, side)
    if not check.ok:
        raise ValueError(f"{side} weight inadmissible: {'; '.join(check.violations)}")
    interval = (weight.a, weight.b)
    cells = cfg["cells"]
    h_ref = cfg["check_h"]

    # dual-route convergence over 3 refinements
    route_errors = []
    for n in (cells // 4, cells // 2, cells):
        x = weight.grid(n)
        rng = np.random.default_rng([cfg["seed"], 7])
        w = carleman.random_test_function(interval, n, rng, cfg["n_modes"])
        diff = carleman.conjugation_route(weight, h_ref, w, x) - carleman.apply_conjugated_operator(
            weight, h_ref, w, x
        )
        route_errors.append(float(np.max(np.abs(diff))))
    orders = [
        math.log2(route_errors[i] / route_errors[i + 1]) for i in range(len(route_errors) - 1)
    ]

    x = weight.grid(cells)
    rng = np.random.default_rng([cfg["seed"], 11])
    w = carleman.random_test_function(interval, cells, rng, cfg["n_modes"])
    v = carleman.random_test_function(interval, cells, rng, cfg["n_modes"])
    ibp1, ibp2 = carleman.ibp_residuals(weight, h_ref, v, w, x)
    sq_curv = carleman.square_expansion_residual(weight, h_ref, w, x, "curvature")
    sq_plain = carleman.square_expansion_residual(weight, h_ref, w, x, "plain")

    h_grid = np.geomspace(cfg["h_min"], cfg["h_max"], cfg["h_count"])
    basis = carleman.sample_basis(
        interval, cells, cfg["n_modes"], pin_left=(side == "left"), pin_right=(side == "right")
    )
    coefficients = np.array([
        carleman.random_coefficients(
            np.random.default_rng([cfg["seed"], 0 if side == "left" else 1, i]), cfg["n_modes"]
        )
        for i in range(cfg["n_samples"])
    ])
    estimate = carleman.estimate_carleman_constant(weight, coefficients, basis, h_grid, side)

    checks = {
        "weight": weight.kind,
        "interval": [weight.a, weight.b],
        "dual_route_errors": route_errors,
        "dual_route_orders": orders,
        "ibp_residuals": [ibp1, ibp2],
        "square_identity_residual_curvature": sq_curv.relative_residual,
        "square_identity_residual_plain": sq_plain.relative_residual,
    }
    return checks, estimate


def run_carleman_verify(cfg: dict) -> dict[str, tuple[dict, carleman.ConstantEstimate]]:
    """Returns side -> (identity checks, constant estimate)."""
    value, _ = _parse_xi(cfg["xi"])
    beta = _check_carleman_verify(cfg, value)
    return {
        side: _verify_carleman_side(cfg, side, weight)
        for side, weight in _carleman_weights(cfg, value, beta).items()
    }


def write_carleman_verify(cfg: dict, sides: dict) -> list[Path]:
    payload = _report_skeleton("carleman-verify", cfg)
    payload["result"] = {}
    rows: list[tuple] = []
    for side, (checks, estimate) in sides.items():
        payload["result"][side] = dict(
            checks,
            c_hat=estimate.c_hat,
            h0_hat=estimate.h0_hat,
            sup_ratio_by_h={
                f"{h:.6g}": float(r) for h, r in zip(estimate.h, estimate.sup_ratio)
            },
        )
        sweep = estimate.sweep
        for i, sample in enumerate(zip(sweep.lhs, sweep.rhs, sweep.ratio)):
            for h, lhs, rhs, ratio in zip(sweep.h, *sample):
                rows.append((side, i, h, lhs, rhs, ratio))
    out = Path(cfg["out"])
    csv_path = out / "carleman_sweep.csv"
    write_csv(csv_path, "carleman-sweep", ["side", "sample", "h", "lhs", "rhs", "ratio"], rows)
    json_path = out / "carleman_report.json"
    write_json_report(json_path, payload)
    return [csv_path, json_path]


def _carleman_row(sides: dict) -> dict:
    row: dict = {}
    for side, (_, estimate) in sides.items():
        row[f"c_hat_{side}"] = estimate.c_hat
        row[f"h0_hat_{side}"] = estimate.h0_hat
    return row


# ----------------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------------


def _check_simulate(cfg: dict, xi: float) -> float:
    """The time step, refused when the run would take over MAX_SIM_STEPS steps."""
    # dt = 0 means half the smaller mesh spacing, the simulator's default
    dt = cfg["dt"] or min(xi, 1.0 - xi) / cfg["cells"] / 2.0
    if cfg["t_final"] / dt > MAX_SIM_STEPS:
        raise ConfigError(f"t_final / dt would exceed {MAX_SIM_STEPS} steps")
    return dt


def run_simulate(cfg: dict):
    """Returns (final state, energy trace, fits).

    fits is None when fitting is off, and the InsufficientData raised when the
    trace has too few usable samples.
    """
    value, _ = _parse_xi(cfg["xi"])
    dt = _check_simulate(cfg, value)
    from . import decayfit, simulator
    from .mesh import build_mesh

    mesh = build_mesh(value, cfg["cells"], cfg["cells"])
    center = None if math.isnan(cfg["center"]) else cfg["center"]
    state = simulator.initial_data(
        mesh, cfg["initial"], mode=cfg["mode"], center=center, width=cfg["width"]
    )
    final, trace = simulator.simulate(
        state, cfg["t_final"], dt=dt, damped=cfg["damped"], sample_every=cfg["sample_every"]
    )
    fits = None
    if cfg["fit"]:
        try:
            fits = decayfit.model_select(trace)
        except decayfit.InsufficientData as exc:
            fits = exc
    return final, trace, fits


def write_simulate(cfg: dict, result) -> list[Path]:
    from . import decayfit

    final, trace, fits = result
    out = Path(cfg["out"])
    paths = []

    p = out / "energy_trace.csv"
    write_csv(
        p,
        "energy-trace",
        ["t", "energy", "dissipated"],
        zip(trace.times, trace.energies, trace.dissipated_at_samples()),
    )
    paths.append(p)
    p = out / "damping_record.csv"
    write_csv(p, "damping-record", ["t", "power"], zip(trace.damping_times, trace.damping_power))
    paths.append(p)
    if cfg["save_state"]:
        p = out / "final_state.csv"
        write_csv(
            p, "state-snapshot", ["x", "u", "v"], zip(final.mesh.nodes, final.u, final.v)
        )
        paths.append(p)

    payload = _report_skeleton("simulate", cfg)
    payload["result"] = {
        "dt": trace.dt,
        "n_steps": int(trace.damping_power.size),
        **_simulate_row(result),
    }
    if isinstance(fits, decayfit.InsufficientData):
        payload["result"]["fits"] = None
        payload["result"]["fit_note"] = str(fits)
    elif fits is not None:
        payload["result"]["fits"] = [
            {
                "kind": f.kind,
                "parameters": f.parameters,
                "residual": f.residual,
                "valid_range": list(f.valid_range),
                "n_samples": f.n_samples,
            }
            for f in fits
        ]
    p = out / "simulate_report.json"
    write_json_report(p, payload)
    paths.append(p)
    return paths


def _simulate_row(result) -> dict:
    from . import simulator

    trace = result[1]
    e0 = float(trace.energies[0])
    return {
        "energy_initial": e0,
        "energy_final": float(trace.energies[-1]),
        "energy_ratio": float(trace.energies[-1] / e0) if e0 > 0 else math.nan,
        "dissipation_residual": simulator.dissipation_residual(trace),
    }


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

# task -> (compute its result, write its files from it, pick its sweep row from it)
_TASKS = {
    "classify": (run_classify, write_classify, _classify_row),
    "resolvent-scan": (run_resolvent_scan, write_resolvent_scan, _resolvent_scan_row),
    "spectrum": (run_spectrum, write_spectrum, _spectrum_row),
    "carleman-verify": (run_carleman_verify, write_carleman_verify, _carleman_row),
    "simulate": (run_simulate, write_simulate, _simulate_row),
}

# task -> the checks across its keys at one position, which run_<task> runs
# first; a sweep runs them at every position before its first job
_CHECKS = {
    "classify": _check_classify,
    "resolvent-scan": _check_resolvent_scan,
    "spectrum": _check_spectrum,
    "carleman-verify": _check_carleman_verify,
    "simulate": _check_simulate,
}


def _sweep_worker(job: tuple) -> tuple[float, dict]:
    task, xi_value, task_cfg, seed = job
    cfg = dict(task_cfg, xi=repr(xi_value), seed=seed)
    run, _, row = _TASKS[task]
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
    for v in xi_values:
        if not 0.0 < v < 1.0:
            raise ConfigError(f"sweep xi {v} outside (0,1)")
        _CHECKS[task](cfg["task_config"], v)

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
    for name in [*_TASKS, "sweep"]:
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
            run, write, _ = _TASKS[args.command]
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
    sys.exit(main())

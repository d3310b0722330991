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
import concurrent.futures
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import carleman, decayfit, diophantine, frequency, simulator
from .mesh import build_mesh

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

# key -> (default, caster); _REQUIRED means the key must be provided
COMMAND_SCHEMAS: dict[str, dict] = {
    "classify": {
        "xi": (_REQUIRED, _as_str),
        "depth": (40, _as_int),
        "rational_tol": (1e-12, _as_float),
        "quotient_overflow": (1e12, _as_float),
        "constant_type_bound": (20, _as_int),
        "mu_min": (1.0, _as_float),
        "mu_max": (500.0, _as_float),
        "mu_step": (0.01, _as_float),
        "k1": (1.0, _as_float),
        "poly_eps": (1.0, _as_float),
        "trend_factor": (10.0, _as_float),
        "liouville_kappa": (0.2, _as_float),
        "liouville_m_max": (1000, _as_int),
        "liouville_phi": ("identity", _as_str),
        "keep_trace": (False, _as_bool),
        "out": (".", _as_str),
        "seed": (0, _as_int),
    },
    "resolvent-scan": {
        "xi": (_REQUIRED, _as_str),
        "mu_min": (1.0, _as_float),
        "mu_max": (60.0, _as_float),
        "mu_step": (0.5, _as_float),
        "probes": (4, _as_int),
        "cells": (512, _as_int),
        "kernel": ("consistent", _as_str),
        "out": (".", _as_str),
        "seed": (0, _as_int),
    },
    "spectrum": {
        "xi": (_REQUIRED, _as_str),
        "re_min": (0.5, _as_float),
        "re_max": (50.0, _as_float),
        "im_min": (-0.5, _as_float),
        "im_max": (3.0, _as_float),
        "tol": (1e-12, _as_float),
        "real_tol": (1e-10, _as_float),
        "out": (".", _as_str),
        "seed": (0, _as_int),
    },
    "carleman-verify": {
        "xi": (_REQUIRED, _as_str),
        "side": ("both", _as_str),
        "weight": ("default", _as_str),
        "cells": (2048, _as_int),
        "n_samples": (50, _as_int),
        "n_modes": (8, _as_int),
        "h_min": (1e-3, _as_float),
        "h_max": (1e-1, _as_float),
        "h_count": (13, _as_int),
        "check_h": (0.05, _as_float),
        "out": (".", _as_str),
        "seed": (0, _as_int),
    },
    "simulate": {
        "xi": (_REQUIRED, _as_str),
        "cells": (1000, _as_int),
        "t_final": (200.0, _as_float),
        "dt": (0.0, _as_float),  # 0 means the default, min spacing / 2
        "sample_every": (100, _as_int),
        "damped": (True, _as_bool),
        "initial": ("smooth_bump", _as_str),
        "mode": (2, _as_int),
        "center": (math.nan, _as_float),  # NaN means the damped point
        "width": (0.1, _as_float),
        "fit": (True, _as_bool),
        "save_state": (True, _as_bool),
        "out": (".", _as_str),
        "seed": (0, _as_int),
    },
    "sweep": {
        "task": ("spectrum", _as_str),
        "xi_min": (0.05, _as_float),
        "xi_max": (0.95, _as_float),
        "xi_count": (19, _as_int),
        "xi_list": ("", _as_str),
        "workers": (1, _as_int),
        "out": (".", _as_str),
        "seed": (0, _as_int),
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


def resolve_config(command: str, raw: dict[str, str]) -> dict:
    schema = COMMAND_SCHEMAS[command]
    forwarded = {}
    if command == "sweep":
        task = raw.get("task", schema["task"][0])
        if task not in COMMAND_SCHEMAS or task == "sweep":
            raise ConfigError(f"unknown sweep task {task!r}")
        task_schema = dict(COMMAND_SCHEMAS[task])
        task_schema.pop("xi", None)
        merged_defaults = dict(_SWEEP_TASK_OVERRIDES.get(task, {}))
        for key, (default, caster) in task_schema.items():
            if key in ("out", "seed"):
                continue
            text = raw.pop(key, merged_defaults.get(key))
            forwarded[key] = caster(text) if text is not None else default
    cfg = {}
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) for {command}: {', '.join(sorted(unknown))}")
    for key, (default, caster) in schema.items():
        if key in raw:
            cfg[key] = caster(raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"{command} requires key {key!r} (e.g. --xi or --set {key}=...)")
        else:
            cfg[key] = default
    if command == "sweep":
        cfg["task_config"] = forwarded
    return cfg


def _parse_xi(text: str):
    """Returns (float value, exact form or None) from an xi config string."""
    try:
        return diophantine.parse_actuator_position(text)
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
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
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
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _csv_lines(schema: str, columns: list[str], rows):
    yield f"# pointdamp-csv schema={schema} version={CSV_SCHEMA_VERSION}\n"
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(_csv_cell, row)) + "\n"


def write_csv(path: Path, schema: str, columns: list[str], rows) -> None:
    """Stream the rows to the file, one line each, under a schema comment."""
    _write_atomic(path, _csv_lines(schema, columns, rows))


def _report_skeleton(command: str, cfg: dict) -> dict:
    echo = {k: v for k, v in cfg.items() if k != "task_config"}
    return {
        "command": command,
        "config": _pyify(echo),
        "versions": {
            "pointdamp": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


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
    name, _, params = text.partition(":")
    name = name.strip().lower()
    if name == "identity":
        return diophantine.GrowthFunction.identity()
    if name == "power_log":
        try:
            alpha, eps = (float(p) for p in params.split(","))
        except ValueError:
            raise ConfigError("power_log needs parameters alpha,eps") from None
        return diophantine.GrowthFunction.power_log(alpha, eps)
    if name == "exponential":
        try:
            beta = float(params)
        except ValueError:
            raise ConfigError("exponential needs a parameter beta") from None
        return diophantine.GrowthFunction.exponential(beta)
    raise ConfigError(f"unknown growth function {text!r}")


def run_classify(cfg: dict):
    """Returns (classification, cos-grid report, Liouville report, exact xi or None)."""
    value, exact = _parse_xi(cfg["xi"])
    if not (cfg["mu_step"] > 0 and cfg["mu_max"] >= cfg["mu_min"]):
        raise ConfigError("need mu_min <= mu_max and mu_step > 0")
    settings = diophantine.ClassifySettings(
        **{k: cfg[k] for k in diophantine.ClassifySettings.__dataclass_fields__}
    )
    keep = cfg["keep_trace"]
    classification = diophantine.classify_actuator(
        exact if exact is not None else value, settings, keep
    )
    grid = diophantine.default_mu_grid(cfg["mu_min"], cfg["mu_max"], cfg["mu_step"])
    cos_rep = diophantine.check_cos_grid(value, grid, cfg["k1"], cfg["trend_factor"], keep)
    phi = _growth_from_text(cfg["liouville_phi"])
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


def run_resolvent_scan(cfg: dict) -> frequency.ScanResult:
    value, _ = _parse_xi(cfg["xi"])
    if cfg["kernel"] not in ("consistent", "verbatim"):
        raise ConfigError(f"unknown kernel {cfg['kernel']!r}")
    if cfg["mu_max"] <= cfg["mu_min"] or cfg["mu_step"] <= 0:
        raise ConfigError("need mu_min < mu_max and mu_step > 0")
    if cfg["cells"] < 2:
        raise ConfigError("cells must be at least 2")
    if cfg["probes"] < 1:
        raise ConfigError("probes must be at least 1 (the near-resonant probe)")
    grid = np.arange(cfg["mu_min"], cfg["mu_max"] + 0.5 * cfg["mu_step"], cfg["mu_step"])
    return frequency.scan_resolvent_growth(
        value,
        grid,
        probes_per_mu=cfg["probes"],
        seed=cfg["seed"],
        cells_per_side=cfg["cells"],
        kernel=cfg["kernel"],
    )


def _max_finite_norm(scan: frequency.ScanResult) -> float | None:
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


def run_spectrum(cfg: dict):
    """Returns (roots in the configured rectangle, their spectral abscissa)."""
    value, _ = _parse_xi(cfg["xi"])
    rect = _rectangle(cfg)
    if not (rect[1] > rect[0] and rect[3] > rect[2]):
        raise ConfigError("spectrum rectangle is degenerate")
    roots = frequency.find_eigenvalues(value, rect, cfg["tol"])
    return roots, frequency.abscissa_of_roots(roots, cfg["real_tol"])


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


def _carleman_weights(cfg: dict, xi: float) -> dict[str, carleman.WeightFunction]:
    choice = cfg["weight"]
    sides = ("left", "right") if cfg["side"] == "both" else (cfg["side"],)
    if cfg["side"] not in ("both", "left", "right"):
        raise ConfigError(f"side must be left, right, or both, got {cfg['side']!r}")
    weights = {}
    for side in sides:
        interval = (0.0, xi) if side == "left" else (xi, 1.0)
        if choice == "default":
            weights[side] = (
                carleman.default_left_weight(xi)
                if side == "left"
                else carleman.default_right_weight(xi)
            )
        elif choice.startswith("exp:"):
            try:
                beta = float(choice.partition(":")[2])
            except ValueError:
                raise ConfigError("weight exp:<beta> needs a numeric beta") from None
            signed = beta if side == "left" else -beta
            weights[side] = carleman.WeightFunction.exponential(signed, interval)
        else:
            raise ConfigError(f"unknown weight {choice!r}")
    return weights


def _verify_carleman_side(
    cfg: dict, side: str, weight: carleman.WeightFunction
) -> tuple[dict, carleman.ConstantEstimate]:
    """Returns (the identity checks, the constant estimate) for one side."""
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
    samples = [
        carleman.random_test_function(
            interval,
            cells,
            np.random.default_rng([cfg["seed"], 0 if side == "left" else 1, i]),
            cfg["n_modes"],
            pin_left=(side == "left"),
            pin_right=(side == "right"),
        )
        for i in range(cfg["n_samples"])
    ]
    estimate = carleman.estimate_carleman_constant(weight, samples, h_grid, side)

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
    # the coarsest identity-check grid has cells // 4 cells, and its one-sided
    # second-derivative stencil needs at least 3 of them
    if cfg["cells"] < 12:
        raise ConfigError("cells must be at least 12")
    return {
        side: _verify_carleman_side(cfg, side, weight)
        for side, weight in _carleman_weights(cfg, value).items()
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
        for i, sweep in enumerate(estimate.sweeps):
            for h, lhs, rhs, ratio in zip(sweep.h, sweep.lhs, sweep.rhs, sweep.ratio):
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


def run_simulate(cfg: dict):
    """Returns (final state, energy trace, fits).

    fits is None when fitting is off, and the InsufficientData raised when the
    trace has too few usable samples.
    """
    value, _ = _parse_xi(cfg["xi"])
    if cfg["cells"] < 2:
        raise ConfigError("cells must be at least 2")
    if cfg["sample_every"] < 1:
        raise ConfigError("sample_every must be at least 1")
    mesh = build_mesh(value, cfg["cells"], cfg["cells"])
    if cfg["initial"] == "fourier_mode":
        state = simulator.initial_data(mesh, "fourier_mode", mode=cfg["mode"])
    elif cfg["initial"] == "smooth_bump":
        center = None if math.isnan(cfg["center"]) else cfg["center"]
        state = simulator.initial_data(
            mesh, "smooth_bump", center=center, width=cfg["width"]
        )
    else:
        raise ConfigError(f"unknown initial data {cfg['initial']!r}")
    dt = None if cfg["dt"] <= 0 else cfg["dt"]
    if cfg["t_final"] <= 0:
        raise ConfigError("t_final must be positive")
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


def _sweep_worker(job: tuple) -> tuple[float, dict]:
    task, xi_value, task_cfg, seed = job
    cfg = dict(task_cfg, xi=repr(xi_value), seed=seed)
    run, _, row = _TASKS[task]
    return xi_value, row(run(cfg))


def cmd_sweep(cfg: dict) -> list[Path]:
    task = cfg["task"]
    if cfg["xi_list"].strip():
        xi_values = [_parse_xi(token)[0] for token in cfg["xi_list"].split(",")]
    else:
        if cfg["xi_count"] < 1:
            raise ConfigError("xi_count must be positive")
        xi_values = [float(v) for v in np.linspace(cfg["xi_min"], cfg["xi_max"], cfg["xi_count"])]
    for v in xi_values:
        if not 0.0 < v < 1.0:
            raise ConfigError(f"sweep xi {v} outside (0,1)")

    jobs = [(task, v, cfg["task_config"], cfg["seed"]) for v in xi_values]
    if cfg["workers"] > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
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
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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
    print(f"elapsed: {elapsed:.3f}s (excludes interpreter start-up and imports)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

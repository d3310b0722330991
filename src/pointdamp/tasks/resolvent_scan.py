"""The resolvent-scan task: a lower bound of the resolvent norm over a mu grid.

Computes with pointdamp.frequency and numpy, imported after its
configuration checks.
"""

from __future__ import annotations

import math
from pathlib import Path

# write_csv and write_json_report are looked up on cli at each call, so a
# replacement there sees every file the task writes
from .. import cli
from ..cli import MAX_GRID_POINTS, ConfigError, _check_sizes, _parse_xi, _report_skeleton
from ..inputs import default_mu_grid


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
    from .. import frequency

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
    cli.write_csv(
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
    cli.write_json_report(json_path, payload)
    return [csv_path, json_path]


def _resolvent_scan_row(scan: frequency.ScanResult) -> dict:
    max_norm = _max_finite_norm(scan)
    return {
        "growth_rate": scan.growth_rate,
        "growth_constant": scan.growth_constant,
        "max_norm": math.inf if max_norm is None else max_norm,
        "n_resonant": scan.n_resonant,
    }

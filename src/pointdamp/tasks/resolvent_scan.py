"""The resolvent-scan task: a lower bound of the resolvent norm over a mu grid.

Computes with pointdamp.frequency and numpy, imported after its
configuration checks.
"""

from __future__ import annotations

import math

from ..cli import (
    MAX_CELLS, MAX_GRID_POINTS, ConfigError, Position, _check_sizes, all_of, at_least, at_most,
    finite, finite_positive,
)
from ..inputs import default_mu_grid

# lowest resolvent-scan frequency: D(mu) has a trivial zero at mu = 0, near
# which the closed form loses accuracy.  At golden and 512 cells the
# interface residuals are 7e-14 at 1e-3, 1.4e-12 at 1e-4 and 2e-10 at 1e-6
MU_MIN = 1e-3

SCHEMA = {
    "mu_min": (1.0, all_of(finite, at_least(MU_MIN))),
    "mu_max": (60.0, None),
    "mu_step": (0.5, finite_positive),
    "probes": (4, at_least(1)),
    "cells": (512, all_of(at_least(2), at_most(MAX_CELLS))),
}
SWEEP_DEFAULTS = {"mu_max": "40", "cells": "256"}
USES_NUMPY = True


def check(cfg: dict, xi: Position) -> tuple[float, float, float]:
    """(mu_min, mu_max, mu_step) of the config's mu grid, refused past MAX_GRID_POINTS points."""
    if not cfg["mu_min"] < cfg["mu_max"]:
        raise ConfigError("need mu_min < mu_max")
    if (cfg["mu_max"] - cfg["mu_min"]) / cfg["mu_step"] + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"the mu grid would exceed {MAX_GRID_POINTS} points")
    # the probes of one frequency, over all nodes
    _check_sizes({"probes * (2 * cells + 1)": cfg["probes"] * (2 * cfg["cells"] + 1)})
    return cfg["mu_min"], cfg["mu_max"], cfg["mu_step"]


def run(cfg: dict, xi: Position, plan: tuple[float, float, float]) -> frequency.ScanResult:
    """The scan over the mu grid of check's (mu_min, mu_max, mu_step)."""
    from .. import frequency

    return frequency.scan_resolvent_growth(
        xi.value,
        default_mu_grid(*plan),
        probes_per_mu=cfg["probes"],
        seed=cfg["seed"],
        cells_per_side=cfg["cells"],
    )


def _max_finite_norm(scan: frequency.ScanResult) -> float | None:
    import numpy as np

    finite = scan.norm_estimate[np.isfinite(scan.norm_estimate)]
    return float(np.max(finite)) if finite.size else None


def files(cfg: dict, scan: frequency.ScanResult) -> tuple:
    report = {
        "growth_constant": scan.growth_constant,
        "growth_rate": scan.growth_rate,
        "log_residual": scan.log_residual,
        "n_resonant": scan.n_resonant,
        "n_grid": int(scan.mu.size),
        "max_finite_norm": _max_finite_norm(scan),
    }
    table = ("resolvent_scan.csv", "resolvent-scan", ["mu", "norm_estimate"],
             zip(scan.mu, scan.norm_estimate), 1)
    return "resolvent_scan.json", report, [table]


def row(scan: frequency.ScanResult) -> dict:
    max_norm = _max_finite_norm(scan)
    return {
        "growth_rate": scan.growth_rate,
        "growth_constant": scan.growth_constant,
        "max_norm": math.inf if max_norm is None else max_norm,
        "n_resonant": scan.n_resonant,
    }

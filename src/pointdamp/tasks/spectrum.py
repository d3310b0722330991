"""The spectrum task: the certified roots of D(z) in a rectangle.

Computes with pointdamp.characteristic alone (standard library), which its
configuration check already needs for the strip count; no numpy.
"""

from __future__ import annotations

import math
from pathlib import Path

from .. import cli  # cli.write_csv and cli.write_json_report are looked up at each call
from ..cli import (
    MAX_GRID_POINTS, ConfigError, Position, _report_skeleton, finite_nonnegative, nonnegative,
)

SCHEMA = {
    "re_min": (0.5, None),
    "re_max": (50.0, None),
    "im_min": (-0.5, None),
    "im_max": (3.0, None),
    "tol": (1e-12, nonnegative),
    "real_tol": (1e-10, finite_nonnegative),
}
SWEEP_DEFAULTS: dict[str, str] = {}
USES_NUMPY = False


def _rectangle(cfg: dict) -> tuple[float, float, float, float]:
    return cfg["re_min"], cfg["re_max"], cfg["im_min"], cfg["im_max"]


def check(cfg: dict, xi: Position) -> tuple[float, float, float, float]:
    """The configured rectangle, refused when degenerate or too wide."""
    re0, re1, im0, im1 = rect = _rectangle(cfg)
    if not (re1 > re0 and im1 > im0):
        raise ConfigError("spectrum rectangle is degenerate")
    from .. import characteristic

    # one Newton per pi-strip of the rectangle, refused before any runs
    if not characteristic.strip_count(rect) <= MAX_GRID_POINTS:
        raise ConfigError(f"the spectrum rectangle would need over {MAX_GRID_POINTS} points")
    return rect


def run(cfg: dict, xi: Position):
    """Returns (roots in the configured rectangle, their spectral abscissa)."""
    rect = check(cfg, xi)
    from .. import characteristic

    roots = characteristic.find_eigenvalues(xi.value, rect, cfg["tol"])
    return roots, characteristic.abscissa_of_roots(roots, cfg["real_tol"])


def write(cfg: dict, result) -> list[Path]:
    roots, abscissa = result
    out = Path(cfg["out"])
    csv_path = out / "spectrum.csv"
    cli.write_csv(
        csv_path,
        "spectrum-roots",
        ["re_z", "im_z", "residual", "multiplicity"],
        ((r.z.real, r.z.imag, r.residual, r.multiplicity) for r in roots),
    )
    payload = _report_skeleton("spectrum", cfg, USES_NUMPY)
    payload["result"] = {
        "rectangle": list(_rectangle(cfg)),
        "n_roots": len(roots),
        "total_multiplicity": sum(r.multiplicity for r in roots),
        "spectral_abscissa": abscissa if math.isfinite(abscissa) else None,
        "has_real_root": bool(any(abs(r.z.imag) <= cfg["real_tol"] for r in roots)),
    }
    json_path = out / "spectrum.json"
    cli.write_json_report(json_path, payload)
    return [csv_path, json_path]


def row(result) -> dict:
    roots, abscissa = result
    return {
        "n_roots": len(roots),
        "spectral_abscissa": abscissa if math.isfinite(abscissa) else math.nan,
        "min_im": min((r.z.imag for r in roots), default=math.nan),
    }

"""The spectrum task: the certified roots of D(z) in a rectangle.

Computes with pointdamp.characteristic (standard library), which its
configuration check already needs for the strip count, and decides real
roots from pointdamp.expansion's rational form of xi; no numpy.
"""

from __future__ import annotations

import math

from ..cli import MAX_GRID_POINTS, ConfigError, Position, nonnegative

SCHEMA = {
    "re_min": (0.5, None),
    "re_max": (50.0, None),
    "im_min": (-0.5, None),
    "im_max": (3.0, None),
    "tol": (1e-12, nonnegative),
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


def run(cfg: dict, xi: Position, plan: tuple[float, float, float, float]):
    """Returns (roots in check's rectangle, their spectral abscissa)."""
    from .. import characteristic, expansion

    roots = characteristic.find_eigenvalues(xi.value, plan, cfg["tol"])
    form = None if xi.exact == "golden" else expansion.rational_form(xi.exact or xi.value)
    return roots, characteristic.abscissa_of_roots(roots, form)


def files(cfg: dict, result) -> tuple:
    roots, abscissa = result
    report = {
        "rectangle": list(_rectangle(cfg)),
        "n_roots": len(roots),
        "total_multiplicity": sum(r.multiplicity for r in roots),
        "spectral_abscissa": abscissa if math.isfinite(abscissa) else None,
        "has_real_root": abscissa == 0.0,  # exactly when a root is real (abscissa_of_roots)
    }
    table = ("spectrum.csv", "spectrum-roots", ["re_z", "im_z", "residual", "multiplicity"],
             ((r.z.real, r.z.imag, r.residual, r.multiplicity) for r in roots), 1)
    return "spectrum.json", report, [table]


def row(result) -> dict:
    roots, abscissa = result
    return {
        "n_roots": len(roots),
        "spectral_abscissa": abscissa if math.isfinite(abscissa) else math.nan,
        "min_im": min((r.z.imag for r in roots), default=math.nan),
    }

"""Decay-law fitting for energy traces.

Three candidate families, each a straight line in log energy against its
own coordinate, so every fit is one closed-form least-squares line with
both parameters free:

    logarithmic:  E(t) = C * ln(2+t)^(-power)     line in log ln(2+t)
    polynomial:   E(t) = C * (1+t)^(-power)       line in log(1+t)
    exponential:  E(t) = M * exp(-rate * t)       line in t

Parameters are reported as fitted, not clamped: a nonpositive power or rate
means the family does not describe the trace.  Residuals are root-mean-square
in log energy, which makes them relative, scale-equivariant, and comparable
across families.  Samples at or below a floor of 1e-14 times the initial
energy are discarded before fitting.  A fit reads `times` and `energies`
from any object that has them, such as simulator.EnergyTrace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InsufficientData",
    "FitResult",
    "ENERGY_FLOOR_FACTOR",
    "MIN_SAMPLES",
    "fit_log",
    "fit_poly",
    "fit_exp",
    "model_select",
]

ENERGY_FLOOR_FACTOR = 1e-14
MIN_SAMPLES = 10


class InsufficientData(ValueError):
    """Raised when fewer than MIN_SAMPLES trace samples sit above the floor."""


@dataclass
class FitResult:
    kind: str
    parameters: dict = field(default_factory=dict)
    residual: float = 0.0
    valid_range: tuple[float, float] = (0.0, 0.0)
    n_samples: int = 0


def _usable_samples(trace) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(trace.times, dtype=float)
    e = np.asarray(trace.energies, dtype=float)
    if t.size == 0:
        raise InsufficientData("empty trace")
    floor = ENERGY_FLOOR_FACTOR * e[0]
    keep = e > max(floor, 0.0)
    t, e = t[keep], e[keep]
    if t.size < MIN_SAMPLES:
        raise InsufficientData(
            f"only {t.size} samples above the energy floor; need {MIN_SAMPLES}"
        )
    return t, e


def _line_fit(kind: str, names: tuple[str, str], coordinate, trace) -> FitResult:
    """Least-squares line log E = log(A) - k * coordinate(t); names holds A's and k's keys."""
    t, e = _usable_samples(trace)
    x, log_e = coordinate(t), np.log(e)
    slope, intercept = np.polyfit(x, log_e, 1)
    resid = log_e - (slope * x + intercept)
    return FitResult(
        kind=kind,
        parameters={names[0]: float(np.exp(intercept)), names[1]: float(-slope)},
        residual=float(np.sqrt(np.mean(resid**2))),
        valid_range=(float(t[0]), float(t[-1])),
        n_samples=t.size,
    )


def fit_log(trace) -> FitResult:
    """Least-squares line in (log ln(2+t), log E): E(t) = C * ln(2+t)^(-power)."""
    return _line_fit("logarithmic", ("C", "power"), lambda t: np.log(np.log(2.0 + t)), trace)


def fit_poly(trace) -> FitResult:
    """Least-squares line in (log(1+t), log E): E(t) = C * (1+t)^(-power)."""
    return _line_fit("polynomial", ("C", "power"), np.log1p, trace)


def fit_exp(trace) -> FitResult:
    """Least-squares line in (t, log E): E(t) = M * exp(-rate * t)."""
    return _line_fit("exponential", ("M", "rate"), lambda t: t, trace)


def model_select(trace) -> list[FitResult]:
    """The three fits ranked by residual, best first.

    Ties keep the family order (logarithmic, polynomial, exponential), which
    favors the slower laws.
    """
    return sorted((fit_log(trace), fit_poly(trace), fit_exp(trace)), key=lambda fr: fr.residual)

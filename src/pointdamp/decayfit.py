"""Decay-law fitting for energy traces.

Three candidate families, each linear in log energy once its family
parameter is fixed, so every fit is a closed-form least-squares problem:

    logarithmic(n):  E(t) = C / ln(2+t)^(2n)        (n a positive integer)
    polynomial(eps): E(t) = C / (1+t)^(1/(1+eps))
    exponential:     E(t) = M * exp(-rate * t)

Residuals are root-mean-square in log energy, which makes them relative,
scale-equivariant, and comparable across families.  Samples at or below a
floor of 1e-14 times the initial energy are discarded before fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "InsufficientData",
    "FitResult",
    "DecaySamples",
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
class DecaySamples:
    """Minimal stand-in for an energy trace: just times and energies."""

    times: np.ndarray
    energies: np.ndarray


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


def _intercept_fit(log_e: np.ndarray, slope_term: np.ndarray) -> tuple[float, float]:
    # model: log E = intercept + slope_term (slope fixed by the family)
    intercept = float(np.mean(log_e - slope_term))
    resid = log_e - slope_term - intercept
    return intercept, float(np.sqrt(np.mean(resid**2)))


def fit_log(trace, n: int = 1) -> FitResult:
    """Least-squares amplitude for E(t) = C / ln(2+t)^(2n) with n fixed."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    t, e = _usable_samples(trace)
    slope_term = -2.0 * n * np.log(np.log(2.0 + t))
    intercept, rms = _intercept_fit(np.log(e), slope_term)
    return FitResult(
        kind="logarithmic",
        parameters={"C": float(np.exp(intercept)), "n": int(n)},
        residual=rms,
        valid_range=(float(t[0]), float(t[-1])),
        n_samples=t.size,
    )


def fit_poly(trace, eps: float = 0.0) -> FitResult:
    """Least-squares amplitude for E(t) = C / (1+t)^(1/(1+eps)) with eps fixed."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    t, e = _usable_samples(trace)
    slope_term = -np.log(1.0 + t) / (1.0 + eps)
    intercept, rms = _intercept_fit(np.log(e), slope_term)
    return FitResult(
        kind="polynomial",
        parameters={"C": float(np.exp(intercept)), "eps": float(eps)},
        residual=rms,
        valid_range=(float(t[0]), float(t[-1])),
        n_samples=t.size,
    )


def fit_exp(trace) -> FitResult:
    """Least-squares line in (t, log E): E(t) = M * exp(-rate * t).

    Both parameters are free.  A nonpositive fitted rate means the family
    does not describe the trace; it is reported as fitted, not clamped.
    """
    t, e = _usable_samples(trace)
    slope, intercept = np.polyfit(t, np.log(e), 1)
    resid = np.log(e) - (slope * t + intercept)
    return FitResult(
        kind="exponential",
        parameters={"M": float(np.exp(intercept)), "rate": float(-slope)},
        residual=float(np.sqrt(np.mean(resid**2))),
        valid_range=(float(t[0]), float(t[-1])),
        n_samples=t.size,
    )


def model_select(
    trace,
    log_orders: Sequence[int] = (1, 2, 3),
    poly_eps: Sequence[float] = (0.0, 1.0, 2.0),
) -> list[FitResult]:
    """All candidate fits ranked by residual, best first.

    Ties keep the candidate enumeration order (logarithmic orders, then
    polynomial exponents, then exponential), which favors the slower laws.
    """
    candidates = [fit_log(trace, n) for n in log_orders]
    candidates += [fit_poly(trace, eps) for eps in poly_eps]
    candidates.append(fit_exp(trace))
    return sorted(candidates, key=lambda fr: fr.residual)

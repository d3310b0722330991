"""Composite Simpson rules on uniform grids, along the last axis.

Both rules follow scipy.integrate's equal-interval formulas term for term
(scipy 1.17), so they agree with it to roundoff on real and complex input,
without importing scipy.integrate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simpson", "cumulative_simpson"]


def _composite(y: np.ndarray, stop: int, dx: float):
    """Plain composite Simpson over y[..., :stop + 1], stop even."""
    terms = y[..., 0:stop:2] + 4.0 * y[..., 1 : stop + 1 : 2] + y[..., 2 : stop + 2 : 2]
    return np.sum(terms, axis=-1) * (dx / 3.0)


def simpson(y, dx: float):
    """Simpson integral of samples y with spacing dx (at least 3 samples).

    An even sample count integrates all but the last interval by the
    composite rule and adds the last one by the quadratic through the final
    three samples.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    if n < 3:
        raise ValueError("simpson needs at least 3 samples")
    if n % 2:
        return _composite(y, n - 2, dx)
    # scipy's last-interval weights at equal spacing (5dx/12, 2dx/3, dx/12),
    # evaluated the way scipy evaluates them so the sums round the same
    alpha = (2 * dx**2 + 3 * dx * dx) / (6 * (dx + dx))
    beta = (dx**2 + 3.0 * dx * dx) / (6 * dx)
    eta = dx**3 / (6 * dx * (dx + dx))
    last = alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return _composite(y, n - 3, dx) + last


def cumulative_simpson(y, dx: float) -> np.ndarray:
    """Running Simpson integral of y from its first sample, same shape as y.

    Each interval is integrated by the quadratic through it and one
    neighbour: the next sample for even intervals, the previous one for odd
    intervals and for the last.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    if n < 3:
        raise ValueError("cumulative_simpson needs at least 3 samples")
    f0, f1, f2 = y[..., :-2], y[..., 1:-1], y[..., 2:]
    forward = dx / 3 * (5 * f0 / 4 + 2 * f1 - f2 / 4)   # interval i, from samples i..i+2
    backward = dx / 3 * (5 * f2 / 4 + 2 * f1 - f0 / 4)  # interval i+1, from samples i..i+2
    out = np.empty(y.shape, dtype=np.result_type(y, float))
    out[..., 0] = 0.0
    out[..., 1:-1:2] = forward[..., ::2]
    out[..., 2::2] = backward[..., ::2]
    out[..., -1] = backward[..., -1]
    return np.cumsum(out, axis=-1, out=out)

"""Composite Simpson rules and a first-derivative stencil on uniform grids,
along the last axis.

Both Simpson rules follow scipy.integrate's equal-interval formulas term for
term (scipy 1.17), so they agree with it to roundoff on real and complex
input, without importing scipy.integrate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simpson", "simpson_weights", "cumulative_simpson", "derivative"]


def _composite(y: np.ndarray, stop: int, dx: float):
    """Plain composite Simpson over y[..., :stop + 1], stop even."""
    terms = y[..., 0:stop:2] + 4.0 * y[..., 1 : stop + 1 : 2] + y[..., 2 : stop + 2 : 2]
    return terms.sum(axis=-1) * (dx / 3.0)


def _last_interval(dx: float) -> tuple[float, float, float]:
    """scipy's last-interval weights at equal spacing (5dx/12, 2dx/3, dx/12) of
    the final, second-last and third-last samples (the last one subtracted),
    evaluated the way scipy evaluates them so the sums round the same."""
    alpha = (2 * dx**2 + 3 * dx * dx) / (6 * (dx + dx))
    beta = (dx**2 + 3.0 * dx * dx) / (6 * dx)
    eta = dx**3 / (6 * dx * (dx + dx))
    return alpha, beta, eta


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
    alpha, beta, eta = _last_interval(dx)
    last = alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return _composite(y, n - 3, dx) + last


def simpson_weights(n: int, dx: float) -> np.ndarray:
    """The n weights q with q @ y equal to simpson(y, dx) up to rounding."""
    if n < 3:
        raise ValueError("simpson needs at least 3 samples")
    odd = n if n % 2 else n - 1  # samples under the composite rule
    q = np.zeros(n)
    q[1:odd:2] = 4.0
    q[2 : odd - 1 : 2] = 2.0
    q[0] = q[odd - 1] = 1.0
    q[:odd] *= dx / 3.0
    if not n % 2:
        alpha, beta, eta = _last_interval(dx)
        q[-3:] += (-eta, beta, alpha)
    return q


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
    # only the even-indexed triples are kept: triple i = 2j gives interval i
    # forward and interval i + 1 backward.  Quartering is exact, so 5 * (f / 4)
    # rounds as 5 * f / 4 does; multiplying by 0.25 rounds as dividing by 4
    # and is cheaper on complex samples
    f0, f1, f2 = y[..., 0 : n - 2 : 2], y[..., 1 : n - 1 : 2], y[..., 2:n:2]
    q0, q2, twice_f1 = f0 * 0.25, f2 * 0.25, 2 * f1
    out = np.empty(y.shape, dtype=np.result_type(y, float))
    out[..., 0] = 0.0
    # (5 q0 + 2 f1 - q2) dx/3 forward, (5 q2 + 2 f1 - q0) dx/3 backward, in
    # that order, through one scratch array
    terms = np.multiply(q0, 5)
    terms += twice_f1
    terms -= q2
    np.multiply(terms, dx / 3, out=out[..., 1:-1:2])
    np.multiply(q2, 5, out=terms)
    terms += twice_f1
    terms -= q0
    np.multiply(terms, dx / 3, out=out[..., 2::2])
    if n % 2 == 0:
        # the last interval, backward from the odd triple ending there
        out[..., -1] = dx / 3 * (5 * y[..., -1] / 4 + 2 * y[..., -2] - y[..., -3] / 4)
    return np.cumsum(out, axis=-1, out=out)


def derivative(y, dx: float) -> np.ndarray:
    """Second-order first derivative of samples y with spacing dx (at least 3).

    Central differences inside, one-sided three-point differences at both
    ends; real input gives a real result, complex input a complex one.
    """
    y = np.asarray(y)
    out = np.empty(y.shape, dtype=np.result_type(y, float))
    out[..., 1:-1] = (y[..., 2:] - y[..., :-2]) / (2.0 * dx)
    out[..., 0] = (-3.0 * y[..., 0] + 4.0 * y[..., 1] - y[..., 2]) / (2.0 * dx)
    out[..., -1] = (3.0 * y[..., -1] - 4.0 * y[..., -2] + y[..., -3]) / (2.0 * dx)
    return out

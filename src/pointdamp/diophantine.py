"""Arithmetic quality of the actuator position.

Whether the damped point at xi in (0,1) stabilizes every finite-energy state,
and how fast, is controlled by how well xi is approximated by rationals.  This
module provides continued-fraction expansions, distance-to-nearest-integer
scans, and the grid/scan conditions that separate decay regimes.
"""

from __future__ import annotations

import bisect
import decimal
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

__all__ = [
    "ContinuedFraction",
    "ConditionReport",
    "GrowthFunction",
    "ActuatorClassification",
    "ClassifySettings",
    "GOLDEN_RATIO_CONJUGATE",
    "parse_actuator_position",
    "dist_nearest_integer",
    "expand_continued_fraction",
    "resonance_indicator",
    "cos_resonance_indicator",
    "check_exp_grid",
    "check_poly_grid",
    "check_cos_grid",
    "check_liouville_type",
    "classify_actuator",
    "default_mu_grid",
    "mu_grid_points",
]

# (sqrt(5)-1)/2, the canonical constant-type actuator position
GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

# convergents of a double are meaningless once q_k*q_{k+1} ~ 1/eps
_PRECISION_BUDGET = 0.25 / sys.float_info.epsilon

# the string 'golden' expands (sqrt(5)-1)/2 held to 60 significant digits,
# with the same budget rule at that precision
_GOLDEN_60 = (Fraction(decimal.Context(prec=60).sqrt(5)) - 1) / 2
_GOLDEN_60_BUDGET = 0.25e60

# grid expression values below this count as exact resonances (roundoff scale)
_RESONANCE_FLOOR = 1e-20


def parse_actuator_position(text: str) -> tuple[float, Fraction | str | None]:
    """Parse an actuator position given as decimal, 'p/q', or 'golden'.

    Returns (float value, exact form).  The exact form is a Fraction for
    'p/q' inputs, the string 'golden' for the named constant, and None for
    plain decimals.
    """
    text = text.strip().lower()
    if text == "golden":
        return GOLDEN_RATIO_CONJUGATE, "golden"
    if "/" in text:
        num, _, den = text.partition("/")
        frac = Fraction(int(num), int(den))
        if not 0 < frac < 1:
            raise ValueError(f"actuator position must lie in (0,1), got {frac}")
        return float(frac), frac
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"actuator position must lie in (0,1), got {value}")
    return value, None


def dist_nearest_integer(rho):
    """Distance from rho to the nearest integer, elementwise; range [0, 1/2].

    A number gives a float without importing numpy; an array gives an array.
    """
    if isinstance(rho, (int, float)):
        return _dist(float(rho))
    import numpy as np

    rho = np.asarray(rho, dtype=float)
    out = np.abs(rho - np.round(rho))
    return out if out.ndim else float(out)


def _dist(rho: float) -> float:
    """dist_nearest_integer of one float, rounding halves to even as numpy does."""
    return abs(rho - round(rho)) if math.isfinite(rho) else math.nan


@dataclass
class ContinuedFraction:
    """Continued-fraction expansion [a0; a1, a2, ...] with convergents p_k/q_k."""

    value: float
    partial_quotients: list[int]
    convergents: list[tuple[int, int]]
    terminated: bool  # True when the expansion ended exactly (rational input)
    truncated_by_precision: bool = False

    @property
    def is_rational(self) -> bool:
        return self.terminated

    @property
    def max_partial_quotient(self) -> int:
        # a0 encodes the integer part (0 here) and carries no approximation info
        tail = self.partial_quotients[1:]
        return max(tail) if tail else 0


def _cf_expand(
    x, depth: int, rational_tol: float, quotient_overflow: float, budget: float | None
) -> ContinuedFraction:
    """Expansion loop shared by floats and exact Fractions."""
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    terminated = False
    truncated = False
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    y = x
    for _ in range(depth):
        a = math.floor(y)
        if quotients and a > quotient_overflow:
            terminated = True  # numerically rational: the tail is noise
            break
        q_next = a * q_cur + q_prev
        if budget is not None and quotients and q_next * q_cur > budget:
            truncated = True
            break
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, q_next
        quotients.append(a)
        convergents.append((p_cur, q_cur))
        frac = y - a
        if frac <= rational_tol:
            terminated = True
            break
        y = 1 / frac
    return ContinuedFraction(
        value=float(x),
        partial_quotients=quotients,
        convergents=convergents,
        terminated=terminated,
        truncated_by_precision=truncated,
    )


def expand_continued_fraction(
    x,
    depth: int = 40,
    rational_tol: float = 1e-12,
    quotient_overflow: float = 1e12,
) -> ContinuedFraction:
    """Expand x in (0,1) as a continued fraction.

    Accepts:
      - a float: its exact binary value, truncated once the convergent
        denominators exhaust the 53-bit budget (q_k*q_{k+1} > 2**50);
      - a Fraction: exact Euclid, so rational_tol and quotient_overflow
        do not apply;
      - a decimal string such as '0.375': exactly the rational the digits
        denote, with no budget;
      - 'golden': (sqrt(5)-1)/2 to 60 significant digits, truncated once
        q_k*q_{k+1} > 0.25e60, where those digits run out.

    Anything else goes through float().  Floats, decimal strings and
    'golden' whose expansion hits a partial quotient above quotient_overflow,
    or whose remainder drops to rational_tol or below, are reported as
    rational.
    """
    budget = None
    if isinstance(x, Fraction):
        rational_tol, quotient_overflow = 0.0, math.inf
    elif isinstance(x, str):
        text = x.strip().lower()
        if text == "golden":
            x, budget = _GOLDEN_60, _GOLDEN_60_BUDGET
        else:
            x = Fraction(text)
    else:
        x, budget = float(x), _PRECISION_BUDGET
    if not 0 < x < 1:
        raise ValueError("value must lie in (0,1)")
    return _cf_expand(x, depth, rational_tol, quotient_overflow, budget)


# ----------------------------------------------------------------------------
# growth functions for the scan condition
# ----------------------------------------------------------------------------


def _exp(x: float) -> float:
    """math.exp, with numpy's inf where the result overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _power(x: float, p: float) -> float:
    """x**p for x > 0 as numpy raises a float array to a scalar power: squares
    and square roots by their fast paths, libm's pow otherwise, inf on overflow."""
    if p == 2.0:
        return x * x
    if p == 0.5:
        return math.sqrt(x)
    try:
        return x**p
    except OverflowError:
        return math.inf


@dataclass
class GrowthFunction:
    """Positive nondecreasing weight m -> phi(m) used by the scan condition.

    evaluate maps one float to one float.  Called with a number the function
    returns a float; called with an array it returns an array, evaluated
    point by point, and only then imports numpy.
    """

    kind: str
    evaluate: Callable[[float], float] = field(repr=False)

    def __call__(self, m):
        if isinstance(m, (int, float)):
            return self.evaluate(float(m))
        import numpy as np

        m = np.asarray(m, dtype=float)
        out = np.array([self.evaluate(v) for v in m.ravel().tolist()], dtype=float)
        return out.reshape(m.shape) if m.ndim else float(out[0])

    @staticmethod
    def identity() -> "GrowthFunction":
        return GrowthFunction("identity", lambda m: m)

    @staticmethod
    def power_log(alpha: float, eps: float) -> "GrowthFunction":
        """m**alpha * log(max(m, 2))**(1 + eps); nondecreasing needs alpha >= 0, eps >= -1."""
        if not (0.0 <= alpha < math.inf and -1.0 <= eps < math.inf):
            raise ValueError(
                f"power_log needs finite alpha >= 0 and eps >= -1, got alpha={alpha}, eps={eps}"
            )

        def f(m):
            return _power(m, alpha) * _power(math.log(max(m, 2.0)), 1.0 + eps)

        return GrowthFunction(f"power_log(alpha={alpha}, eps={eps})", f)

    @staticmethod
    def exponential(beta: float) -> "GrowthFunction":
        """exp(beta * m); nondecreasing needs beta >= 0."""
        if not 0.0 <= beta < math.inf:
            raise ValueError(f"exponential needs a finite beta >= 0, got {beta}")
        return GrowthFunction(f"exponential(beta={beta})", lambda m: _exp(beta * m))

    @staticmethod
    def from_table(points: Sequence[float], values: Sequence[float]) -> "GrowthFunction":
        """Linear interpolation in the table, its end values outside it (imports numpy)."""
        import numpy as np

        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(values <= 0) or np.any(np.diff(values) < 0):
            raise ValueError("table must be positive and nondecreasing")
        return GrowthFunction("table", lambda m: np.interp(m, points, values))


# ----------------------------------------------------------------------------
# grid expressions and condition checks
# ----------------------------------------------------------------------------


def _sin_indicator(xi: float, mu: float) -> float:
    s = math.sin(mu)
    p = math.sin(xi * mu) * math.sin((1.0 - xi) * mu)
    return s * s + p * p


def _cos_indicator(xi: float, mu: float) -> float:
    c = math.cos(mu)
    p = math.cos(xi * mu) * math.sin((1.0 - xi) * mu)
    return c * c + p * p


def resonance_indicator(xi: float, mu):
    """sin^2(mu) + sin^2(xi*mu)*sin^2((1-xi)*mu), elementwise in mu.

    Vanishes exactly at the undamped resonances of a rational actuator
    position; equals the squared modulus of the characteristic function on
    the real axis.  A number gives a float without importing numpy.
    """
    if isinstance(mu, (int, float)):
        return _sin_indicator(xi, float(mu))
    import numpy as np

    mu = np.asarray(mu, dtype=float)
    out = np.sin(mu) ** 2 + (np.sin(xi * mu) * np.sin((1.0 - xi) * mu)) ** 2
    return out if out.ndim else float(out)


def cos_resonance_indicator(xi: float, mu):
    """cos^2(mu) + cos^2(xi*mu)*sin^2((1-xi)*mu), the cosine-family variant."""
    if isinstance(mu, (int, float)):
        return _cos_indicator(xi, float(mu))
    import numpy as np

    mu = np.asarray(mu, dtype=float)
    out = np.cos(mu) ** 2 + (np.cos(xi * mu) * np.sin((1.0 - xi) * mu)) ** 2
    return out if out.ndim else float(out)


@dataclass
class ConditionReport:
    """Outcome of one lower-bound condition check.

    trace, when kept, is a table of rows computed as they are read.
    """

    condition_id: str
    xi: float
    verdict: str  # "pass" | "fail"
    witness: float | None
    fitted_constants: dict
    note: str = ""
    trace: _Rows | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


class _Rows:
    """A table of n rows of the given width; row(i) computes row i when read."""

    def __init__(self, n: int, width: int, row: Callable[[int], tuple]):
        self._n, self._width, self._row = n, width, row

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> tuple:
        if not -self._n <= i < self._n:
            raise IndexError("row index out of range")
        return self._row(i % self._n)

    def __iter__(self):
        return map(self._row, range(self._n))

    @property
    def shape(self) -> tuple[int, int]:
        return self._n, self._width


class _ArangePoints:
    """The points of numpy.arange(start, stop, step), computed when read.

    numpy holds start, then start + step, then start + j*delta with
    delta = (start + step) - start, and takes ceil((stop - start) / step)
    points; so does this sequence, point for point.
    """

    def __init__(self, start: float, stop: float, step: float):
        if not (math.isfinite(start) and math.isfinite(stop) and 0.0 < step < math.inf):
            raise ValueError("grid needs a finite start and stop and a finite positive step")
        self.start = float(start)
        self.second = self.start + step
        self.delta = self.second - self.start
        self.size = max(0, math.ceil((stop - start) / step))

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, j: int) -> float:
        if not -self.size <= j < self.size:
            raise IndexError("grid index out of range")
        j %= self.size
        return (self.start, self.second)[j] if j < 2 else self.start + j * self.delta

    def __iter__(self):
        head = (self.start, self.second)[: self.size]
        rest = (self.start + j * self.delta for j in range(2, self.size))
        return itertools.chain(head, rest)


def default_mu_grid(mu_min: float = 1.0, mu_max: float = 500.0, step: float = 0.01):
    """The check grid as a numpy array (imports numpy)."""
    import numpy as np

    return np.arange(mu_min, mu_max + 0.5 * step, step)


def mu_grid_points(mu_min: float = 1.0, mu_max: float = 500.0, step: float = 0.01):
    """The points of default_mu_grid, equal to them one by one, without numpy."""
    return _ArangePoints(mu_min, mu_max + 0.5 * step, step)


def _grid_points(mu_grid) -> Sequence[float]:
    """The check grid: the default one for None, else the caller's points,
    which must be finite and nondecreasing (mu_grid_points checks its own
    arguments, so its points are)."""
    if mu_grid is None:
        return mu_grid_points()
    if isinstance(mu_grid, _ArangePoints):
        return mu_grid
    points = [float(mu) for mu in mu_grid]
    if points and not (
        math.isfinite(points[0])
        and math.isfinite(points[-1])
        and all(map(operator.le, points, itertools.islice(points, 1, None)))
    ):
        raise ValueError("mu_grid must be finite and nondecreasing")
    return points


def _log_weighted(expression: float, log_weight: float) -> float:
    """log(expression) + log_weight, with an expression at roundoff scale read as 0."""
    return (math.log(expression) if expression > _RESONANCE_FLOOR else -math.inf) + log_weight


def _reach(best: float, w_min: float, centre: float) -> float:
    """Half-width of the window around a strip centre outside which the
    bound log sin^2(d) + w_min exceeds best, widened against rounding.

    Points whose indicator may fall to the resonance floor stay inside.
    """
    t = 0.0
    if best > -math.inf:
        gap = best - w_min + 1e-9 * (1.0 + abs(best) + abs(w_min))
        t = 1.0 if gap >= 0 else math.exp(gap)
    t = max(t, 1.01 * _RESONANCE_FLOOR)
    half = math.pi / 2 if t >= 1.0 else math.asin(math.sqrt(t))
    return half * (1.0 + 1e-9) + 8 * sys.float_info.epsilon * abs(centre)


def _part_minimum(
    xi: float,
    grid: Sequence[float],
    lo: int,
    hi: int,
    indicator: Callable[[float, float], float],
    centre: float,
    log_weight: Callable[[float], float],
) -> tuple[float, int]:
    """(minimum, its first index) of the log-weighted indicator over grid[lo:hi].

    Each indicator is at least sin^2 of the distance d from mu to the nearest
    strip centre (n + centre) * pi.  On a strip whose weight is at least
    w_min, a point can reach the running minimum only where
    log sin^2(d) + w_min does not exceed it.  The search starts from the
    points next to every centre, then evaluates each strip only on that
    window, plus one index on each side.  Every point left out is above the
    final minimum, so minimum and first index are those of the full grid.
    """

    def value(j: int) -> tuple[float, int]:
        mu = grid[j]
        return _log_weighted(indicator(xi, mu), log_weight(mu)), j

    mu_lo, mu_hi = grid[lo], grid[hi - 1]
    n_lo, n_hi = round(mu_lo / math.pi - centre), round(mu_hi / math.pi - centre)
    if n_hi - n_lo + 1 >= hi - lo:  # as many strips as points: evaluate them all
        return min(map(value, range(lo, hi)))
    centres = [(n + centre) * math.pi for n in range(n_lo, n_hi + 1)]
    nearest = (bisect.bisect_left(grid, c, lo, hi) for c in centres)
    seeds = {j for k in nearest for j in (k - 1, k) if lo <= j < hi}
    best = min(map(value, seeds))
    for c in centres:
        a, b = max(c - math.pi / 2, mu_lo), min(c + math.pi / 2, mu_hi)
        reach = _reach(best[0], min(log_weight(a), log_weight(b)), c)
        first = max(bisect.bisect_left(grid, c - reach, lo, hi) - 1, lo)
        stop = min(bisect.bisect_left(grid, c + reach, lo, hi) + 1, hi)
        for j in range(first, stop):
            if j not in seeds:
                best = min(best, value(j))
    return best


def _tail_trend_check(
    condition_id: str,
    xi: float,
    grid: Sequence[float],
    indicator: Callable[[float, float], float],
    centre: float,
    log_weight: Callable[[float], float],
    constants: dict,
    trend_factor: float,
    keep_trace: bool,
) -> ConditionReport:
    """Shared verdict logic: positive infimum that is not draining to zero.

    Works in log space so exponential weights cannot overflow.  The verdict
    fails on an exact resonance (expression at roundoff scale) or when the
    last-quartile infimum of the weighted expression dips more than
    trend_factor below the infimum over the earlier grid.  Each of the two
    parts is searched by _part_minimum.
    """
    n = len(grid)
    if n == 0:
        raise ValueError("empty grid")
    n_tail = n // 4
    parts = [(0, n)] if n < 8 else [(0, n - n_tail), (n - n_tail, n)]
    minima = [_part_minimum(xi, grid, lo, hi, indicator, centre, log_weight) for lo, hi in parts]
    log_k2, i_min = min(minima)
    constants = dict(constants)
    constants.update({"inf_weighted": _exp(log_k2), "log_inf_weighted": log_k2})

    trace = None
    if keep_trace:

        def row(j: int) -> tuple:
            mu = grid[j]
            expression = indicator(xi, mu)
            return mu, expression, _exp(_log_weighted(expression, log_weight(mu)))

        trace = _Rows(n, 3, row)

    witness = grid[i_min]
    if not math.isfinite(log_k2):
        return ConditionReport(
            condition_id, xi, "fail", witness, constants,
            note="exact resonance on grid", trace=trace,
        )
    if n < 8:
        return ConditionReport(
            condition_id, xi, "pass", witness, constants,
            note="grid too short for a trend test", trace=trace,
        )
    head_min, tail_min = minima[0][0], minima[1][0]
    constants["log_head_min"] = head_min
    constants["log_tail_min"] = tail_min
    if tail_min < head_min - math.log(trend_factor):
        return ConditionReport(
            condition_id, xi, "fail", witness, constants,
            note="weighted infimum drains toward zero along the tail", trace=trace,
        )
    return ConditionReport(
        condition_id, xi, "pass", witness, constants,
        note="grid-verified on the sampled range only", trace=trace,
    )


def _exp_weight_check(
    condition_id: str,
    indicator: Callable[[float, float], float],
    centre: float,
    xi: float,
    mu_grid,
    k1: float,
    trend_factor: float,
    keep_trace: bool,
) -> ConditionReport:
    """indicator(xi, mu) * e^(k1*mu) >= k2 > 0 on the grid (the default one if None)."""
    if not 0.0 <= k1 < math.inf:
        raise ValueError("k1 must be finite and nonnegative")
    return _tail_trend_check(
        condition_id, xi, _grid_points(mu_grid), indicator, centre, lambda mu: k1 * mu,
        {"k1": k1}, trend_factor, keep_trace,
    )


def check_exp_grid(
    xi: float,
    mu_grid=None,
    k1: float = 1.0,
    trend_factor: float = 10.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Exponential-weight lower bound: resonance_indicator * e^(k1*mu) >= k2 > 0.

    mu_grid must be nondecreasing; only the points that can hold the
    infimum of either part of the trend test are evaluated.
    """
    return _exp_weight_check(
        "exp-grid", _sin_indicator, 0.0, xi, mu_grid, k1, trend_factor, keep_trace
    )


def check_poly_grid(
    xi: float,
    eps: float = 1.0,
    mu_grid=None,
    trend_factor: float = 10.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Polynomial-weight lower bound: resonance_indicator * mu^(1+eps) >= k > 0."""
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    grid = _grid_points(mu_grid)
    if len(grid) and grid[0] <= 0:
        raise ValueError("polynomial weight needs positive mu")
    power = 1.0 + eps
    return _tail_trend_check(
        "poly-grid", xi, grid, _sin_indicator, 0.0, lambda mu: power * math.log(mu),
        {"eps": eps}, trend_factor, keep_trace,
    )


def check_cos_grid(
    xi: float,
    mu_grid=None,
    k1: float = 1.0,
    trend_factor: float = 10.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Cosine-variant exponential-weight lower bound (strip centres at (n + 1/2) pi)."""
    return _exp_weight_check(
        "cos-grid", _cos_indicator, 0.5, xi, mu_grid, k1, trend_factor, keep_trace
    )


# unit roundoff: |fl(m * xi) - m * xi| <= _UNIT_ROUNDOFF * m * xi, plus
# _SUBNORMAL_ERROR where the product is subnormal
_UNIT_ROUNDOFF = Fraction(1, 2**53)
_SUBNORMAL_ERROR = Fraction(1, 2**1075)


def _distance_records(xi: float, m_max: int) -> list[tuple[int, float]]:
    """The strict records of d(m) = dist_nearest_integer(m * xi), as computed
    in floating point, over 1 <= m <= m_max: [(m, d(m))] with d decreasing.

    In exact arithmetic the records are the convergent denominators q_k of
    x = Fraction(xi).  Between consecutive ones, write m = a q_k + b q_{k+1};
    m x - n = a delta_k + b delta_{k+1}, where delta = q x - p alternates in
    sign.  So every m in (q_k, q_{k+1}) has ||m x|| >= j |delta_k| if
    m = j q_k, >= a |delta_k| + |delta_{k+1}| if m = q_{k+1} - a q_k, and
    >= (q_{k+1} // q_k + 1) |delta_k| + |delta_{k+1}| otherwise.  Each gap
    visits only the m whose bound, less the rounding of m * xi, is below the
    record so far, so no computed record is missed.
    """
    x = Fraction(xi)
    convergents = _cf_expand(x, sys.maxsize, 0.0, math.inf, None).convergents
    records: list[tuple[int, float]] = []

    def visit(m: int) -> None:
        d = _dist(m * xi)
        if d < records[-1][1]:
            records.append((m, d))

    records.append((1, _dist(xi)))
    for (p0, q0), (p1, q1) in zip(convergents, convergents[1:]):
        # a zero record cannot be beaten; the last convergent q = denominator
        # of x always gives one, because q * xi = p is then exact
        if q0 > m_max or records[-1][1] == 0:
            break
        hi = min(q1 - 1, m_max)
        if hi > q0:
            d0, d1 = abs(q0 * x - p0), abs(q1 * x - p1)
            # an m is visited when its bound is below the record plus the rounding of m * xi
            reach = Fraction(records[-1][1]) + _UNIT_ROUNDOFF * hi * x + _SUBNORMAL_ERROR
            if (q1 // q0 + 1) * d0 + d1 < reach:
                gap = range(q0 + 1, hi + 1)  # no certificate for this gap: visit all of it
            else:
                multiples = range(2 * q0, min(hi, (math.ceil(reach / d0) - 1) * q0) + 1, q0)
                below = math.ceil((reach - d1) / d0) - 1 if reach > d1 else 0
                a_min = max(1, -((hi - q1) // q0))
                near = range(q1 - min(below, (q1 - q0 - 1) // q0) * q0, q1 - a_min * q0 + 1, q0)
                gap = sorted({*multiples, *near})
            for m in gap:
                visit(m)
                if records[-1][1] == 0:
                    break
        if q1 <= m_max:
            visit(q1)
    return records


def check_liouville_type(
    xi: float,
    phi: GrowthFunction,
    kappa: float,
    m_max: int,
    keep_trace: bool = False,
) -> ConditionReport:
    """Scan condition phi(m) * dist_nearest_integer(m*xi) >= kappa for m <= m_max.

    The witness is the m achieving the infimum of the scanned products; on
    failure it therefore also violates the bound, by the largest margin.

    phi must be nondecreasing.  Then both the first minimiser and the first
    violation are strict records of dist_nearest_integer(m*xi), and only
    those are evaluated: a product phi(m) d(m) at or below that of a later m
    needs d(m) at or below the later d.  As in a scan of every m, the first
    product that is nan (phi infinite where d is 0) is the minimum.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    m_max = int(m_max)
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    records = _distance_records(xi, m_max)
    products = [(phi.evaluate(float(m)) * d, m) for m, d in records]
    min_product, argmin = min(products)
    nan_m = _first_nan_product(xi, phi, m_max, records)
    if nan_m is not None:
        min_product, argmin = math.nan, nan_m
    violation = next((m for product, m in products if product < kappa), None)

    trace = None
    if keep_trace:
        trace = _Rows(
            m_max, 2, lambda i: (float(i + 1), phi.evaluate(float(i + 1)) * _dist((i + 1) * xi))
        )
    constants = {
        "kappa": kappa,
        "phi": phi.kind,
        "min_product": min_product,
        "argmin_m": argmin,
        "first_violation_m": None if violation is None else float(violation),
    }
    verdict, note = (
        ("fail", f"scanned m <= {m_max}")
        if violation is not None
        else ("pass", f"scanned m <= {m_max}; scan evidence only")
    )
    return ConditionReport("liouville", xi, verdict, float(argmin), constants, note=note, trace=trace)


def _first_nan_product(
    xi: float, phi: GrowthFunction, m_max: int, records: list[tuple[int, float]]
) -> int | None:
    """The first m <= m_max where phi(m) is infinite and d(m) is 0, or None."""
    zero = records[-1][0] if records[-1][1] == 0 else None
    if zero is None or phi.evaluate(float(m_max)) < math.inf:
        return None
    lo, hi = 1, m_max  # phi is nondecreasing: bisect for its first infinite value
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if phi.evaluate(float(mid)) < math.inf else (lo, mid)
    return next((m for m in range(max(lo, zero), m_max + 1) if _dist(m * xi) == 0), None)


# ----------------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------------


@dataclass
class ClassifySettings:
    depth: int = 40
    rational_tol: float = 1e-12
    quotient_overflow: float = 1e12
    constant_type_bound: int = 20
    mu_min: float = 1.0
    mu_max: float = 500.0
    mu_step: float = 0.01
    k1: float = 1.0
    poly_eps: float = 1.0
    trend_factor: float = 10.0


@dataclass
class ActuatorClassification:
    xi: float
    is_rational: bool
    strongly_stable: bool
    constant_type: bool
    max_partial_quotient: int
    continued_fraction: ContinuedFraction
    exp_grid: ConditionReport
    poly_grid: ConditionReport


def classify_actuator(
    xi, settings: ClassifySettings | None = None, keep_trace: bool = False
) -> ActuatorClassification:
    """Classify an actuator position by arithmetic type and grid conditions.

    xi may be anything expand_continued_fraction accepts (a float, a
    Fraction, a decimal string or 'golden'); the grid checks run on the
    float value and keep their traces when keep_trace is set.
    """
    settings = settings or ClassifySettings()
    cf = expand_continued_fraction(
        xi, settings.depth, settings.rational_tol, settings.quotient_overflow
    )
    value = cf.value
    grid = mu_grid_points(settings.mu_min, settings.mu_max, settings.mu_step)
    if cf.is_rational and cf.convergents:
        # for p/q the indicator vanishes exactly at multiples of pi*q; put
        # those points on the grid so the check can witness the resonance
        q = cf.convergents[-1][1]
        resonances = [mu for k in range(1, 9) if (mu := math.pi * q * k) <= settings.mu_max]
        if resonances:
            grid = sorted([*grid, *resonances])
    exp_report = check_exp_grid(value, grid, settings.k1, settings.trend_factor, keep_trace)
    poly_report = check_poly_grid(
        value, settings.poly_eps, grid, settings.trend_factor, keep_trace
    )
    is_rational = cf.is_rational
    constant_type = (
        not is_rational
        and len(cf.partial_quotients) > 1
        and cf.max_partial_quotient <= settings.constant_type_bound
    )
    return ActuatorClassification(
        xi=value,
        is_rational=is_rational,
        strongly_stable=not is_rational,
        constant_type=constant_type,
        max_partial_quotient=cf.max_partial_quotient,
        continued_fraction=cf,
        exp_grid=exp_report,
        poly_grid=poly_report,
    )

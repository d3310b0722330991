"""Arithmetic quality of the actuator position.

Whether the damped point at xi in (0,1) stabilizes every finite-energy state,
and how fast, is controlled by how well xi is approximated by rationals.  This
module provides continued-fraction expansions, distance-to-nearest-integer
scans, and the strip/scan conditions that separate decay regimes.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# the parser and the grid live apart so the command line can read a position
# without this module
from .inputs import GOLDEN_RATIO_CONJUGATE, default_mu_grid, parse_actuator_position

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
]

# convergents of a double are meaningless once q_k*q_{k+1} ~ 1/eps
_PRECISION_BUDGET = 0.25 / sys.float_info.epsilon

# the string 'golden' expands (sqrt(5)-1)/2 held to 60 significant digits,
# with the same budget rule at that precision
_GOLDEN_60 = (Fraction(decimal.Context(prec=60).sqrt(5)) - 1) / 2
_GOLDEN_60_BUDGET = 0.25e60

# indicator values below this count as exact resonances (roundoff scale)
_RESONANCE_FLOOR = 1e-20


def dist_nearest_integer(rho: float) -> float:
    """Distance from rho to the nearest integer, in [0, 1/2]; nan when rho is not finite.

    Halves round to even, as numpy.round does.
    """
    rho = float(rho)
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

    evaluate maps one float to one float; calling the function does the same.
    """

    kind: str
    evaluate: Callable[[float], float] = field(repr=False)

    def __call__(self, m: float) -> float:
        return self.evaluate(float(m))

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


# ----------------------------------------------------------------------------
# resonance indicators and condition checks
# ----------------------------------------------------------------------------


def resonance_indicator(xi: float, mu: float) -> float:
    """sin^2(mu) + sin^2(xi*mu)*sin^2((1-xi)*mu).

    Vanishes exactly at the undamped resonances of a rational actuator
    position; equals the squared modulus of the characteristic function on
    the real axis.
    """
    s = math.sin(mu)
    p = math.sin(xi * mu) * math.sin((1.0 - xi) * mu)
    return s * s + p * p


def cos_resonance_indicator(xi: float, mu: float) -> float:
    """cos^2(mu) + cos^2(xi*mu)*sin^2((1-xi)*mu), the cosine-family variant."""
    c = math.cos(mu)
    p = math.cos(xi * mu) * math.sin((1.0 - xi) * mu)
    return c * c + p * p


@dataclass
class ConditionReport:
    """Outcome of one lower-bound condition check.

    trace, when kept, is a table of rows; the Liouville scan's rows are
    computed as they are read.
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


def _log_weighted(expression: float, log_weight: float) -> float:
    """log(expression) + log_weight, with an expression at roundoff scale read as 0."""
    return (math.log(expression) if expression > _RESONANCE_FLOOR else -math.inf) + log_weight


def _sin_derivatives(xi: float, mu: float) -> tuple[float, float, float]:
    """The sine indicator sin^2(mu) + P^2, P = sin(xi mu) sin((1-xi) mu), and
    its first two derivatives in mu."""
    a, b = xi, 1.0 - xi
    s, c = math.sin(mu), math.cos(mu)
    sa, ca, sb, cb = math.sin(a * mu), math.cos(a * mu), math.sin(b * mu), math.cos(b * mu)
    p, dp = sa * sb, a * ca * sb + b * sa * cb
    ddp = 2.0 * a * b * ca * cb - (a * a + b * b) * p
    return s * s + p * p, 2.0 * (s * c + p * dp), 2.0 * (c * c - s * s + dp * dp + p * ddp)


def _cos_derivatives(xi: float, mu: float) -> tuple[float, float, float]:
    """The cosine indicator cos^2(mu) + Q^2, Q = cos(xi mu) sin((1-xi) mu), and
    its first two derivatives in mu."""
    a, b = xi, 1.0 - xi
    s, c = math.sin(mu), math.cos(mu)
    sa, ca, sb, cb = math.sin(a * mu), math.cos(a * mu), math.sin(b * mu), math.cos(b * mu)
    q, dq = ca * sb, b * ca * cb - a * sa * sb
    ddq = -2.0 * a * b * sa * cb - (a * a + b * b) * q
    return c * c + q * q, 2.0 * (q * dq - s * c), 2.0 * (s * s - c * c + dq * dq + q * ddq)


@dataclass(frozen=True)
class _Condition:
    """A lower bound indicator(xi, mu) * exp(w(mu)) >= k > 0, checked per pi-strip.

    derivatives gives the indicator and its first two derivatives, weight
    the log-weight w and its first two derivatives; the strip centres are
    (n + centre) * pi.
    """

    indicator: Callable[[float, float], float]
    derivatives: Callable[[float, float], tuple[float, float, float]]
    centre: float
    weight: Callable[[float], tuple[float, float, float]]

    def log_weighted(self, xi: float, mu: float) -> float:
        return _log_weighted(self.indicator(xi, mu), self.weight(mu)[0])

    def slope(self, xi: float, mu: float) -> tuple[float, float]:
        """g = I' + w' I, which is I times the derivative of log I + w, and g'."""
        i, di, ddi = self.derivatives(xi, mu)
        _, dw, ddw = self.weight(mu)
        return di + dw * i, ddi + ddw * i + dw * di


def _strips(mu_min: float, mu_max: float, centre: float) -> list[tuple[float, float, float]]:
    """The pi-strips [c - pi/2, c + pi/2], c = (n + centre) * pi, that meet
    [mu_min, mu_max], clipped to it: [(lo, hi, c)], in order, covering it."""
    first, last = (round(mu / math.pi - centre) for mu in (mu_min, mu_max))
    inner = (min(max((n + centre + 0.5) * math.pi, mu_min), mu_max) for n in range(first, last))
    edges = [mu_min, *inner, mu_max]
    centres = ((n + centre) * math.pi for n in range(first, last + 1))
    return list(zip(edges, edges[1:], centres))


def _upward_zero(condition: _Condition, xi: float, a: float, b: float) -> float:
    """A zero of the slope g in [a, b], where g(a) < 0 <= g(b): Newton from
    the midpoint, a bisection step wherever Newton leaves the bracket."""
    mu = 0.5 * (a + b)
    for _ in range(100):
        g, dg = condition.slope(xi, mu)
        if g == 0.0:
            return mu
        if g < 0.0:
            a = mu
        else:
            b = mu
        step = mu - g / dg if dg else math.nan
        nxt = step if a < step < b else 0.5 * (a + b)
        if abs(nxt - mu) <= 4.0 * sys.float_info.epsilon * abs(mu):
            return nxt
        mu = nxt
    return mu


def _strip_minimum(
    condition: _Condition, xi: float, strip: tuple[float, float, float]
) -> tuple[float, float]:
    """(minimum, argmin) of log indicator + w over the strip [lo, hi] around c.

    Its interior minima are where the slope g crosses zero upward.  The sign
    of g is sampled at the ends, the strip centre and six equal interior
    points, and each upward crossing is refined to a zero of g; the minimum
    is the least value at those zeros and the two ends.
    """
    lo, hi, c = strip
    inner = [lo + k * (hi - lo) / 7 for k in range(1, 7)]
    points = sorted({lo, hi, *inner, *([c] if lo < c < hi else [])})
    slopes = [condition.slope(xi, mu)[0] for mu in points]
    candidates = [lo, hi]
    for j in range(1, len(points)):
        if slopes[j - 1] < 0.0 <= slopes[j]:
            candidates.append(_upward_zero(condition, xi, points[j - 1], points[j]))
    return min((condition.log_weighted(xi, mu), mu) for mu in candidates)


# Each indicator is sin^2(d) + P^2 at distance d from its strip centre c,
# with |P'| <= 1 and sin^2(d) >= (2d/pi)^2.  So anywhere in the strip it is
# at least min over d of (2d/pi)^2 + (|P(c)| - d)^2, that is 4/(pi^2 + 4) =
# 0.2884... of its value at c.  The bound uses a little less, so that
# rounding cannot lift it above a strip's minimum.
_CENTRE_FRACTION = 0.28


def _least_strip_minimum(
    condition: _Condition, xi: float, strips: list[tuple[float, float, float]]
) -> tuple[float, float]:
    """The least _strip_minimum over the strips, first argmin on ties.

    The strips go in order of their lower bound, _CENTRE_FRACTION times the
    indicator at the centre under the least weight on the strip, and the
    search stops at the first bound at or above the least minimum so far:
    that strip's minimum lies above its bound.  A bound that reaches the
    resonance floor is -inf, and such strips go in order of mu, so the
    first exact resonance is found.
    """

    def bound(strip: tuple[float, float, float]) -> float:
        lo, hi, c = strip
        weight = min(condition.weight(lo)[0], condition.weight(hi)[0])
        return _log_weighted(_CENTRE_FRACTION * condition.indicator(xi, c), weight)

    best = (math.inf, math.inf)
    for least, strip in sorted(zip(map(bound, strips), strips)):
        if least >= best[0]:
            break
        best = min(best, _strip_minimum(condition, xi, strip))
    return best


def _tail_trend_check(
    condition_id: str,
    condition: _Condition,
    xi: float,
    mu_min: float,
    mu_max: float,
    constants: dict,
    trend_factor: float,
    keep_trace: bool,
) -> ConditionReport:
    """Shared verdict logic: positive infimum that is not draining to zero.

    Works in log space so exponential weights cannot overflow.  The verdict
    fails on an exact resonance (expression at roundoff scale) or when the
    least minimum over the last quarter of the strips dips more than
    trend_factor below the least over the earlier strips.
    """
    if not (math.isfinite(mu_min) and math.isfinite(mu_max) and mu_min <= mu_max):
        raise ValueError("need finite mu_min <= mu_max")
    strips = _strips(mu_min, mu_max, condition.centre)
    n = len(strips)
    parts = [strips] if n < 8 else [strips[: n - n // 4], strips[n - n // 4 :]]
    trace = None
    if keep_trace:
        minima = {strip: _strip_minimum(condition, xi, strip) for strip in strips}
        part_minima = [min(map(minima.get, part)) for part in parts]
        rows = [(mu, condition.indicator(xi, mu), _exp(value)) for value, mu in minima.values()]
        trace = _Rows(n, 3, rows.__getitem__)
    else:
        part_minima = [_least_strip_minimum(condition, xi, part) for part in parts]
    log_k2, witness = min(part_minima)
    constants = dict(constants)
    constants.update({"inf_weighted": _exp(log_k2), "log_inf_weighted": log_k2})

    def report(verdict: str, note: str) -> ConditionReport:
        return ConditionReport(condition_id, xi, verdict, witness, constants, note, trace)

    if not math.isfinite(log_k2):
        return report("fail", "exact resonance")
    if n < 8:
        return report("pass", "range too short for a trend test")
    head_min, tail_min = part_minima[0][0], part_minima[1][0]
    constants["log_head_min"] = head_min
    constants["log_tail_min"] = tail_min
    if tail_min < head_min - math.log(trend_factor):
        return report("fail", "weighted infimum drains toward zero along the tail")
    return report("pass", "verified on the checked range only")


def _exp_weight_condition(indicator, derivatives, centre: float, k1: float) -> _Condition:
    """indicator(xi, mu) * e^(k1*mu) >= k2 > 0."""
    if not 0.0 <= k1 < math.inf:
        raise ValueError("k1 must be finite and nonnegative")
    return _Condition(indicator, derivatives, centre, lambda mu: (k1 * mu, k1, 0.0))


def check_exp_grid(
    xi: float,
    mu_min: float = 1.0,
    mu_max: float = 500.0,
    k1: float = 1.0,
    trend_factor: float = 10.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Exponential-weight lower bound: resonance_indicator * e^(k1*mu) >= k2 > 0,
    on the exact minimum of each pi-strip around n*pi in [mu_min, mu_max]."""
    condition = _exp_weight_condition(resonance_indicator, _sin_derivatives, 0.0, k1)
    return _tail_trend_check(
        "exp-grid", condition, xi, mu_min, mu_max, {"k1": k1}, trend_factor, keep_trace
    )


def check_poly_grid(
    xi: float,
    eps: float = 1.0,
    mu_min: float = 1.0,
    mu_max: float = 500.0,
    trend_factor: float = 10.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Polynomial-weight lower bound: resonance_indicator * mu^(1+eps) >= k > 0."""
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    if not mu_min > 0:
        raise ValueError("polynomial weight needs positive mu")
    power = 1.0 + eps
    condition = _Condition(
        resonance_indicator, _sin_derivatives, 0.0,
        lambda mu: (power * math.log(mu), power / mu, -power / (mu * mu)),
    )
    return _tail_trend_check(
        "poly-grid", condition, xi, mu_min, mu_max, {"eps": eps}, trend_factor, keep_trace
    )


def check_cos_grid(
    xi: float,
    mu_min: float = 1.0,
    mu_max: float = 500.0,
    k1: float = 1.0,
    trend_factor: float = 10.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Cosine-variant exponential-weight lower bound (strip centres at (n + 1/2) pi)."""
    condition = _exp_weight_condition(cos_resonance_indicator, _cos_derivatives, 0.5, k1)
    return _tail_trend_check(
        "cos-grid", condition, xi, mu_min, mu_max, {"k1": k1}, trend_factor, keep_trace
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
        d = dist_nearest_integer(m * xi)
        if d < records[-1][1]:
            records.append((m, d))

    records.append((1, dist_nearest_integer(xi)))
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
            m_max, 2, lambda i: (float(i + 1), phi(i + 1) * dist_nearest_integer((i + 1) * xi))
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
    zeros = (m for m in range(max(lo, zero), m_max + 1) if dist_nearest_integer(m * xi) == 0)
    return next(zeros, None)


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
    """Classify an actuator position by arithmetic type and strip conditions.

    xi may be anything expand_continued_fraction accepts (a float, a
    Fraction, a decimal string or 'golden'); the exp and poly checks run on
    the float value and keep their traces when keep_trace is set.
    """
    settings = settings or ClassifySettings()
    cf = expand_continued_fraction(
        xi, settings.depth, settings.rational_tol, settings.quotient_overflow
    )
    value = cf.value
    mu_range = settings.mu_min, settings.mu_max
    exp_report = check_exp_grid(value, *mu_range, settings.k1, settings.trend_factor, keep_trace)
    poly_report = check_poly_grid(
        value, settings.poly_eps, *mu_range, settings.trend_factor, keep_trace
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

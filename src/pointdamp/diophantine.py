"""Arithmetic quality of the actuator position.

Whether the damped point at xi in (0,1) stabilizes every finite-energy state,
and how fast, is controlled by how well xi is approximated by rationals.  This
module provides continued-fraction expansions, distance-to-nearest-integer
scans, and the strip/scan conditions that separate decay regimes.  Each
check reads its xi (a float, a Fraction, decimal text, 'golden' or a
Position) as one exact number, by settle at the default quotient_overflow,
or takes the Position that settle returned as it is.
"""

from __future__ import annotations

import bisect
import decimal
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .expansion import PRECISION_BUDGET, expand, rational_form

# the parser and the grid live apart so the command line can read a position
# without this module
from .inputs import GOLDEN_RATIO_CONJUGATE, Position, default_mu_grid, parse_actuator_position

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
    "settle",
    "resonance_indicator",
    "cos_resonance_indicator",
    "check_exp_grid",
    "check_poly_grid",
    "check_cos_grid",
    "check_liouville_type",
    "classify_actuator",
    "default_mu_grid",
]

# the string 'golden' expands (sqrt(5)-1)/2 held to 60 significant digits,
# with the same budget rule at that precision
_GOLDEN_60 = (Fraction(decimal.Context(prec=60).sqrt(5)) - 1) / 2
_GOLDEN_60_BUDGET = 0.25e60


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


def expand_continued_fraction(
    x, depth: int = 40, quotient_overflow: float = 1e12
) -> ContinuedFraction:
    """Expand x in (0,1) as a continued fraction, by exact Euclid.

    Accepts:
      - a float: its exact binary value, truncated once the convergent
        denominators exhaust the 53-bit budget (q_k*q_{k+1} > 2**50);
      - a Fraction: exact, with no cutoff, so quotient_overflow does not
        apply;
      - a decimal string such as '0.375': exactly the rational the digits
        denote, with no budget;
      - 'golden': (sqrt(5)-1)/2 to 60 significant digits, truncated once
        q_k*q_{k+1} > 0.25e60, where those digits run out.

    A Position is read as its exact form, or else its double; anything else
    goes through float().  Floats, decimal strings and 'golden' whose
    expansion hits a partial quotient above quotient_overflow are reported
    as rational, ending on the quotients before it.
    """
    budget = math.inf
    if isinstance(x, Position):
        x = x.exact or x.value
    if isinstance(x, Fraction):
        quotient_overflow = math.inf
    elif isinstance(x, str):
        text = x.strip().lower()
        if text == "golden":
            x, budget = _GOLDEN_60, _GOLDEN_60_BUDGET
        else:
            x = Fraction(text)
    else:
        x, budget = float(x), PRECISION_BUDGET
    if not 0 < x < 1:
        raise ValueError("value must lie in (0,1)")
    expansion = expand(*x.as_integer_ratio(), depth, quotient_overflow, budget)
    return ContinuedFraction(float(x), *expansion)


class _Settled(Position):
    """A Position that settle returned: its exact form is the number the checks read."""


def settle(xi, quotient_overflow: float = 1e12) -> Position:
    """xi as one exact number: Position(double, the rational it settles on).

    A Fraction and decimal text are exact; a float settles where its
    expansion ends (expansion.rational_form).  Otherwise the exact form is
    'golden', for its 60 digits, or None, for the double's own value.  What
    settle returned passes through; another Position reads as xi.exact or xi.value.
    """
    if isinstance(xi, _Settled):
        return xi
    if isinstance(xi, Position):
        xi = xi.exact or xi.value
    if isinstance(xi, str):
        if xi.strip().lower() == "golden":
            return _Settled(GOLDEN_RATIO_CONJUGATE, "golden")
        xi = Fraction(xi.strip())
    form = rational_form(xi if isinstance(xi, Fraction) else float(xi), quotient_overflow)
    return _Settled(float(xi), form and Fraction(*form))


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
        return GrowthFunction(
            f"power_log(alpha={alpha}, eps={eps})",
            lambda m: _power(m, alpha) * _power(math.log(max(m, 2.0)), 1.0 + eps),
        )

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
    """log(expression) + log_weight, -inf where the expression is 0."""
    return (math.log(expression) if expression > 0.0 else -math.inf) + log_weight


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
    that strip's minimum lies above its bound.
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


# A sine-indicator check whose weight W grows slower than mu^4 holds for no
# xi: at mu = q*pi the indicator is sin^4(pi*q*xi) <= (pi*||q*xi||)^4, so the
# checked function is 0 at a rational's denominator and, at Dirichlet's
# infinitely many q with ||q*xi|| < 1/q, below pi^4 q^-4 W(q*pi) -> 0.
_REFUTED = "refuted for every xi: the weight grows slower than mu^4 (Dirichlet)"


def _first_resonance(
    centre: float, position: Position, mu_min: float, mu_max: float
) -> float | None:
    """The first strip centre (n + centre) pi in [mu_min, mu_max] where the
    indicator of the position's rational p/q vanishes, as a double, or None:
    the sine indicator's n pi, n >= 1, with q | n, or the cosine indicator's
    (n + 1/2) pi, with p and q odd and q | 2n + 1 (cos mu = cos(xi mu) = 0)."""
    if position.exact in (None, "golden"):
        return None
    p, q = position.exact.as_integer_ratio()
    if centre and (p % 2 == 0 or q % 2 == 0):
        return None
    first, residue = max(round(mu_min / math.pi - centre), 1), (q - 1) // 2 if centre else 0
    n = first + (residue - first) % q
    if (n + centre) * math.pi < mu_min:
        n += q
    mu = (n + centre) * math.pi
    return mu if mu <= mu_max else None


def _strip_check(
    condition_id: str,
    condition: _Condition,
    xi,
    mu_min: float,
    mu_max: float,
    constants: dict,
    refuted: bool,
    keep_trace: bool,
) -> ConditionReport:
    """Shared verdict logic: the least strip minimum, and a fail only where
    the condition is refuted.

    Works in log space so exponential weights cannot overflow.  xi is
    settled (settle); the strip minima are evaluated at its double.  The
    verdict fails on an exact resonance of its rational on the range
    (_first_resonance), found before any strip is searched, or for every xi
    when the caller's weight is refuted (_REFUTED); any other check passes
    on the checked range only.
    """
    if not (math.isfinite(mu_min) and math.isfinite(mu_max) and mu_min <= mu_max):
        raise ValueError("need finite mu_min <= mu_max")
    position = settle(xi)
    xi, centre = position.value, condition.centre
    resonance = _first_resonance(centre, position, mu_min, mu_max)
    trace = None
    if keep_trace:
        minima = [_strip_minimum(condition, xi, s) for s in _strips(mu_min, mu_max, centre)]
        log_k2, witness = min(minima)
        rows = [(mu, condition.indicator(xi, mu), _exp(value)) for value, mu in minima]
        trace = _Rows(len(rows), 3, rows.__getitem__)
    if resonance is not None:
        log_k2, witness = -math.inf, resonance
    elif not keep_trace:
        log_k2, witness = _least_strip_minimum(condition, xi, _strips(mu_min, mu_max, centre))
    constants = {**constants, "inf_weighted": _exp(log_k2), "log_inf_weighted": log_k2}
    if not math.isfinite(log_k2):
        verdict, note = "fail", "exact resonance"
    elif refuted:
        verdict, note = "fail", _REFUTED
    else:
        verdict, note = "pass", "verified on the checked range only"
    return ConditionReport(condition_id, xi, verdict, witness, constants, note, trace)


def _exp_weight_condition(indicator, derivatives, centre: float, k1: float) -> _Condition:
    """indicator(xi, mu) * e^(k1*mu) >= k2 > 0."""
    if not 0.0 <= k1 < math.inf:
        raise ValueError("k1 must be finite and nonnegative")
    return _Condition(indicator, derivatives, centre, lambda mu: (k1 * mu, k1, 0.0))


def check_exp_grid(
    xi,
    mu_min: float = 1.0,
    mu_max: float = 500.0,
    k1: float = 1.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Exponential-weight lower bound: resonance_indicator * e^(k1*mu) >= k2 > 0,
    on the exact minimum of each pi-strip around n*pi in [mu_min, mu_max];
    refuted for every xi at k1 = 0."""
    condition = _exp_weight_condition(resonance_indicator, _sin_derivatives, 0.0, k1)
    return _strip_check(
        "exp-grid", condition, xi, mu_min, mu_max, {"k1": k1}, k1 == 0.0, keep_trace
    )


def check_poly_grid(
    xi,
    eps: float = 1.0,
    mu_min: float = 1.0,
    mu_max: float = 500.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Polynomial-weight lower bound: resonance_indicator * mu^(1+eps) >= k > 0;
    refuted for every xi at eps < 3."""
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    if not mu_min > 0:
        raise ValueError("polynomial weight needs positive mu")
    power = 1.0 + eps
    condition = _Condition(
        resonance_indicator, _sin_derivatives, 0.0,
        lambda mu: (power * math.log(mu), power / mu, -power / (mu * mu)),
    )
    return _strip_check(
        "poly-grid", condition, xi, mu_min, mu_max, {"eps": eps}, power < 4.0, keep_trace
    )


def check_cos_grid(
    xi,
    mu_min: float = 1.0,
    mu_max: float = 500.0,
    k1: float = 1.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Cosine-variant exponential-weight lower bound (strip centres at (n + 1/2) pi).

    No weight is refuted for every xi here: an even-q rational satisfies it.
    """
    condition = _exp_weight_condition(cos_resonance_indicator, _cos_derivatives, 0.5, k1)
    return _strip_check(
        "cos-grid", condition, xi, mu_min, mu_max, {"k1": k1}, False, keep_trace
    )


def check_liouville_type(
    xi,
    phi: GrowthFunction,
    kappa: float,
    m_max: int,
    keep_trace: bool = False,
) -> ConditionReport:
    """Scan condition phi(m) * ||m x|| >= kappa for m <= m_max.

    x is the exact number xi settles on (settle), and each distance ||m x||
    to the nearest integer comes from its integers, rounded once.  The
    witness is the m achieving the infimum of the scanned products; on
    failure it therefore also violates the bound, by the largest margin.

    phi must be nondecreasing.  Then both the first minimiser and the first
    violation are strict records of ||m x||, and only those are evaluated:
    m = 1 and the convergent denominators q_k <= m_max of x (Lagrange).  As
    in a scan of every m, the first product that is nan (phi infinite where
    ||m x|| = 0, that is at a multiple of x's denominator) is the minimum.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    m_max = int(m_max)
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    position = settle(xi)
    exact = position.exact or position.value
    n, d = (_GOLDEN_60 if exact == "golden" else exact).as_integer_ratio()

    def distance(m: int) -> float:
        r = m * n % d
        return min(r, d - r) / d

    records = [1] + [q for _, q in expand(n, d, sys.maxsize, math.inf, math.inf)[1]
                     if 1 < q <= m_max]
    products = [(phi.evaluate(float(m)) * distance(m), m) for m in records]
    min_product, argmin = min(products)
    # phi is nondecreasing: bisect the multiples of d for the first infinite phi
    zeros = range(d, m_max + 1, d)
    k = bisect.bisect_left(zeros, math.inf, key=lambda m: phi.evaluate(float(m)))
    if k < len(zeros):
        min_product, argmin = math.nan, zeros[k]
    violation = next((m for product, m in products if product < kappa), None)

    trace = None
    if keep_trace:
        trace = _Rows(m_max, 2, lambda i: (float(i + 1), phi(i + 1) * distance(i + 1)))
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
    return ConditionReport(
        "liouville", position.value, verdict, float(argmin), constants, note=note, trace=trace
    )


# ----------------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------------


@dataclass
class ClassifySettings:
    depth: int = 40
    quotient_overflow: float = 1e12
    constant_type_bound: int = 20
    mu_min: float = 1.0
    mu_max: float = 500.0
    k1: float = 1.0
    poly_eps: float = 1.0


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
    Fraction, a decimal string, 'golden' or a Position).  The verdicts and
    the exp and poly checks read the exact number it settles on under
    settings.quotient_overflow (settle): it is rational when that number is
    a Fraction.  The checks evaluate at its double and keep their traces when
    keep_trace is set; settings.depth truncates only the reported expansion.
    """
    settings = settings or ClassifySettings()
    cf = expand_continued_fraction(xi, settings.depth, settings.quotient_overflow)
    position = settle(xi, settings.quotient_overflow)
    mu_range = settings.mu_min, settings.mu_max
    exp_report = check_exp_grid(position, *mu_range, settings.k1, keep_trace)
    poly_report = check_poly_grid(position, settings.poly_eps, *mu_range, keep_trace)
    is_rational = isinstance(position.exact, Fraction)
    constant_type = (
        not is_rational
        and len(cf.partial_quotients) > 1
        and cf.max_partial_quotient <= settings.constant_type_bound
    )
    return ActuatorClassification(
        xi=cf.value,
        is_rational=is_rational,
        strongly_stable=not is_rational,
        constant_type=constant_type,
        max_partial_quotient=cf.max_partial_quotient,
        continued_fraction=cf,
        exp_grid=exp_report,
        poly_grid=poly_report,
    )

"""Arithmetic quality of the actuator position.

Whether the damped point at xi in (0,1) stabilizes every finite-energy state,
and how fast, is controlled by how well xi is approximated by rationals.  This
module provides continued-fraction expansions, distance-to-nearest-integer
scans, and the grid/scan conditions that separate decay regimes.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

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

# (sqrt(5)-1)/2, the canonical constant-type actuator position
GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

# convergents of a double are meaningless once q_k*q_{k+1} ~ 1/eps
_PRECISION_BUDGET = 0.25 / np.finfo(float).eps

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
    """Distance from rho to the nearest integer, elementwise; range [0, 1/2]."""
    rho = np.asarray(rho, dtype=float)
    out = np.abs(rho - np.round(rho))
    return out if out.ndim else float(out)


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


@dataclass
class GrowthFunction:
    """Positive increasing weight m -> phi(m) used by the scan condition."""

    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, m):
        return self.evaluate(np.asarray(m, dtype=float))

    @staticmethod
    def identity() -> "GrowthFunction":
        return GrowthFunction("identity", lambda m: m)

    @staticmethod
    def power_log(alpha: float, eps: float) -> "GrowthFunction":
        def f(m):
            return m**alpha * np.log(np.maximum(m, 2.0)) ** (1.0 + eps)

        return GrowthFunction(f"power_log(alpha={alpha}, eps={eps})", f)

    @staticmethod
    def exponential(beta: float) -> "GrowthFunction":
        return GrowthFunction(f"exponential(beta={beta})", lambda m: np.exp(beta * m))

    @staticmethod
    def from_table(points: Sequence[float], values: Sequence[float]) -> "GrowthFunction":
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(values <= 0) or np.any(np.diff(values) < 0):
            raise ValueError("table must be positive and nondecreasing")
        return GrowthFunction(
            "table", lambda m: np.interp(m, points, values)
        )


# ----------------------------------------------------------------------------
# grid expressions and condition checks
# ----------------------------------------------------------------------------


def resonance_indicator(xi: float, mu):
    """sin^2(mu) + sin^2(xi*mu)*sin^2((1-xi)*mu), elementwise in mu.

    Vanishes exactly at the undamped resonances of a rational actuator
    position; equals the squared modulus of the characteristic function on
    the real axis.
    """
    mu = np.asarray(mu, dtype=float)
    out = np.sin(mu) ** 2 + (np.sin(xi * mu) * np.sin((1.0 - xi) * mu)) ** 2
    return out if out.ndim else float(out)


def cos_resonance_indicator(xi: float, mu):
    """cos^2(mu) + cos^2(xi*mu)*sin^2((1-xi)*mu), the cosine-family variant."""
    mu = np.asarray(mu, dtype=float)
    out = np.cos(mu) ** 2 + (np.cos(xi * mu) * np.sin((1.0 - xi) * mu)) ** 2
    return out if out.ndim else float(out)


@dataclass
class ConditionReport:
    """Outcome of one lower-bound condition check."""

    condition_id: str
    xi: float
    verdict: str  # "pass" | "fail"
    witness: float | None
    fitted_constants: dict
    note: str = ""
    trace: np.ndarray | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def default_mu_grid(mu_min: float = 1.0, mu_max: float = 500.0, step: float = 0.01):
    return np.arange(mu_min, mu_max + 0.5 * step, step)


def _tail_trend_check(
    condition_id: str,
    xi: float,
    mu_grid: np.ndarray,
    expression: np.ndarray,
    log_weight: np.ndarray,
    constants: dict,
    trend_factor: float,
    keep_trace: bool,
) -> ConditionReport:
    """Shared verdict logic: positive infimum that is not draining to zero.

    Works in log space so exponential weights cannot overflow.  The verdict
    fails on an exact resonance (expression at roundoff scale) or when the
    last-quartile infimum of the weighted expression dips more than
    trend_factor below the infimum over the earlier grid.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid.size == 0:
        raise ValueError("empty grid")
    with np.errstate(divide="ignore"):
        log_expr = np.where(
            expression > _RESONANCE_FLOOR, np.log(np.maximum(expression, 1e-300)), -np.inf
        )
    log_weighted = log_expr + log_weight
    i_min = int(np.argmin(log_weighted))
    log_k2 = float(log_weighted[i_min])
    with np.errstate(over="ignore"):
        k2 = float(np.exp(log_k2))
    constants = dict(constants)
    constants.update({"inf_weighted": k2, "log_inf_weighted": log_k2})

    trace = None
    if keep_trace:
        with np.errstate(over="ignore"):
            trace = np.column_stack([mu_grid, expression, np.exp(log_weighted)])

    witness = float(mu_grid[i_min])
    if not np.isfinite(log_k2):
        return ConditionReport(
            condition_id, xi, "fail", witness, constants,
            note="exact resonance on grid", trace=trace,
        )

    n_tail = mu_grid.size // 4
    if n_tail == 0 or mu_grid.size < 8:
        return ConditionReport(
            condition_id, xi, "pass", witness, constants,
            note="grid too short for a trend test", trace=trace,
        )
    head_min = float(np.min(log_weighted[:-n_tail]))
    tail_min = float(np.min(log_weighted[-n_tail:]))
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
    indicator: Callable,
    xi: float,
    mu_grid,
    k1: float,
    trend_factor: float,
    keep_trace: bool,
) -> ConditionReport:
    """indicator(xi, mu) * e^(k1*mu) >= k2 > 0 on the grid (the default one if None)."""
    if k1 < 0:
        raise ValueError("k1 must be nonnegative")
    mu_grid = default_mu_grid() if mu_grid is None else np.asarray(mu_grid, dtype=float)
    expr = indicator(xi, mu_grid)
    return _tail_trend_check(
        condition_id, xi, mu_grid, expr, k1 * mu_grid, {"k1": k1}, trend_factor, keep_trace
    )


def check_exp_grid(
    xi: float,
    mu_grid=None,
    k1: float = 1.0,
    trend_factor: float = 10.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Exponential-weight lower bound: resonance_indicator * e^(k1*mu) >= k2 > 0."""
    return _exp_weight_check(
        "exp-grid", resonance_indicator, xi, mu_grid, k1, trend_factor, keep_trace
    )


def check_poly_grid(
    xi: float,
    eps: float = 1.0,
    mu_grid=None,
    trend_factor: float = 10.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Polynomial-weight lower bound: resonance_indicator * mu^(1+eps) >= k > 0."""
    mu_grid = default_mu_grid() if mu_grid is None else np.asarray(mu_grid, dtype=float)
    if np.any(mu_grid <= 0):
        raise ValueError("polynomial weight needs positive mu")
    expr = resonance_indicator(xi, mu_grid)
    return _tail_trend_check(
        "poly-grid", xi, mu_grid, expr, (1.0 + eps) * np.log(mu_grid), {"eps": eps},
        trend_factor, keep_trace,
    )


def check_cos_grid(
    xi: float,
    mu_grid=None,
    k1: float = 1.0,
    trend_factor: float = 10.0,
    keep_trace: bool = False,
) -> ConditionReport:
    """Cosine-variant exponential-weight lower bound."""
    return _exp_weight_check(
        "cos-grid", cos_resonance_indicator, xi, mu_grid, k1, trend_factor, keep_trace
    )


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
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    m = np.arange(1, int(m_max) + 1, dtype=float)
    products = phi(m) * dist_nearest_integer(m * xi)
    trace = np.column_stack([m, products]) if keep_trace else None
    violations = np.nonzero(products < kappa)[0]
    constants = {
        "kappa": kappa,
        "phi": phi.kind,
        "min_product": float(np.min(products)),
        "argmin_m": int(m[np.argmin(products)]),
        "first_violation_m": float(m[violations[0]]) if violations.size else None,
    }
    if violations.size:
        return ConditionReport(
            "liouville", xi, "fail", float(m[np.argmin(products)]), constants,
            note=f"scanned m <= {int(m_max)}", trace=trace,
        )
    return ConditionReport(
        "liouville", xi, "pass", float(m[np.argmin(products)]), constants,
        note=f"scanned m <= {int(m_max)}; scan evidence only", trace=trace,
    )


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
    grid = default_mu_grid(settings.mu_min, settings.mu_max, settings.mu_step)
    if cf.is_rational and cf.convergents:
        # for p/q the indicator vanishes exactly at multiples of pi*q; put
        # those points on the grid so the check can witness the resonance
        q = cf.convergents[-1][1]
        resonances = np.pi * q * np.arange(1.0, 9.0)
        resonances = resonances[resonances <= settings.mu_max]
        if resonances.size:
            grid = np.sort(np.concatenate([grid, resonances]))
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

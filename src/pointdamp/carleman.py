"""Semiclassical Carleman machinery on a single subinterval.

Everything here lives on one side of the damped point: an interval [a,b], a
convex weight, the semiclassical operator P = d^2/dx^2 + 1/h^2, and its
conjugation

    P_w = -h^2 e^{phi/h} P e^{-phi/h} = -h^2 w'' + 2h phi' w' + h phi'' w - ((phi')^2 + 1) w.

The module verifies the operator algebra numerically (dual-route
conjugation, symmetric/antisymmetric split, the expanded-square identity
with all boundary terms) and sweeps the weighted lower-bound inequality to
estimate its constant, pointwise for any u or as Hermitian forms on the span
of a real basis.

Exponentials are always taken relative to a local reference value of the
weight so no admissible h can overflow; when e^{phi/h} spans more than the
double exponent range the conjugation route is evaluated on overlapping
rescaled windows (the identity being local, this is exact).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quadrature import derivative, simpson, simpson_weights

__all__ = [
    "WeightFunction",
    "WeightCheck",
    "SquareExpansionReport",
    "InequalitySweep",
    "ConstantEstimate",
    "default_left_weight",
    "default_right_weight",
    "validate_weight",
    "apply_helmholtz",
    "apply_conjugated_operator",
    "conjugation_route",
    "split_conjugated_operator",
    "ibp_residuals",
    "square_expansion_residual",
    "evaluate_carleman_inequality",
    "inequality_forms",
    "estimate_carleman_constant",
    "sample_basis",
    "random_coefficients",
    "random_test_function",
]

# largest exponent magnitude we allow inside one rescaled window
_EXP_WINDOW = 300.0
# points at which validate_weight samples the weight's slope and convexity
_WEIGHT_SAMPLES = 1001
# largest log-log slope of the sampled sup ratio in h still read as tame growth
_MAX_GROWTH_RATE = 4.0


@dataclass
class WeightFunction:
    """Carleman weight on [a,b] with derivatives through fourth order."""

    a: float
    b: float
    kind: str
    d0: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    d1: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    d2: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    d3: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    d4: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.a, self.b, n + 1)

    @staticmethod
    def shifted_quadratic(shift: float, interval: tuple[float, float]) -> "WeightFunction":
        """(x - shift)^2; convex, monotone on any interval not containing shift."""
        a, b = interval
        return WeightFunction(
            a=a,
            b=b,
            kind=f"shifted_quadratic(shift={shift})",
            d0=lambda x: (np.asarray(x, dtype=float) - shift) ** 2,
            d1=lambda x: 2.0 * (np.asarray(x, dtype=float) - shift),
            d2=lambda x: np.full(np.shape(x), 2.0),
            d3=lambda x: np.zeros(np.shape(x)),
            d4=lambda x: np.zeros(np.shape(x)),
        )

    @staticmethod
    def exponential(beta: float, interval: tuple[float, float]) -> "WeightFunction":
        """exp(beta x), amplitude 1; convex and monotone for beta != 0."""
        a, b = interval

        def deriv(order):
            return lambda x: beta**order * np.exp(beta * np.asarray(x, dtype=float))

        return WeightFunction(
            a=a, b=b, kind=f"exponential(beta={beta}, amplitude=1.0)",
            d0=deriv(0), d1=deriv(1), d2=deriv(2), d3=deriv(3), d4=deriv(4),
        )

    @staticmethod
    def polynomial(coeffs: Sequence[float], interval: tuple[float, float]) -> "WeightFunction":
        """Coefficients in increasing-degree order."""
        a, b = interval
        base = np.polynomial.Polynomial(list(coeffs))
        ds = [base.deriv(k) if k else base for k in range(5)]
        return WeightFunction(
            a=a, b=b, kind=f"polynomial(degree={len(list(coeffs)) - 1})",
            d0=ds[0], d1=ds[1], d2=ds[2], d3=ds[3], d4=ds[4],
        )


def default_left_weight(xi: float) -> WeightFunction:
    """(x+1)^2 on [0, xi]: increasing and convex, dominant at the damped point."""
    return WeightFunction.shifted_quadratic(-1.0, (0.0, xi))


def default_right_weight(xi: float) -> WeightFunction:
    """(x-2)^2 on [xi, 1]: decreasing and convex, dominant at the damped point."""
    return WeightFunction.shifted_quadratic(2.0, (xi, 1.0))


@dataclass
class WeightCheck:
    ok: bool
    violations: list[str]
    min_abs_slope: float
    min_convexity: float
    boundary_slope: float


def validate_weight(weight: WeightFunction, side: str) -> WeightCheck:
    """Check the admissibility assumptions of the weighted estimate on _WEIGHT_SAMPLES points.

    'left' needs phi' > 0 at the outer (Dirichlet) endpoint a; 'right' needs
    phi' < 0 at b.  Both need nonvanishing slope and strict convexity.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    x = weight.grid(_WEIGHT_SAMPLES - 1)
    slope = np.asarray(weight.d1(x), dtype=float)
    convexity = np.asarray(weight.d2(x), dtype=float)
    violations = []
    for name, values in (("slope", slope), ("convexity", convexity)):
        finite = np.isfinite(values)
        if not np.all(finite):  # a nan escapes the comparisons below
            violations.append(f"{name} is not finite near x={x[np.argmin(finite)]:.6g}")
    if np.min(np.abs(slope)) <= 0.0:
        violations.append(f"slope vanishes near x={x[np.argmin(np.abs(slope))]:.6g}")
    if np.min(convexity) <= 0.0:
        violations.append(f"convexity fails near x={x[np.argmin(convexity)]:.6g}")
    boundary_slope = float(slope[0] if side == "left" else slope[-1])
    if side == "left" and boundary_slope <= 0.0:
        violations.append("slope at the left endpoint must be positive")
    if side == "right" and boundary_slope >= 0.0:
        violations.append("slope at the right endpoint must be negative")
    return WeightCheck(
        ok=not violations,
        violations=violations,
        min_abs_slope=float(np.min(np.abs(slope))),
        min_convexity=float(np.min(convexity)),
        boundary_slope=boundary_slope,
    )


# ----------------------------------------------------------------------------
# second grid derivative (second order including one-sided ends; the first
# derivative is quadrature.derivative)
# ----------------------------------------------------------------------------


def _d2(w: np.ndarray, dx: float) -> np.ndarray:
    """Second derivative along the last axis."""
    out = np.empty_like(w, dtype=complex if np.iscomplexobj(w) else float)
    out[..., 1:-1] = (w[..., 2:] - 2.0 * w[..., 1:-1] + w[..., :-2]) / dx**2
    out[..., 0] = (2.0 * w[..., 0] - 5.0 * w[..., 1] + 4.0 * w[..., 2] - w[..., 3]) / dx**2
    out[..., -1] = (2.0 * w[..., -1] - 5.0 * w[..., -2] + 4.0 * w[..., -3] - w[..., -4]) / dx**2
    return out


def apply_helmholtz(u: np.ndarray, h: float, dx: float) -> np.ndarray:
    """P u = u'' + u/h^2 on a uniform grid."""
    if h <= 0 or dx <= 0:
        raise ValueError("h and dx must be positive")
    return _d2(np.asarray(u), dx) + np.asarray(u) / h**2


def apply_conjugated_operator(
    weight: WeightFunction, h: float, w: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Conjugated operator by its expanded formula (no exponentials involved)."""
    dx = float(x[1] - x[0])
    p1 = np.asarray(weight.d1(x), dtype=float)
    p2 = np.asarray(weight.d2(x), dtype=float)
    w = np.asarray(w)
    return (
        -(h**2) * _d2(w, dx) + 2.0 * h * p1 * derivative(w, dx) + h * p2 * w - (p1**2 + 1.0) * w
    )


def conjugation_route(
    weight: WeightFunction, h: float, w: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Conjugated operator computed literally as -h^2 e^{phi/h} P(e^{-phi/h} w).

    The weight is recentered on overlapping windows so the exponentials stay
    inside the double range for any h; results are stitched from window
    interiors where the stencils are exact.  Raises FloatingPointError when
    even a minimal window would overflow.
    """
    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0])
    phi = np.asarray(weight.d0(x), dtype=float)
    w = np.asarray(w, dtype=complex)
    n = x.size
    out = np.full(n, np.nan + 0j)
    margin = 2  # stencil half-width plus one
    start = 0
    while start < n:
        # widest window starting here whose recentred exponent stays bounded
        stop = start + 2 * margin + 1
        if stop > n:
            stop = n
            start = max(0, n - (2 * margin + 1))
        if stop < n:
            # spread[j] = ptp(phi[start:start + j + 1]) never decreases: grow the
            # window up to the first node that takes it past the bound
            tail = phi[start:]
            spread = np.maximum.accumulate(tail) - np.minimum.accumulate(tail)
            grown = start + int(np.searchsorted(spread, _EXP_WINDOW * h, side="right"))
            stop = min(n, max(stop, grown))
        window = slice(start, stop)
        if np.ptp(phi[window]) > 2.0 * _EXP_WINDOW * h:
            raise FloatingPointError(
                "weight varies too fast for the exponential route at this h; "
                "use the expanded formula"
            )
        center = 0.5 * (np.max(phi[window]) + np.min(phi[window]))
        scaled = np.exp(-(phi[window] - center) / h) * w[window]
        pv = apply_helmholtz(scaled, h, dx)
        result = -(h**2) * np.exp((phi[window] - center) / h) * pv
        lo = window.start + (margin if window.start > 0 else 0)
        hi = window.stop - (margin if window.stop < n else 0)
        out[lo:hi] = result[lo - window.start : hi - window.start]
        if window.stop >= n:
            break
        start = window.stop - 2 * margin
    return out


def split_conjugated_operator(
    weight: WeightFunction, h: float, w: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric and antisymmetric parts (P_w = sym + i * antisym).

    sym  = delta^2 w - ((phi')^2 + 1) w           (delta = -i h d/dx)
    anti = 2 phi' delta w - i h phi'' w
    """
    dx = float(x[1] - x[0])
    p1 = np.asarray(weight.d1(x), dtype=float)
    p2 = np.asarray(weight.d2(x), dtype=float)
    w = np.asarray(w, dtype=complex)
    sym = -(h**2) * _d2(w, dx) - (p1**2 + 1.0) * w
    anti = -1j * h * (2.0 * p1 * derivative(w, dx) + p2 * w)
    return sym, anti


def ibp_residuals(
    weight: WeightFunction,
    h: float,
    v: np.ndarray,
    w: np.ndarray,
    x: np.ndarray,
) -> tuple[float, float]:
    """Residuals of the two integration-by-parts transfer identities.

    First:   int v conj(Q2 w) = int (Q2 v) conj(w)
             + i h [v conj(delta w) + (delta v) conj(w)] evaluated b minus a.
    Second:  int v conj(Q1 w) = int (Q1 v) conj(w)
             + 2 i h [phi' v conj(w)] evaluated b minus a.

    Both residuals are normalized by the magnitude of the left side.
    """
    dx = float(x[1] - x[0])
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    q2w, q1w = split_conjugated_operator(weight, h, w, x)
    q2v, q1v = split_conjugated_operator(weight, h, v, x)
    dv = -1j * h * derivative(v, dx)
    dw = -1j * h * derivative(w, dx)
    p1 = np.asarray(weight.d1(x), dtype=float)

    lhs1 = simpson(v * np.conj(q2w), dx=dx)
    rhs1 = simpson(q2v * np.conj(w), dx=dx) + 1j * h * (
        (v[-1] * np.conj(dw[-1]) + dv[-1] * np.conj(w[-1]))
        - (v[0] * np.conj(dw[0]) + dv[0] * np.conj(w[0]))
    )
    lhs2 = simpson(v * np.conj(q1w), dx=dx)
    rhs2 = simpson(q1v * np.conj(w), dx=dx) + 2j * h * (
        p1[-1] * v[-1] * np.conj(w[-1]) - p1[0] * v[0] * np.conj(w[0])
    )
    s1 = abs(lhs1) + abs(rhs1) + 1e-300
    s2 = abs(lhs2) + abs(rhs2) + 1e-300
    return float(abs(lhs1 - rhs1) / s1), float(abs(lhs2 - rhs2) / s2)


@dataclass
class SquareExpansionReport:
    lhs: float
    rhs: float
    residual: float
    relative_residual: float
    boundary_reading: str


def square_expansion_residual(
    weight: WeightFunction,
    h: float,
    w: np.ndarray,
    x: np.ndarray,
    boundary_reading: str = "curvature",
) -> SquareExpansionReport:
    """Numeric check of the expanded square of the conjugated operator.

    int |P_w w|^2 is expanded into the square of the symmetric part, positive
    commutator volume terms, and boundary terms.  Two readings of the
    mixed boundary term are supported:

    * "curvature": coefficient 2 h^2 phi''(endpoint), the value produced by
      integrating the cross term by parts;
    * "plain": coefficient 2 h^2 (no curvature factor), as the expansion is
      sometimes displayed.

    The report carries both sides so a refinement study can measure which
    reading converges.
    """
    if boundary_reading not in ("curvature", "plain"):
        raise ValueError("boundary_reading must be 'curvature' or 'plain'")
    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0])
    w = np.asarray(w, dtype=complex)
    p1 = np.asarray(weight.d1(x), dtype=float)
    p2 = np.asarray(weight.d2(x), dtype=float)
    p3 = np.asarray(weight.d3(x), dtype=float)
    p4 = np.asarray(weight.d4(x), dtype=float)

    sym, anti = split_conjugated_operator(weight, h, w, x)
    pw = sym + 1j * anti
    dw = -1j * h * derivative(w, dx)

    lhs = float(simpson(np.abs(pw) ** 2, dx=dx).real)
    volume = (
        simpson(np.abs(sym) ** 2, dx=dx)
        + 4.0 * simpson(p1**2 * np.abs(dw) ** 2, dx=dx)
        + 4.0 * h * simpson(p2 * np.abs(dw) ** 2, dx=dx)
        + h**2 * simpson(p2**2 * np.abs(w) ** 2, dx=dx)
        + 4.0 * h * simpson(p2 * p1**2 * np.abs(w) ** 2, dx=dx)
        - h**3 * simpson(p4 * np.abs(w) ** 2, dx=dx)
        + 4.0 * h * simpson(p1 * p2 * (w * np.conj(dw)).imag, dx=dx)
    )

    def boundary(idx: int) -> float:
        curvature = p2[idx] if boundary_reading == "curvature" else 1.0
        return (
            -2.0 * h * p1[idx] * abs(dw[idx]) ** 2
            - 2.0 * h**2 * curvature * (w[idx] * np.conj(dw[idx])).imag
            - h * (2.0 * p1[idx] * (1.0 + p1[idx] ** 2) - h**2 * p3[idx]) * abs(w[idx]) ** 2
        )

    rhs = float(volume.real) + boundary(-1) - boundary(0)
    residual = abs(lhs - rhs)
    return SquareExpansionReport(
        lhs=lhs,
        rhs=rhs,
        residual=float(residual),
        relative_residual=float(residual / (abs(lhs) + abs(rhs) + 1e-300)),
        boundary_reading=boundary_reading,
    )


# ----------------------------------------------------------------------------
# the weighted inequality
# ----------------------------------------------------------------------------


@dataclass
class InequalitySweep:
    h: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray


def evaluate_carleman_inequality(
    weight: WeightFunction,
    u: np.ndarray,
    h_values,
    side: str = "left",
) -> InequalitySweep:
    """Evaluate both sides of the weighted observability inequality.

    With E = e^{2 phi/h} (computed relative to max phi so nothing
    overflows) and P = d^2/dx^2 + 1/h^2:

      LHS(h) = h int E|u|^2 + h^3 int E|u'|^2 + h^3 |u'(outer)|^2 E(outer)
      RHS(h) = h^4 int E|Pu|^2 + [h |u|^2 + h^3 |u'|^2] E  at the damped end

    'left' means the damped end is b and the outer (Dirichlet) end is a;
    'right' mirrors the roles.  u is one sample on the grid and must vanish
    at the outer end.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    u = np.asarray(u, dtype=complex)
    if u.ndim != 1:
        raise ValueError("u must be one sample, a 1-D array on the grid")
    x = weight.grid(u.size - 1)
    dx = float(x[1] - x[0])
    phi = np.asarray(weight.d0(x), dtype=float)
    phi_max = float(np.max(phi))
    outer, damped = (0, -1) if side == "left" else (-1, 0)
    if abs(u[outer]) > 1e-10 * max(float(np.max(np.abs(u))), 1e-300):
        raise ValueError("u must vanish at the outer (Dirichlet) endpoint")

    h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
    lhs_arr = np.empty(h_values.shape)
    rhs_arr = np.empty_like(lhs_arr)
    du = derivative(u, dx)
    d2u = _d2(u, dx)
    u_sq, du_sq = np.abs(u) ** 2, np.abs(du) ** 2
    exponent = 2.0 * (phi - phi_max)
    for i, h in enumerate(h_values):
        E = np.exp(exponent / h)
        pu_sq = np.abs(u / h**2 + d2u) ** 2
        int_u, int_du, int_pu = (simpson(E * sq, dx=dx) for sq in (u_sq, du_sq, pu_sq))
        lhs_arr[i] = h * int_u + h**3 * int_du + h**3 * du_sq[outer] * E[outer]
        rhs_arr[i] = h**4 * int_pu + (h * u_sq[damped] + h**3 * du_sq[damped]) * E[damped]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs_arr > 0.0, lhs_arr / rhs_arr, 0.0)
    return InequalitySweep(h=h_values, lhs=lhs_arr, rhs=rhs_arr, ratio=ratio)


@dataclass
class ConstantEstimate:
    c_hat: float
    h0_hat: float
    h: np.ndarray
    sup_ratio: np.ndarray
    sweep: InequalitySweep  # row i is the sweep of sample i, over the sorted h


def _gram(X: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j X[:, j] X[:, j]^T."""
    return (X * weights) @ X.T


def inequality_forms(
    weight: WeightFunction,
    basis: np.ndarray,
    h_values,
    side: str = "left",
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the weighted inequality as Hermitian forms on a real basis.

    basis is (m, n + 1), real, on weight.grid(n).  Returns L and R, each
    (len(h_values), m, m): for u = c @ basis with c = a + i b,

      LHS(h) = a.L[h].a + b.L[h].b,   RHS(h) = a.R[h].a + b.R[h].b,

    the quantities of evaluate_carleman_inequality up to rounding.  With q
    the Simpson weights, E as there and G(X) = (X * E q) @ X.T:

      L = h G(B) + h^3 G(B') + h^3 E(outer) b'_o b'_o^T
      R = h^4 G(P B) + E(damped) (h b_d b_d^T + h^3 b'_d b'_d^T)

    P B is formed for each h: expanding G(P B) into G(B)/h^4 plus cross terms
    cancels catastrophically near a resonance h^-2 = k^2.  Every row of the
    basis must vanish at the outer (Dirichlet) end.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    basis = np.asarray(basis, dtype=float)
    x = weight.grid(basis.shape[-1] - 1)
    dx = float(x[1] - x[0])
    phi = np.asarray(weight.d0(x), dtype=float)
    outer, damped = (0, -1) if side == "left" else (-1, 0)
    scale = np.maximum(np.max(np.abs(basis), axis=-1), 1e-300)
    if np.any(np.abs(basis[:, outer]) > 1e-10 * scale):
        raise ValueError("every basis row must vanish at the outer (Dirichlet) endpoint")

    h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
    m = basis.shape[0]
    lhs_forms = np.empty(h_values.shape + (m, m))
    rhs_forms = np.empty_like(lhs_forms)
    d_basis = derivative(basis, dx)
    d2_basis = _d2(basis, dx)
    q = simpson_weights(x.size, dx)
    exponent = 2.0 * (phi - float(np.max(phi)))
    b_d, db_o, db_d = basis[:, damped], d_basis[:, outer], d_basis[:, damped]
    for i, h in enumerate(h_values):
        E = np.exp(exponent / h)
        Eq = E * q
        p_basis = basis / h**2
        p_basis += d2_basis
        lhs_forms[i] = h * _gram(basis, Eq) + h**3 * _gram(d_basis, Eq)
        lhs_forms[i] += h**3 * E[outer] * np.outer(db_o, db_o)
        rhs_forms[i] = h**4 * _gram(p_basis, Eq)
        rhs_forms[i] += E[damped] * (h * np.outer(b_d, b_d) + h**3 * np.outer(db_d, db_d))
    return lhs_forms, rhs_forms


def estimate_carleman_constant(
    weight: WeightFunction,
    coefficients: np.ndarray,
    basis: np.ndarray,
    h_values,
    side: str = "left",
) -> ConstantEstimate:
    """Empirical constant of the weighted inequality over a sample family.

    coefficients is (n_samples, m) and basis (m, n + 1), as in
    inequality_forms.  Sample i is coefficients[i] @ basis, never formed on
    the grid: both sides come from the forms of inequality_forms, so the cost
    per h does not grow with the number of samples.  For each h the sup of
    LHS/RHS over the samples is taken.  h0_hat is the largest h up to which
    that sup grows tamely (log-log slope between consecutive grid points at
    most _MAX_GROWTH_RATE; genuine breakdown shows up as a much steeper
    jump), and c_hat is the sup over that range.
    """
    h_values = np.sort(np.atleast_1d(np.asarray(h_values, dtype=float)))
    lhs_forms, rhs_forms = inequality_forms(weight, basis, h_values, side)
    # at an extreme h a power of h overflows or underflows; inf or nan would read as ratio 0
    bad = h_values[~(np.isfinite(lhs_forms) & np.isfinite(rhs_forms)).all(axis=(1, 2))]
    if bad.size:
        raise FloatingPointError(f"the inequality's forms are not finite at h = {bad[0]:g}")
    # a + i b laid out as (a_0, b_0, a_1, b_1, ...), so one real form kron(F, I2)
    # gives a.F.a + b.F.b; einsum contracts it without a per-sample temporary
    parts = np.ascontiguousarray(coefficients, dtype=complex).view(float)
    pair = np.eye(2)
    lhs = np.einsum("si,hij,sj->sh", parts, np.kron(lhs_forms, pair), parts)
    rhs = np.einsum("si,hij,sj->sh", parts, np.kron(rhs_forms, pair), parts)
    ratio = np.zeros_like(lhs)
    np.divide(lhs, rhs, out=ratio, where=rhs > 0.0)
    sup_ratio = np.max(ratio, axis=0, initial=0.0)
    cut = h_values.size
    for k in range(1, h_values.size):
        prev, cur = sup_ratio[k - 1], sup_ratio[k]
        if prev <= 0.0 or cur <= 0.0:
            continue
        slope = math.log(cur / prev) / math.log(h_values[k] / h_values[k - 1])
        if slope > _MAX_GROWTH_RATE:
            cut = k
            break
    c_hat = float(np.max(sup_ratio[:cut])) if cut else 0.0
    h0_hat = float(h_values[cut - 1]) if cut else 0.0
    return ConstantEstimate(
        c_hat=c_hat,
        h0_hat=h0_hat,
        h=h_values,
        sup_ratio=sup_ratio,
        sweep=InequalitySweep(h=h_values, lhs=lhs, rhs=rhs, ratio=ratio),
    )


@functools.lru_cache(maxsize=4)
def sample_basis(
    interval: tuple[float, float], n: int, n_modes: int, pin_left: bool, pin_right: bool
) -> np.ndarray:
    """Read-only (n_modes, n + 1) real basis of random_test_function, shared by its calls."""
    a, b = interval
    x = np.linspace(a, b, n + 1)
    s = (x - a) / (b - a)
    k = np.arange(1, n_modes + 1)
    # incommensurate frequencies keep value and slope generic at free ends
    if pin_left and pin_right:
        basis = np.sin(np.outer(k, np.pi * s))
    elif pin_left:
        basis = np.sin(np.outer((k + 0.37) * np.pi, s))
    elif pin_right:
        basis = np.sin(np.outer((k + 0.37) * np.pi, 1.0 - s))
    else:
        basis = np.cos(np.outer((k + 0.37) * np.pi, s) + 0.21)
    basis.flags.writeable = False
    return basis


def random_coefficients(rng: np.random.Generator, n_modes: int = 8) -> np.ndarray:
    """Complex coefficients of one random_test_function on sample_basis, from
    the same draws: standard normal real and imaginary parts, mode k scaled by 1/k."""
    k = np.arange(1, n_modes + 1)
    return (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / k


def random_test_function(
    interval: tuple[float, float],
    n: int,
    rng: np.random.Generator,
    n_modes: int = 8,
    pin_left: bool = False,
    pin_right: bool = False,
) -> np.ndarray:
    """Smooth random complex function on a uniform grid, optionally pinned to
    zero at an endpoint (quarter-wave sines keep the other endpoint free)."""
    coeff = random_coefficients(rng, n_modes)
    return coeff @ sample_basis(tuple(interval), n, n_modes, pin_left, pin_right)

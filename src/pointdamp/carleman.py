"""Semiclassical Carleman machinery on a single subinterval.

Everything here lives on one side of the damped point: an interval [a,b], a
convex weight, the semiclassical operator P = d^2/dx^2 + 1/h^2, and its
conjugation

    P_w = -h^2 e^{phi/h} P e^{-phi/h} = -h^2 w'' + 2h phi' w' + h phi'' w - ((phi')^2 + 1) w.

The module verifies the operator algebra numerically (dual-route
conjugation, symmetric/antisymmetric split, the expanded-square identity
with all boundary terms) and evaluates the weighted inequality, stated at
evaluate_carleman_inequality (its outer term carries no factor phi'), for
one u or as exact Gauss-Legendre forms on the span of Legendre rows of the
conjugated variable w = e^{(phi - max phi)/h} u, in which no exponential
appears.  The constant on that span is the top eigenvalue of their pencil.

Exponentials are always taken relative to a local reference value of the
weight so no admissible h can overflow; when e^{phi/h} spans more than the
double exponent range the conjugation route is evaluated on overlapping
rescaled windows (the identity being local, this is exact).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quadrature import derivative, simpson

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
]

# largest exponent magnitude we allow inside one rescaled window
_EXP_WINDOW = 300.0
# points at which validate_weight samples the weight's slope and convexity
_WEIGHT_SAMPLES = 1001
# inequality_forms doubles its n_modes + 3 Gauss nodes at most this often
_NODE_DOUBLINGS = 6


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
    return WeightCheck(ok=not violations, violations=violations)


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


def square_expansion_residual(
    weight: WeightFunction,
    h: float,
    w: np.ndarray,
    x: np.ndarray,
) -> tuple[SquareExpansionReport, SquareExpansionReport]:
    """Numeric check of the expanded square of the conjugated operator.

    int |P_w w|^2 is expanded into the square of the symmetric part, positive
    commutator volume terms, and boundary terms.  Returns the reports of the
    two readings of the mixed boundary term, (curvature, plain):

    * curvature: coefficient 2 h^2 phi''(endpoint), the value produced by
      integrating the cross term by parts;
    * plain: coefficient 2 h^2 (no curvature factor), as the expansion is
      sometimes displayed.

    The readings share the left side and the volume terms, computed once.
    Each report carries both sides so a refinement study can measure which
    reading converges.
    """
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

    def boundary(idx: int, curvature: float) -> float:
        return (
            -2.0 * h * p1[idx] * abs(dw[idx]) ** 2
            - 2.0 * h**2 * curvature * (w[idx] * np.conj(dw[idx])).imag
            - h * (2.0 * p1[idx] * (1.0 + p1[idx] ** 2) - h**2 * p3[idx]) * abs(w[idx]) ** 2
        )

    def reading(curvature_left: float, curvature_right: float) -> SquareExpansionReport:
        rhs = float(volume.real) + boundary(-1, curvature_right) - boundary(0, curvature_left)
        residual = abs(lhs - rhs)
        return SquareExpansionReport(
            lhs=lhs,
            rhs=rhs,
            residual=float(residual),
            relative_residual=float(residual / (abs(lhs) + abs(rhs) + 1e-300)),
        )

    return reading(p2[0], p2[-1]), reading(1.0, 1.0)


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
    c_hat: float  # the largest span maximum over the h grid
    h: np.ndarray
    sup_ratio: np.ndarray  # the maximum of LHS/RHS over the span, per sorted h
    sup_ratio_half_modes: np.ndarray  # the same over the span of the first m // 2 rows
    outer_share: np.ndarray  # the outer boundary term's share of the maximiser's LHS
    coefficients: np.ndarray  # (h, m) real maximiser per h, scaled to RHS = 1


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes on [-1, 1], increasing, and their weights
    2 / ((1 - s^2) P_n'(s)^2), by Newton's method on the recurrence for P_n from
    the asymptotic nodes cos(pi (j - 1/4) / (n + 1/2))."""
    s = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        low, high = 1.0, s  # P_{k-1} and P_k, up to k = n
        for k in range(1, n):
            low, high = high, ((2 * k + 1) * s * high - k * low) / (k + 1)
        slope = n * (low - s * high) / (1.0 - s * s)
        step = high / slope
        s = s - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    return s, 2.0 / ((1.0 - s * s) * slope**2)


def _gauss_forms(
    weight: WeightFunction, n_modes: int, h_values: np.ndarray, side: str, nodes: int
) -> np.ndarray:
    """inequality_forms' L and R, stacked, by the Gauss-Legendre rule on the given nodes."""
    s, q = _gauss_legendre(nodes)
    half = 0.5 * (weight.b - weight.a)
    s = np.append(s, [-1.0, 1.0])  # the nodes, then the ends a and b
    x = weight.a + half * (s + 1.0)
    outer, damped = (-2, -1) if side == "left" else (-1, -2)
    # P_k, P_k' and P_k'' by (k + 1) P_{k+1} = (2k + 1) s P_k - k P_{k-1} and,
    # differentiated, P_{k+1}^(d) = P_{k-1}^(d) + (2k + 1) P_k^(d - 1)
    legendre = np.zeros((3, n_modes + 2, s.size))
    legendre[0, 0], legendre[0, 1], legendre[1, 1] = 1.0, s, 1.0
    for k in range(1, n_modes):
        legendre[0, k + 1] = ((2 * k + 1) * s * legendre[0, k] - k * legendre[0, k - 1]) / (k + 1)
        legendre[1:, k + 1] = legendre[1:, k - 1] + (2 * k + 1) * legendre[:2, k]
    p, dp, d2p = legendre[:, :n_modes]
    r = x - x[outer]  # the rows w_k = (x - outer) P_k(s) and their x-derivatives
    basis, d_basis, d2_basis = r * p, p + r * dp / half, (2.0 * dp + r * d2p / half) / half
    p1, p2 = np.asarray(weight.d1(x), dtype=float), np.asarray(weight.d2(x), dtype=float)
    q = q * half

    def gram(X):  # sum_j q_j X[:, j] X[:, j]^T over the nodes
        return (X[:, :nodes] * q) @ X[:, :nodes].T

    forms = np.empty((2,) + h_values.shape + (n_modes, n_modes))
    gram_basis = gram(basis)
    # P_w B = h (2 phi' B' + phi'' B - h B'') - (phi'^2 + 1) B
    first_order = 2.0 * p1 * d_basis + p2 * basis
    zeroth_order = (p1**2 + 1.0) * basis
    b_d, db_o = basis[:, damped], d_basis[:, outer]
    for i, h in enumerate(h_values):
        s_basis = h * d_basis - p1 * basis
        s_d = s_basis[:, damped]
        forms[0, i] = h * (gram_basis + gram(s_basis)) + h**3 * np.outer(db_o, db_o)
        forms[1, i] = (gram(h * (first_order - h * d2_basis) - zeroth_order)
                       + h * (np.outer(b_d, b_d) + np.outer(s_d, s_d)))
    return forms


def inequality_forms(
    weight: WeightFunction,
    n_modes: int,
    h_values,
    side: str = "left",
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the weighted inequality as Hermitian forms on n_modes rows of w.

    Row k is w_k = (x - outer) P_k(s), P_k the Legendre polynomial and s
    mapping [weight.a, weight.b] onto [-1, 1], in the conjugated variable
    w = e^{(phi - max phi)/h} u.  Returns L and R, each (len(h_values),
    n_modes, n_modes): for w = c @ rows with c = a + i b, the sides of
    evaluate_carleman_inequality for that u are a.L[h].a + b.L[h].b and
    a.R[h].a + b.R[h].b.  With G(X) the Gauss-Legendre sum of X X^T,
    S = h B' - phi' B and P_w B the conjugated operator applied row by row:

      L = h G(B) + h G(S) + h^3 b'_o b'_o^T
      R = G(P_w B) + h (b_d b_d^T + s_d s_d^T)

    The rule starts at n_modes + 3 nodes, exact for a quadratic weight, and
    doubles them until no form moves by more than 1e-12 of its largest
    entry, or by more than rounding can when that is larger.  Forms that do
    not settle in _NODE_DOUBLINGS doublings, or are not finite, raise
    FloatingPointError.  P_w B is formed for each h: expanding G(P_w B) in
    powers of h cancels catastrophically near a resonance.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
    # Markov's inequality bounds a degree-D integrand's slope by D^2 times its
    # size, so nodes rounded by eps move the sums by up to D^2 eps of it
    tolerance = max(1e-12, (2 * n_modes + 4) ** 2 * np.finfo(float).eps)
    nodes, forms = n_modes + 3, None
    while True:
        finer = _gauss_forms(weight, n_modes, h_values, side, nodes)
        # at an extreme h a power of h overflows; inf or nan would read as ratio 0
        bad = h_values[~np.isfinite(finer).all(axis=(0, 2, 3))]
        if bad.size:
            raise FloatingPointError(f"the inequality's forms are not finite at h = {bad[0]:g}")
        scale = np.max(np.abs(finer), axis=(2, 3), initial=0.0)
        if forms is not None and np.all(
                np.max(np.abs(finer - forms), axis=(2, 3), initial=0.0) <= tolerance * scale):
            return finer[0], finer[1]
        if nodes == (n_modes + 3) << _NODE_DOUBLINGS:
            raise FloatingPointError(f"the inequality's forms did not settle on {nodes} nodes")
        forms, nodes = finer, 2 * nodes


def _span_maximum(lhs_form: np.ndarray, rhs_form: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue of the pencil (L, R) and its eigenvector, scaled to RHS = 1.

    The Cholesky factor R = C C^T makes the pencil the symmetric eigenproblem
    of C^-1 L C^-T.  A zero R (a null or empty span) gives 0; an R that is
    not positive definite raises numpy.linalg.LinAlgError.
    """
    if not rhs_form.any():
        return 0.0, np.zeros(rhs_form.shape[0])
    factor = np.linalg.cholesky(rhs_form)
    half = np.linalg.solve(factor, lhs_form)  # C^-1 L
    top, vectors = np.linalg.eigh(np.linalg.solve(factor, half.T))
    return float(top[-1]), np.linalg.solve(factor.T, vectors[:, -1])


def estimate_carleman_constant(
    weight: WeightFunction,
    n_modes: int,
    h_values,
    side: str = "left",
) -> ConstantEstimate:
    """Constant of the weighted inequality over the span of inequality_forms' n_modes rows.

    A complex coefficient vector a + i b gives a ratio between those of a and
    b, so the largest LHS/RHS at each h is the top eigenvalue of the real
    pencil (L_h, R_h); R_h is positive definite (0 rows give 0).  The maximum
    over the first n_modes // 2 rows comes from the leading blocks (0 for one
    row), and the outer share is h^3 (b'_o . c)^2 / LHS at the maximiser c,
    with b'_o = P_k(-1) = (-1)^k on the left and P_k(1) = 1 on the right.
    c_hat is the largest maximum over h_values.
    """
    h_values = np.sort(np.atleast_1d(np.asarray(h_values, dtype=float)))
    lhs_forms, rhs_forms = inequality_forms(weight, n_modes, h_values, side)
    sup_ratio = np.zeros(h_values.size)
    coefficients = np.zeros(lhs_forms.shape[:2])
    for i, (h, lhs_form, rhs_form) in enumerate(zip(h_values, lhs_forms, rhs_forms)):
        try:
            sup_ratio[i], coefficients[i] = _span_maximum(lhs_form, rhs_form)
        except np.linalg.LinAlgError:
            raise FloatingPointError(f"the right-hand form is singular at h = {h:g}") from None
    # leading blocks of positive definite forms are positive definite
    half = n_modes // 2
    half_modes = [_span_maximum(lhs[:half, :half], rhs[:half, :half])[0]
                  for lhs, rhs in zip(lhs_forms, rhs_forms)]
    outer_slope = (-1.0) ** np.arange(n_modes) if side == "left" else np.ones(n_modes)
    outer_term = h_values**3 * (coefficients @ outer_slope) ** 2
    return ConstantEstimate(
        c_hat=float(np.max(sup_ratio, initial=0.0)),
        h=h_values,
        sup_ratio=sup_ratio,
        sup_ratio_half_modes=np.array(half_modes),
        outer_share=np.divide(outer_term, sup_ratio, out=np.zeros_like(sup_ratio),
                              where=sup_ratio > 0.0),
        coefficients=coefficients,
    )


@functools.lru_cache(maxsize=4)
def sample_basis(interval: tuple[float, float], n: int, n_modes: int) -> np.ndarray:
    """Read-only (n_modes, n + 1) real basis on a uniform grid, shared by its calls.

    Row k - 1 is the k-th mode, a shifted cosine free at both ends: the
    incommensurate frequencies keep its value and slope generic there.
    """
    a, b = interval
    s = (np.linspace(a, b, n + 1) - a) / (b - a)
    k = np.arange(1, n_modes + 1)
    basis = np.cos(np.outer((k + 0.37) * np.pi, s) + 0.21)
    basis.flags.writeable = False
    return basis

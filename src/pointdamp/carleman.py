"""Semiclassical Carleman machinery on a single subinterval.

Everything here lives on one side of the damped point: an interval [a,b], a
convex weight, the semiclassical operator P = d^2/dx^2 + 1/h^2, and its
conjugation

    P_w = -h^2 e^{phi/h} P e^{-phi/h} = -h^2 w'' + 2h phi' w' + h phi'' w - ((phi')^2 + 1) w.

The module verifies the operator algebra numerically: the dual-route
conjugation on a uniform grid, at second order, and to rounding on Legendre
series at Gauss-Legendre nodes the symmetric/antisymmetric split, the
integration-by-parts identities and the expanded square with all boundary
terms.  It evaluates the weighted inequality, stated at
evaluate_carleman_inequality (its outer term carries no factor phi'), for one
u on the grid or as exact Gauss-Legendre forms on the span of Legendre rows of
the conjugated variable w = e^{(phi - max phi)/h} u, in which no exponential
appears.  The constant on that span is the top eigenvalue of their pencil.

Exponentials are taken relative to a reference value of the weight: the
inequality's to max phi, so none overflows, and the conjugation route's to
phi at each node, over at most three cells; one that overflows raises.
"""

from __future__ import annotations

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
# the dual route's grid and its second derivative (second order including
# one-sided ends; the first derivative is quadrature.derivative)
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

    Node j recentres the weight at phi_j: its stencil (_d2's) reads each
    neighbour k as e^{(phi_j - phi_k)/h} w_k, so no exponent spans more than
    the three cells of the one-sided ends.  Raises FloatingPointError where
    an exponential overflows.
    """
    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0])
    phi = np.asarray(weight.d0(x), dtype=float)
    w = np.asarray(w, dtype=complex)

    def seen(j, k):  # w_k as node j's stencil reads it
        return np.exp((phi[j] - phi[k]) / h) * w[k]

    d2 = np.empty_like(w)
    inner = slice(1, -1)
    with np.errstate(over="raise"):
        d2[inner] = seen(inner, slice(2, None)) - 2.0 * w[inner] + seen(inner, slice(None, -2))
        for end, stencil in ((0, slice(1, 4)), (-1, slice(-2, -5, -1))):
            d2[end] = 2.0 * w[end] + np.array([-5.0, 4.0, -1.0]) @ seen(end, stencil)
    return -(h**2) * (d2 / dx**2 + w / h**2)


def sample_basis(interval: tuple[float, float], n: int, n_modes: int) -> np.ndarray:
    """(n_modes, n + 1) real basis on a uniform grid.

    Row k - 1 is the k-th mode, a shifted cosine free at both ends: the
    incommensurate frequencies keep its value and slope generic there.
    """
    a, b = interval
    s = (np.linspace(a, b, n + 1) - a) / (b - a)
    k = np.arange(1, n_modes + 1)
    return np.cos(np.outer((k + 0.37) * np.pi, s) + 0.21)


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
    nodes: int  # the Gauss-Legendre nodes on which the forms settled


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


def _legendre_rule(weight: WeightFunction, nodes: int, count: int):
    """(s, x, q, half, legendre): s in [-1, 1] and x in [a, b] at the nodes of
    the Gauss-Legendre rule and then at the ends a and b, the rule's weights on
    [a, b], half the length of [a, b], and P_k, P_k' and P_k'' at s for
    k < count, (3, count, s.size), by
    (k + 1) P_{k+1} = (2k + 1) s P_k - k P_{k-1} and, differentiated,
    P_{k+1}^(d) = P_{k-1}^(d) + (2k + 1) P_k^(d - 1)."""
    s, q = _gauss_legendre(nodes)
    half = 0.5 * (weight.b - weight.a)
    s = np.append(s, [-1.0, 1.0])
    legendre = np.zeros((3, count + 2, s.size))
    legendre[0, 0], legendre[0, 1], legendre[1, 1] = 1.0, s, 1.0
    for k in range(1, count):
        legendre[0, k + 1] = ((2 * k + 1) * s * legendre[0, k] - k * legendre[0, k - 1]) / (k + 1)
        legendre[1:, k + 1] = legendre[1:, k - 1] + (2 * k + 1) * legendre[:2, k]
    return s, weight.a + half * (s + 1.0), q * half, half, legendre[:, :count]


def _gauss_forms(
    weight: WeightFunction, n_modes: int, h_values: np.ndarray, side: str, nodes: int
) -> np.ndarray:
    """inequality_forms' L and R, stacked, by the Gauss-Legendre rule on the given nodes."""
    s, x, q, half, (p, dp, d2p) = _legendre_rule(weight, nodes, n_modes)
    outer, damped = (-2, -1) if side == "left" else (-1, -2)
    # the rows w_k = (x - outer) P_k(s) and their x-derivatives; the offset is
    # taken in s, as x - x[outer] cancels when the side is short
    r = half * (s - s[outer])
    basis, d_basis, d2_basis = r * p, p + r * dp / half, (2.0 * dp + r * d2p / half) / half
    p1, p2 = np.asarray(weight.d1(x), dtype=float), np.asarray(weight.d2(x), dtype=float)

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
    forms, _ = _settled_forms(weight, n_modes, h_values, side)
    return forms[0], forms[1]


def _settled_forms(
    weight: WeightFunction, n_modes: int, h_values, side: str
) -> tuple[np.ndarray, int]:
    """inequality_forms' L and R, stacked, and the node count on which they settled."""
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
            return finer, nodes
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
    c_hat is the largest maximum over h_values, and nodes the Gauss-Legendre
    node count on which the forms settled.
    """
    h_values = np.sort(np.atleast_1d(np.asarray(h_values, dtype=float)))
    (lhs_forms, rhs_forms), nodes = _settled_forms(weight, n_modes, h_values, side)
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
        nodes=nodes,
    )


# ----------------------------------------------------------------------------
# the operator identities on Gauss-Legendre nodes
# ----------------------------------------------------------------------------


def _series(weight: WeightFunction, coefficients, nodes: int):
    """(x, q, w): x and q of _legendre_rule, and (w, w', w'') at x, exact, of
    w = sum_k c_k P_{k-1}(s) for each row c of the coefficients."""
    _, x, q, half, legendre = _legendre_rule(weight, nodes, np.shape(coefficients)[-1])
    return x, q, np.asarray(coefficients) @ (legendre / half ** np.arange(3.0)[:, None, None])


def split_conjugated_operator(
    weight: WeightFunction, h: float, w: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric and antisymmetric parts (P_w = sym + i * antisym) at the points
    x, from w = (w, w', w'') there.

    sym  = delta^2 w - ((phi')^2 + 1) w           (delta = -i h d/dx)
    anti = 2 phi' delta w - i h phi'' w
    """
    p1 = np.asarray(weight.d1(x), dtype=float)
    p2 = np.asarray(weight.d2(x), dtype=float)
    sym = -(h**2) * w[2] - (p1**2 + 1.0) * w[0]
    anti = -1j * h * (2.0 * p1 * w[1] + p2 * w[0])
    return sym, anti


def ibp_residuals(
    weight: WeightFunction, h: float, v_coefficients, w_coefficients, nodes: int
) -> tuple[float, float]:
    """Residuals of the two integration-by-parts transfer identities.

    First:   int v conj(Q2 w) = int (Q2 v) conj(w)
             + i h [v conj(delta w) + (delta v) conj(w)] evaluated b minus a.
    Second:  int v conj(Q1 w) = int (Q1 v) conj(w)
             + 2 i h [phi' v conj(w)] evaluated b minus a.

    v = sum_k v_k P_{k-1}(s) and w likewise, integrated by the Gauss-Legendre
    rule on the given nodes.  Both residuals are normalized by the two sides.
    """
    x, q, vw = _series(weight, [v_coefficients, w_coefficients], nodes)
    q2, q1 = split_conjugated_operator(weight, h, vw, x)  # rows v and w
    (v, w), (dv, dw) = vw[0], -1j * h * vw[1]
    p1 = np.asarray(weight.d1(x), dtype=float)
    lhs = q @ (v * np.conj([q2[1], q1[1]]))[:, :-2].T
    rhs = q @ (np.array([q2[0], q1[0]]) * np.conj(w))[:, :-2].T
    ends = np.array([1j * h * (v * np.conj(dw) + dv * np.conj(w)), 2j * h * p1 * v * np.conj(w)])
    rhs = rhs + ends[:, -1] - ends[:, -2]
    residual = np.abs(lhs - rhs) / (np.abs(lhs) + np.abs(rhs) + 1e-300)
    return float(residual[0]), float(residual[1])


@dataclass
class SquareExpansionReport:
    lhs: float
    rhs: float
    relative_residual: float
    volume: np.ndarray  # the seven volume integrals that rhs sums


def square_expansion_residual(
    weight: WeightFunction, h: float, coefficients, nodes: int
) -> tuple[SquareExpansionReport, SquareExpansionReport]:
    """Check of the expanded square of the conjugated operator on w = sum_k c_k P_{k-1}(s).

    int |P_w w|^2 is expanded into the square of the symmetric part, positive
    commutator volume terms, and boundary terms.  Returns the reports of the
    two readings of the mixed boundary term, (curvature, plain):

    * curvature: coefficient 2 h^2 phi''(endpoint), the value produced by
      integrating the cross term by parts;
    * plain: coefficient 2 h^2 (no curvature factor), as the expansion is
      sometimes displayed.

    The Gauss-Legendre rule on the given nodes is exact for a quadratic weight
    from n_modes + 2 nodes on, where the curvature reading's residual is
    rounding.  The readings share the left side and the volume terms.
    """
    x, q, w = _series(weight, coefficients, nodes)
    sym, anti = split_conjugated_operator(weight, h, w, x)
    dw, w = -1j * h * w[1], w[0]
    p1, p2, p3, p4 = (np.asarray(d(x), dtype=float)
                      for d in (weight.d1, weight.d2, weight.d3, weight.d4))
    w_sq, dw_sq, mixed = np.abs(w) ** 2, np.abs(dw) ** 2, (w * np.conj(dw)).imag
    lhs = float(q @ np.abs(sym + 1j * anti)[:-2] ** 2)
    volume = np.array([
        np.abs(sym) ** 2,
        4.0 * p1**2 * dw_sq,
        4.0 * h * p2 * dw_sq,
        h**2 * p2**2 * w_sq,
        4.0 * h * p2 * p1**2 * w_sq,
        -(h**3) * p4 * w_sq,
        4.0 * h * p1 * p2 * mixed,
    ])[:, :-2] @ q
    # the boundary terms at a and b, but for the mixed one's curvature factor
    ends = (-2.0 * h * p1 * dw_sq - h * (2.0 * p1 * (1.0 + p1**2) - h**2 * p3) * w_sq)[-2:]
    reports = []
    for curvature in (p2[-2:], 1.0):
        boundary = ends - 2.0 * h**2 * curvature * mixed[-2:]
        rhs = float(np.sum(volume) + boundary[1] - boundary[0])
        reports.append(SquareExpansionReport(
            lhs, rhs, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300), volume))
    return reports[0], reports[1]

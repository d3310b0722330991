"""Independent oracles used by the test suite.

Nothing here reuses the closed-form solution path from the package: the
boundary value problem is solved by a fourth-order finite-difference
(Numerov) scheme, and the interface coefficients are recovered from the
continuity/jump conditions via adaptive quadrature and a direct 2x2
linear solve.  Agreement between these and the package is therefore a
genuine cross-check, not a tautology.

The interface identity is checked on the package's solution arrays: the
pairing of Phi with u, integrated by parts, is taken by Simpson quadrature
and compared with the boundary and interface terms, so a solve that breaks
the jump condition or the equation leaves a residual.

The conjugation-route reference shares the package's stencil but grows each
exponential window one node at a time, recomputing the weight's spread at
every step, where the package reads window ends off running extrema.

The operator identities (the split, integration by parts, the expanded
square), which the package sums on Gauss-Legendre nodes, are referenced two
ways: by finite differences and Simpson's rule on a uniform grid, converging
at second order (the grid_* functions), and exactly, in numpy.polynomial's
Legendre series algebra (exact_identity_terms).

The random test functions are seeded combinations of the package's sample
basis, or of pinned sines.  The Carleman constant on a span is the top
eigenvalue of a pencil; no draw from the span may exceed it.  The sides of
the weighted inequality are evaluated for one function w of the conjugated
variable at a time, where the package assembles them as forms on its
Legendre rows by one Gauss rule: exactly, by numpy.polynomial's Legendre
series algebra and antiderivatives, or by composite Gauss on many panels.

The diophantine checks are referenced by full scans.  Each pi-strip's
minimum is found by a dense scan of the strip, where the package refines the
sign changes of a derivative; the 0.01-grid check the package once ran is
kept as the value a strip minimum may never exceed; and the Liouville scan
evaluates every m, where the package evaluates only the records.  The
continued fraction of a double is referenced by Fraction arithmetic on its
complete quotients, where the package runs Euclid on its integer pair.

The simulator is referenced by its own scheme marched node by node in long
double, by the Thomas algorithm, where the package marches modal blocks in
float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from numpy.polynomial import Legendre
from scipy.integrate import quad
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from pointdamp.carleman import SquareExpansionReport, _d2, apply_helmholtz, sample_basis
from pointdamp.diophantine import (
    _GOLDEN_60, ConditionReport, GrowthFunction, default_mu_grid, settle,
)
from pointdamp.frequency import ForcingData, ResolventSolution, assemble_phi
from pointdamp.quadrature import derivative, simpson

# one-sided 5-point first-derivative stencils, O(h^4)
_BACKWARD5 = np.array([25.0, -48.0, 36.0, -16.0, 3.0]) / 12.0
_FORWARD5 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


def numerov_interface_solve(
    xi: float,
    mu: float,
    x1: np.ndarray,
    phi1: np.ndarray,
    x2: np.ndarray,
    phi2: np.ndarray,
    f1_at_xi: complex,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve u'' + mu^2 u = phi on [0, xi] and [xi, 1] with u(0)=u(1)=0,
    continuity at xi and derivative jump u'(xi+) - u'(xi-) = f1(xi) + i mu u(xi).

    Interior rows use the Numerov scheme (fourth order on uniform grids);
    the jump row uses fourth-order one-sided derivative stencils.  Both
    sides need at least five nodes.
    """
    n1 = x1.size - 1
    n2 = x2.size - 1
    if n1 < 4 or n2 < 4:
        raise ValueError("need at least five nodes per side")
    h1 = (x1[-1] - x1[0]) / n1
    h2 = (x2[-1] - x2[0]) / n2
    m = n1
    n_tot = n1 + n2 + 1
    phi = np.concatenate([phi1.astype(complex), phi2.astype(complex)[1:]])

    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    rhs = np.zeros(n_tot, dtype=complex)

    def put(r: int, c: int, v: complex) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    put(0, 0, 1.0)
    put(n_tot - 1, n_tot - 1, 1.0)

    for side_start, side_stop, h in ((1, m, h1), (m + 1, n_tot - 1, h2)):
        sigma = (mu * h) ** 2 / 12.0
        for j in range(side_start, side_stop):
            put(j, j - 1, 1.0 + sigma)
            put(j, j, -(2.0 - 10.0 * sigma))
            put(j, j + 1, 1.0 + sigma)
            rhs[j] = (h * h / 12.0) * (phi[j - 1] + 10.0 * phi[j] + phi[j + 1])

    # jump row: u'(xi+) - u'(xi-) - i mu u(xi) = f1(xi)
    for k, c in enumerate(_FORWARD5):
        put(m, m + k, c / h2)
    for k, c in enumerate(_BACKWARD5):
        put(m, m - k, -c / h1)
    put(m, m, -1j * mu)
    rhs[m] = f1_at_xi

    mat = coo_matrix((vals, (rows, cols)), shape=(n_tot, n_tot), dtype=complex).tocsc()
    u = spsolve(mat, rhs)
    return u[: m + 1], u[m:]


def _quad_complex(fn: Callable[[float], complex], a: float, b: float) -> complex:
    re = quad(lambda t: fn(t).real, a, b, limit=400, epsabs=1e-13, epsrel=1e-13)[0]
    im = quad(lambda t: fn(t).imag, a, b, limit=400, epsabs=1e-13, epsrel=1e-13)[0]
    return re + 1j * im


def interface_coefficients_quadrature(
    xi: float,
    mu: float,
    phi1: Callable[[float], complex],
    phi2: Callable[[float], complex],
    f1_at_xi: complex,
) -> tuple[complex, complex]:
    """Recover the sine-ansatz coefficients by solving the 2x2 system built
    from the continuity and jump conditions at xi.

    With u1(x) = c1 sin(mu x) + (1/mu) int_0^x sin(mu (x-t)) phi1(t) dt and
    u2(x) = c2 sin(mu (x-1)) + (1/mu) int_1^x sin(mu (x-t)) phi2(t) dt, the
    two interface conditions determine (c1, c2) directly.  All integrals use
    adaptive quadrature, so the result shares nothing with the cumulative
    Simpson path.
    """
    s1 = np.sin(mu * xi)
    s2 = np.sin(mu * (xi - 1.0))
    c1d = mu * np.cos(mu * xi)
    c2d = mu * np.cos(mu * (xi - 1.0))

    i1_val = _quad_complex(lambda t: np.sin(mu * (xi - t)) * phi1(t), 0.0, xi) / mu
    i1_der = _quad_complex(lambda t: np.cos(mu * (xi - t)) * phi1(t), 0.0, xi)
    # integrals from 1 down to xi
    i2_val = -_quad_complex(lambda t: np.sin(mu * (xi - t)) * phi2(t), xi, 1.0) / mu
    i2_der = -_quad_complex(lambda t: np.cos(mu * (xi - t)) * phi2(t), xi, 1.0)

    # continuity: c1 s1 + i1_val = c2 s2 + i2_val
    # jump: (c2 c2d + i2_der) - (c1 c1d + i1_der) = f1 + i mu (c1 s1 + i1_val)
    a = np.array(
        [
            [s1, -s2],
            [-c1d - 1j * mu * s1, c2d],
        ],
        dtype=complex,
    )
    b = np.array(
        [
            i2_val - i1_val,
            f1_at_xi + 1j * mu * i1_val + i1_der - i2_der,
        ],
        dtype=complex,
    )
    c1, c2 = np.linalg.solve(a, b)
    return complex(c1), complex(c2)


# ---------------------------------------------------------------------------
# the interface identity, by quadrature over the solution arrays
# ---------------------------------------------------------------------------


@dataclass
class InterfaceIdentityReport:
    identity_residual: float
    relative_residual: float
    bound_ratio: float
    bound_holds: bool
    c_bound: float


def verify_interface_identity(
    sol: ResolventSolution, forcing: ForcingData, c_bound: float = 3.0
) -> InterfaceIdentityReport:
    """Check the pairing identity behind the trace bound at the damped point.

    Pairing Phi against u and integrating by parts on each side gives

      int Phi1 conj(u1) + int Phi2 conj(u2)
        = mu^2 ||u||^2 - ||u'||^2 - i*mu*|u(xi)|^2 - f1(xi) conj(u(xi)),

    whose imaginary part bounds mu*|u(xi)|^2 by the forcing data (Young's
    inequality).  Returns the quadrature residual of the identity and the
    observed constant of the trace bound.
    """
    mesh, mu = sol.mesh, sol.mu
    h1, h2 = mesh.h_left, mesh.h_right
    phi1, phi2 = assemble_phi(forcing, mu)

    lhs = simpson(phi1 * np.conj(sol.u1), h1) + simpson(
        phi2 * np.conj(sol.u2), h2
    )
    norm_u_sq = simpson(np.abs(sol.u1) ** 2, h1) + simpson(
        np.abs(sol.u2) ** 2, h2
    )
    norm_up_sq = simpson(np.abs(sol.up1) ** 2, h1) + simpson(
        np.abs(sol.up2) ** 2, h2
    )
    f1_xi = forcing.f1_at_xi
    rhs = (
        mu**2 * norm_u_sq
        - norm_up_sq
        - 1j * mu * abs(sol.trace_u) ** 2
        - f1_xi * np.conj(sol.trace_u)
    )
    residual = abs(lhs - rhs)
    scale = abs(lhs) + abs(rhs) + 1e-300
    trace_lhs = mu * abs(sol.trace_u) ** 2
    norm_phi1 = math.sqrt(abs(simpson(np.abs(phi1) ** 2, h1)))
    norm_phi2 = math.sqrt(abs(simpson(np.abs(phi2) ** 2, h2)))
    norm_u1 = math.sqrt(abs(simpson(np.abs(sol.u1) ** 2, h1)))
    norm_u2 = math.sqrt(abs(simpson(np.abs(sol.u2) ** 2, h2)))
    trace_rhs = abs(f1_xi) ** 2 + norm_phi1 * norm_u1 + norm_phi2 * norm_u2
    ratio = trace_lhs / trace_rhs if trace_rhs > 0 else 0.0
    return InterfaceIdentityReport(
        identity_residual=float(residual),
        relative_residual=float(residual / scale),
        bound_ratio=float(ratio),
        bound_holds=bool(trace_lhs <= c_bound * trace_rhs),
        c_bound=c_bound,
    )


def conjugation_route_incremental(
    phi: np.ndarray, h: float, w: np.ndarray, dx: float, exp_window: float = 300.0
) -> tuple[np.ndarray, int]:
    """-h^2 e^{phi/h} P(e^{-phi/h} w) on overlapping recentred windows.

    Each window starts at five nodes and grows one node at a time while the
    spread max - min of phi over it stays within exp_window * h; results are
    stitched from window interiors.  Returns the stitched values and the
    number of windows.  carleman.conjugation_route recentres at each node
    instead, and is checked against this.
    """
    n = phi.size
    out = np.full(n, np.nan + 0j)
    margin, start, windows = 2, 0, 0
    while start < n:
        stop = start + 2 * margin + 1
        if stop > n:
            stop, start = n, max(0, n - (2 * margin + 1))
        while stop < n and np.ptp(phi[start : stop + 1]) <= exp_window * h:
            stop += 1
        part = phi[start:stop]
        center = 0.5 * (np.max(part) + np.min(part))
        pv = apply_helmholtz(np.exp(-(part - center) / h) * w[start:stop], h, dx)
        result = -(h**2) * np.exp((part - center) / h) * pv
        lo = start + (margin if start > 0 else 0)
        hi = stop - (margin if stop < n else 0)
        out[lo:hi] = result[lo - start : hi - start]
        windows += 1
        if stop >= n:
            break
        start = stop - 2 * margin
    return out, windows


def grid_split_conjugated_operator(weight, h: float, w: np.ndarray, x: np.ndarray):
    """Symmetric and antisymmetric parts (P_w = sym + i * antisym) on a uniform grid.

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


def grid_ibp_residuals(weight, h: float, v: np.ndarray, w: np.ndarray, x: np.ndarray):
    """The package's ibp_residuals for samples v and w on a uniform grid, by
    finite differences and Simpson's rule."""
    dx = float(x[1] - x[0])
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    q2w, q1w = grid_split_conjugated_operator(weight, h, w, x)
    q2v, q1v = grid_split_conjugated_operator(weight, h, v, x)
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


def grid_square_expansion_residual(weight, h: float, w: np.ndarray, x: np.ndarray):
    """The package's square_expansion_residual for a sample w on a uniform grid,
    by finite differences and Simpson's rule: its (curvature, plain) readings."""
    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0])
    w = np.asarray(w, dtype=complex)
    p1 = np.asarray(weight.d1(x), dtype=float)
    p2 = np.asarray(weight.d2(x), dtype=float)
    p3 = np.asarray(weight.d3(x), dtype=float)
    p4 = np.asarray(weight.d4(x), dtype=float)

    sym, anti = grid_split_conjugated_operator(weight, h, w, x)
    pw = sym + 1j * anti
    dw = -1j * h * derivative(w, dx)

    lhs = float(simpson(np.abs(pw) ** 2, dx=dx).real)
    volume = np.array([
        simpson(np.abs(sym) ** 2, dx=dx),
        4.0 * simpson(p1**2 * np.abs(dw) ** 2, dx=dx),
        4.0 * h * simpson(p2 * np.abs(dw) ** 2, dx=dx),
        h**2 * simpson(p2**2 * np.abs(w) ** 2, dx=dx),
        4.0 * h * simpson(p2 * p1**2 * np.abs(w) ** 2, dx=dx),
        -(h**3) * simpson(p4 * np.abs(w) ** 2, dx=dx),
        4.0 * h * simpson(p1 * p2 * (w * np.conj(dw)).imag, dx=dx),
    ])

    def boundary(idx: int, curvature: float) -> float:
        return (
            -2.0 * h * p1[idx] * abs(dw[idx]) ** 2
            - 2.0 * h**2 * curvature * (w[idx] * np.conj(dw[idx])).imag
            - h * (2.0 * p1[idx] * (1.0 + p1[idx] ** 2) - h**2 * p3[idx]) * abs(w[idx]) ** 2
        )

    def reading(curvature_left: float, curvature_right: float) -> SquareExpansionReport:
        rhs = float(np.sum(volume)) + boundary(-1, curvature_right) - boundary(0, curvature_left)
        residual = abs(lhs - rhs)
        return SquareExpansionReport(
            lhs=lhs,
            rhs=rhs,
            relative_residual=float(residual / (abs(lhs) + abs(rhs) + 1e-300)),
            volume=volume,
        )

    return reading(p2[0], p2[-1]), reading(1.0, 1.0)


def exact_identity_terms(weight, h: float, v_coefficients, w_coefficients) -> dict:
    """The package's identity checks for a quadratic weight, in exact Legendre algebra.

    v = sum_k v_k P_{k-1}(s) and w likewise are numpy.polynomial series on
    [a, b], complex coefficients and all; phi' and phi'' are read off the
    weight's ends as series of degree 1 and 0, and each integral is .integ()
    taken between the ends.  Returns the series of the split of w, "sym" and
    "anti"; the two sides of each integration-by-parts identity, "ibp"; and
    the expanded square's left side, seven volume integrals and the right
    sides of its two readings, "square" (the package's order and signs).
    """
    a, b = weight.a, weight.b
    domain = [a, b]
    ends = np.array(domain)
    phi1 = Legendre.fit(ends, weight.d1(ends), 1, domain=domain)
    phi2 = Legendre.fit(ends, weight.d2(ends), 0, domain=domain)
    v, w = (Legendre(np.asarray(c, dtype=complex), domain=domain)
            for c in (v_coefficients, w_coefficients))

    def conj(f):
        return Legendre(np.conj(f.coef), domain=domain)

    def integral(f):
        antiderivative = f.integ()
        return antiderivative(b) - antiderivative(a)

    def across(f):  # evaluated b minus a
        return f(b) - f(a)

    def split(f):
        return (-(h**2) * f.deriv(2) - (phi1 * phi1 + 1.0) * f,
                -1j * h * (2.0 * phi1 * f.deriv() + phi2 * f))

    (q2v, q1v), (q2w, q1w) = split(v), split(w)
    dv, dw = -1j * h * v.deriv(), -1j * h * w.deriv()
    ibp = [
        (integral(v * conj(q2w)),
         integral(q2v * conj(w)) + 1j * h * across(v * conj(dw) + dv * conj(w))),
        (integral(v * conj(q1w)), integral(q1v * conj(w)) + 2j * h * across(phi1 * v * conj(w))),
    ]
    pw = q2w + 1j * q1w
    w_sq, dw_sq, mixed = w * conj(w), dw * conj(dw), w * conj(dw)
    volume = np.array([
        integral(q2w * conj(q2w)),
        4.0 * integral(phi1 * phi1 * dw_sq),
        4.0 * h * integral(phi2 * dw_sq),
        h**2 * integral(phi2 * phi2 * w_sq),
        4.0 * h * integral(phi2 * phi1 * phi1 * w_sq),
        0.0,  # -h^3 int phi'''' |w|^2, and a quadratic's phi'''' is 0
        4.0 * h * integral(phi1 * phi2 * mixed).imag,
    ]).real

    def boundary(end, curvature):
        return (-2.0 * h * phi1(end) * dw_sq(end).real
                - 2.0 * h**2 * curvature * mixed(end).imag
                - 2.0 * h * phi1(end) * (1.0 + phi1(end) ** 2) * w_sq(end).real)

    rhs = [np.sum(volume) + boundary(b, c_b) - boundary(a, c_a)
           for c_a, c_b in ((phi2(a), phi2(b)), (1.0, 1.0))]
    return {"sym": q2w, "anti": q1w, "ibp": ibp,
            "square": (integral(pw * conj(pw)).real, volume, *rhs)}


def legendre_rows(weight, side: str, n_modes: int) -> list[Legendre]:
    """The rows w_k = (x - outer) P_k(s), k < n_modes, of the package's forms, as
    Legendre series on the side's interval, built and differentiated by
    numpy.polynomial where the package runs the recurrence on nodes."""
    domain = [weight.a, weight.b]
    outer = weight.a if side == "left" else weight.b
    x = Legendre.identity(domain=domain)
    return [(x - outer) * Legendre.basis(k, domain=domain) for k in range(n_modes)]


def _sides(h, w, dw, d2w, phi1, phi2, integral, outer, damped):
    """(LHS, RHS) at h of one real w, its values and integrals given by the callers.

    With S = h w' - phi' w, which is h e^{(phi - max phi)/h} u':

      LHS(h) = h int w^2 + h int S^2 + h^3 w'(outer)^2
      RHS(h) = int (P_w w)^2 + h (w^2 + S^2) at the damped end
    """
    s = h * dw - phi1 * w
    pw = -(h**2) * d2w + 2.0 * h * phi1 * dw + h * phi2 * w - (phi1 * phi1 + 1.0) * w
    lhs = h * integral(w * w) + h * integral(s * s) + h**3 * outer(dw) ** 2
    rhs = integral(pw * pw) + h * (damped(w) ** 2 + damped(s) ** 2)
    return lhs, rhs


def exact_inequality_sides(weight, side: str, coefficients, h_values):
    """(LHS, RHS) per h of the weighted inequality for w = coefficients @ legendre_rows.

    For a quadratic weight: phi' and phi'' are read off its ends as Legendre
    series of degree 1 and 0, P_w w is formed symbolically, and each integral is
    .integ() taken between the ends.  The real and imaginary parts of w add.
    """
    domain = [weight.a, weight.b]
    ends = np.array(domain)
    phi1 = Legendre.fit(ends, weight.d1(ends), 1, domain=domain)
    phi2 = Legendre.fit(ends, weight.d2(ends), 0, domain=domain)
    outer, damped = (weight.a, weight.b) if side == "left" else (weight.b, weight.a)
    rows = legendre_rows(weight, side, len(coefficients))

    def integral(f):
        antiderivative = f.integ()
        return antiderivative(weight.b) - antiderivative(weight.a)

    lhs = np.zeros(len(h_values))
    rhs = np.zeros(len(h_values))
    for part in (np.real(coefficients), np.imag(coefficients)):
        w = sum((c * row for c, row in zip(part, rows)), Legendre([0.0], domain=domain))
        dw, d2w = w.deriv(), w.deriv(2)
        for i, h in enumerate(h_values):
            sides = _sides(h, w, dw, d2w, phi1, phi2, integral, lambda f: f(outer),
                           lambda f: f(damped))
            lhs[i] += sides[0]
            rhs[i] += sides[1]
    return lhs, rhs


def gauss_inequality_sides(weight, side: str, coefficients, h_values, panels: int):
    """The same sides for any weight, by 8-point Gauss-Legendre on equal panels.

    The rows come from legendre_rows, evaluated by numpy.polynomial, and phi'
    and phi'' from the weight at each point; the package sums over the nodes
    of one rule on the whole side.
    """
    t, q = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(weight.a, weight.b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = np.append((edges[:-1, None] + half * (t + 1.0)).ravel(), [weight.a, weight.b])
    q = (half * q).ravel()
    outer, damped = (-2, -1) if side == "left" else (-1, -2)
    rows = legendre_rows(weight, side, len(coefficients))
    phi1, phi2 = weight.d1(x), weight.d2(x)
    lhs = np.zeros(len(h_values))
    rhs = np.zeros(len(h_values))
    for part in (np.real(coefficients), np.imag(coefficients)):
        w, dw, d2w = (part @ np.array([row.deriv(m)(x) for row in rows]) for m in range(3))
        for i, h in enumerate(h_values):
            sides = _sides(h, w, dw, d2w, phi1, phi2, lambda f: q @ f[:-2],
                           lambda f: f[outer], lambda f: f[damped])
            lhs[i] += sides[0]
            rhs[i] += sides[1]
    return lhs, rhs


def random_coefficients(rng: np.random.Generator, n_modes: int = 8) -> np.ndarray:
    """Complex coefficients of one random_test_function on its basis, from
    the same draws: standard normal real and imaginary parts, mode k scaled by 1/k."""
    k = np.arange(1, n_modes + 1)
    return (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / k


def pinned_basis(
    interval: tuple[float, float], n: int, n_modes: int, pin_left: bool, pin_right: bool
) -> np.ndarray:
    """(n_modes, n + 1) real basis on a uniform grid, row k - 1 the k-th mode:
    sin(k pi s) pinned at both ends, quarter-wave sines pinned at one end and
    free at the other, and the package's sample_basis free at both."""
    if not (pin_left or pin_right):
        return sample_basis(tuple(interval), n, n_modes)
    a, b = interval
    s = (np.linspace(a, b, n + 1) - a) / (b - a)
    k = np.arange(1, n_modes + 1)
    if pin_left and pin_right:
        return np.sin(np.outer(k, np.pi * s))
    # incommensurate frequencies keep value and slope generic at the free end
    return np.sin(np.outer((k + 0.37) * np.pi, s if pin_left else 1.0 - s))


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
    return coeff @ pinned_basis(interval, n, n_modes, pin_left, pin_right)


# ---------------------------------------------------------------------------
# diophantine strip, grid and scan checks, by full scans
# ---------------------------------------------------------------------------


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def libm(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """fn applied elementwise through math.  numpy's own SIMD exp, log and pow
    may round differently from libm in the last place, so the full-scan
    references use libm, as the package does."""
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x: ufunc(np.asarray(x, dtype=float)).astype(float)


LIBM = {"sin": libm(math.sin), "cos": libm(math.cos), "log": libm(math.log), "exp": libm(_safe_exp)}
NUMPY = {"sin": np.sin, "cos": np.cos, "log": np.log, "exp": np.exp}
_RESONANCE_FLOOR = 1e-20


def _grid_verdict(condition_id, xi, mu_grid, expression, log_weight, constants,
                  refuted, keep_trace, f):
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid.size == 0:
        raise ValueError("empty grid")
    with np.errstate(divide="ignore"):
        log_expr = np.where(
            expression > _RESONANCE_FLOOR, f["log"](np.maximum(expression, 1e-300)), -np.inf
        )
    log_weighted = log_expr + log_weight
    i_min = int(np.argmin(log_weighted))
    log_k2 = float(log_weighted[i_min])
    with np.errstate(over="ignore"):
        k2 = float(f["exp"](np.array([log_k2]))[0])
    constants = dict(constants)
    constants.update({"inf_weighted": k2, "log_inf_weighted": log_k2})
    trace = None
    if keep_trace:
        with np.errstate(over="ignore"):
            trace = np.column_stack([mu_grid, expression, f["exp"](log_weighted)])
    if not np.isfinite(log_k2):
        verdict, note = "fail", "exact resonance on grid"
    elif refuted:
        verdict, note = "fail", "refuted for every xi: weight below mu^4"
    else:
        verdict, note = "pass", "grid-verified on the sampled range only"
    return ConditionReport(condition_id, xi, verdict, float(mu_grid[i_min]), constants,
                           note=note, trace=trace)


def _indicator(kind: str, xi: float, mu: np.ndarray, f) -> np.ndarray:
    if kind == "cos":
        return f["cos"](mu) ** 2 + (f["cos"](xi * mu) * f["sin"]((1.0 - xi) * mu)) ** 2
    return f["sin"](mu) ** 2 + (f["sin"](xi * mu) * f["sin"]((1.0 - xi) * mu)) ** 2


def refuted_for_every_xi(kind: str, weight: float) -> bool:
    """Whether the strip condition holds for no xi: a sine indicator under a
    weight that grows slower than mu^4 (poly eps < 3, exp k1 = 0), which at
    mu = q*pi is at most (pi ||q xi||)^4 times the weight, below pi^4 q^-4
    times it at Dirichlet's q."""
    return (kind == "poly" and 1.0 + weight < 4.0) or (kind == "exp" and weight == 0.0)


def grid_check(kind: str, xi: float, mu_grid=None, weight: float = 1.0,
               keep_trace: bool = False, f=LIBM) -> ConditionReport:
    """Full-scan reference of check_exp_grid (kind 'exp', weight k1),
    check_poly_grid ('poly', weight eps) and check_cos_grid ('cos', weight k1)."""
    mu_grid = default_mu_grid() if mu_grid is None else np.asarray(mu_grid, dtype=float)
    expression = _indicator(kind, xi, mu_grid, f)
    log_weight = _log_weight(kind, mu_grid, weight, f)
    constants = {"eps": weight} if kind == "poly" else {"k1": weight}
    return _grid_verdict(f"{kind}-grid", xi, mu_grid, expression, log_weight, constants,
                         refuted_for_every_xi(kind, weight), keep_trace, f)


def _log_weight(kind: str, mu, weight: float, f):
    return (1.0 + weight) * f["log"](mu) if kind == "poly" else weight * mu


def strip_minima(kind: str, xi: float, mu_min: float = 1.0, mu_max: float = 500.0,
                 weight: float = 1.0, step: float = 1e-4, f=NUMPY) -> list[tuple[float, float]]:
    """Dense-scan reference of the strip minima behind check_exp_grid (kind
    'exp', weight k1), check_poly_grid ('poly', weight eps) and check_cos_grid
    ('cos', weight k1): [(least log-weighted indicator, its mu)] per pi-strip
    [c - pi/2, c + pi/2] clipped to [mu_min, mu_max], c = n*pi (cos: (n + 1/2)*pi),
    from the points lo, lo + step, ... and hi of each strip."""
    centre = 0.5 if kind == "cos" else 0.0
    minima = []
    for n in range(round(mu_min / math.pi - centre), round(mu_max / math.pi - centre) + 1):
        c = (n + centre) * math.pi
        lo, hi = max(c - math.pi / 2, mu_min), min(c + math.pi / 2, mu_max)
        mu = np.append(np.arange(lo, hi, step), hi)
        expression = _indicator(kind, xi, mu, f)
        with np.errstate(divide="ignore"):
            log_expr = np.where(
                expression > _RESONANCE_FLOOR, f["log"](np.maximum(expression, 1e-300)), -np.inf
            )
        value = log_expr + _log_weight(kind, mu, weight, f)
        j = int(np.argmin(value))
        minima.append((float(value[j]), float(mu[j])))
    return minima


def settled_distances(xi, m_max: int) -> np.ndarray:
    """||m x|| for m = 1..m_max, each from the integers of the exact number
    x that xi settles on (diophantine.settle), rounded once.

    The residues m n mod d run in uint64 where that is exact (d a power of
    two up to 2**63, whose mod wraps with the product, or m_max n below
    2**63), and in Python integers otherwise.
    """
    position = settle(xi)
    exact = position.exact or position.value
    n, d = (_GOLDEN_60 if exact == "golden" else exact).as_integer_ratio()
    m_max = int(m_max)
    if d & (d - 1) == 0 and d <= 2**63 or m_max * n < 2**63 and d < 2**53:
        m = np.arange(1, m_max + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            r = m * np.uint64(n)
            r = r & np.uint64(d - 1) if d & (d - 1) == 0 else r % np.uint64(d)
        return np.minimum(r, np.uint64(d) - r).astype(float) / float(d)
    residues = (m * n % d for m in range(1, m_max + 1))
    return np.array([min(r, d - r) / d for r in residues])


def liouville_scan(xi, phi: GrowthFunction, kappa: float, m_max: int,
                   keep_trace: bool = False) -> ConditionReport:
    """Full-scan reference of check_liouville_type: every m <= m_max, on
    settled_distances."""
    m = np.arange(1, int(m_max) + 1, dtype=float)
    weights = m if phi.kind == "identity" else np.array([phi(v) for v in m.tolist()])
    with np.errstate(invalid="ignore"):
        products = weights * settled_distances(xi, m_max)
    trace = np.column_stack([m, products]) if keep_trace else None
    violations = np.nonzero(products < kappa)[0]
    i_min = int(np.argmin(products))
    constants = {
        "kappa": kappa,
        "phi": phi.kind,
        "min_product": float(np.min(products)),
        "argmin_m": int(m[i_min]),
        "first_violation_m": float(m[violations[0]]) if violations.size else None,
    }
    xi = settle(xi).value
    if violations.size:
        return ConditionReport("liouville", xi, "fail", float(m[i_min]), constants,
                               note=f"scanned m <= {int(m_max)}", trace=trace)
    return ConditionReport("liouville", xi, "pass", float(m[i_min]), constants,
                           note=f"scanned m <= {int(m_max)}; scan evidence only", trace=trace)


def continued_fraction(x: Fraction, budget: int) -> tuple[list[int], list[tuple[int, int]], bool]:
    """Reference expansion of x in (0,1): (partial quotients, convergents
    (p_k, q_k), whether the budget cut it short).

    Each quotient is the floor of the complete quotient y, which then
    becomes 1/(y - a), all in Fractions; a quotient is kept while
    q_k q_{k+1} <= budget.
    """
    quotients, convergents = [], []
    (p0, q0), (p1, q1) = (0, 1), (1, 0)
    y = x
    while True:
        a = math.floor(y)
        p, q = a * p1 + p0, a * q1 + q0
        if q * q1 > budget:
            return quotients, convergents, True
        quotients.append(a)
        convergents.append((p, q))
        if y == a:
            return quotients, convergents, False
        (p0, q0), (p1, q1) = (p1, q1), (p, q)
        y = 1 / (y - a)


def midpoint_march_long_double(nodes, i_xi, u, v, n_steps: int, dt: float, damped: bool):
    """The simulator's scheme marched in long double: interior (u, v) after n_steps.

    Lumped P1 mass M and stiffness S assembled element by element on the
    nodes, and B the unit damper at node i_xi when damped.  Each implicit
    midpoint step solves (2M/dt + dt S/2 + B) y = 2M v/dt - S u for the
    midpoint velocity y by the Thomas algorithm, a scalar at a time, then
    sets u += dt y and v = 2y - v.  Every number is a numpy.longdouble (an
    80-bit float with 64 mantissa bits on x86-64, eps ~1.1e-19), so the
    march's own rounding lies far below that of a float64 scheme.
    """
    ld = np.longdouble
    h = np.diff(np.asarray(nodes, dtype=ld))
    inv_h = ld(1) / h
    mass = (h[:-1] + h[1:]) / 2  # at the interior nodes 1 .. n - 2
    diag = inv_h[:-1] + inv_h[1:]
    off = -inv_h[1:-1]  # between interior nodes j and j + 1
    dt = ld(dt)
    step_diag = 2 * mass / dt + dt / 2 * diag
    if damped:
        step_diag[i_xi - 1] += 1
    step_off = dt / 2 * off
    # the Thomas factors, once: pivots and the multipliers of the back sweep
    size = step_diag.size
    pivots, upper = [step_diag[0]], []
    for j in range(1, size):
        upper.append(step_off[j - 1] / pivots[-1])
        pivots.append(step_diag[j] - step_off[j - 1] * upper[-1])
    u = np.asarray(u, dtype=ld)[1:-1].copy()
    v = np.asarray(v, dtype=ld)[1:-1].copy()
    for _ in range(n_steps):
        s_u = diag * u
        s_u[:-1] += off * u[1:]
        s_u[1:] += off * u[:-1]
        rhs = list(2 * mass * v / dt - s_u)
        z = [rhs[0] / pivots[0]]
        for j in range(1, size):
            z.append((rhs[j] - step_off[j - 1] * z[-1]) / pivots[j])
        for j in range(size - 2, -1, -1):
            z[j] -= upper[j] * z[j + 1]
        y = np.array(z, dtype=ld)
        u = u + dt * y
        v = 2 * y - v
    return u, v

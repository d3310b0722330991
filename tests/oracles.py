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

The diophantine checks are referenced by full scans.  Each pi-strip's
minimum is found by a dense scan of the strip, where the package refines the
sign changes of a derivative; the 0.01-grid check the package once ran is
kept as the value a strip minimum may never exceed; and the Liouville scan
evaluates every m, where the package evaluates only the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from pointdamp.carleman import apply_helmholtz
from pointdamp.diophantine import ConditionReport, GrowthFunction, default_mu_grid
from pointdamp.frequency import ForcingData, ResolventSolution, assemble_phi
from pointdamp.quadrature import simpson

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
    number of windows.
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


def _tail_trend_check(condition_id, xi, mu_grid, expression, log_weight, constants,
                      trend_factor, keep_trace, f):
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
    witness = float(mu_grid[i_min])
    if not np.isfinite(log_k2):
        return ConditionReport(condition_id, xi, "fail", witness, constants,
                               note="exact resonance on grid", trace=trace)
    n_tail = mu_grid.size // 4
    if n_tail == 0 or mu_grid.size < 8:
        return ConditionReport(condition_id, xi, "pass", witness, constants,
                               note="grid too short for a trend test", trace=trace)
    head_min = float(np.min(log_weighted[:-n_tail]))
    tail_min = float(np.min(log_weighted[-n_tail:]))
    constants["log_head_min"] = head_min
    constants["log_tail_min"] = tail_min
    if tail_min < head_min - math.log(trend_factor):
        return ConditionReport(condition_id, xi, "fail", witness, constants,
                               note="weighted infimum drains toward zero along the tail",
                               trace=trace)
    return ConditionReport(condition_id, xi, "pass", witness, constants,
                           note="grid-verified on the sampled range only", trace=trace)


def _indicator(kind: str, xi: float, mu: np.ndarray, f) -> np.ndarray:
    if kind == "cos":
        return f["cos"](mu) ** 2 + (f["cos"](xi * mu) * f["sin"]((1.0 - xi) * mu)) ** 2
    return f["sin"](mu) ** 2 + (f["sin"](xi * mu) * f["sin"]((1.0 - xi) * mu)) ** 2


def grid_check(kind: str, xi: float, mu_grid=None, weight: float = 1.0,
               trend_factor: float = 10.0, keep_trace: bool = False, f=LIBM) -> ConditionReport:
    """Full-scan reference of check_exp_grid (kind 'exp', weight k1),
    check_poly_grid ('poly', weight eps) and check_cos_grid ('cos', weight k1)."""
    mu_grid = default_mu_grid() if mu_grid is None else np.asarray(mu_grid, dtype=float)
    expression = _indicator(kind, xi, mu_grid, f)
    log_weight = _log_weight(kind, mu_grid, weight, f)
    constants = {"eps": weight} if kind == "poly" else {"k1": weight}
    return _tail_trend_check(f"{kind}-grid", xi, mu_grid, expression, log_weight, constants,
                             trend_factor, keep_trace, f)


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


def liouville_scan(xi: float, phi: GrowthFunction, kappa: float, m_max: int,
                   keep_trace: bool = False) -> ConditionReport:
    """Full-scan reference of check_liouville_type: every m <= m_max."""
    m = np.arange(1, int(m_max) + 1, dtype=float)
    rho = m * xi
    weights = m if phi.kind == "identity" else np.array([phi(v) for v in m.tolist()])
    with np.errstate(invalid="ignore"):
        products = weights * np.abs(rho - np.round(rho))
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
    if violations.size:
        return ConditionReport("liouville", xi, "fail", float(m[i_min]), constants,
                               note=f"scanned m <= {int(m_max)}", trace=trace)
    return ConditionReport("liouville", xi, "pass", float(m[i_min]), constants,
                           note=f"scanned m <= {int(m_max)}; scan evidence only", trace=trace)

"""Frequency-domain analysis of the point-damped string.

Solves the resolvent two-point problem on the imaginary axis in closed form
(sine ansatz plus Duhamel integrals), checks the interface energy identity,
estimates resolvent growth along the axis, and locates characteristic roots
in the complex plane by the argument principle.

Conventions.  The damped point xi splits (0,1) into a left side [0,xi] and a
right side [xi,1].  At frequency mu > 0 the transformed displacement solves

    u'' + mu^2 u = Phi     on each side,   Phi = g + i*mu*f,

with u(0) = u(1) = 0, u continuous at xi, and a derivative jump

    u'(xi+) - u'(xi-) = f1(xi) + i*mu*u(xi).

The jump sign is the dissipative convention: it makes the interface identity
carry -i*mu*|u(xi)|^2 and the time-domain energy nonincreasing.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .mesh import Mesh, build_mesh
from .quadrature import cumulative_simpson, simpson

__all__ = [
    "ForcingData",
    "ResolventSolution",
    "InterfaceIdentityReport",
    "CharacteristicRoot",
    "ScanResult",
    "ResonantDenominator",
    "ContourThroughRoot",
    "assemble_phi",
    "lambda_coefficients",
    "solve_resolvent",
    "trace_derivatives",
    "verify_interface_identity",
    "state_norm",
    "random_forcing",
    "resonant_forcing",
    "resolvent_norm_lower_bound",
    "scan_resolvent_growth",
    "characteristic_function",
    "characteristic_derivative",
    "winding_number",
    "find_eigenvalues",
    "spectral_abscissa",
    "abscissa_of_roots",
]

DENOMINATOR_FLOOR = 1e-14


class ResonantDenominator(ArithmeticError):
    """Raised when the closed-form denominator falls below the safe floor."""

    def __init__(self, mu: float, value: float, floor: float):
        super().__init__(
            f"resolvent denominator {value:.3e} at mu={mu} below floor {floor:.1e}"
        )
        self.mu = mu
        self.value = value
        self.floor = floor


class ContourThroughRoot(RuntimeError):
    """Raised when a winding contour cannot be nudged off a root."""


# ----------------------------------------------------------------------------
# forcing data
# ----------------------------------------------------------------------------


@dataclass
class ForcingData:
    """Forcing (f, g) sampled on a two-sided mesh.

    f is the displacement-component forcing (must vanish at the outer
    boundaries and be continuous at xi); g is the velocity-component forcing
    (no boundary constraint).  fp1/fp2 optionally carry exact samples of f'
    for accurate state-norm quadrature; when absent, f is differentiated
    numerically.

    The arrays may carry leading axes: a stack of probes on one mesh, with
    the side grid on the last axis.  Every row is checked by validate.
    """

    mesh: Mesh
    f1: np.ndarray
    f2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    fp1: np.ndarray | None = None
    fp2: np.ndarray | None = None

    def validate(self) -> None:
        m = self.mesh
        rows = np.shape(self.f1)[:-1]
        for name, arr, n in (
            ("f1", self.f1, m.n_left + 1),
            ("g1", self.g1, m.n_left + 1),
            ("f2", self.f2, m.n_right + 1),
            ("g2", self.g2, m.n_right + 1),
        ):
            if np.shape(arr) != rows + (n,):
                raise ValueError(f"{name} does not conform to the mesh")
        f1, f2 = np.asarray(self.f1), np.asarray(self.f2)
        scale = np.maximum(
            np.maximum(np.max(np.abs(f1), axis=-1), np.max(np.abs(f2), axis=-1)), 1e-300
        )
        tol = 1e-12 * scale
        if np.any(np.abs(f1[..., 0]) > tol) or np.any(np.abs(f2[..., -1]) > tol):
            raise ValueError("f must vanish at the outer boundaries")
        if np.any(np.abs(f1[..., -1] - f2[..., 0]) > tol):
            raise ValueError("f must be continuous at the damped point")

    @property
    def f1_at_xi(self) -> complex | np.ndarray:
        """f1 at the damped point: a complex, or an array for a stack."""
        value = np.asarray(self.f1)[..., -1]
        return complex(value) if value.ndim == 0 else value.astype(complex)


def assemble_phi(forcing: ForcingData, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides Phi = g + i*mu*f of the transformed problem, per side."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    phi1 = np.asarray(forcing.g1, dtype=complex) + 1j * mu * np.asarray(forcing.f1, dtype=complex)
    phi2 = np.asarray(forcing.g2, dtype=complex) + 1j * mu * np.asarray(forcing.f2, dtype=complex)
    return phi1, phi2


def _denominator(xi: float, mu: float) -> tuple[float, float, float]:
    s = math.sin(mu)
    a = math.sin(xi * mu) * math.sin((1.0 - xi) * mu)
    return s, a, s * s + a * a


# ----------------------------------------------------------------------------
# closed-form coefficients
# ----------------------------------------------------------------------------


def lambda_coefficients(
    xi: float,
    mu: float,
    phi1: np.ndarray,
    phi2: np.ndarray,
    f1_at_xi: complex,
    mesh: Mesh,
    kernel: str = "consistent",
    denominator_floor: float = DENOMINATOR_FLOOR,
) -> tuple[complex, complex]:
    """Coefficients of the homogeneous sine modes in the closed-form solution.

    The left solution is lambda1*sin(mu x) plus a Duhamel integral, the right
    solution lambda2*sin(mu(x-1)) plus its Duhamel integral.  Both are fixed
    by continuity and the derivative jump at xi.

    kernel selects the second coefficient's first factor:

    * "consistent": exp(i*mu*xi), the value obtained by solving the 2x2
      interface system (default; this is what the boundary-value oracle
      confirms).
    * "verbatim": cos(mu*xi) + i*sin(mu*(1-xi)), an asymmetric variant kept
      so its interface residual can be surfaced rather than silently fixed.

    phi1, phi2 and f1_at_xi may be stacked over leading axes; the
    coefficients are then arrays of the leading shape.
    """
    if kernel not in ("consistent", "verbatim"):
        raise ValueError(f"unknown kernel {kernel!r}")
    s, a, den = _denominator(xi, mu)
    if den < denominator_floor:
        raise ResonantDenominator(mu, den, denominator_floor)

    t1 = mesh.left
    t2 = mesh.right
    h1, h2 = mesh.h_left, mesh.h_right

    # integrals of the jump system, Simpson per side
    sin_k1 = np.sin(mu * (xi - t1))
    i1_sin = simpson(sin_k1 * phi1, h1)                       # int_0^xi sin(mu(xi-t)) Phi1
    i1_exp = simpson(np.exp(1j * mu * (xi - t1)) * phi1, h1)  # one-sided complex kernel
    sin_k2 = np.sin(mu * (xi - t2))
    cos_k2 = np.cos(mu * (xi - t2))
    i2_sin = simpson(sin_k2 * phi2, h2)                       # int_xi^1 sin(mu(xi-t)) Phi2
    i2_cos = simpson(cos_k2 * phi2, h2)                       # int_xi^1 cos(mu(xi-t)) Phi2

    prefactor = (-s + 1j * a) / den
    # array arithmetic for one probe too, so each row of a stack rounds alike
    group_sin = np.atleast_1d((i1_sin + i2_sin) / mu)
    group_jump = np.atleast_1d((i1_exp + i2_cos + f1_at_xi) / mu)

    lam1 = prefactor * (
        math.cos(mu * (1.0 - xi)) * group_sin + math.sin(mu * (1.0 - xi)) * group_jump
    )
    if kernel == "consistent":
        first = complex(math.cos(mu * xi), math.sin(mu * xi))
    else:
        first = complex(math.cos(mu * xi), math.sin(mu * (1.0 - xi)))
    lam2 = prefactor * (first * group_sin - math.sin(mu * xi) * group_jump)
    if np.ndim(phi1) == 1:
        return complex(lam1[0]), complex(lam2[0])
    return lam1, lam2


# ----------------------------------------------------------------------------
# resolvent solve
# ----------------------------------------------------------------------------


@dataclass
class ResolventSolution:
    """Closed-form resolvent data on a two-sided mesh.

    For a stacked forcing the arrays carry its leading axes, lambda1,
    lambda2 and the trace_* fields are arrays, and the two residuals hold
    the worst row.
    """

    mesh: Mesh
    mu: float
    lambda1: complex | np.ndarray
    lambda2: complex | np.ndarray
    u1: np.ndarray = field(repr=False)
    u2: np.ndarray = field(repr=False)
    v1: np.ndarray = field(repr=False)
    v2: np.ndarray = field(repr=False)
    up1: np.ndarray = field(repr=False)
    up2: np.ndarray = field(repr=False)
    trace_u: complex | np.ndarray = 0j
    trace_up_left: complex | np.ndarray = 0j
    trace_up_right: complex | np.ndarray = 0j
    continuity_residual: float = 0.0
    jump_residual: float = 0.0
    kernel: str = "consistent"


def solve_resolvent(
    xi: float,
    mu: float,
    forcing: ForcingData,
    kernel: str = "consistent",
    denominator_floor: float = DENOMINATOR_FLOOR,
) -> ResolventSolution:
    """Solve the transformed interface problem at frequency mu in closed form.

    Uses the sine ansatz with Duhamel particular integrals; the running
    oscillatory integrals are evaluated by cumulative Simpson after splitting
    the kernel sin(mu(x-t)) into sin(mu x)cos(mu t) - cos(mu x)sin(mu t).
    Raises ResonantDenominator within denominator_floor of an exact
    resonance.  A stacked forcing is solved in one pass along the last axis.
    """
    mesh = forcing.mesh
    if abs(mesh.xi - xi) > 1e-14:
        raise ValueError("forcing mesh was built for a different actuator position")
    phi1, phi2 = assemble_phi(forcing, mu)
    f1_xi = forcing.f1_at_xi
    lam1, lam2 = lambda_coefficients(
        xi, mu, phi1, phi2, f1_xi, mesh, kernel, denominator_floor
    )
    # broadcast the coefficients of a stack along the side grid
    col1, col2 = np.expand_dims(lam1, -1), np.expand_dims(lam2, -1)

    t1, t2 = mesh.left, mesh.right
    h1, h2 = mesh.h_left, mesh.h_right

    # the kernels are cast to complex once: a real operand is cast anew in
    # every mixed product, and the cast does not change the result
    # left side: running integrals from 0
    sin1, cos1 = np.sin(mu * t1).astype(complex), np.cos(mu * t1).astype(complex)
    ic1 = cumulative_simpson(cos1 * phi1, h1)
    is1 = cumulative_simpson(sin1 * phi1, h1)
    u1 = col1 * sin1 + (sin1 * ic1 - cos1 * is1) / mu
    up1 = col1 * mu * cos1 + (cos1 * ic1 + sin1 * is1)

    # right side: running integrals from 1 (cumulate from xi, shift by the total)
    sin2, cos2 = np.sin(mu * t2).astype(complex), np.cos(mu * t2).astype(complex)
    c2 = cumulative_simpson(cos2 * phi2, h2)
    s2 = cumulative_simpson(sin2 * phi2, h2)
    jc2 = c2 - c2[..., -1:]
    js2 = s2 - s2[..., -1:]
    u2 = col2 * np.sin(mu * (t2 - 1.0)) + (sin2 * jc2 - cos2 * js2) / mu
    up2 = col2 * mu * np.cos(mu * (t2 - 1.0)) + (cos2 * jc2 + sin2 * js2)

    v1 = np.asarray(forcing.f1, dtype=complex) + 1j * mu * u1
    v2 = np.asarray(forcing.f2, dtype=complex) + 1j * mu * u2

    trace_u = u1[..., -1]
    scale = np.maximum(
        np.maximum(np.max(np.abs(u1), axis=-1), np.max(np.abs(u2), axis=-1)), 1e-300
    )
    continuity = np.max(np.abs(trace_u - u2[..., 0]) / scale)
    jump = np.max(np.abs(up2[..., 0] - up1[..., -1] - f1_xi - 1j * mu * trace_u) / (mu * scale))
    trace_up_left, trace_up_right = up1[..., -1], up2[..., 0]
    if trace_u.ndim == 0:
        trace_u = complex(trace_u)
        trace_up_left, trace_up_right = complex(trace_up_left), complex(trace_up_right)

    return ResolventSolution(
        mesh=mesh,
        mu=mu,
        lambda1=lam1,
        lambda2=lam2,
        u1=u1,
        u2=u2,
        v1=v1,
        v2=v2,
        up1=up1,
        up2=up2,
        trace_u=trace_u,
        trace_up_left=trace_up_left,
        trace_up_right=trace_up_right,
        continuity_residual=float(continuity),
        jump_residual=float(jump),
        kernel=kernel,
    )


def trace_derivatives(
    sol: ResolventSolution, phi1: np.ndarray, phi2: np.ndarray
) -> tuple[complex, complex]:
    """One-sided derivatives at the damped point from the coefficient formulas.

    Recomputed directly (Simpson over the cosine kernels) rather than read
    off the solution arrays, so they can cross-check the solve.
    """
    mesh, mu = sol.mesh, sol.mu
    xi = mesh.xi
    t1, t2 = mesh.left, mesh.right
    left = sol.lambda1 * mu * math.cos(mu * xi) + simpson(
        np.cos(mu * (xi - t1)) * phi1, mesh.h_left
    )
    # right-side integral runs from 1 down to xi
    right = sol.lambda2 * mu * math.cos(mu * (xi - 1.0)) - simpson(
        np.cos(mu * (xi - t2)) * phi2, mesh.h_right
    )
    return complex(left), complex(right)


# ----------------------------------------------------------------------------
# interface identity and norms
# ----------------------------------------------------------------------------


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


def _fd_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order derivative samples on a uniform side grid (last axis)."""
    values = np.asarray(values)
    out = np.empty_like(values, dtype=complex)
    out[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * dx)
    out[..., 0] = (-3.0 * values[..., 0] + 4.0 * values[..., 1] - values[..., 2]) / (2.0 * dx)
    out[..., -1] = (3.0 * values[..., -1] - 4.0 * values[..., -2] + values[..., -3]) / (2.0 * dx)
    return out


def state_norm(
    mesh: Mesh,
    a1: np.ndarray,
    a2: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    ap1: np.ndarray | None = None,
    ap2: np.ndarray | None = None,
) -> float | np.ndarray:
    """Energy-space norm sqrt(int |a'|^2 + int |b|^2) of a state pair (a, b).

    A float for one state; an array over the leading axes for a stack.
    """
    ap1 = _fd_derivative(a1, mesh.h_left) if ap1 is None else ap1
    ap2 = _fd_derivative(a2, mesh.h_right) if ap2 is None else ap2
    total = (
        simpson(np.abs(ap1) ** 2, mesh.h_left)
        + simpson(np.abs(ap2) ** 2, mesh.h_right)
        + simpson(np.abs(b1) ** 2, mesh.h_left)
        + simpson(np.abs(b2) ** 2, mesh.h_right)
    )
    return math.sqrt(abs(total)) if np.ndim(total) == 0 else np.sqrt(np.abs(total))


# ----------------------------------------------------------------------------
# probes and growth scan
# ----------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _series_table(nodes: bytes, n_modes: int) -> np.ndarray:
    """Read-only block table that maps probe coefficients to (f, f', g).

    With s_k = sin(k pi x) and c_k = cos(k pi x), k = 1..n_modes, at the
    given nodes, the rows are [s, 0, 0], [k pi c, 0, 0] and [0, c, s]
    against the coefficient blocks (af, ag, bg).  Keyed by the node values,
    so every probe of a scan shares one table.
    """
    x = np.frombuffer(nodes)
    k = np.arange(1, n_modes + 1)
    theta = np.outer(np.pi * x, k)
    sin, cos = np.sin(theta), np.cos(theta)
    n = x.size
    table = np.zeros((3 * n, 3 * n_modes))
    table[:n, :n_modes] = sin
    table[n : 2 * n, :n_modes] = cos * (k * np.pi)
    table[2 * n :, n_modes : 2 * n_modes] = cos
    table[2 * n :, 2 * n_modes :] = sin
    table.flags.writeable = False
    return table


def random_forcing(
    mesh: Mesh, rng: np.random.Generator, n_modes: int = 8, count: int | None = None
) -> ForcingData:
    """Band-limited random probe: global sine series for f, cosine+sine for g.

    count=k returns k probes stacked along a leading axis; row j equals the
    j-th of k successive single calls on the same generator.
    """
    rows = 1 if count is None else count
    # per probe: real and imaginary parts of af, ag, bg, each over the modes
    draws = rng.standard_normal((rows, 6, n_modes)) / np.arange(1, n_modes + 1)
    # (rows, 3 * n_modes, 2): coefficient blocks down, (real, imag) across
    coef = draws.reshape(rows, 3, 2, n_modes).transpose(0, 1, 3, 2).reshape(rows, -1, 2)
    # real matrix products give (real, imag) pairs, read as complex samples
    series = (_series_table(mesh.nodes.tobytes(), n_modes) @ coef).view(complex)[..., 0]
    if count is None:
        series = series[0]
    f, fp, g = np.split(series, 3, axis=-1)
    f1, f2 = mesh.split(f)
    fp1, fp2 = mesh.split(fp)
    g1, g2 = mesh.split(g)
    return ForcingData(mesh=mesh, f1=f1, f2=f2, g1=g1, g2=g2, fp1=fp1, fp2=fp2)


def resonant_forcing(mesh: Mesh, mu: float) -> ForcingData:
    """Near-resonant probe: f = 0, g the mode sin(mu x) restricted to each side."""
    zeros_l = np.zeros(mesh.n_left + 1, dtype=complex)
    zeros_r = np.zeros(mesh.n_right + 1, dtype=complex)
    return ForcingData(
        mesh=mesh,
        f1=zeros_l,
        f2=zeros_r,
        g1=np.sin(mu * mesh.left).astype(complex),
        g2=np.sin(mu * mesh.right).astype(complex),
        fp1=zeros_l.copy(),
        fp2=zeros_r.copy(),
    )


def resolvent_norm_lower_bound(
    xi: float, mu: float, probes: list[ForcingData], kernel: str = "consistent"
) -> float:
    """Max response-to-input norm ratio over the probe set.

    A lower bound for the resolvent norm on the imaginary axis at height mu;
    +inf when the closed form sits within the denominator floor of an exact
    resonance.  The probes (single or stacked, on one mesh) are solved as one
    stack; a probe of zero input norm is skipped, and 0.0 is returned when
    every probe is zero (or there is none).
    """
    if not probes:
        return 0.0
    mesh = probes[0].mesh
    if any(p.mesh is not mesh and not np.array_equal(p.mesh.nodes, mesh.nodes) for p in probes):
        raise ValueError("probes must share one mesh")

    def rows(arrays) -> np.ndarray:
        return np.concatenate(
            [np.asarray(a, dtype=complex).reshape(-1, np.shape(a)[-1]) for a in arrays]
        )

    f1, f2 = rows(p.f1 for p in probes), rows(p.f2 for p in probes)
    g1, g2 = rows(p.g1 for p in probes), rows(p.g2 for p in probes)
    fp1 = rows(_fd_derivative(p.f1, mesh.h_left) if p.fp1 is None else p.fp1 for p in probes)
    fp2 = rows(_fd_derivative(p.f2, mesh.h_right) if p.fp2 is None else p.fp2 for p in probes)
    in_norm = state_norm(mesh, f1, f2, g1, g2, fp1, fp2)
    live = in_norm != 0.0
    if not np.any(live):
        return 0.0
    if not np.all(live):
        f1, f2, g1, g2, in_norm = f1[live], f2[live], g1[live], g2[live], in_norm[live]
    try:
        sol = solve_resolvent(xi, mu, ForcingData(mesh, f1, f2, g1, g2), kernel)
    except ResonantDenominator:
        return math.inf
    out_norm = state_norm(mesh, sol.u1, sol.u2, sol.v1, sol.v2, sol.up1, sol.up2)
    return float(np.max(out_norm / in_norm))


@dataclass
class ScanResult:
    mu: np.ndarray
    norm_estimate: np.ndarray
    growth_constant: float  # C in norm ~ C * exp(K mu)
    growth_rate: float      # K
    log_residual: float
    n_resonant: int


def scan_resolvent_growth(
    xi: float,
    mu_grid,
    probes_per_mu: int = 4,
    seed: int = 0,
    cells_per_side: int = 512,
    kernel: str = "consistent",
) -> ScanResult:
    """Estimate resolvent-norm growth along the imaginary axis.

    For each mu the probe set is the near-resonant mode plus a stack of
    probes_per_mu - 1 random band-limited forcings (seeded per grid index,
    so scans are reproducible), solved together.  Fits log(norm) = log C +
    K*mu by least squares over the finite estimates.  kernel selects the
    closed form, as in solve_resolvent.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    mesh = build_mesh(xi, cells_per_side, cells_per_side)
    estimates = np.empty_like(mu_grid)
    for i, mu in enumerate(mu_grid):
        rng = np.random.default_rng([seed, i])
        probes = [resonant_forcing(mesh, mu)]
        if probes_per_mu > 1:
            probes.append(random_forcing(mesh, rng, count=probes_per_mu - 1))
        estimates[i] = resolvent_norm_lower_bound(xi, mu, probes, kernel)
    finite = np.isfinite(estimates) & (estimates > 0)
    n_resonant = int(np.sum(~finite))
    if np.sum(finite) >= 2:
        slope, intercept = np.polyfit(mu_grid[finite], np.log(estimates[finite]), 1)
        fit = intercept + slope * mu_grid[finite]
        residual = float(np.sqrt(np.mean((np.log(estimates[finite]) - fit) ** 2)))
        c, k = float(np.exp(intercept)), float(slope)
    elif np.sum(finite) == 1:
        c, k, residual = float(estimates[finite][0]), 0.0, 0.0
    else:
        c, k, residual = math.inf, 0.0, math.inf
    return ScanResult(
        mu=mu_grid,
        norm_estimate=estimates,
        growth_constant=c,
        growth_rate=k,
        log_residual=residual,
        n_resonant=n_resonant,
    )


# ----------------------------------------------------------------------------
# characteristic function and roots
# ----------------------------------------------------------------------------


def characteristic_function(xi: float, z):
    """sin(z) + i*sin(xi z)*sin((1-xi) z); entire, mirror-symmetric about the
    imaginary axis, and equal in squared modulus to resonance_indicator on
    the real axis.  Its zeros z correspond to generator eigenvalues i*z."""
    z = np.asarray(z, dtype=complex)
    out = np.sin(z) + 1j * np.sin(xi * z) * np.sin((1.0 - xi) * z)
    return out if out.ndim else complex(out)


def characteristic_derivative(xi: float, z):
    z = np.asarray(z, dtype=complex)
    out = np.cos(z) + 1j * (
        xi * np.cos(xi * z) * np.sin((1.0 - xi) * z)
        + (1.0 - xi) * np.sin(xi * z) * np.cos((1.0 - xi) * z)
    )
    return out if out.ndim else complex(out)


class _BoundaryNearRoot(Exception):
    pass


def _rect_corners(rect) -> np.ndarray:
    re0, re1, im0, im1 = rect
    if not (re1 > re0 and im1 > im0):
        raise ValueError("degenerate rectangle")
    return np.array(
        [re0 + 1j * im0, re1 + 1j * im0, re1 + 1j * im1, re0 + 1j * im1], dtype=complex
    )


def _winding_raw(
    xi: float, rect, samples_per_unit: float = 4.0, max_passes: int = 48
) -> int:
    """Winding number of the characteristic function around a rectangle.

    Samples the boundary, then bisects every segment whose phase step
    exceeds pi/2 until all steps are tame.  Raises _BoundaryNearRoot if a
    sample lands (numerically) on a root of the function.
    """
    corners = _rect_corners(rect)
    pts: list[complex] = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        n = max(4, int(abs(b - a) * samples_per_unit))
        pts.extend(a + (b - a) * np.arange(n) / n)
    points = np.array(pts + [pts[0]], dtype=complex)
    values = characteristic_function(xi, points)

    scale = max(float(np.max(np.abs(values))), 1e-300)
    for _ in range(max_passes):
        if np.min(np.abs(values)) < 1e-12 * scale:
            raise _BoundaryNearRoot
        dphi = np.angle(values[1:] / values[:-1])
        bad = np.nonzero(np.abs(dphi) > 0.5 * math.pi)[0]
        if bad.size == 0:
            total = float(np.sum(dphi)) / (2.0 * math.pi)
            nearest = round(total)
            if abs(total - nearest) > 0.25:
                raise _BoundaryNearRoot  # unresolved phase, treat as suspect contour
            return int(nearest)
        mids = 0.5 * (points[bad] + points[bad + 1])
        points = np.insert(points, bad + 1, mids)
        values = np.insert(values, bad + 1, characteristic_function(xi, mids))
    raise ContourThroughRoot(f"phase did not settle on rectangle {rect}")


def winding_number(xi: float, rect, max_nudges: int = 8) -> int:
    """Winding number with outward nudging when a root sits on the boundary."""
    re0, re1, im0, im1 = rect
    pad = 0.0
    step = 1e-9 * max(re1 - re0, im1 - im0)
    for _ in range(max_nudges):
        try:
            return _winding_raw(xi, (re0 - pad, re1 + pad, im0 - pad, im1 + pad))
        except _BoundaryNearRoot:
            pad = step if pad == 0.0 else pad * 37.0  # irregular growth avoids re-hits
    raise ContourThroughRoot(f"could not nudge contour off a root near {rect}")


@dataclass
class CharacteristicRoot:
    z: complex
    residual: float
    multiplicity: int


def _newton_polish(xi: float, z0: complex, tol: float, max_iter: int = 100) -> complex | None:
    # D(z) is evaluated with a rounding error of about eps*|z|; a tolerance
    # below that is never met, and the cell is then subdivided without end
    tol = max(tol, 2.0 * sys.float_info.epsilon * abs(z0))
    z = z0
    fz = characteristic_function(xi, z)
    for _ in range(max_iter):
        if abs(fz) <= tol:
            return z
        dz = characteristic_derivative(xi, z)
        if dz == 0:
            return None
        step = fz / dz
        # damped update: halve the step until the residual decreases
        for _ in range(40):
            z_new = z - step
            f_new = characteristic_function(xi, z_new)
            if abs(f_new) < abs(fz):
                z, fz = z_new, f_new
                break
            step *= 0.5
        else:
            return None
    return z if abs(fz) <= tol else None


def _collect_roots(xi: float, rect, tol: float, out: list[complex], depth: int = 0) -> None:
    w = winding_number(xi, rect)
    if w == 0:
        return
    re0, re1, im0, im1 = rect
    diag = math.hypot(re1 - re0, im1 - im0)
    if w == 1 or diag < 1e-8:
        center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
        z = _newton_polish(xi, center, tol)
        # only cover the boundary-nudge distance: a wider band lets this cell
        # claim a neighbor's root and its own is then never searched for
        slack = 1e-7 + 1e-6 * diag
        if z is not None and (re0 - slack <= z.real <= re1 + slack) and (
            im0 - slack <= z.imag <= im1 + slack
        ):
            out.append(z)
            return
        if diag < 1e-8:
            raise ContourThroughRoot(f"tiny cell near {center} refused to converge")
    if depth > 60:
        raise ContourThroughRoot(f"subdivision exhausted on {rect}")
    horizontal = (re1 - re0) >= (im1 - im0)
    for frac in (0.5, 0.53, 0.47, 0.57, 0.43):
        cut = re0 + frac * (re1 - re0) if horizontal else im0 + frac * (im1 - im0)
        parts = (
            [(re0, cut, im0, im1), (cut, re1, im0, im1)]
            if horizontal
            else [(re0, re1, im0, cut), (re0, re1, cut, im1)]
        )
        try:
            marker = len(out)
            for part in parts:
                _collect_roots(xi, part, tol, out, depth + 1)
            return
        except ContourThroughRoot:
            del out[marker:]
            continue
    raise ContourThroughRoot(f"no clean cut found for {rect}")


def find_eigenvalues(xi: float, rect, tol: float = 1e-12) -> list[CharacteristicRoot]:
    """All characteristic roots in a rectangle, by argument-principle bisection.

    Subdivides until each cell holds a single root, polishes by damped
    Newton, and verifies that the number found matches the winding number of
    the full contour.  Roots are returned sorted by real part.

    Note the function always has a trivial zero at z = 0 (degenerate sine
    ansatz), so rectangles should keep a margin away from the origin.
    """
    total = winding_number(xi, rect)
    roots: list[complex] = []
    if total:
        _collect_roots(xi, rect, tol, roots)
    # dedupe Newton results that converged to the same point from two cells
    unique: list[complex] = []
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        if not unique or abs(z - unique[-1]) > 1e-8:
            unique.append(z)
    results = []
    for z in unique:
        r = 2e-7 * max(1.0, abs(z))
        mult = winding_number(xi, (z.real - r, z.real + r, z.imag - r, z.imag + r))
        results.append(
            CharacteristicRoot(z=z, residual=abs(characteristic_function(xi, z)), multiplicity=mult)
        )
    count = sum(r.multiplicity for r in results)
    if count != total:
        raise ContourThroughRoot(
            f"found {count} roots but contour winding is {total} on {rect}"
        )
    return results


def spectral_abscissa(
    xi: float, horizon: float, tol: float = 1e-12, real_tol: float = 1e-10
) -> float:
    """Largest generator real part over roots with real part in (0, horizon].

    Eigenvalues are i*z for characteristic roots z, so the abscissa is
    -min(Im z).  Exactly 0.0 when an (undamped) real root exists; -inf when
    the window holds no roots.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if horizon <= 0.5:
        return -math.inf  # every nonzero root has modulus above 1
    return abscissa_of_roots(find_eigenvalues(xi, (0.5, horizon, -0.5, 3.0), tol), real_tol)


def abscissa_of_roots(roots: list[CharacteristicRoot], real_tol: float) -> float:
    """Largest generator real part -Im z over the given characteristic roots.

    Exactly 0.0 when a root lies within real_tol of the real axis; -inf for
    no roots.
    """
    if not roots:
        return -math.inf
    if any(abs(r.z.imag) <= real_tol for r in roots):
        return 0.0
    return max(-r.z.imag for r in roots)

"""Frequency-domain analysis of the point-damped string.

Solves the resolvent two-point problem on the imaginary axis in closed form
(sine ansatz plus Duhamel integrals) and estimates resolvent growth along
the axis.  The solve and the norm estimate share one computation up to
W+- = u' +- i*mu*u on each side: solve_resolvent forms u, u', v and the
interface residuals from it, while resolvent_norm_lower_bound integrates
|u'|^2 + |v|^2 straight from it, with no u and no residual.  random_forcing
and the scan draw their random probes from one basis cached per mesh
(_probe_basis): a sine-series table that maps a probe's coefficients to its
samples (f, g, f'), and the Gram matrix of its input norm.  The
characteristic roots live in pointdamp.characteristic, of which this module
re-exports the function, the root finder and its error; the
argument-principle winding count here is the independent check of their count.

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
from dataclasses import dataclass, field

import numpy as np

from . import processes

# re-exported: the characteristic function and root finder, computed without numpy
from .characteristic import (  # noqa: F401
    ContourThroughRoot,
    characteristic_function,
    find_eigenvalues,
)
from .mesh import Mesh, build_mesh
# simpson stays importable here: tools that trace this module's quadrature patch it by name
from .quadrature import cumulative_simpson, derivative, simpson, simpson_weights  # noqa: F401

__all__ = [
    "ForcingData",
    "ResolventSolution",
    "ScanResult",
    "ResonantDenominator",
    "assemble_phi",
    "solve_resolvent",
    "state_norm",
    "random_forcing",
    "resonant_forcing",
    "resolvent_norm_lower_bound",
    "scan_resolvent_growth",
    "winding_number",
]

_EPS = np.finfo(float).eps


class ResonantDenominator(ArithmeticError):
    """Raised where |D(mu)|^2 is at or below floor = (eps mu)^2, the rounding
    of its own evaluation, so that a resonance cannot be told from rounding."""

    def __init__(self, mu: float, value: float, floor: float):
        super().__init__(f"|D|^2 = {value:.3e} at mu={mu} is within its rounding {floor:.1e}")
        self.mu = mu
        self.value = value
        self.floor = floor


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


def _leading(mu, ndim: int) -> np.ndarray:
    """mu as an array with trailing unit axes up to ndim, to broadcast over a stack.

    A float gives a 0-d array; a 1-D array of frequencies lines up with the
    first axis of the stack.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim > ndim:
        raise ValueError("mu has more axes than the forcing's leading axes")
    return mu.reshape(mu.shape + (1,) * (ndim - mu.ndim))


def assemble_phi(forcing: ForcingData, mu) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides Phi = g + i*mu*f of the transformed problem, per side.

    mu is a float, or an array that broadcasts over the forcing's leading axes.
    """
    mu = _leading(mu, np.ndim(forcing.f1))
    if np.any(mu <= 0):
        raise ValueError("mu must be positive")
    phi1 = np.asarray(forcing.g1, dtype=complex) + 1j * mu * np.asarray(forcing.f1, dtype=complex)
    phi2 = np.asarray(forcing.g2, dtype=complex) + 1j * mu * np.asarray(forcing.f2, dtype=complex)
    return phi1, phi2


# ----------------------------------------------------------------------------
# closed-form coefficients
# ----------------------------------------------------------------------------


def _denominator(xi: float, mu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sin mu, sin(xi mu) sin((1-xi) mu), their squared modulus |D(mu)|^2), elementwise."""
    s = np.sin(mu)
    a = np.sin(xi * mu) * np.sin((1.0 - xi) * mu)
    return s, a, s * s + a * a


def _interface_coefficients(xi, mu, c1, s1, c2, s2, f1_at_xi):
    """(lambda1, lambda2) from the moments c = int cos(mu t) Phi, s = int sin(mu t) Phi.

    c1, s1 integrate Phi1 over [0, xi], c2, s2 Phi2 over [xi, 1].  Continuity
    and the derivative jump at xi form a 2x2 system with determinant
    sin(mu) + i*sin(mu xi)sin(mu(1-xi)), solved by Cramer's rule.  mu is a
    float or an array that broadcasts against the moments.
    """
    mu = np.asarray(mu, dtype=float)
    s, a, den = _denominator(xi, mu)
    floor = np.broadcast_to((_EPS * mu) ** 2, den.shape)
    if np.any(den <= floor):
        i = np.flatnonzero(den <= floor)[0]
        raise ResonantDenominator(float(mu.flat[i]), float(den.flat[i]), float(floor.flat[i]))
    scalar = np.ndim(c1) == 0
    # array arithmetic for one probe too, so each row of a stack rounds alike
    c1, s1, c2, s2 = np.atleast_1d(c1, s1, c2, s2)
    sx, cx, eta = np.sin(mu * xi), np.cos(mu * xi), mu * (1.0 - xi)
    rotation = cx + 1j * sx
    # int sin(mu(xi-t)) Phi over both sides, and
    # int_0^xi exp(i mu(xi-t)) Phi1 + int_xi^1 cos(mu(xi-t)) Phi2 + f1(xi)
    group_sin = (sx * (c1 + c2) - cx * (s1 + s2)) / mu
    group_jump = (rotation * (c1 - 1j * s1) + (cx * c2 + sx * s2) + f1_at_xi) / mu
    prefactor = (-s + 1j * a) / den
    lam1 = prefactor * (np.cos(eta) * group_sin + np.sin(eta) * group_jump)
    lam2 = prefactor * (rotation * group_sin - sx * group_jump)
    if scalar:
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
    the worst row.  mu is a float, or the array of frequencies solved for.
    """

    mesh: Mesh
    mu: float | np.ndarray
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


def _phase(theta: np.ndarray) -> np.ndarray:
    """exp(i theta), filled from cos and sin (faster than a complex exp)."""
    out = np.empty(theta.shape, dtype=complex)
    out.real = np.cos(theta)
    out.imag = np.sin(theta)
    return out


def _interface_waves(xi: float, mu, forcing: ForcingData):
    """W+- = u' +- i mu u on each side, with lambda1, lambda2 and mu over the rows.

    The closed form that solve_resolvent and resolvent_norm_lower_bound share:
    returns (waves1, waves2, lambda1, lambda2, mu_rows), each waves array
    holding W+ and W- of its side stacked on a new first axis.
    """
    mesh = forcing.mesh
    if abs(mesh.xi - xi) > 1e-14:
        raise ValueError("forcing mesh was built for a different actuator position")
    phi1, phi2 = assemble_phi(forcing, mu)
    mu_rows = _leading(mu, phi1.ndim - 1)
    phase = _phase(mu_rows[..., None] * mesh.nodes)
    # exp(-+i mu t) stacked, so one product and one cumulative Simpson call
    # give [J-, J+] of a side: from 0 on the left, from xi on the right
    # (shifted to 1 below)
    turns1, turns2 = mesh.split(np.stack((np.conj(phase), phase)))
    # each temporary goes at its last use: Phi once its products exist, the
    # products once their running integrals exist
    del phase
    products = turns1 * phi1
    del phi1
    run1 = cumulative_simpson(products, mesh.h_left)
    del products
    products = turns2 * phi2
    del phi2
    run2 = cumulative_simpson(products, mesh.h_right)
    del products
    end1, end2 = run1[..., -1], run2[..., -1]
    moments = (
        0.5 * (end1[1] + end1[0]), -0.5j * (end1[1] - end1[0]),
        0.5 * (end2[1] + end2[0]), -0.5j * (end2[1] - end2[0]),
    )
    lam1, lam2 = _interface_coefficients(xi, mu_rows, *moments, forcing.f1_at_xi)

    run1 += (lam1 * mu_rows)[..., None]
    # exp(-+i mu) lambda2 mu, less the end values that move the origin to 1
    shift = (lam2 * mu_rows) * _phase(np.stack((-mu_rows, mu_rows))) - end2
    run2 += shift[..., None]
    # W+- = exp(+-i mu t) times the shifted running integrals
    run1 *= turns1[::-1]
    run2 *= turns2[::-1]
    return run1, run2, lam1, lam2, mu_rows


def _side_fields(waves, f, mu=None):
    """(u, u', v) of one side from its waves W+-, with u' and v written over W+ and W-.

    u is None without mu: the norm reads u' and v alone.
    """
    w_plus, w_minus = waves
    twice_up = w_plus + w_minus
    np.subtract(w_plus, w_minus, out=w_minus)  # W+ - W- = 2 i mu u
    up = np.multiply(twice_up, 0.5, out=w_plus)
    u = None if mu is None else w_minus * (-0.5j / mu)
    v = w_minus
    v *= 0.5
    v += f
    return u, up, v


def solve_resolvent(xi: float, mu, forcing: ForcingData) -> ResolventSolution:
    """Solve the transformed interface problem at frequency mu in closed form.

    Uses the sine ansatz with Duhamel particular integrals, written through
    W+- = u' +- i*mu*u.  With J-+(t) the running integrals of
    exp(-+i mu s) Phi (cumulative Simpson, from 0 on the left side and from 1
    on the right), W+- = exp(+-i mu t) (lambda1 mu + J-+) on the left and
    exp(+-i mu t) (lambda2 mu exp(-+i mu) + J-+) on the right.  The end values
    of the running integrals give the four moments int cos(mu t) Phi and
    int sin(mu t) Phi that fix lambda1 and lambda2.  Raises
    ResonantDenominator where |D(mu)|^2 <= (eps mu)^2, its rounding.

    A stacked forcing is solved in one pass along the last axis.  mu may be
    a 1-D array aligned with the forcing's first axis, one frequency per
    slice; the solution then holds every slice, and ResonantDenominator is
    raised if any of them is resonant.  A forcing that ForcingData.validate
    refuses raises its ValueError.
    """
    forcing.validate()
    mesh = forcing.mesh
    waves1, waves2, lam1, lam2, mu_rows = _interface_waves(xi, mu, forcing)
    f1_xi = forcing.f1_at_xi
    mu_col = mu_rows[..., None]
    u1, up1, v1 = _side_fields(waves1, forcing.f1, mu_col)
    u2, up2, v2 = _side_fields(waves2, forcing.f2, mu_col)

    trace_u = u1[..., -1]
    scale = np.maximum(
        np.maximum(np.max(np.abs(u1), axis=-1), np.max(np.abs(u2), axis=-1)), 1e-300
    )
    continuity = np.max(np.abs(trace_u - u2[..., 0]) / scale)
    jump = np.max(
        np.abs(up2[..., 0] - up1[..., -1] - f1_xi - 1j * mu_rows * trace_u) / (mu_rows * scale)
    )
    trace_up_left, trace_up_right = up1[..., -1], up2[..., 0]
    if trace_u.ndim == 0:
        trace_u = complex(trace_u)
        trace_up_left, trace_up_right = complex(trace_up_left), complex(trace_up_right)

    return ResolventSolution(
        mesh=mesh,
        mu=np.asarray(mu, dtype=float) if np.ndim(mu) else float(mu),
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
    )


# ----------------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _weights(n: int, dx: float, pairs: bool) -> np.ndarray:
    """Read-only simpson_weights(n, dx), each one repeated for a (re, im) pair when pairs."""
    q = simpson_weights(n, dx)
    if pairs:
        q = np.repeat(q, 2)
    q.flags.writeable = False
    return q


def _abs2_integral(z, dx: float, in_place: bool = False) -> np.ndarray:
    """Simpson integral of |z|^2 along the last axis, z real or complex.

    Squares the float view of z, in which a complex sample is a (re, im) pair
    under one weight, weights it and sums each row.  A row is summed on its
    own, so it rounds the same alone and inside any stack (a matrix-vector
    product blocks across rows, and einsum's buffered loop splits a row past
    8192 floats differently in a stack).  in_place squares z's own buffer:
    for a temporary of the caller.
    """
    z = np.asarray(z, dtype=np.result_type(z, float))
    if z.strides[-1] != z.itemsize:
        z, in_place = np.ascontiguousarray(z), True
    x = z.view(float)
    x = np.multiply(x, x, out=x if in_place else None)
    x *= _weights(z.shape[-1], dx, x.shape[-1] != z.shape[-1])
    return x.sum(axis=-1)


def _root(total: np.ndarray) -> float | np.ndarray:
    return math.sqrt(abs(total)) if np.ndim(total) == 0 else np.sqrt(np.abs(total))


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
    ap1 = derivative(a1, mesh.h_left) if ap1 is None else ap1
    ap2 = derivative(a2, mesh.h_right) if ap2 is None else ap2
    return _root(
        _abs2_integral(ap1, mesh.h_left)
        + _abs2_integral(ap2, mesh.h_right)
        + _abs2_integral(b1, mesh.h_left)
        + _abs2_integral(b2, mesh.h_right)
    )


def _response_norm(xi: float, mu, forcing: ForcingData) -> np.ndarray:
    """state_norm of the (u, v) that solve_resolvent gives, without forming u.

    u' and v are written over the waves W+- of each side and integrated
    there, squared in place; no residual is formed.
    """
    mesh = forcing.mesh
    waves1, waves2, *_ = _interface_waves(xi, mu, forcing)
    _side_fields(waves1, forcing.f1)
    _side_fields(waves2, forcing.f2)
    slope1, speed1 = _abs2_integral(waves1, mesh.h_left, True)
    slope2, speed2 = _abs2_integral(waves2, mesh.h_right, True)
    return _root(slope1 + slope2 + speed1 + speed2)


# ----------------------------------------------------------------------------
# probes and growth scan
# ----------------------------------------------------------------------------

# bytes of complex probe samples solved as one block of frequencies by
# scan_resolvent_growth: three frequencies of the default scan (4 probes on
# 1026 nodes), so each stacked array of the solve stays under 0.2 MB.  Each
# frequency of a block holds ~0.53 MB at the block's peak (tracemalloc: 0.55,
# 1.08, 1.60 and 2.13 MB for blocks of 1 to 4 in the default scan).  Blocks
# of 4 were ~7% faster than 3 when measured, but lift the scan's peak past
# the allocator prime below, and its peak RSS with it; 2 were ~17% slower
_BLOCK_BYTES = 200 << 10

# A block's allocations peak at about eight times _BLOCK_BYTES (1.6 MB in the
# default scan), all freed before the next block.  glibc returns the top of
# its heap to the system once more than its trim threshold is free, and
# raises that threshold to twice the size of any mmapped block freed
# (mallopt(3), M_MMAP_THRESHOLD).  Unless whatever ran before the scan
# happened to free such a block, every block's temporaries would be faulted
# in afresh (~11,600 minor faults in a default resolvent-scan run against
# ~5,700).  So the scan allocates and drops one block of this size first;
# under another allocator that costs one allocation and nothing more
_ALLOCATOR_PRIME_BYTES = 8 * _BLOCK_BYTES

# band limit of the random probes
_PROBE_MODES = 8


@functools.lru_cache(maxsize=4)
def _probe_basis(xi: float, n_left: int, n_right: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (table, G) of the random probes on build_mesh(xi, n_left, n_right).

    With s_k = sin(k pi x), c_k = cos(k pi x), k = 1.._PROBE_MODES, at the nodes,
    the table's rows are [s, 0, 0], [0, c, s] and [k pi c, 0, 0] against the
    coefficient blocks (af, ag, bg): its product with a probe's coefficients c
    (_coefficients) gives the samples (f, g, f'), its first 2 * nodes rows f and
    g alone.  G is the Simpson Gram matrix of the f' and g rows, each side under
    its own weights, so sqrt(c^H G c) is state_norm of the samples to rounding.
    """
    mesh = build_mesh(xi, n_left, n_right)
    n, n_modes = mesh.nodes.size, _PROBE_MODES
    k = np.arange(1, n_modes + 1)
    theta = np.outer(np.pi * mesh.nodes, k)
    sin, cos = np.sin(theta), np.cos(theta)
    table = np.zeros((3 * n, 3 * n_modes))
    table[:n, :n_modes] = sin
    table[n : 2 * n, n_modes : 2 * n_modes] = cos
    table[n : 2 * n, 2 * n_modes :] = sin
    table[2 * n :, :n_modes] = cos * (k * np.pi)
    gram = np.zeros((3 * n_modes, 3 * n_modes))
    for side, dx in zip(mesh.split(np.arange(n)), (mesh.h_left, mesh.h_right)):
        weights = simpson_weights(side.size, dx)[:, None]
        for rows in (table[2 * n :], table[n : 2 * n]):
            gram += rows[side].T @ (weights * rows[side])
    table.flags.writeable = False
    gram.flags.writeable = False
    return table, gram


def _probe_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 6, _PROBE_MODES) scaled normal draws: real and imaginary parts of af, ag, bg."""
    return rng.standard_normal((count, 6, _PROBE_MODES)) / np.arange(1, _PROBE_MODES + 1)


def _coefficients(draws: np.ndarray) -> np.ndarray:
    """(..., 3 * _PROBE_MODES, 2) series coefficients of probes from their draws.

    The coefficient blocks (af, ag, bg) run down, (real, imag) across, as the
    probe table's columns take them.
    """
    lead = draws.shape[:-2]
    return draws.reshape(lead + (3, 2, _PROBE_MODES)).swapaxes(-1, -2).reshape(lead + (-1, 2))


def _fill_random(table: np.ndarray, coef: np.ndarray, out: np.ndarray) -> None:
    """Write random probes' samples into out (..., k * nodes): (f, g) at k = 2, (f, g, f') at 3."""
    # one real product with the table's first k * nodes rows gives (real, imag) pairs
    np.matmul(table[: out.shape[-1]], coef, out=out.view(float).reshape(out.shape + (2,)))


def _fill_resonant(mesh: Mesh, mu, out: np.ndarray) -> None:
    """Write the samples of near-resonant probes into out (..., k * nodes), in either layout.

    g = sin(mu x) at [nodes, 2 * nodes) and zeros elsewhere, with mu a float
    or an array of frequencies along out's leading axes.
    """
    n = mesh.nodes.size
    out[...] = 0.0
    out[..., n : 2 * n] = np.sin(np.multiply.outer(mu, mesh.nodes))


def _basis_norms(gram: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sqrt(c^H G c) of each probe's coefficients c, the (real, imag) pairs of coef."""
    return _root(np.sum(coef * (gram @ coef), axis=(-2, -1)))


def _split_series(mesh: Mesh, series: np.ndarray) -> ForcingData:
    """Probes from their samples (f, g) or (f, g, f') over all nodes, stacked on leading axes."""
    parts = np.split(series, series.shape[-1] // mesh.nodes.size, axis=-1)
    return ForcingData(mesh, *(side for part in parts for side in mesh.split(part)))


def random_forcing(mesh: Mesh, rng: np.random.Generator, count: int | None = None) -> ForcingData:
    """Band-limited random probe (_PROBE_MODES modes): global sine series for f, cosine+sine for g.

    count=k returns k probes stacked along a leading axis; row j equals the
    j-th of k successive single calls on the same generator.
    """
    draws = _probe_draws(rng, 1 if count is None else count)
    table, _ = _probe_basis(mesh.xi, mesh.n_left, mesh.n_right)
    series = np.empty((draws.shape[0], 3 * mesh.nodes.size), dtype=complex)
    _fill_random(table, _coefficients(draws), series)
    return _split_series(mesh, series[0] if count is None else series)


def resonant_forcing(mesh: Mesh, mu: float) -> ForcingData:
    """Near-resonant probe: f = 0, g the mode sin(mu x) restricted to each side."""
    series = np.empty(3 * mesh.nodes.size, dtype=complex)
    _fill_resonant(mesh, mu, series)
    return _split_series(mesh, series)


def resolvent_norm_lower_bound(xi: float, mu: float, probes: list[ForcingData]) -> float:
    """Max response-to-input norm ratio over the probe set.

    A lower bound for the resolvent norm on the imaginary axis at height mu;
    +inf where |D(mu)|^2 <= (eps mu)^2, its rounding (ResonantDenominator).
    The probes (single or stacked, on one mesh) are solved as one stack; a
    probe of zero input norm is skipped, and 0.0 is returned when every
    probe is zero (or there is none).  A probe that ForcingData.validate
    refuses raises its ValueError.
    """
    if not probes:
        return 0.0
    mesh = probes[0].mesh
    if any(p.mesh is not mesh and not np.array_equal(p.mesh.nodes, mesh.nodes) for p in probes):
        raise ValueError("probes must share one mesh")
    for p in probes:
        p.validate()

    def rows(arrays) -> np.ndarray:
        # (frequency, probe, grid) with one frequency; one stack is read in place
        arrays = [np.asarray(a, dtype=complex) for a in arrays]
        arrays = [a.reshape(1, -1, a.shape[-1]) for a in arrays]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=1)

    f1, f2 = rows(p.f1 for p in probes), rows(p.f2 for p in probes)
    g1, g2 = rows(p.g1 for p in probes), rows(p.g2 for p in probes)
    fp1 = rows(derivative(p.f1, mesh.h_left) if p.fp1 is None else p.fp1 for p in probes)
    fp2 = rows(derivative(p.f2, mesh.h_right) if p.fp2 is None else p.fp2 for p in probes)
    in_norm = state_norm(mesh, f1, f2, g1, g2, fp1, fp2)
    mu = np.array([mu], dtype=float)
    return float(_block_bounds(xi, mu, ForcingData(mesh, f1, f2, g1, g2), in_norm)[0])


def _block_bounds(
    xi: float, mu: np.ndarray, probes: ForcingData, in_norm: np.ndarray
) -> np.ndarray:
    """Each frequency's max response-to-input norm ratio over its probes.

    probes hold (frequency, probe, grid) arrays, mu the frequencies and
    in_norm the (frequency, probe) input norms; f' is not read.  A probe of
    zero input norm is skipped; a frequency gives 0.0 without a live probe,
    else +inf where it is resonant.
    """
    live = in_norm != 0.0
    resonant = _denominator(xi, mu)[2] <= (_EPS * mu) ** 2
    estimates = np.where(resonant & live.any(axis=1), math.inf, 0.0)
    solve = ~resonant & live.any(axis=1)
    if np.any(solve):
        if not np.all(solve):
            mu, in_norm, live = mu[solve], in_norm[solve], live[solve]
            rows = (probes.f1, probes.f2, probes.g1, probes.g2)
            probes = ForcingData(probes.mesh, *(a[solve] for a in rows))
        out_norm = _response_norm(xi, mu, probes)
        ratio = np.divide(out_norm, in_norm, out=np.zeros_like(out_norm), where=live)
        estimates[solve] = np.max(ratio, axis=1)
    return estimates


@dataclass
class ScanResult:
    mu: np.ndarray
    norm_estimate: np.ndarray
    growth_constant: float  # C in norm ~ C * exp(K mu)
    growth_rate: float      # K
    log_residual: float
    n_resonant: int


def _scan_blocks(xi, mesh, mu_grid, probes_per_mu, seed, block, basis, blocks: range):
    """The estimates at the frequencies of a run of blocks, a block at a time.

    basis is _probe_basis's for the mesh, or None with no random probe.
    """
    frequencies = range(blocks.start * block, min(blocks.stop * block, mu_grid.size))
    estimates = np.empty(len(frequencies))
    for first in frequencies[::block]:
        mus = mu_grid[first : first + block]
        # (frequency, probe, samples of f and g over all nodes), the
        # near-resonant probe first
        series = np.empty((mus.size, probes_per_mu, 2 * mesh.nodes.size), dtype=complex)
        _fill_resonant(mesh, mus, series[:, 0])
        in_norm = np.empty((mus.size, probes_per_mu))
        if probes_per_mu > 1:
            table, gram = basis
            draws = [
                _probe_draws(np.random.default_rng([seed, i]), probes_per_mu - 1)
                for i in range(first, first + mus.size)
            ]
            coef = _coefficients(np.stack(draws))
            _fill_random(table, coef, series[:, 1:])
            in_norm[:, 1:] = _basis_norms(gram, coef)
        probes = _split_series(mesh, series)
        # state_norm's sum, whose f' terms come first and are zero here
        in_norm[:, 0] = _root(
            _abs2_integral(probes.g1[:, 0], mesh.h_left)
            + _abs2_integral(probes.g2[:, 0], mesh.h_right)
        )
        start = first - frequencies.start
        estimates[start : start + mus.size] = _block_bounds(xi, mus, probes, in_norm)
    return estimates


def scan_resolvent_growth(
    xi: float,
    mu_grid,
    probes_per_mu: int = 4,
    seed: int = 0,
    cells_per_side: int = 512,
) -> ScanResult:
    """Estimate resolvent-norm growth along the imaginary axis.

    For each mu the probe set is the near-resonant mode plus a stack of
    probes_per_mu - 1 random band-limited forcings (seeded per grid index,
    so scans are reproducible), solved together.  A block of frequencies is
    solved in one call; each estimate equals resolvent_norm_lower_bound at
    its own mu, the near-resonant probe's ratio bit for bit.  The random
    probes' samples of f' are never formed: their input norms come from the
    Gram matrix of the probe basis (_probe_basis), which this process builds,
    with numpy.random, before processes.split runs the blocks in contiguous
    parts, every part but the first in a forked child that inherits both and
    sends its estimates back; every block computes as it would alone, so the
    estimates are the same bit for bit in any number of processes.  Fits
    log(norm) = log C + K*mu by least squares over the finite estimates in
    this process.  probes_per_mu below 1 is refused.
    """
    if probes_per_mu < 1:
        raise ValueError("probes_per_mu must be at least 1")
    mu_grid = np.asarray(mu_grid, dtype=float)
    mesh = build_mesh(xi, cells_per_side, cells_per_side)
    basis = None
    if probes_per_mu > 1:
        import numpy.random  # noqa: F401  (~20 ms of CPU, once here rather than in each part)

        basis = _probe_basis(mesh.xi, mesh.n_left, mesh.n_right)
    # a block of frequencies at a time, each with its own probes
    block = max(1, _BLOCK_BYTES // (16 * probes_per_mu * mesh.nodes.size))
    fill = functools.partial(_scan_blocks, xi, mesh, mu_grid, probes_per_mu, seed, block, basis)
    # dropped at once, before any fork, so a child inherits the allocator's
    # threshold too: see _ALLOCATOR_PRIME_BYTES
    np.empty(_ALLOCATOR_PRIME_BYTES // 8)
    estimates = np.concatenate(processes.split(-(-mu_grid.size // block), fill))
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
# argument-principle winding count, the independent check of the root count
# ----------------------------------------------------------------------------


class _BoundaryNearRoot(Exception):
    pass


def _rect_corners(rect) -> np.ndarray:
    re0, re1, im0, im1 = rect
    if not (re1 > re0 and im1 > im0):
        raise ValueError("degenerate rectangle")
    return np.array(
        [re0 + 1j * im0, re1 + 1j * im0, re1 + 1j * im1, re0 + 1j * im1], dtype=complex
    )


# first-pass samples per unit length, bisection passes, and nudges off a root
_WINDING_SAMPLES_PER_UNIT = 4.0
_WINDING_MAX_PASSES = 48
_WINDING_MAX_NUDGES = 8


def _winding_raw(xi: float, rect) -> int:
    """Winding number of the characteristic function around a rectangle.

    Samples the boundary, then bisects every segment whose phase step
    exceeds pi/2 until all steps are tame.  Raises _BoundaryNearRoot if a
    sample lands (numerically) on a root of the function.
    """
    corners = _rect_corners(rect)
    pts: list[complex] = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        n = max(4, int(abs(b - a) * _WINDING_SAMPLES_PER_UNIT))
        pts.extend(a + (b - a) * np.arange(n) / n)
    points = np.array(pts + [pts[0]], dtype=complex)
    values = characteristic_function(xi, points)

    scale = max(float(np.max(np.abs(values))), 1e-300)
    for _ in range(_WINDING_MAX_PASSES):
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


def winding_number(xi: float, rect) -> int:
    """Winding number with outward nudging when a root sits on the boundary."""
    re0, re1, im0, im1 = rect
    pad = 0.0
    step = 1e-9 * max(re1 - re0, im1 - im0)
    for _ in range(_WINDING_MAX_NUDGES):
        try:
            return _winding_raw(xi, (re0 - pad, re1 + pad, im0 - pad, im1 + pad))
        except _BoundaryNearRoot:
            pad = step if pad == 0.0 else pad * 37.0  # irregular growth avoids re-hits
    raise ContourThroughRoot(f"could not nudge contour off a root near {rect}")

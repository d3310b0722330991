"""Frequency-domain analysis of the point-damped string.

Solves the resolvent two-point problem on the imaginary axis in closed form
(sine ansatz plus Duhamel integrals) and estimates resolvent growth along
the axis.  The solve and the norm estimate share one computation up to
W+- = u' +- i*mu*u on each side: solve_resolvent forms u, u', v and the
interface residuals from it, while resolvent_norm_lower_bound integrates
|u'|^2 + |v|^2 straight from it, with no u and no residual.  The
characteristic roots live in pointdamp.characteristic, of which this module
re-exports the function, the root finder and its error; the
argument-principle winding count here is the independent check of their
count.

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
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

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
    resonant = den < DENOMINATOR_FLOOR
    if np.any(resonant):
        first = np.flatnonzero(resonant)[0]
        raise ResonantDenominator(float(mu.flat[first]), float(den.flat[first]), DENOMINATOR_FLOOR)
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
    ResonantDenominator within DENOMINATOR_FLOOR of an exact resonance.

    A stacked forcing is solved in one pass along the last axis.  mu may be
    a 1-D array aligned with the forcing's first axis, one frequency per
    slice; the solution then holds every slice, and ResonantDenominator is
    raised if any of them is resonant.
    """
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
# frequency of a block holds ~0.6 MB at the block's peak (tracemalloc: 0.61,
# 1.20, 1.79 and 2.38 MB for blocks of 1 to 4 in the default scan).  Blocks
# of 4 were ~7% faster than 3 when measured, but lift the scan's peak past
# the allocator prime below, and its peak RSS with it; 2 were ~17% slower
_BLOCK_BYTES = 200 << 10

# A block's allocations peak at about nine times _BLOCK_BYTES (1.8 MB in the
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

# fewest blocks of each half of a split scan.  As whole `resolvent-scan
# --xi golden` invocations on 2 vCPUs, split scans of 16 to 32 blocks tied
# with serial ones or lost in one series of 11 pairs, and 32 to 48 blocks
# won by 3-7 ms of median wall in another, each paying ~15-35 ms more CPU
# for the fork and the copy-on-write faults of both processes; 64 blocks won
# in both series (8 and 11 of 11 pairs)
_MIN_BLOCKS_PER_PROCESS = 32


@functools.lru_cache(maxsize=4)
def _series_table(nodes: bytes) -> np.ndarray:
    """Read-only block table that maps probe coefficients to (f, f', g).

    With s_k = sin(k pi x) and c_k = cos(k pi x), k = 1.._PROBE_MODES, at the
    given nodes, the rows are [s, 0, 0], [k pi c, 0, 0] and [0, c, s]
    against the coefficient blocks (af, ag, bg).  Keyed by the node values,
    so every probe of a scan shares one table.
    """
    x = np.frombuffer(nodes)
    n_modes = _PROBE_MODES
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


def _probe_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 6, _PROBE_MODES) scaled normal draws: real and imaginary parts of af, ag, bg."""
    return rng.standard_normal((count, 6, _PROBE_MODES)) / np.arange(1, _PROBE_MODES + 1)


def _fill_series(mesh: Mesh, draws: np.ndarray, out: np.ndarray) -> None:
    """Write the samples (f, f', g) of probes into out (..., 3 * nodes).

    draws (..., 6, _PROBE_MODES) are the probes' coefficients, as _probe_draws
    gives them; one product with the series table maps all of them.
    """
    lead = draws.shape[:-2]
    # (..., 3 * _PROBE_MODES, 2): coefficient blocks down, (real, imag) across
    coef = draws.reshape(lead + (3, 2, _PROBE_MODES)).swapaxes(-1, -2).reshape(lead + (-1, 2))
    # real matrix products give (real, imag) pairs, read as complex samples
    table = _series_table(mesh.nodes.tobytes())
    np.matmul(table, coef, out=out.view(float).reshape(out.shape + (2,)))


def _fill_resonant(mesh: Mesh, mu, out: np.ndarray) -> None:
    """Write the samples (f, f', g) of near-resonant probes into out (..., 3 * nodes).

    f = f' = 0 and g = sin(mu x), with mu a float or an array of frequencies
    along out's leading axes.
    """
    n = mesh.nodes.size
    out[..., : 2 * n] = 0.0
    out[..., 2 * n :] = np.sin(np.multiply.outer(mu, mesh.nodes))


def _split_series(mesh: Mesh, series: np.ndarray) -> ForcingData:
    """Probes from their samples (f, f', g) over all nodes, stacked on the leading axes."""
    f, fp, g = np.split(series, 3, axis=-1)
    f1, f2 = mesh.split(f)
    fp1, fp2 = mesh.split(fp)
    g1, g2 = mesh.split(g)
    return ForcingData(mesh=mesh, f1=f1, f2=f2, g1=g1, g2=g2, fp1=fp1, fp2=fp2)


def random_forcing(mesh: Mesh, rng: np.random.Generator, count: int | None = None) -> ForcingData:
    """Band-limited random probe (_PROBE_MODES modes): global sine series for f, cosine+sine for g.

    count=k returns k probes stacked along a leading axis; row j equals the
    j-th of k successive single calls on the same generator.
    """
    draws = _probe_draws(rng, 1 if count is None else count)
    series = np.empty((draws.shape[0], 3 * mesh.nodes.size), dtype=complex)
    _fill_series(mesh, draws, series)
    return _split_series(mesh, series[0] if count is None else series)


def resonant_forcing(mesh: Mesh, mu: float) -> ForcingData:
    """Near-resonant probe: f = 0, g the mode sin(mu x) restricted to each side."""
    series = np.empty(3 * mesh.nodes.size, dtype=complex)
    _fill_resonant(mesh, mu, series)
    return _split_series(mesh, series)


def resolvent_norm_lower_bound(xi: float, mu, probes: list[ForcingData]) -> float | np.ndarray:
    """Max response-to-input norm ratio over the probe set.

    A lower bound for the resolvent norm on the imaginary axis at height mu;
    +inf when the closed form sits within the denominator floor of an exact
    resonance.  The probes (single or stacked, on one mesh) are solved as one
    stack; a probe of zero input norm is skipped, and 0.0 is returned when
    every probe is zero (or there is none).

    mu may also be a 1-D array of frequencies aligned with the first axis of
    every probe's arrays; the result is then one estimate per frequency, each
    the value a float mu with that slice of the probes would give.
    """
    scalar = np.ndim(mu) == 0
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.ndim != 1:
        raise ValueError("mu must be a float or a 1-D array")
    if not probes:
        return 0.0 if scalar else np.zeros(mu.shape)
    mesh = probes[0].mesh
    if any(p.mesh is not mesh and not np.array_equal(p.mesh.nodes, mesh.nodes) for p in probes):
        raise ValueError("probes must share one mesh")

    def rows(arrays) -> np.ndarray:
        # (frequency, probe, grid); one stack is read in place
        arrays = [np.asarray(a, dtype=complex) for a in arrays]
        arrays = [a.reshape(mu.size, -1, a.shape[-1]) for a in arrays]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=1)

    f1, f2 = rows(p.f1 for p in probes), rows(p.f2 for p in probes)
    g1, g2 = rows(p.g1 for p in probes), rows(p.g2 for p in probes)
    fp1 = rows(derivative(p.f1, mesh.h_left) if p.fp1 is None else p.fp1 for p in probes)
    fp2 = rows(derivative(p.f2, mesh.h_right) if p.fp2 is None else p.fp2 for p in probes)
    in_norm = state_norm(mesh, f1, f2, g1, g2, fp1, fp2)
    live = in_norm != 0.0
    # a frequency without a live probe gives 0.0, a resonant one +inf
    resonant = _denominator(xi, mu)[2] < DENOMINATOR_FLOOR
    estimates = np.where(resonant & live.any(axis=1), math.inf, 0.0)
    solve = ~resonant & live.any(axis=1)
    if np.any(solve):
        if not np.all(solve):
            mu, f1, f2, g1, g2 = mu[solve], f1[solve], f2[solve], g1[solve], g2[solve]
            in_norm, live = in_norm[solve], live[solve]
        out_norm = _response_norm(xi, mu, ForcingData(mesh, f1, f2, g1, g2))
        ratio = np.divide(out_norm, in_norm, out=np.zeros_like(out_norm), where=live)
        estimates[solve] = np.max(ratio, axis=1)
    return float(estimates[0]) if scalar else estimates


@dataclass
class ScanResult:
    mu: np.ndarray
    norm_estimate: np.ndarray
    growth_constant: float  # C in norm ~ C * exp(K mu)
    growth_rate: float      # K
    log_residual: float
    n_resonant: int


def _scan_blocks(xi, mesh, mu_grid, probes_per_mu, seed, block, estimates, start, stop):
    """Fill estimates[start:stop] a block of frequencies at a time, start on a block boundary."""
    n, rows = mesh.nodes.size, max(probes_per_mu, 1)
    for first in range(start, stop, block):
        mus = mu_grid[first : min(first + block, stop)]
        # (frequency, probe, samples of f, f' and g over all nodes), the
        # near-resonant probe first
        series = np.empty((mus.size, rows, 3 * n), dtype=complex)
        _fill_resonant(mesh, mus, series[:, 0])
        if probes_per_mu > 1:
            draws = [
                _probe_draws(np.random.default_rng([seed, i]), probes_per_mu - 1)
                for i in range(first, first + mus.size)
            ]
            _fill_series(mesh, np.stack(draws), series[:, 1:])
        probes = [_split_series(mesh, series)]
        estimates[first : first + mus.size] = resolvent_norm_lower_bound(xi, mus, probes)


def _scan_forks(n_blocks: int) -> bool:
    """Whether a scan of n_blocks blocks forks a child for the second half of them.

    Not without os.sched_getaffinity (not Linux), on one usable CPU, below
    2 * _MIN_BLOCKS_PER_PROCESS blocks, while another Python thread runs
    (it may hold a lock the child needs, and Python 3.12 warns of such a
    fork), and inside a multiprocessing worker: a sweep's pool then has no
    more busy processes than workers.  Never more than one child: a split
    over more processes has not been measured.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return False
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return False
    return n_blocks >= 2 * _MIN_BLOCKS_PER_PROCESS and len(os.sched_getaffinity(0)) > 1


def _fill_split(fill, estimates: np.ndarray, middle: int) -> None:
    """fill(0, middle) here and fill(middle, estimates.size) in a forked child.

    The child sends its float64 values down a pipe and leaves through
    os._exit, so it never returns into the caller, runs no atexit hook and
    flushes no inherited stdio buffer.  The parent reads the pipe before it
    reaps the child, so the child never blocks on a full pipe, and raises if
    the child fails.  If the parent raises, or is interrupted, while the
    child runs, it kills and reaps it: no process outlives the call.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            fill(middle, estimates.size)
            with open(write, "wb") as pipe:
                pipe.write(estimates[middle:].tobytes())
            code = 0
        except BaseException as exc:
            os.write(2, f"resolvent scan process: {type(exc).__name__}: {exc}\n".encode())
        finally:
            os._exit(code)
    os.close(write)
    status = None
    try:
        with open(read, "rb") as pipe:
            fill(0, middle)
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or len(payload) != estimates[middle:].nbytes:
        raise RuntimeError(
            f"resolvent scan of grid points {middle} to {estimates.size - 1} failed in process"
            f" {pid}: exit status {code}, {len(payload)} of {estimates[middle:].nbytes} bytes"
        )
    estimates[middle:] = np.frombuffer(payload)


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
    its own mu.  On Linux with two usable CPUs or more, a long grid's
    second half of blocks runs in a child forked here (_scan_forks); every
    block computes as it would alone, so the estimates are the same bit for
    bit.  Fits log(norm) = log C + K*mu by least squares over the finite
    estimates in this process.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    mesh = build_mesh(xi, cells_per_side, cells_per_side)
    estimates = np.empty_like(mu_grid)
    # a block of frequencies at a time, each with its own probes
    block = max(1, _BLOCK_BYTES // (16 * max(probes_per_mu, 1) * mesh.nodes.size))
    fill = functools.partial(_scan_blocks, xi, mesh, mu_grid, probes_per_mu, seed, block, estimates)
    # dropped at once, before any fork, so a child inherits the allocator's
    # threshold too: see _ALLOCATOR_PRIME_BYTES
    np.empty(_ALLOCATOR_PRIME_BYTES // 8)
    n_blocks = -(-mu_grid.size // block)
    if _scan_forks(n_blocks):
        _fill_split(fill, estimates, n_blocks // 2 * block)
    else:
        fill(0, mu_grid.size)
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

"""Time-domain simulation of the damped string.

Semi-discretization is piecewise-linear finite elements on the two-sided
mesh, with lumped (trapezoid) mass.  Pointwise damping acts through the
nodal value of the velocity at the interface node, so the semi-discrete
energy balance is exact:

    M v' = -S u - e_m (e_m . v),     dE/dt = -(v_m)^2,

with E = (v^T M v + u^T S u) / 2.  Time stepping is the implicit midpoint
rule, which inherits that balance exactly per step:

    E(t+dt) - E(t) = -dt * (midpoint velocity at the interface)^2,

so the recorded damping power integrates to the energy drop up to roundoff,
independent of dt.

The step is solved exactly in another basis rather than by a linear solve.
On each side's interior the lumped mass is h I and the stiffness is
tridiag(-1, 2, -1) / h, both diagonal in the orthonormal sine (DST-I) basis,
with eigenvalues lambda_k = (4/h) sin^2(k pi / 2n).  The two sides meet only
at the interface node, whose midpoint velocity comes from a scalar Schur
complement; each sine mode then advances by the Cayley rotation
rho_k = (1 + i kappa_k) / (1 - i kappa_k), kappa_k = (dt/2) sqrt(lambda_k / h),
plus dt times the midpoint interface displacement along a fixed vector.

Steps are marched in blocks of up to 64, fewer where the table of rotation
powers rho^j, one complex row per step, would pass 1 MiB, so that it stays
in a core's L2 cache.  Within a block the interface velocities solve one
lower-triangular Toeplitz system, the same for every block.  From its
inverse, built once per run, one map gives all a block yields besides its
modes (the velocities, the interface displacement and momentum after each
step, and the kicks) from its midpoint sums and starting interface state.
A block then costs two products with the power table, for the midpoint sums
of its starting modes and for the carry of the modes to its end, and one
small product with the map.  Energy samples inside a block are chained from
a copy of its starting modes, so the final state does not depend on where
they fall.  States enter and leave the sine basis only at the start and the
end, through a real FFT of the odd extension, and energy samples are read
from the modal coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import Mesh

# steps are marched in blocks of at most _BLOCK_STEPS, fewer when the block's
# table of rotation powers, one complex row per step, would pass _TABLE_BYTES
_BLOCK_STEPS = 64
_TABLE_BYTES = 1 << 20

__all__ = [
    "WaveState",
    "EnergyTrace",
    "initial_data",
    "energy",
    "simulate",
    "dissipation_residual",
]


@dataclass
class WaveState:
    """Displacement and velocity sampled at every mesh node."""

    mesh: Mesh
    t: float
    u: np.ndarray
    v: np.ndarray

    def copy(self) -> "WaveState":
        return WaveState(self.mesh, self.t, self.u.copy(), self.v.copy())


def initial_data(
    mesh: Mesh,
    kind: str = "fourier_mode",
    *,
    mode: int = 1,
    center: Optional[float] = None,
    width: float = 0.1,
    displacement: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    velocity: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> WaveState:
    """Build a starting state on the mesh.

    kind 'fourier_mode': u = sin(mode * pi * x), at rest.
    kind 'smooth_bump':  compactly supported C^2 bump (1 - s^2)^3 around
                         center (defaults to the interface) with half-width
                         width, at rest.
    kind 'custom':       displacement/velocity callables sampled on nodes.
    """
    x = mesh.nodes
    u = np.zeros_like(x)
    v = np.zeros_like(x)
    if kind == "fourier_mode":
        if mode < 1:
            raise ValueError("mode must be a positive integer")
        u = np.sin(mode * np.pi * x)
    elif kind == "smooth_bump":
        c = mesh.xi if center is None else float(center)
        s = (x - c) / float(width)
        u = np.where(np.abs(s) < 1.0, (1.0 - s**2) ** 3, 0.0)
    elif kind == "custom":
        if displacement is not None:
            u = np.asarray(displacement(x), dtype=float).copy()
        if velocity is not None:
            v = np.asarray(velocity(x), dtype=float).copy()
    else:
        raise ValueError(f"unknown initial data kind: {kind!r}")
    u[0] = u[-1] = 0.0
    v[0] = v[-1] = 0.0
    return WaveState(mesh=mesh, t=0.0, u=u, v=v)


def energy(state: WaveState) -> float:
    """Trapezoid kinetic energy plus piecewise-linear potential energy.

    Each node's trapezoid (lumped) mass and each cell's 1/h are formed here,
    since simulate calls this once.
    """
    # weighted sums in place; np.dot would be a little faster, but its first
    # BLAS call adds resident memory
    h = np.diff(state.mesh.nodes)
    kinetic = state.v * state.v
    kinetic *= 0.5 * (np.append(h, 0.0) + np.append(0.0, h))
    potential = np.diff(state.u)
    potential *= potential
    potential *= 1.0 / h
    return 0.5 * float(kinetic.sum() + potential.sum())


@dataclass
class EnergyTrace:
    """Sampled energies plus the per-step damping power record.

    damping_power[k] is the squared interface velocity at the midpoint of
    step k, time t0 + (k + 1/2) dt, so its midpoint-rule integral matches the
    energy drop exactly.  sample_steps maps each energy sample to the number
    of completed steps, aligning the two records.
    """

    dt: float
    times: np.ndarray
    energies: np.ndarray
    damping_power: np.ndarray
    sample_steps: np.ndarray

    def dissipated_at_samples(self) -> np.ndarray:
        """Dissipated energy up to each energy sample, by the midpoint rule."""
        # concatenate(([0.0], cumsum(power))) * dt, bit for bit, in one array
        cumulative = np.zeros(self.damping_power.size + 1)
        np.cumsum(self.damping_power, out=cumulative[1:])
        cumulative *= self.dt
        return cumulative[self.sample_steps]


def _side_modes(n: int, h: float, left: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, g, h) of the n - 1 sine modes of a side with n cells of width h.

    Mode k has frequency omega_k = (2/h) sin(k pi / 2n); g_k is its
    orthonormal basis vector at the node next to the interface, divided by h.
    """
    k = np.arange(1, n)
    omega = 2.0 / h * np.sin(0.5 * np.pi / n * k)
    coupling = math.sqrt(2.0 / n) / h * np.sin(np.pi / n * k)
    if left:
        coupling[1::2] *= -1.0  # sin((n - 1) k pi / n) = (-1)^(k+1) sin(k pi / n)
    return omega, coupling, np.full(n - 1, h)


def _sine_transform(values: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of interior node values, which is its own inverse.

    For the n - 1 values of a side with n cells, returns
    sqrt(2/n) sum_j values_j sin(j k pi / n) for k = 1..n-1, from one real
    FFT of the odd extension.
    """
    n = values.size + 1
    odd = np.zeros(2 * n)
    odd[1:n] = values
    odd[n + 1:] = -values[::-1]
    return np.fft.rfft(odd)[1:n].imag * -math.sqrt(0.5 / n)


def _to_modes(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Sine coordinates of a grid function's interior values, left side first."""
    i = mesh.i_xi
    return np.concatenate([_sine_transform(values[1:i]), _sine_transform(values[i + 1 : -1])])


def _from_modes(mesh: Mesh, modal: np.ndarray, out: np.ndarray) -> None:
    """Write the interior values of modal coordinates, left side first, into out."""
    i = mesh.i_xi
    out[1:i] = _sine_transform(modal[: i - 1])
    out[i + 1 : -1] = _sine_transform(modal[i - 1 :])


def simulate(
    state: WaveState,
    t_final: float,
    dt: Optional[float] = None,
    damped: bool = True,
    sample_every: int = 1,
) -> tuple[WaveState, EnergyTrace]:
    """March the state to t_final with the implicit midpoint rule.

    Returns the final state and the energy/damping trace.  The requested dt
    is shrunk minutely so a whole number of uniform steps lands exactly on
    t_final; the dt actually used is reported on the trace.  The string is
    clamped at both ends: boundary values are held at zero.

    sample_every chooses where energy is sampled and nothing else: the
    modes are carried from block end to block end whatever the samples, so
    the final state and the damping record match bit for bit at every
    sample_every.
    """
    mesh = state.mesh
    if dt is None:
        dt = float(min(mesh.h_left, mesh.h_right)) / 2.0
    if dt <= 0:
        raise ValueError("dt must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    span = t_final - state.t
    if span < 0:
        raise ValueError("t_final must not precede the current time")
    if span == 0:
        trace = EnergyTrace(
            dt=dt,
            times=np.array([state.t]),
            energies=np.array([energy(state)]),
            damping_power=np.empty(0),
            sample_steps=np.array([0]),
        )
        return state.copy(), trace
    n_steps = max(1, int(math.ceil(span / dt - 1e-9)))
    # keep steps uniform: adjust dt minutely so n_steps * dt = span
    dt = span / n_steps

    # Sine modes of both sides, left first.  Mode k has displacement a_k and
    # velocity b_k, and carries zeta_k = (b_k + i omega_k a_k) / forcing_k,
    # in which one step is the rotation zeta -> rho zeta + dt ubar, where ubar
    # is the interface displacement at the step's midpoint.
    omega, coupling, spacing = (
        np.concatenate(parts)
        for parts in zip(
            _side_modes(mesh.n_left, mesh.h_left, left=True),
            _side_modes(mesh.n_right, mesh.h_right, left=False),
        )
    )
    kappa = 0.5 * dt * omega
    tau = 1.0 - 1j * kappa
    rho = (1.0 - kappa**2 + 2j * kappa) / (1.0 + kappa**2)
    forcing = coupling / spacing / tau
    # sum_k g_k a_k is Im(now_row . zeta); at a step's midpoint, before the
    # step's own forcing, it is Im(mid_row . zeta)
    now_row = coupling * forcing / omega
    mid_row = now_row / tau
    # on the float pairs of zeta, kinetic plus potential energy of the modes is
    # the squared norm of the pairs times mode_scale, and Im(now_row . zeta)
    # is their dot product with now_pairs, the float pairs of i conj(now_row)
    mode_scale = np.repeat(np.sqrt(0.5 * spacing) * np.abs(forcing), 2)
    now_pairs = (1j * np.conj(now_row)).view(np.float64)

    # Interface node: mass m and stiffness sigma to its two neighbours.  Its
    # midpoint velocity y adds gamma * ubar to the midpoint sum_k g_k a_k, so
    # with momentum p = 2 m v and q = Im(mid_row . zeta), y solves the scalar
    # (2m + dt [damped] + dt^2/2 (sigma - gamma)) y = p + dt q - dt (sigma - gamma) u.
    i = mesh.i_xi
    mass = 0.5 * (mesh.h_left + mesh.h_right)
    sigma = 1.0 / mesh.h_left + 1.0 / mesh.h_right
    gamma = 0.25 * dt**2 * float(np.sum(coupling**2 / spacing / (1.0 + kappa**2)))
    stiffness = dt * (sigma - gamma)
    denominator = 2.0 * mass + (dt if damped else 0.0) + 0.5 * dt * stiffness
    half_dt = 0.5 * dt
    mass4 = 4.0 * mass

    zeta = (_to_modes(mesh, state.v) + 1j * omega * _to_modes(mesh, state.u)) / forcing
    zeta_pairs = zeta.view(np.float64)
    t0 = state.t

    # Steps are marched in blocks of L.  Over a block that starts from
    # (zeta, u, p), step k's midpoint sum is q_k = F_k + sum_{i<k} c_{k-1-i} w_i,
    # with F_k = Im(mid_row . rho^k zeta), c_j = Im(mid_row . rho^j) and
    # w_i = dt (u_i + dt y_i / 2) the kick of step i.  Written in the
    # velocities y, the scalar equations of the block's steps are one lower
    # triangular Toeplitz system, the same for every block:
    #   T y = (-1)^k p + (dt^2 C_k - stiffness) u + dt F_k,  C_k = c_0 + ... + c_{k-1},
    # with T's first column the denominator, then, for j >= 1,
    #   4m (-1)^j + dt stiffness - dt^3 (C_{j-1} + c_{j-1} / 2).
    L = max(1, min(_BLOCK_STEPS, n_steps, _TABLE_BYTES // (16 * max(1, omega.size))))
    powers = np.empty((L + 1, omega.size), dtype=complex)  # rho^j, j = 0..L
    powers[0] = 1.0
    for j in range(L):
        np.multiply(powers[j], rho, out=powers[j + 1])
    c = (powers[:L] @ mid_row).imag
    C = np.concatenate(([0.0], np.cumsum(c)))
    alternating = np.where(np.arange(L) % 2, -1.0, 1.0)
    column = np.empty(L)  # T's first column
    column[0] = denominator
    column[1:] = mass4 * alternating[1:] + dt * stiffness - dt**3 * (C[: L - 1] + 0.5 * c[: L - 1])
    first = np.empty(L)  # the inverse's first column, by forward substitution
    first[0] = 1.0 / denominator
    for k in range(1, L):
        first[k] = -np.dot(column[1 : k + 1], first[k - 1 :: -1]) / denominator
    lag = np.subtract.outer(np.arange(L), np.arange(L))
    inverse = np.where(lag >= 0, first[np.maximum(lag, 0)], 0.0)
    u_rhs = dt**2 * C[:L] - stiffness

    # Everything a block yields but its modes is linear in its inputs
    # x = (F_0, ..., F_{L-1}, u, p), so one (4L + 2) x (L + 2) map, built once,
    # gives its velocities y_k, u and p after k = 0..L steps, from
    # u_{k+1} = u_k + dt y_k and (-1)^(k+1) p_{k+1} = (-1)^k p_k - (-1)^k 4m y_k,
    # and its kicks dt (u_k + dt y_k / 2), last first.  The map is lower
    # triangular in the F_k, so a short last block, its missing F_k set to
    # zero, reads the first rows of each kind.
    block_map = np.zeros((4 * L + 2, L + 2))
    y_rows, u_rows, p_rows, kick_rows = np.split(block_map, [L, 2 * L + 1, 3 * L + 2])
    y_rows[:, :L] = dt * inverse
    y_rows[:, L] = inverse @ u_rhs
    y_rows[:, L + 1] = inverse @ alternating
    np.cumsum(dt * y_rows, axis=0, out=u_rows[1:])
    u_rows[:, L] += 1.0
    np.cumsum(-mass4 * alternating[:, None] * y_rows, axis=0, out=p_rows[1:])
    p_rows[:, L + 1] += 1.0
    p_rows[1::2] *= -1.0
    kick_rows[::-1] = dt * (u_rows[:L] + half_dt * y_rows)
    inputs = np.zeros(L + 2)
    inputs[L], inputs[L + 1] = state.u[i], 2.0 * mass * state.v[i]  # u and p = 2 m v
    outputs = np.empty(4 * L + 2)
    y_at, u_at, p_at, kicks = np.split(outputs, [L, 2 * L + 1, 3 * L + 2])
    power_pairs = powers.view(np.float64)  # real kicks @ power_pairs: pairs of sum_j kick_j rho^j
    scaled = np.empty(2 * omega.size)

    def sample(pairs: np.ndarray, stop: int) -> float:
        """The energy after `stop` of the block's steps, from the float pairs of its modes."""
        u_s, p_s = u_at.item(stop), p_at.item(stop)
        q_now = float(np.dot(now_pairs, pairs))
        np.multiply(pairs, mode_scale, out=scaled)
        kinetic = p_s * p_s / (2.0 * mass4)
        return float(np.dot(scaled, scaled)) + kinetic + (0.5 * sigma * u_s - q_now) * u_s

    energies = [energy(state)]
    sample_steps = [0]
    interface_velocity = np.empty(n_steps)

    for k0 in range(0, n_steps, L):
        steps = min(L, n_steps - k0)
        inputs[:steps] = (powers[:steps] @ (mid_row * zeta)).imag
        inputs[steps:L] = 0.0
        np.matmul(block_map, inputs, out=outputs)
        interface_velocity[k0 : k0 + steps] = y_at[:steps]
        # Energy samples fall every sample_every steps and after the run's
        # last.  Those inside the block chain stop to stop from a copy of its
        # starting modes, so that where they fall never moves the carry.
        inside = range(sample_every - k0 % sample_every, steps, sample_every)
        if inside:
            modes = zeta.copy()
            modes_pairs = modes.view(np.float64)
            at = 0
            for stop in inside:
                modes *= powers[stop - at]
                if stop - at == 1:
                    modes += kicks.item(L - 1 - at)  # one step's kick is a scalar
                else:
                    modes_pairs += kicks[L - stop : L - at] @ power_pairs[: stop - at]
                at = stop
                energies.append(sample(modes_pairs, stop))
                sample_steps.append(k0 + stop)
        # the carry to the block's end: zeta -> rho^steps zeta + sum_k kick_k rho^(steps-1-k)
        zeta *= powers[steps]
        zeta_pairs += kicks[L - steps :] @ power_pairs[:steps]
        if (k0 + steps) % sample_every == 0 or k0 + steps == n_steps:
            energies.append(sample(zeta_pairs, steps))
            sample_steps.append(k0 + steps)
        inputs[L], inputs[L + 1] = u_at[steps], p_at[steps]
    if damped:  # squared in place: the velocities are not kept
        damping_power = np.square(interface_velocity, out=interface_velocity)
    else:
        damping_power = np.zeros(n_steps)

    z = zeta * forcing
    u = np.zeros_like(state.u)
    v = np.zeros_like(state.v)
    _from_modes(mesh, z.imag / omega, u)
    _from_modes(mesh, z.real, v)
    u[i] = inputs[L]
    v[i] = inputs[L + 1] / (2.0 * mass)

    final = WaveState(mesh, t0 + n_steps * dt, u, v)
    sample_steps = np.asarray(sample_steps)
    trace = EnergyTrace(
        dt=dt,
        times=t0 + sample_steps * dt,
        energies=np.asarray(energies),
        damping_power=damping_power,
        sample_steps=sample_steps,
    )
    return final, trace


def dissipation_residual(
    trace: EnergyTrace, t1: Optional[float] = None, t2: Optional[float] = None
) -> float:
    """Violation of E(t1) - E(t2) = dissipated energy on [t1, t2].

    Times snap to the nearest recorded sample.  With no window given, the
    worst violation of E(t) - E(0) + dissipated(t) = 0 over all samples is
    returned.  The damping record is integrated by the midpoint rule, which
    is the quadrature the stepping scheme satisfies exactly, so the residual
    measures only accumulated roundoff.
    """
    dissipated = trace.dissipated_at_samples()
    if t1 is None and t2 is None:
        return float(np.max(np.abs(trace.energies - trace.energies[0] + dissipated)))
    i1 = 0 if t1 is None else int(np.argmin(np.abs(trace.times - t1)))
    i2 = trace.times.size - 1 if t2 is None else int(np.argmin(np.abs(trace.times - t2)))
    if i1 > i2:
        i1, i2 = i2, i1
    drop = trace.energies[i1] - trace.energies[i2]
    return float(abs(drop - (dissipated[i2] - dissipated[i1])))

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
independent of dt.  Each step costs one symmetric tridiagonal solve with a
factorization computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import Mesh, build_mesh

__all__ = [
    "WaveState",
    "EnergyTrace",
    "initial_data",
    "energy",
    "step",
    "simulate",
    "dissipation_residual",
    "default_mesh",
]


def default_mesh(xi: float, cells_per_side: int = 1000) -> Mesh:
    return build_mesh(xi, cells_per_side, cells_per_side)


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
    """Trapezoid kinetic energy plus piecewise-linear potential energy."""
    # weighted sums against the lumped nodal mass and 1/h, in place; np.dot
    # would be a little faster, but its first BLAS call adds resident memory
    mesh = state.mesh
    kinetic = state.v * state.v
    kinetic *= mesh.lumped_mass
    potential = np.diff(state.u)
    potential *= potential
    potential *= mesh.inverse_spacing
    return 0.5 * float(kinetic.sum() + potential.sum())


@dataclass
class EnergyTrace:
    """Sampled energies plus the per-step damping power record.

    damping_times sit at step midpoints; damping_power is the squared
    midpoint interface velocity, so its midpoint-rule integral matches the
    energy drop exactly.  sample_steps maps each energy sample to the number
    of completed steps, aligning the two records.
    """

    dt: float
    times: np.ndarray
    energies: np.ndarray
    damping_times: np.ndarray
    damping_power: np.ndarray
    sample_steps: np.ndarray

    def dissipated_energy(self, upto_step: Optional[int] = None) -> float:
        power = self.damping_power if upto_step is None else self.damping_power[:upto_step]
        return float(self.dt * np.sum(power))

    def dissipated_at_samples(self) -> np.ndarray:
        """Dissipated energy up to each energy sample, by the midpoint rule."""
        cumulative = np.concatenate(([0.0], np.cumsum(self.damping_power))) * self.dt
        return cumulative[self.sample_steps]


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
            damping_times=np.empty(0),
            damping_power=np.empty(0),
            sample_steps=np.array([0]),
        )
        return state.copy(), trace
    n_steps = int(math.ceil(span / dt - 1e-9))
    # keep steps uniform: adjust dt minutely so n_steps * dt = span
    dt = span / n_steps

    # scipy.linalg costs a noticeable import; only the time stepper needs it
    from scipy.linalg.blas import daxpy
    from scipy.linalg.lapack import dpttrf, dpttrs

    inv_h = mesh.inverse_spacing
    mass = mesh.lumped_mass[1:-1]
    main = inv_h[:-1] + inv_h[1:]
    upper = -inv_h[1:-1]
    m = mesh.i_xi - 1  # interface node in interior numbering

    # step matrix 2M + dt^2/2 S (+ dt e_m e_m^T), factored once as L D L^T
    diag = 2.0 * mass + 0.5 * dt**2 * main
    if damped:
        diag[m] += dt
    d_factor, e_factor, info = dpttrf(diag, 0.5 * dt**2 * upper)
    if info != 0:
        raise np.linalg.LinAlgError(f"step matrix is not positive definite (dpttrf info={info})")

    # The loop carries u on every node (boundary entries held at 0) and the
    # momentum p = 2 M v on the interior.  The right-hand side 2 M v - dt S u
    # is p + diff(slope), slope = (dt/h) diff(u) per cell, rebuilt from u on
    # every step; the midpoint velocity y then gives u += dt y and
    # p = 4 M y - p.  v = p / (2M) is recovered only where it is read.
    mass2 = 2.0 * mass
    mass4 = 4.0 * mass
    dt_over_h = dt * inv_h
    u = state.u.copy()
    u[0] = u[-1] = 0.0
    u_in = u[1:-1]
    p = mass2 * state.v[1:-1]
    v = np.zeros_like(u)
    v_in = v[1:-1]
    slope = np.empty(inv_h.size)
    rhs = np.empty(u_in.size)
    work = np.empty(u_in.size)
    t0 = state.t

    times = [t0]
    energies = [energy(state)]
    sample_steps = [0]
    damping_times = t0 + (np.arange(n_steps) + 0.5) * dt
    interface_velocity = np.zeros(n_steps)

    for k in range(n_steps):
        np.subtract(u[1:], u[:-1], out=slope)
        np.multiply(slope, dt_over_h, out=slope)
        np.subtract(slope[1:], slope[:-1], out=rhs)
        np.add(rhs, p, out=rhs)
        # midpoint velocity, solved in place in rhs
        y, info = dpttrs(d_factor, e_factor, rhs, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal solve failed (dpttrs info={info})")
        daxpy(y, u_in, a=dt)
        np.multiply(mass4, y, out=work)
        np.subtract(work, p, out=p)
        if damped:
            interface_velocity[k] = y[m]
        if (k + 1) % sample_every == 0 or k + 1 == n_steps:
            np.divide(p, mass2, out=v_in)
            snap = WaveState(mesh, t0 + (k + 1) * dt, u, v)
            times.append(snap.t)
            energies.append(energy(snap))
            sample_steps.append(k + 1)
    damping_power = interface_velocity**2

    final = WaveState(mesh, t0 + n_steps * dt, u, v)
    trace = EnergyTrace(
        dt=dt,
        times=np.asarray(times),
        energies=np.asarray(energies),
        damping_times=damping_times,
        damping_power=damping_power,
        sample_steps=np.asarray(sample_steps),
    )
    return final, trace


def step(state: WaveState, dt: float, damped: bool = True) -> WaveState:
    """Advance the state by a single implicit midpoint step."""
    new_state, _ = simulate(state, state.t + dt, dt=dt, damped=damped)
    return new_state


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
